"""Order statistics and step-interval rules used by the benchmark report."""

from __future__ import annotations

from fractions import Fraction

# percentiles considered for a timing's tail, lowest first
TAIL_LADDER = ("90", "99", "99.9", "99.99")


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) of a non-empty sequence, linear interpolation."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sequence")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int, min_beyond: int = 10):
    """Highest ladder percentile with at least min_beyond of n samples above it.

    Returns the percentile as a string ("90", "99", ...), or None when even
    p90 would rest on fewer than min_beyond samples. Exact arithmetic, so
    n=100 qualifies p90 and n=999 does not qualify p99.
    """
    best = None
    for q in TAIL_LADDER:
        if n * (100 - Fraction(q)) / 100 >= min_beyond:
            best = q
    return best


def step_intervals(hooks, warmup_epochs: int) -> list:
    """(previous hook, hook) pairs that bound a measurable post-warmup step.

    hooks is the ordered list of step-hook records of one fit, each a tuple
    starting with (epoch, time). A step is the interval between two
    consecutive hook calls of the same epoch; the first step of each epoch is
    excluded because its interval also holds the previous epoch's evaluation
    and threshold roll.
    """
    return [(h0, h1) for h0, h1 in zip(hooks, hooks[1:])
            if h0[0] == h1[0] and h1[0] > warmup_epochs]
