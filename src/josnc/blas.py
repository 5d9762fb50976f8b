"""One BLAS thread for the whole engine.

Every training step is a chain of small GEMMs: the batch forwards and the
batch-by-queue KNN similarity in float64, the InfoNCE forward and backward
in float32. At
that size a second OpenBLAS thread spins without saving time. Worse, for
some of these shapes (the InfoNCE backward of a short last batch against a
4,000-key pool) threaded OpenBLAS sums in a different order, so the thread
count changes the last bits of a gradient and `metrics.csv` would depend on
the machine's core count.

Importing `josnc` pins numpy's bundled OpenBLAS to one thread through that
library's own setter, which takes effect even when numpy was imported (and
its thread pool started) first, and reads the count back through the getter.
There is no fallback: a numpy build without these symbols, or a pin that
does not read back as 1, raises BlasThreadError.
"""

from __future__ import annotations

import ctypes

from numpy._core import _multiarray_umath


class BlasThreadError(RuntimeError):
    pass


# dlsym on numpy's core extension also searches the OpenBLAS it links
_LIB = ctypes.CDLL(_multiarray_umath.__file__)
try:
    _SET = _LIB.scipy_openblas_set_num_threads64_
    _GET = _LIB.scipy_openblas_get_num_threads64_
except AttributeError as exc:
    raise BlasThreadError(
        "numpy's BLAS is not its bundled scipy-openblas64; cannot pin threads"
    ) from exc
_SET.argtypes, _SET.restype = [ctypes.c_int], None
_GET.argtypes, _GET.restype = [], ctypes.c_int


def thread_count() -> int:
    """Threads OpenBLAS will use for its next call."""
    return int(_GET())


def pin_one_thread() -> None:
    _SET(1)
    n = thread_count()
    if n != 1:
        raise BlasThreadError(f"OpenBLAS reports {n} threads after pinning to 1")
