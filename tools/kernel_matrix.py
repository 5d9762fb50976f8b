"""Run Tier-1 and the output digests under each OpenBLAS kernel family.

OpenBLAS picks its kernels by CPU when it loads, and OPENBLAS_CORETYPE
forces a family instead. Two families can sum a product in different
orders, so a bit-equality test or a digest can hold under one family and
not another. For each family in FAMILIES that this CPU can run, this tool
runs, each in a subprocess with OPENBLAS_CORETYPE set to the family:

- Tier-1, `python -m pytest -q -rf` from the repository root;
- tools/output_digest.py at --seed and --epochs.

It prints, per family, the kernel family the digest run reported, the
Tier-1 summary line, each failing test's node id and each method's digest.
A family whose CPU flags are missing from /proc/cpuinfo is skipped, since
its kernels can kill the process with SIGILL; off x86-64 every family is
skipped. One family's Tier-1 takes about a minute and a half on 2 vCPUs.

    python3 tools/kernel_matrix.py --seed 7 --epochs 60
"""

import argparse
import os
import platform
import re
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

# OpenBLAS family -> the CPU flags its double-precision kernels execute
FAMILIES = {
    "SkylakeX": {"avx512f", "avx512dq", "avx512bw", "avx512vl"},
    "Haswell": {"avx2", "fma"},
    "Sandybridge": {"avx"},
}


def cpu_flags() -> set:
    """The flags of the first processor in /proc/cpuinfo; empty off x86-64
    or where the file cannot be read."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def runnable() -> list:
    """The families whose CPU flags this CPU has, in FAMILIES order."""
    flags = cpu_flags()
    return [name for name, needs in FAMILIES.items() if needs <= flags]


def _run(command: list, family: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "OPENBLAS_CORETYPE": family,
           "PYTHONPATH": os.path.join(ROOT, "src")}
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True)


def family_report(family: str, seed: int, epochs: int) -> list:
    """The report lines of one family."""
    tests = _run([sys.executable, "-m", "pytest", "-q", "-rf",
                  "-p", "no:cacheprovider", "--continue-on-collection-errors"],
                 family)
    digests = _run([sys.executable, os.path.join(ROOT, "tools",
                                                 "output_digest.py"),
                    "--seed", str(seed), "--epochs", str(epochs)], family)
    lines = tests.stdout.strip().splitlines()
    summary = lines[-1] if lines else f"no output, exit {tests.returncode}"
    failed = [m.group(1) for m in re.finditer(r"^FAILED (\S+)", tests.stdout,
                                              re.MULTILINE)]
    out = [f"== {family}", f"tier1: {summary}"]
    out += [f"failed: {node}" for node in failed]
    if digests.returncode:
        out.append(f"digests: exit {digests.returncode}: "
                   f"{digests.stderr.strip()[-500:]}")
    out += [f"digest {line}" for line in digests.stdout.strip().splitlines()]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=60)
    args = parser.parse_args(argv)
    families = runnable()
    for name in FAMILIES:
        if name not in families:
            print(f"== {name}\nskipped: this CPU lacks "
                  f"{sorted(FAMILIES[name] - cpu_flags())}", flush=True)
    for name in families:
        print("\n".join(family_report(name, args.seed, args.epochs)),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
