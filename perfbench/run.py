"""Benchmark entry point for implicitrk.

    python3 perfbench/run.py --workload heat-radau4-ia --seed 0 --seconds 30 --trace 0

Pins the process environment, imports the library from ``src/`` of the
same checkout and hands over to ``harness.main``.  The last line of
standard output is the JSON result; the exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # fixed glibc thresholds, so that allocation costs and peak RSS do not
    # depend on how the allocator adapted to earlier solves: vectors stay on
    # a heap that is never trimmed, Krylov bases and LU factors (> 4 MiB)
    # are mapped and unmapped whole
    "MALLOC_MMAP_THRESHOLD_": "4194304",
    "MALLOC_TRIM_THRESHOLD_": "1073741824",
    "PYTHONDONTWRITEBYTECODE": "1",
}
SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one implicitrk benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_environment():
    """Re-execute this process once with PINNED_ENV set: BLAS and malloc read
    these variables only at start-up."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    script = str(Path(__file__).resolve())
    os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], {**os.environ, **PINNED_ENV})


def main():
    args = parse_args(sys.argv[1:])
    pin_environment()
    if not (SRC / "implicitrk" / "__init__.py").is_file():
        sys.exit(f"perfbench: no implicitrk package under {SRC}")
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(args, list(PINNED_ENV))


if __name__ == "__main__":
    sys.exit(main())
