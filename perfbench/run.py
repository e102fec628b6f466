"""Benchmark entry point.

    python3 perfbench/run.py --workload sim-n32 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, so nothing needs installing.
"""

import ctypes
import os
import sys
from pathlib import Path

M_MMAP_THRESHOLD = -3   # glibc mallopt parameter

if __name__ == "__main__":
    # One client thread: BLAS must not add threads of its own.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # A fixed glibc mmap threshold returns every freed array of 4 MiB or
    # more to the system at once, so peak_rss_mb follows live memory rather
    # than the allocator's history (which varied it by 8 % between runs).
    # It holds for the timed passes too: such arrays are mapped afresh on
    # every allocation.
    try:
        ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, 4 << 20)
    except AttributeError:      # not glibc
        pass
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "xbarprune").is_dir():
        sys.exit(f"{root / 'src' / 'xbarprune'} not found: run from a source checkout")
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import harness

    sys.exit(harness.main(sys.argv[1:]))
