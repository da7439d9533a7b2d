"""Benchmark of ebhess on the paper's f(A)V and shifted-system workloads.

Run from the root of the repository:

    python3 perfbench/run.py --workload matfun_rot2 --seed 7 --seconds 20 --trace 0

``--workload all`` runs every workload, each in its own process.  The last
line printed is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; result and span files go to ``perfbench/out/``.
"""

import os
import sys

# One BLAS thread: on a 2-core machine OpenBLAS's default thread count makes
# the small kernels of this package 10x slower and the timings follow the
# scheduler rather than the program.  Must be set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.isdir(os.path.join(src, "ebhess")):
        sys.exit(f"perfbench: ebhess sources not found under {src}")
    sys.path[:0] = [here, src]
    import harness

    sys.exit(harness.main(sys.argv[1:]))
