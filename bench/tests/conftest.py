"""Self-tests of the benchmark; run from anywhere with

    python3 -m pytest bench/tests

The benchmark addresses the checkout through the working directory, so
the tests run from the checkout root.  BLAS runs one thread, as in the
benchmark: with more threads, wide products sum in another order and
output digits differ from those of the benchmark's children.
"""

import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
os.chdir(REPO)
sys.path.insert(0, str(REPO / "bench"))
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
