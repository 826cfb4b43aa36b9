"""Test-session set-up: BLAS and OpenMP run one thread in each process.

The suite runs ``sdot experiment`` on process pools. With BLAS's default
thread count every worker would start one thread per core, and the
workers would oversubscribe the cores. The thread counts are read when
numpy loads its BLAS, so this file must run before anything imports
numpy: if numpy is already imported, the setting could not take effect,
and the session fails instead of running unpinned. A variable already
set in the environment is kept.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS threads; "
                       "set OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS "
                       "before the session starts")
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
