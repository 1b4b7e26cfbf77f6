"""The command-line entry (``python -m smmskit`` and the ``smmskit`` script).

BLAS starts its threads when numpy is imported, and the checks' linear
algebra runs on small matrices that gain nothing from more threads, so the
entry defaults each thread count to 1 before anything imports numpy. A value
set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import run  # noqa: E402  (numpy loads here, after the defaults)

if __name__ == "__main__":
    run()
