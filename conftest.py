"""pytest settings shared by every test directory.

BLAS is pinned to one thread before numpy loads: the tests solve many small
problems, where extra BLAS threads only oversubscribe the cores.  A value
already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
