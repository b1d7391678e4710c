"""Compiled-kernel flags, both off: the package has only numpy kernels.

The one reader is the end-to-end benchmark worker (``bench_e2e/worker.py``),
which records these two fields in its run environment.
"""

HAVE_NUMBA = False
NUMBA_ENABLED = False
