"""Explicit Lipschitz bijections between boolean functions on the Hamming
cube, with exhaustive and statistical verification at desk scale.

The Python API is the modules, for example
``from cubemorph.stretch_metrics import stretch_report``; importing the
package loads none of them."""

import os
import sys

# Nothing here calls BLAS, so a process that imports cubemorph before numpy
# gets single-threaded OpenBLAS instead of an idle thread pool.  OpenBLAS
# reads the variable once, when numpy loads it; it is then removed, so the
# caller and its subprocesses see the environment they had.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"
