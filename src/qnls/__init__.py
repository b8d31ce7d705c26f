"""Verification toolkit for the conserved charges of the one-dimensional
delta-interacting Bose gas: exact plane-wave algebra, charge ladders with
boundary-condition checks, finite-box root equations, transfer-eigenvalue
expansions with printed-table adjudication, lattice integrability on
truncated Fock spaces, and the shift-generating integral operator."""

__version__ = "0.1.0"

import os as _os

# Dense numerics run on the calling thread unless the user chose a BLAS
# thread count.  The program's matrices are small (a few hundred rows at
# most), and each OpenBLAS call above the library's size threshold wakes
# its worker threads, which then spin for about 0.1 s of CPU whatever
# follows: on two cores that nearly doubled the CPU time of the lattice
# checks, and single calls stalled.  OpenBLAS reads its thread count once,
# when numpy loads it, so the default is set for that import only and
# os.environ is left as it was: child processes inherit nothing.  If numpy
# is already loaded, or one of these variables is set, nothing changes.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")
_default_blas_threads = not any(name in _os.environ
                                for name in _BLAS_THREAD_VARIABLES)
if _default_blas_threads:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as _numpy  # noqa: F401 - loads OpenBLAS under the default
finally:
    if _default_blas_threads:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .planewaves import (BetheWavefunction, Coupling, ExpPoly, RapiditySet,  # noqa: E402
                         build_bethe)

__all__ = [
    "BetheWavefunction",
    "Coupling",
    "ExpPoly",
    "RapiditySet",
    "build_bethe",
    "__version__",
]
