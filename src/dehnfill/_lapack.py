"""The LAPACK routines the solvers call: banded LU (`dgbtrf`), banded solve
from its factors (`dgbtrs`), the tridiagonal solve (`dgtsv`), and for the
spectral probe dense Householder QR (`dgeqrf`), applying its Q^T
(`dormqr`) and the solve with R^T R from a band triangle R (`dpbtrs`).

They come from SciPy's compiled wrapper `scipy.linalg._flapack`, loaded
straight from its file.  The `scipy.linalg` package itself never runs, nor
the array-API layer it imports (`scipy._lib._util`, which pulls in
`numpy.ma`, `unittest` and more); that halves the start-up of
`import dehnfill`.  `import scipy` stays: the top-level package sets up the
paths to the wheel's bundled libraries that the wrapper links against.  The
wrapper is registered under its own name, so a later `import scipy.linalg`
reuses it and `scipy.linalg.lapack.dgbtrf` is the same object.  The wrapper
is private to SciPy: `tests/test_cli.py::test_lapack_routines_are_scipys`
fails if a release moves it.
"""

import importlib.machinery
import importlib.util
import os
import sys

import scipy
from numpy.linalg import LinAlgError

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    base = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.exists(p)), None)
    if path is None:
        raise ImportError(f"SciPy's LAPACK wrapper not found: looked for {base}"
                          f" with suffix {importlib.machinery.EXTENSION_SUFFIXES}")
    spec = importlib.util.spec_from_file_location(_NAME, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgbtrf, dgbtrs, dgtsv = _flapack.dgbtrf, _flapack.dgbtrs, _flapack.dgtsv
dgeqrf, dormqr, dpbtrs = _flapack.dgeqrf, _flapack.dormqr, _flapack.dpbtrs


def check_info(info, routine):
    """Raise on a nonzero LAPACK `info`: a singular matrix (> 0) or an
    illegal argument (< 0)."""
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
