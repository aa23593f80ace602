"""The LAPACK routines the solvers call: banded LU (`dgbtrf`), banded solve
from its factors (`dgbtrs`), the tridiagonal solve (`dgtsv`), and for the
spectral probe dense Householder QR (`dgeqrf`), applying its Q^T
(`dormqr`) and the solve with R^T R from a band triangle R (`dpbtrs`).

They come from SciPy's compiled wrapper `scipy.linalg._flapack`, loaded
straight from its file in SciPy's install directory, which
`importlib.util.find_spec` locates without running the package.  Neither
the `scipy` package nor `scipy.linalg` runs, nor the array-API layer the
latter imports (`scipy._lib._util`, which pulls in `numpy.ma`, `unittest`
and more), nor the test utilities the former imports (`subprocess`,
`sysconfig`).  The wrapper finds the wheel's bundled OpenBLAS by itself
on Linux (an RPATH of `$ORIGIN/../../scipy.libs`) and macOS
(`@loader_path`).  Only if that load fails with `ImportError`, as where
the package's init must first put the bundled libraries on the search
path (Windows wheels), is `scipy` imported and the load tried once more.
The wrapper is registered under its own name, so a later
`import scipy.linalg` reuses it and `scipy.linalg.lapack.dgbtrf` is the
same object.  The wrapper is private to SciPy:
`tests/test_cli.py::test_lapack_routines_are_scipys` fails if a release
moves it.
"""

import importlib.machinery
import importlib.util
import os
import sys

from numpy.linalg import LinAlgError

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("SciPy is not installed")
    base = os.path.join(os.path.dirname(scipy_spec.origin), "linalg", "_flapack")
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.exists(p)), None)
    if path is None:
        raise ImportError(f"SciPy's LAPACK wrapper not found: looked for {base}"
                          f" with suffix {importlib.machinery.EXTENSION_SUFFIXES}")
    spec = importlib.util.spec_from_file_location(_NAME, path)
    try:
        module = importlib.util.module_from_spec(spec)
    except ImportError:
        import scipy  # noqa: F401  (puts the bundled libraries on the path)
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
