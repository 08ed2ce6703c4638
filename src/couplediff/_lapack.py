"""scipy's compiled BLAS/LAPACK wrappers, without importing scipy.linalg.

couplediff calls six routines of scipy's f2py extensions ``_fblas`` and
``_flapack``: sbmv, symv, pbtrf, pbtrs, syevr and syevr's work-size query
(syevr only through eigh, the dense oracle of the tests and of verify).
Importing them through ``scipy.linalg`` costs about 0.3 s and 24 MB per
process (it pulls in ``scipy._lib._array_api``, ``array_api_compat`` and
``numpy.f2py``), about a third of a whole epsilon sweep.  The two
extensions are loaded straight from the scipy package directory and
registered in ``sys.modules`` under their own names, so a later
``import scipy.linalg`` reuses them: dsbmv, dsymv, dpbtrf and dpbtrs here
are the objects ``scipy.linalg.blas`` and ``scipy.linalg.lapack`` export.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy


def _extension(name: str):
    """The module scipy.linalg.<name>: the sys.modules entry if there is one,
    else loaded from its file without running scipy/linalg/__init__.py."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    paths = [os.path.join(folder, name + s) for s in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no extension module {name} in {folder}", name=full, path=folder)
    loader = importlib.machinery.ExtensionFileLoader(full, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(full, path, loader=loader)
    )
    loader.exec_module(module)
    sys.modules[full] = module
    return module


_fblas = _extension("_fblas")
dsbmv, dsymv = _fblas.dsbmv, _fblas.dsymv
_flapack = _extension("_flapack")
dpbtrf, dpbtrs = _flapack.dpbtrf, _flapack.dpbtrs


def eigh(a, subset_by_index=None):
    """Ascending eigenvalues and orthonormal eigenvectors of the real
    symmetric matrix a, read from its lower triangle; subset_by_index =
    [lo, hi] keeps eigenpairs lo..hi only.  This is scipy.linalg.eigh's
    default path (syevr with the same work sizes and arguments), so the
    results are the same bit for bit."""
    a = np.asarray_chkfinite(a)
    lwork, liwork, info = _flapack.dsyevr_lwork(a.shape[0], lower=1)
    if info != 0:
        raise ValueError(f"syevr work-size query failed: info = {info}")
    subset = {}
    if subset_by_index is not None:
        lo, hi = subset_by_index
        subset = {"range": "I", "il": lo + 1, "iu": hi + 1}
    w, v, m, _, info = _flapack.dsyevr(
        a, compute_v=1, lower=1, lwork=int(lwork), liwork=int(liwork), **subset
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"syevr failed: info = {info}")
    return w[:m], v[:, :m]
