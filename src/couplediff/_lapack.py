"""scipy's compiled BLAS/LAPACK wrappers, without importing scipy.

couplediff calls six routines of scipy's f2py extensions ``_fblas`` and
``_flapack``: sbmv, symv, pbtrf, pbtrs, pttrf and pttrs.  Importing them
through ``scipy.linalg`` costs about 0.3 s and 24 MB per process (it pulls
in ``scipy._lib._array_api``, ``array_api_compat`` and ``numpy.f2py``),
about a third of a whole epsilon sweep, and even ``import scipy`` alone
costs 8-14 ms (``subprocess`` and ``sysconfig`` included) where the two
extensions load in 4-6 ms.  So the scipy package directory is found with
``importlib.util.find_spec``, which imports nothing, and the two extensions
are loaded straight from it and registered in ``sys.modules`` under their
own names, so a later ``import scipy.linalg`` reuses them: the routines here
are the objects ``scipy.linalg.blas`` and ``scipy.linalg.lapack`` export.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def _extension(name: str):
    """The module scipy.linalg.<name>: the sys.modules entry if there is one,
    else loaded from its file without running any scipy __init__.py."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    folder = os.path.join(os.path.dirname(importlib.util.find_spec("scipy").origin), "linalg")
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
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs
