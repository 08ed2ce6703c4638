"""couplediff reaches scipy's compiled BLAS/LAPACK without importing scipy
or scipy.linalg, and what it reaches is scipy's public API, bit for bit.

Which modules a process has imported depends on everything it imported
before, so each check runs in a fresh interpreter (warnings as errors, as
in this suite).
"""
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import couplediff
from couplediff import _lapack

SRC = str(Path(couplediff.__file__).resolve().parents[1])


def run_fresh(code: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}",
         *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_scipy_linalg_out():
    out = run_fresh(
        "import couplediff, couplediff.cli\n"
        "print('scipy' in sys.modules, 'scipy.linalg' in sys.modules,\n"
        "      'scipy.linalg._flapack' in sys.modules)\n"
    )
    assert out.split() == ["False", "False", "True"]


def test_cli_runs_leave_scipy_linalg_out(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "grid.n_local = 20\ngrid.n_nonlocal = 20\ntime.dt = 0.01\ntime.horizon = 0.5\n"
        "init.kind = step\n"
    )
    out = run_fresh(
        "from couplediff import _lapack\n"
        "from couplediff.cli import main\n"
        "called = set()\n"
        "def count(name):\n"
        "    fn = getattr(_lapack, name)\n"
        "    def wrapped(*a, **k):\n"
        "        called.add(name)\n"
        "        return fn(*a, **k)\n"
        "    return wrapped\n"
        "import couplediff.discretization as d\n"
        "for name in ['dsbmv', 'dsymv', 'dpbtrf', 'dpbtrs', 'dpttrf', 'dpttrs']:\n"
        "    setattr(d, name, count(name))\n"
        "cfg, out = sys.argv[1], sys.argv[2]\n"
        "assert main(['simulate', '--config', cfg, '--out', out + '/sim']) == 0\n"
        "assert main(['spectrum', '--config', cfg, '--out', out + '/spec']) == 0\n"
        "print(sorted(called), 'scipy.linalg' in sys.modules)\n",
        str(cfg),
        str(tmp_path),
    )
    assert out.splitlines()[-1] == (
        "['dpbtrf', 'dpbtrs', 'dpttrf', 'dpttrs', 'dsbmv', 'dsymv'] False")


EQUIVALENCE = """
if sys.argv[1] == "scipy-first":
    import scipy.linalg, scipy.linalg.blas, scipy.linalg.lapack
from couplediff import _lapack
import scipy.linalg, scipy.linalg.blas, scipy.linalg.lapack

assert _lapack.dsbmv is scipy.linalg.blas.dsbmv
assert _lapack.dsymv is scipy.linalg.blas.dsymv
assert _lapack.dpbtrf is scipy.linalg.lapack.dpbtrf
assert _lapack.dpbtrs is scipy.linalg.lapack.dpbtrs
assert _lapack.dpttrf is scipy.linalg.lapack.dpttrf
assert _lapack.dpttrs is scipy.linalg.lapack.dpttrs

print("same objects")
"""


@pytest.mark.parametrize("order", ["couplediff-first", "scipy-first"])
def test_lapack_matches_scipy_linalg(order):
    assert run_fresh(EQUIVALENCE, order).strip() == "same objects"


def test_missing_extension_names_the_path():
    with pytest.raises(ImportError) as exc:
        _lapack._extension("_no_such_extension")
    assert exc.value.path == str(Path(scipy.__file__).parent / "linalg")
    assert exc.value.path in str(exc.value)
