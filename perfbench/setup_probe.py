"""Time couplediff's set-up in a fresh process and report the software stack.

Usage: python setup_probe.py CONFIG

Set-up is what every CLI run pays before its real work: importing the
package (numpy and scipy with it), loading the config and assembling the
generator through kernel_from / grid_from / assemble_generator.  Prints one
JSON object.
"""
import time

t_start = time.perf_counter()

import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

import couplediff  # noqa: E402
from couplediff.config import grid_from, kernel_from, load_config  # noqa: E402
from couplediff.discretization import assemble_generator  # noqa: E402
from couplediff.kernels import coupling_constants  # noqa: E402

t_import = time.perf_counter()
cfg = load_config(sys.argv[1])
t_load = time.perf_counter()
kernel = kernel_from(cfg)
generator = assemble_generator(grid_from(cfg), kernel, coupling_constants(kernel))
t_end = time.perf_counter()

import numpy  # noqa: E402
import scipy  # noqa: E402

blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "setup_s": t_end - t_start,
    "import_s": t_import - t_start,
    "load_s": t_load - t_import,
    "assemble_s": t_end - t_load,
    "dofs": generator.size,
    "couplediff_file": couplediff.__file__,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
}))
