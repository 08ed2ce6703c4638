"""Run one couplediff CLI invocation with spans around each layer boundary.

Usage: python traced.py SPANS_JSON RUN_ID -- CLI-ARGS...

Each wrapper is installed at the module attribute where the caller looks the
name up (``couplediff.cli.estimate_beta1``, ``couplediff.evolution.energy_terms``
and so on), so the program itself is not edited.  Two boundaries are private
names: ``analysis._HeatReference.at`` and ``analysis._iterate_states``.  The
LAPACK calls are wrapped as ``evolution`` sees them: its ``scipy`` global is
replaced by a forwarding namespace whose ``linalg.lu_factor`` and
``linalg.lu_solve`` are traced; every other scipy lookup falls through.

Spans (name, start, end, parent span, extra) stay in memory and are written
once, when the invocation ends.  A wrapper whose target no longer exists is
skipped and listed under "missing", so a later refactor shows up as missing
counts rather than a crash.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

perf_counter = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index, extra]
        self.stack: list[int] = []

    def call(self, name, fn, args, kwargs, note=None):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self.stack.pop()
        if note is not None:
            try:
                rec[4] = note(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError) as exc:
                rec[4] = {"note_error": f"{type(exc).__name__}: {exc}"}
        return result

    def dump(self, path, wrapped, missing):
        t0 = self.origin
        spans = [[n, s - t0, e - t0, p, x] for n, s, e, p, x in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["name", "start", "end", "parent", "extra"],
                    "wrapped": wrapped,
                    "missing": missing,
                    "spans": spans,
                },
                handle,
            )


class _Namespace:
    """Forwards attribute lookups to a module, with some names replaced."""

    def __init__(self, module, replaced: dict):
        self._module = module
        self._replaced = replaced

    def __getattr__(self, name):
        try:
            return self._replaced[name]
        except KeyError:
            return getattr(self._module, name)


def _steps(args, kwargs, result):
    traj = result[0] if isinstance(result, tuple) else result
    return {"steps": len(traj.times) - 1}


def _generator_bytes(args, kwargs, result):
    m = result.matrix
    nbytes = getattr(m, "nbytes", None)
    if nbytes is None:  # scipy sparse: count the stored arrays
        nbytes = sum(getattr(m, a).nbytes for a in ("data", "indices", "indptr", "offsets")
                     if hasattr(m, a))
    return {"nbytes": int(nbytes)}


def _text_bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


def _members(args, kwargs, result):
    return {"members": len(result)}


# (owner of the name, as seen from couplediff, attribute, span name, note).
# The owner is where the caller looks the name up; two owners are private.
WRAPS = [
    ("cli", "load_config", "config.load_config", None),
    ("discretization", "pair_kernel_matrix", "kernels.pair_kernel_matrix", None),
    ("evolution", "pair_kernel_matrix", "kernels.pair_kernel_matrix", None),
    ("energy_spectrum", "pair_kernel_matrix", "kernels.pair_kernel_matrix", None),
    ("analysis", "pair_kernel_matrix", "kernels.pair_kernel_matrix", None),
    ("discretization", "interface_profile", "kernels.interface_profile", None),
    ("evolution", "interface_profile", "kernels.interface_profile", None),
    ("energy_spectrum", "interface_profile", "kernels.interface_profile", None),
    ("analysis", "interface_profile", "kernels.interface_profile", None),
    ("cli", "assemble_generator", "discretization.assemble_generator", _generator_bytes),
    ("analysis", "assemble_generator", "discretization.assemble_generator", _generator_bytes),
    ("evolution", "assemble_generator", "discretization.assemble_generator", _generator_bytes),
    ("cli", "evolve", "evolution.evolve", _steps),
    ("analysis", "evolve", "evolution.evolve", _steps),
    ("cli", "picard_window_solve", "evolution.picard_window_solve", _steps),
    ("evolution", "picard_window_solve", "evolution.picard_window_solve", _steps),
    ("evolution", "energy_terms", "energy_spectrum.energy_terms", None),
    ("energy_spectrum", "energy_terms", "energy_spectrum.energy_terms", None),
    ("cli", "estimate_beta1", "energy_spectrum.estimate_beta1", None),
    ("analysis", "estimate_beta1", "energy_spectrum.estimate_beta1", None),
    ("cli", "estimate_energy_control_k", "energy_spectrum.estimate_energy_control_k", None),
    ("cli", "epsilon_sweep", "analysis.epsilon_sweep", _members),
    ("cli", "decay_report", "analysis.decay_report", None),
    ("analysis._HeatReference", "at", "analysis._HeatReference.at", None),
    ("analysis", "_iterate_states", "analysis._iterate_states", None),
    ("cli", "write_csv", "output.write_csv", None),
    ("cli", "atomic_write_text", "output.atomic_write_text", _text_bytes),
    ("output", "atomic_write_text", "output.atomic_write_text", _text_bytes),
]
LAPACK_CALLER = "evolution"
LAPACK_WRAPS = [("lu_factor", "evolution.lu_factor"), ("lu_solve", "evolution.lu_solve")]


def _wrap_function(tracer, fn, name, note):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, note)

    return traced


def _wrap_generator(tracer, fn, name):
    """One span per resume, so work done while the consumer pulls the next
    item is attributed to the generator."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            try:
                item = tracer.call(name, next, (gen,), {})
            except StopIteration:
                return
            yield item

    return traced


def _resolve(modules: dict, owner: str):
    head, *rest = owner.split(".")
    obj = modules.get(head)
    for part in rest:
        obj = getattr(obj, part, None)
    return obj


def install(tracer: Tracer, modules: dict):
    """Install every wrapper; returns the wrapped and the missing targets."""
    wrapped, missing = [], []
    for owner, attr, name, note in WRAPS:
        label = f"couplediff.{owner}.{attr}"
        obj = _resolve(modules, owner)
        fn = getattr(obj, attr, None)
        if fn is None:
            missing.append(label)
            continue
        if inspect.isgeneratorfunction(fn):
            setattr(obj, attr, _wrap_generator(tracer, fn, name))
        else:
            setattr(obj, attr, _wrap_function(tracer, fn, name, note))
        wrapped.append(label)

    scipy_mod = _resolve(modules, f"{LAPACK_CALLER}.scipy")
    linalg = getattr(scipy_mod, "linalg", None)
    replaced = {}
    for attr, name in LAPACK_WRAPS:
        label = f"couplediff.{LAPACK_CALLER}.scipy.linalg.{attr}"
        fn = getattr(linalg, attr, None)
        if fn is None:
            missing.append(label)
            continue
        replaced[attr] = _wrap_function(tracer, fn, name, None)
        wrapped.append(label)
    if replaced:
        namespace = _Namespace(scipy_mod, {"linalg": _Namespace(linalg, replaced)})
        modules[LAPACK_CALLER].scipy = namespace
    return wrapped, missing


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced.py SPANS_JSON RUN_ID -- CLI-ARGS...", file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    modules = {}
    for name in ("analysis", "cli", "discretization", "energy_spectrum", "evolution", "output"):
        try:
            modules[name] = importlib.import_module(f"couplediff.{name}")
        except ImportError:
            pass
    wrapped, missing = install(tracer, modules)
    code = 3
    try:
        code = modules["cli"].main(cli_args)
    finally:
        tracer.dump(spans_path, wrapped, missing)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
