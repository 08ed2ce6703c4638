"""Per-layer metrics computed from the spans of one traced invocation.

One layer per module of ``src/couplediff``.  Each metric names the end-to-end
metric and workload it is expected to move; the report prints that next to
the value.  Self time is a span's duration minus the time its direct child
spans cover (children never overlap: the program is single-threaded).
"""
from __future__ import annotations

from collections import defaultdict

# name -> (unit, what it should move)
PER_LAYER = {
    "kernels.pair_matrix_calls": ("count", "setup_s on simulate_narrow, spectrum_fine"),
    "kernels.eval_s": ("s", "setup_s on simulate_narrow, spectrum_fine"),
    "discretization.assemble_calls": ("count", "setup_s on simulate_narrow"),
    "discretization.assemble_s": ("s", "setup_s on simulate_narrow"),
    "discretization.generator_mb": ("MB", "peak_rss_mb on simulate_narrow"),
    "evolution.steps": ("count", "wall_s on simulate_narrow, simulate_dense; not spectrum_fine"),
    "evolution.step_self_s": ("s", "wall_s on simulate_narrow, simulate_dense; not spectrum_fine"),
    "evolution.lapack_factor_calls": ("count", "wall_s on simulate_narrow, simulate_dense"),
    "evolution.lapack_factor_s": ("s", "wall_s on simulate_narrow, simulate_dense"),
    "evolution.lapack_solve_calls": ("count", "wall_s on simulate_narrow, simulate_dense"),
    "evolution.lapack_solve_s": ("s", "wall_s on simulate_narrow, simulate_dense"),
    "evolution.solves_per_step": ("ratio", "wall_s on simulate_narrow, simulate_dense"),
    "energy_spectrum.energy_calls": ("count", "wall_s on simulate_dense, sweep_epsilon"),
    "energy_spectrum.energy_s": ("s", "wall_s on simulate_dense, sweep_epsilon"),
    "energy_spectrum.energy_us_per_call": ("us", "wall_s on simulate_dense, sweep_epsilon"),
    "energy_spectrum.eigensolve_calls": ("count", "wall_s on simulate_narrow, spectrum_fine"),
    "energy_spectrum.eigensolve_s": ("s", "wall_s on simulate_narrow, spectrum_fine"),
    "energy_spectrum.k_estimate_s": ("s", "wall_s on spectrum_fine only"),
    "analysis.sweep_members": ("count", "wall_s on sweep_epsilon only"),
    "analysis.reference_calls": ("count", "wall_s on sweep_epsilon only"),
    "analysis.reference_s": ("s", "wall_s on sweep_epsilon only"),
    "analysis.decay_fit_s": ("s", "wall_s on simulate_dense, simulate_narrow"),
    "analysis.replay_solves": ("count", "wall_s on sweep_epsilon only"),
    "output.write_calls": ("count", "wall_s on simulate_dense"),
    "output.write_s": ("s", "wall_s on simulate_dense"),
    "output.bytes": ("bytes", "wall_s on simulate_dense"),
    "config.load_s": ("s", "setup_s"),
    "trace.spans": ("count", "none: size of the trace"),
    "trace.wall_s": ("s", "none: traced wall_s, for the overhead"),
    "trace.overhead_s": ("s", "none: traced wall_s minus untraced wall_s"),
}

EVOLUTION_LOOPS = ("evolution.evolve", "evolution.picard_window_solve")
KERNEL_EVALS = ("kernels.pair_kernel_matrix", "kernels.interface_profile")


def aggregate(spans: list) -> tuple[dict, dict]:
    """Metrics from spans [name, start, end, parent, extra], and the base of
    each derived ratio as text.  ``trace.wall_s`` and ``trace.overhead_s``
    come from process timings and are filled in by the caller."""
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child_time = defaultdict(float)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield names[p]
            p = spans[p][3]

    def picked(pick):
        return [i for i, n in enumerate(names) if pick(n)]

    def total(idx, self_time=False):
        return sum(dur[i] - (child_time[i] if self_time else 0.0) for i in idx)

    def extra(idx, key):
        return sum((spans[i][4] or {}).get(key, 0) for i in idx)

    loops = picked(lambda n: n in EVOLUTION_LOOPS)
    outer_loops = [i for i in loops if not any(a in EVOLUTION_LOOPS for a in ancestors(i))]
    factor = picked(lambda n: n == "evolution.lu_factor")
    solve = picked(lambda n: n == "evolution.lu_solve")
    energy = picked(lambda n: n == "energy_spectrum.energy_terms")
    assemble = picked(lambda n: n == "discretization.assemble_generator")
    writes = picked(lambda n: n.startswith("output."))
    files = [i for i in writes if names[i] == "output.atomic_write_text"]
    sweeps = picked(lambda n: n == "analysis.epsilon_sweep")
    refs = picked(lambda n: n == "analysis._HeatReference.at")
    replay = [
        i for i in solve
        if "analysis.epsilon_sweep" in set(ancestors(i))
        and not any(a in EVOLUTION_LOOPS for a in ancestors(i))
    ]
    steps = extra(outer_loops, "steps")
    energy_s = total(energy)
    nbytes = max((extra([i], "nbytes") for i in assemble), default=0)

    m = {
        "kernels.pair_matrix_calls": len(picked(lambda n: n == "kernels.pair_kernel_matrix")),
        "kernels.eval_s": total(picked(lambda n: n in KERNEL_EVALS)),
        "discretization.assemble_calls": len(assemble),
        "discretization.assemble_s": total(assemble, self_time=True),
        "discretization.generator_mb": nbytes / 1e6,
        "evolution.steps": steps,
        "evolution.step_self_s": total(loops, self_time=True),
        "evolution.lapack_factor_calls": len(factor),
        "evolution.lapack_factor_s": total(factor),
        "evolution.lapack_solve_calls": len(solve),
        "evolution.lapack_solve_s": total(solve),
        "evolution.solves_per_step": len(solve) / steps if steps else 0.0,
        "energy_spectrum.energy_calls": len(energy),
        "energy_spectrum.energy_s": energy_s,
        "energy_spectrum.energy_us_per_call": 1e6 * energy_s / len(energy) if energy else 0.0,
        "energy_spectrum.eigensolve_calls": len(
            picked(lambda n: n == "energy_spectrum.estimate_beta1")),
        "energy_spectrum.eigensolve_s": total(
            picked(lambda n: n == "energy_spectrum.estimate_beta1")),
        "energy_spectrum.k_estimate_s": total(
            picked(lambda n: n == "energy_spectrum.estimate_energy_control_k")),
        "analysis.sweep_members": extra(sweeps, "members"),
        "analysis.reference_calls": len(refs),
        "analysis.reference_s": total(refs),
        "analysis.decay_fit_s": total(picked(lambda n: n == "analysis.decay_report")),
        "analysis.replay_solves": len(replay),
        "output.write_calls": len(files),
        "output.write_s": total(
            [i for i in writes if not any(a.startswith("output.") for a in ancestors(i))]),
        "output.bytes": extra(files, "bytes"),
        "config.load_s": total(picked(lambda n: n == "config.load_config")),
        "trace.spans": len(spans),
    }
    bases = {
        "evolution.solves_per_step": f"{len(solve)} LAPACK solves / {steps} steps",
        "energy_spectrum.energy_us_per_call":
            f"{energy_s:.6f} s / {len(energy)} energy_terms calls",
        "discretization.generator_mb": f"{nbytes} bytes of the largest generator matrix",
        "analysis.replay_solves":
            f"of {len(solve)} LAPACK solves, those inside epsilon_sweep outside evolve",
    }
    return m, bases
