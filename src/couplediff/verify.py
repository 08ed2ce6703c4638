"""Self-contained verification checklist behind the CLI verify subcommand.

Each claim has one measuring function here, which takes a generator (or
kernel cases and a grid size), its seed and its step counts, and returns the
measured quantity, never a verdict.  A check_* function calls it once at
small sizes, so that verify finishes in seconds, and compares the result
with its bound; the acceptance suite in tests/ calls the same function at
the production sizes and asserts its own bounds.  The checks and the
acceptance criteria that share their functions:

  operator-structure    structure_defect_by_case   criterion 10
  mass-conservation     step_drift_and_rise        criterion 01
  energy-dissipation    step_drift_and_rise        criterion 02
  comparison-principle  ordering_violation         criterion 07
  decay-bound           decay_fit                  criterion 04
  picard-vs-implicit    picard_gap                 criterion 08
  semigroup-oracle      semigroup_gap              criterion 09

Generators are assembled through this module's assemble_generator, which
tests replace with one that corrupts the band, to confirm the checks detect
broken structure.  Each check's size n is its local cell count; its
nonlocal side takes sweep_members' rule (resolved_n_nonlocal), so a narrow
kernel refines the nonlocal grid instead of failing assembly.

The operator-structure check (_structure_defects) reads three facts about A
in L = -W^-1 A off the band, one offset at a time, in O(n b): its rows sum
to zero, its off-diagonal entries are <= 0 and its diagonal is >= 0.  The
rest follows.  W L = -A is symmetric because the band stores each pair
once; the column mass 1^T W L = -(A 1)^T is then zero with the row sums;
and for every dt > 0, I - dt L = I + dt W^-1 A has off-diagonal entries
<= 0 and rows summing to 1, so it is a strictly diagonally dominant
M-matrix (the comparison principle of the implicit step).
"""
from __future__ import annotations

import numpy as np

from .analysis import decay_report
from .config import SimConfig, initial_state
from .discretization import assemble_generator, build_grid, resolved_n_nonlocal
from .energy_spectrum import estimate_beta1, semigroup
from .evolution import ImplicitStepper, StepScheme, cfl_limit, evolve, explicit_step
from .kernels import FAMILIES, coupling_constants, make_kernel

CHECK_CELLS = 100  # the local cells of the largest check grid, which the CLI's memory guard reads
SEMIGROUP_CELLS = 20  # the semigroup check's local cells: criterion 09's size, at verify's speed


def _structure_defects(generator):
    """Relative defect of each of the three facts about A (module docstring),
    read off the band one offset d = j - i at a time, in O(n b): row_sum, per
    row |sum_j A_ij| / sum_j |A_ij| (0 for an empty row); offdiag_sign, the
    largest A_ij / min(W_i, W_j) over i != j, that is the largest positive
    -L_ij; diag_sign, the largest -A_ii / W_i, the largest positive L_ii.
    Entries stored above the matrix are not read.  A NaN defect reads inf,
    so it fails any bound.
    """
    band, weights = generator.band, generator.weights
    b = generator.half_bandwidth
    diag = band[b]
    total, mag = diag.copy(), np.abs(diag)
    offdiag = 0.0
    for d in range(1, b + 1):
        a = band[b - d, d:]  # A[i, i + d], added to rows i and i + d
        total[:-d] += a
        total[d:] += a
        mag[:-d] += np.abs(a)
        mag[d:] += np.abs(a)
        # np.maximum, not max(): a NaN must carry through
        offdiag = np.maximum(offdiag, np.max(a / np.minimum(weights[:-d], weights[d:])))
    row = np.abs(total)
    np.divide(row, mag, out=row, where=mag != 0)  # an empty row keeps its 0; NaN stays NaN
    defects = {
        "row_sum": np.max(row, initial=0.0),
        "offdiag_sign": offdiag,
        "diag_sign": np.max(-diag / weights, initial=0.0),
    }
    return {name: np.inf if np.isnan(v) else float(v) for name, v in defects.items()}


def _w_norm(generator, values) -> float:
    """The weighted L2 norm sqrt(sum W_i values_i^2)."""
    return float(np.sqrt(np.sum(generator.weights * values * values)))


def _generator(family, radius, eps, n):
    """The generator of the (family, radius, eps) kernel on n local cells
    and resolved_n_nonlocal(n, eps, radius) nonlocal ones: n unless the
    kernel needs a finer grid."""
    kernel = make_kernel(family, radius, eps)
    grid = build_grid(n, resolved_n_nonlocal(n, eps, radius))
    return assemble_generator(grid, kernel, coupling_constants(kernel))


def structure_defect_by_case(cases, radius, n):
    """{(family, eps): the largest of _structure_defects} for the generator
    of each (family, eps) kernel of the given radius on n local cells (_generator)."""
    worst = {}
    for family, eps in cases:
        gen = _generator(family, radius, eps, n)
        worst[family, eps] = max(_structure_defects(gen).values())
    return worst


def step_drift_and_rise(generator, dt, horizon):
    """(relative mass drift, largest per-step energy increase) of the
    implicit run from step data (1 on x <= 0, 0 beyond) to the horizon."""
    w0 = np.where(generator.grid.positions <= 0.0, 1.0, 0.0)
    traj = evolve(generator, w0, StepScheme(kind="implicit", dt=dt), horizon)
    drift = float(np.max(np.abs(traj.mass - traj.mass[0])) / abs(traj.mass[0]))
    return drift, float(np.max(np.diff(traj.energy_total)))


def ordering_violation(generator, seed, pairs, explicit_steps, implicit_steps):
    """Worst max(lo - hi) over the steps of ordered pairs lo <= hi of random
    states (drawn from seed), each pair run explicit_steps explicit steps at
    the CFL limit and implicit_steps implicit steps at dt = 5e-3.  Each
    stepper is built once."""
    rng = np.random.default_rng(seed)
    steppers = ((explicit_step(generator, cfl_limit(generator)), explicit_steps),
                (ImplicitStepper(generator, 5e-3).step, implicit_steps))
    worst = 0.0
    for _ in range(pairs):
        lo = rng.standard_normal(generator.size)
        hi = lo + np.abs(rng.standard_normal(generator.size))
        for step, n_steps in steppers:
            a, b = lo, hi
            for _ in range(n_steps):
                a, b = step(a), step(b)
                worst = max(worst, float(np.max(a - b)))
    return worst


def decay_fit(generator, dt, horizon):
    """(decay_report, estimate_beta1) of the implicit run from the default
    gaussian bump (SimConfig's init: center -0.5, width 0.15) to the horizon."""
    w0 = initial_state(SimConfig(), generator.grid)
    traj = evolve(generator, w0, StepScheme(kind="implicit", dt=dt), horizon)
    spectral = estimate_beta1(generator)
    return decay_report(traj, spectral), spectral


def picard_gap(generator, window, horizon):
    """(W-norm gap, PicardReport) between the picard run from step data
    (windows of the given length, tolerance 1e-10) and the monolithic
    implicit run at its sub-step, at the horizon."""
    w0 = np.where(generator.grid.positions <= 0.0, 1.0, 0.0)
    traj = evolve(generator, w0, StepScheme(kind="picard", picard_window=window,
                                            picard_tol=1e-10), horizon)
    mono = evolve(generator, w0, StepScheme(kind="implicit", dt=traj.dt), horizon)
    return _w_norm(generator, traj.final_state - mono.final_state), traj.picard


def semigroup_gap(generator, t, dt, amplitude):
    """W-norm gap at time t between the implicit run at dt and the matrix
    exponential (semigroup), both from the default gaussian bump of the
    given amplitude."""
    w0 = initial_state(SimConfig(init_amplitude=amplitude), generator.grid)
    traj = evolve(generator, w0, StepScheme(kind="implicit", dt=dt), horizon=t)
    return _w_norm(generator, traj.final_state - semigroup(generator, w0, t)[0])


def _coupled_setup(cfg, n=CHECK_CELLS):
    return _generator(cfg.kernel_family, cfg.kernel_radius, cfg.kernel_epsilon, n)


def check_operator_structure(cfg):
    # each family, alternately on the dense block (eps = 1) and a narrow band
    cases = tuple((family, 0.25 if k % 2 else 1.0) for k, family in enumerate(FAMILIES))
    defects = structure_defect_by_case(cases, cfg.kernel_radius, 50)
    detail = "; ".join(f"{family}/eps={eps}: {d:.2e}" for (family, eps), d in defects.items())
    worst = max(defects.values())
    return worst <= 1e-12, f"worst defect {worst:.2e} ({detail})"


def check_mass_conservation(cfg):
    drift, _ = step_drift_and_rise(_coupled_setup(cfg), 1e-2, 2.0)
    return drift <= 1e-11, f"relative mass drift {drift:.2e}"


def check_energy_dissipation(cfg):
    _, rise = step_drift_and_rise(_coupled_setup(cfg), 1e-2, 2.0)
    return rise <= 1e-12, f"largest per-step energy increase {rise:.2e}"


def check_comparison_principle(cfg):
    worst = ordering_violation(_coupled_setup(cfg, n=30), cfg.seed, 10, 40, 20)
    return worst <= 1e-12, f"worst ordering violation {worst:.2e}"


def check_decay_bound(cfg):
    report, spectral = decay_fit(_coupled_setup(cfg), 2e-3, 3.0)
    ok = report.bound_satisfied and (
        1.9 * spectral.beta1 <= report.fitted_rate <= 2.1 * spectral.beta1
    )
    return ok, (
        f"bound={report.bound_satisfied}, fitted {report.fitted_rate:.4f} vs "
        f"2*beta1 {2 * spectral.beta1:.4f}"
    )


def check_picard_oracle(cfg):
    gen = _coupled_setup(cfg, n=50)
    window = StepScheme(kind="picard").window_for(gen.constants)  # the 'auto' window
    gap, report = picard_gap(gen, window, 10 * window)
    ratio_ok = all(r <= report.kappa for r in report.contraction_ratios)
    return (
        gap <= 1e-6 and ratio_ok,
        f"L2 gap to monolithic implicit {gap:.2e}; "
        f"ratios <= kappa={report.kappa:.3f}: {ratio_ok}",
    )


def check_semigroup_oracle(cfg):
    gap = semigroup_gap(_coupled_setup(cfg, n=SEMIGROUP_CELLS), 0.5, 1e-4, 0.25)
    return gap <= 1e-5, f"L2 gap to matrix exponential {gap:.2e}"


CHECKS = (
    ("operator-structure", check_operator_structure),
    ("mass-conservation", check_mass_conservation),
    ("energy-dissipation", check_energy_dissipation),
    ("comparison-principle", check_comparison_principle),
    ("decay-bound", check_decay_bound),
    ("picard-vs-implicit", check_picard_oracle),
    ("semigroup-oracle", check_semigroup_oracle),
)


def run_all(cfg: SimConfig) -> int:
    """Run every check, print one PASS/FAIL line each, return 0 iff all pass."""
    failures = 0
    for name, check in CHECKS:
        try:
            ok, detail = check(cfg)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<22} {detail}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1
