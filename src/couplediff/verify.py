"""Self-contained verification checklist behind the CLI verify subcommand.

Each check re-derives its expectation from structure (exact identities,
closed forms, or an independent oracle) at sizes small enough to finish in
seconds; the full acceptance suite in tests/ runs the same properties at the
production sizes.  Tests replace this module's assemble_generator with one
that corrupts the band, to confirm the checks detect broken structure.

The operator-structure check (_structure_defects, shared with acceptance
criterion 10) reads three facts about A in L = -W^-1 A off the band in
O(n b): its rows sum to zero, its off-diagonal entries are <= 0 and its
diagonal is >= 0.  The rest follows.  W L = -A is symmetric because the
band stores each pair once; the column mass 1^T W L = -(A 1)^T is then zero
with the row sums; and for every dt > 0, I - dt L = I + dt W^-1 A has
off-diagonal entries <= 0 and rows summing to 1, so it is a strictly
diagonally dominant M-matrix (the comparison principle of the implicit step).
"""
from __future__ import annotations

import numpy as np

from .analysis import decay_report
from .config import SimConfig, initial_state
from .discretization import assemble_generator, build_grid, generator_edges
from .energy_spectrum import _semigroup_oracle, estimate_beta1
from .evolution import (
    StepScheme,
    cfl_limit,
    evolve,
    step_explicit,
    step_implicit,
)
from .kernels import coupling_constants, make_kernel


def _structure_defects(generator):
    """Relative defect of each of the three facts about A (module docstring),
    from the edges (i, j, c), c = -A_ij, and A's diagonal, in O(n b):
    row_sum, per row |A_ii - sum c| / (|A_ii| + sum |c|) over the edges at i
    (0 for an empty row); offdiag_sign, the largest -c / min(W_i, W_j), that
    is the largest positive -L_ij; diag_sign, the largest -A_ii / W_i, the
    largest positive L_ii.  A NaN defect reads inf, so it fails any bound.
    """
    i, j, c = (np.concatenate(part) for part in zip(*generator_edges(generator)))
    diag = generator.band[-1]
    weights = generator.weights
    n = generator.size
    ends, conductance = np.concatenate((i, j)), np.concatenate((c, c))
    mag = np.abs(diag) + np.bincount(ends, np.abs(conductance), n)
    row = np.abs(diag - np.bincount(ends, conductance, n))
    np.divide(row, mag, out=row, where=mag != 0)  # an empty row keeps its 0; NaN stays NaN
    defects = {
        "row_sum": np.max(row, initial=0.0),
        "offdiag_sign": np.max(-c / np.minimum(weights[i], weights[j]), initial=0.0),
        "diag_sign": np.max(-diag / weights, initial=0.0),
    }
    return {name: np.inf if np.isnan(v) else float(v) for name, v in defects.items()}


def check_operator_structure(cfg):
    worst = 0.0
    cases = []
    for family, eps in (("triangle", 1.0), ("uniform", 0.25), ("epanechnikov", 1.0)):
        kernel = make_kernel(family, cfg.kernel_radius, eps)
        grid = build_grid(50, 50)
        gen = assemble_generator(grid, kernel, coupling_constants(kernel))
        defects = _structure_defects(gen)
        worst = max(worst, max(defects.values()))
        cases.append(f"{family}/eps={eps}: {max(defects.values()):.2e}")
    return worst <= 1e-12, f"worst defect {worst:.2e} ({'; '.join(cases)})"


def _coupled_setup(cfg, n=100):
    kernel = make_kernel(cfg.kernel_family, cfg.kernel_radius, cfg.kernel_epsilon)
    grid = build_grid(n, n)
    return grid, assemble_generator(grid, kernel, coupling_constants(kernel))


def check_mass_conservation(cfg):
    grid, gen = _coupled_setup(cfg)
    w0 = np.where(grid.positions <= 0.0, 1.0, 0.0)
    traj = evolve(gen, w0, StepScheme(kind="implicit", dt=1e-2), horizon=2.0)
    drift = float(np.max(np.abs(traj.mass - traj.mass[0])))
    rel = drift / abs(traj.mass[0])
    return rel <= 1e-11, f"relative mass drift {rel:.2e}"


def check_energy_dissipation(cfg):
    grid, gen = _coupled_setup(cfg)
    w0 = np.where(grid.positions <= 0.0, 1.0, 0.0)
    traj = evolve(gen, w0, StepScheme(kind="implicit", dt=1e-2), horizon=2.0)
    rise = float(np.max(np.diff(traj.energy_total)))
    return rise <= 1e-12, f"largest per-step energy increase {rise:.2e}"


def check_comparison_principle(cfg):
    grid, gen = _coupled_setup(cfg, n=30)
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    dt_exp = cfl_limit(gen)
    for _ in range(10):
        lo = rng.standard_normal(grid.size)
        hi = lo + np.abs(rng.standard_normal(grid.size))
        w_lo, w_hi = lo, hi
        for _ in range(40):
            w_lo = step_explicit(gen, w_lo, dt_exp)
            w_hi = step_explicit(gen, w_hi, dt_exp)
            worst = max(worst, float(np.max(w_lo - w_hi)))
        w_lo, w_hi = lo, hi
        for _ in range(20):
            w_lo = step_implicit(gen, w_lo, 5e-3)
            w_hi = step_implicit(gen, w_hi, 5e-3)
            worst = max(worst, float(np.max(w_lo - w_hi)))
    return worst <= 1e-12, f"worst ordering violation {worst:.2e}"


def check_decay_bound(cfg):
    grid, gen = _coupled_setup(cfg)
    bump = SimConfig(init_kind="gaussian", init_center=-0.5, init_width=0.15)
    w0 = initial_state(bump, grid)
    traj = evolve(gen, w0, StepScheme(kind="implicit", dt=2e-3), horizon=3.0)
    spectral = estimate_beta1(gen)
    report = decay_report(traj, spectral)
    ok = report.bound_satisfied and (
        1.9 * spectral.beta1 <= report.fitted_rate <= 2.1 * spectral.beta1
    )
    return ok, (
        f"bound={report.bound_satisfied}, fitted {report.fitted_rate:.4f} vs "
        f"2*beta1 {2 * spectral.beta1:.4f}"
    )


def check_picard_oracle(cfg):
    grid, gen = _coupled_setup(cfg, n=50)
    w0 = np.where(grid.positions <= 0.0, 1.0, 0.0)
    scheme = StepScheme(kind="picard", picard_tol=1e-10)
    horizon = 10 * scheme.window_for(gen.constants)
    traj = evolve(gen, w0, scheme, horizon)
    report = traj.picard
    mono = evolve(gen, w0, StepScheme(kind="implicit", dt=traj.dt), horizon)
    diff = traj.final_state - mono.final_state
    dist = float(np.sqrt(np.sum(grid.weights * diff * diff)))
    ratio_ok = all(r <= report.kappa for r in report.contraction_ratios)
    return (
        dist <= 1e-6 and ratio_ok,
        f"L2 gap to monolithic implicit {dist:.2e}; "
        f"ratios <= kappa={report.kappa:.3f}: {ratio_ok}",
    )


def check_semigroup_oracle(cfg):
    grid, gen = _coupled_setup(cfg, n=20)
    bump = SimConfig(init_kind="gaussian", init_center=-0.5, init_width=0.15,
                     init_amplitude=0.25)
    w0 = initial_state(bump, grid)
    t = 0.5
    exact = _semigroup_oracle(gen, w0, t)[0]
    traj = evolve(gen, w0, StepScheme(kind="implicit", dt=1e-4), horizon=t)
    diff = traj.final_state - exact
    dist = float(np.sqrt(np.sum(gen.weights * diff * diff)))
    return dist <= 1e-5, f"L2 gap to matrix exponential {dist:.2e}"


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
