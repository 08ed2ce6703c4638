"""Self-contained verification checklist behind the CLI verify subcommand.

Each check re-derives its expectation from structure (exact identities,
closed forms, or an independent oracle) at sizes small enough to finish in
seconds; the full acceptance suite in tests/ runs the same properties at the
production sizes.  A check hook lets tests corrupt the assembled generator
to confirm the harness actually detects broken structure.
"""
from __future__ import annotations

import numpy as np

from .analysis import decay_report
from .config import SimConfig, initial_state
from .discretization import (
    StateField,
    assemble_generator,
    build_grid,
    mass,
)
from .energy_spectrum import _semigroup_oracle, estimate_beta1
from .evolution import (
    StepScheme,
    cfl_limit,
    evolve,
    picard_window_solve,
    step_explicit,
    step_implicit,
)
from .kernels import coupling_constants, make_kernel


def _structure_defects(generator):
    """Relative defect of each structural identity (tolerances are 1e-12
    times the relevant magnitude, per the generator contract)."""
    L = generator.dense()
    W = generator.weights
    n = L.shape[0]
    WL = W[:, None] * L
    wl_scale = float(np.max(np.abs(WL))) or 1.0
    row_mag = np.abs(L).sum(axis=1)
    defects = {
        "row_sum": float(np.max(np.abs(L.sum(axis=1)) / row_mag)),
        "wl_symmetry": float(np.max(np.abs(WL - WL.T))) / wl_scale,
        "column_mass": float(np.max(np.abs(W @ L) / (W * row_mag))),
        "offdiag_sign": float(-min(0.0, np.min(L[~np.eye(n, dtype=bool)]))),
        "diag_sign": float(max(0.0, np.max(np.diag(L)))),
    }
    dt = 0.1
    M = np.eye(n) - dt * L
    defects["m_matrix_rows"] = float(np.max(np.abs(M.sum(axis=1) - 1.0) / (1.0 + dt * row_mag)))
    defects["m_matrix_diag"] = float(max(0.0, 1.0 - np.min(np.diag(M))))
    off = M[~np.eye(n, dtype=bool)]
    defects["m_matrix_offdiag"] = float(max(0.0, np.max(off)))
    return defects


def check_operator_structure(cfg, transform=None):
    worst = 0.0
    cases = []
    for family, eps in (("triangle", 1.0), ("uniform", 0.25), ("epanechnikov", 1.0)):
        kernel = make_kernel(family, cfg.kernel_radius, eps)
        grid = build_grid(50, 50)
        gen = assemble_generator(grid, kernel, coupling_constants(kernel))
        if transform is not None:
            transform(gen)
        defects = _structure_defects(gen)
        worst = max(worst, max(defects.values()))
        cases.append(f"{family}/eps={eps}: {max(defects.values()):.2e}")
    return worst <= 1e-12, f"worst defect {worst:.2e} ({'; '.join(cases)})"


def _coupled_setup(cfg, n=100, transform=None):
    kernel = make_kernel(cfg.kernel_family, cfg.kernel_radius, cfg.kernel_epsilon)
    grid = build_grid(n, n)
    gen = assemble_generator(grid, kernel, coupling_constants(kernel))
    if transform is not None:
        transform(gen)
    return grid, gen


def check_mass_conservation(cfg, transform=None):
    grid, gen = _coupled_setup(cfg, transform=transform)
    w0 = StateField(grid, np.where(grid.positions <= 0.0, 1.0, 0.0))
    traj = evolve(gen, w0, StepScheme(kind="implicit", dt=1e-2), horizon=2.0)
    drift = float(np.max(np.abs(traj.mass - traj.mass[0])))
    rel = drift / abs(traj.mass[0])
    return rel <= 1e-11, f"relative mass drift {rel:.2e}"


def check_energy_dissipation(cfg, transform=None):
    grid, gen = _coupled_setup(cfg, transform=transform)
    w0 = StateField(grid, np.where(grid.positions <= 0.0, 1.0, 0.0))
    traj = evolve(gen, w0, StepScheme(kind="implicit", dt=1e-2), horizon=2.0)
    rise = float(np.max(np.diff(traj.energy_total)))
    return rise <= 1e-12, f"largest per-step energy increase {rise:.2e}"


def check_comparison_principle(cfg, transform=None):
    grid, gen = _coupled_setup(cfg, n=30, transform=transform)
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    dt_exp = cfl_limit(gen)
    for _ in range(10):
        lo = rng.standard_normal(grid.size)
        hi = lo + np.abs(rng.standard_normal(grid.size))
        w_lo, w_hi = StateField(grid, lo), StateField(grid, hi)
        for _ in range(40):
            w_lo = step_explicit(gen, w_lo, dt_exp)
            w_hi = step_explicit(gen, w_hi, dt_exp)
            worst = max(worst, float(np.max(w_lo.values - w_hi.values)))
        w_lo, w_hi = StateField(grid, lo), StateField(grid, hi)
        for _ in range(20):
            w_lo = step_implicit(gen, w_lo, 5e-3)
            w_hi = step_implicit(gen, w_hi, 5e-3)
            worst = max(worst, float(np.max(w_lo.values - w_hi.values)))
    return worst <= 1e-12, f"worst ordering violation {worst:.2e}"


def check_decay_bound(cfg, transform=None):
    grid, gen = _coupled_setup(cfg, transform=transform)
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


def check_picard_oracle(cfg, transform=None):
    grid, gen = _coupled_setup(cfg, n=50, transform=transform)
    w0 = StateField(grid, np.where(grid.positions <= 0.0, 1.0, 0.0))
    scheme = StepScheme(kind="picard", picard_tol=1e-10)
    horizon = 10 * scheme.window_for(gen.constants)
    traj, report = picard_window_solve(gen, w0, scheme, horizon)
    mono = evolve(gen, w0, StepScheme(kind="implicit", dt=traj.dt), horizon)
    diff = traj.final_state.values - mono.final_state.values
    dist = float(np.sqrt(np.sum(grid.weights * diff * diff)))
    ratio_ok = all(r <= report.kappa for r in report.contraction_ratios)
    return (
        dist <= 1e-6 and ratio_ok,
        f"L2 gap to monolithic implicit {dist:.2e}; "
        f"ratios <= kappa={report.kappa:.3f}: {ratio_ok}",
    )


def check_semigroup_oracle(cfg, transform=None):
    grid, gen = _coupled_setup(cfg, n=20, transform=transform)
    bump = SimConfig(init_kind="gaussian", init_center=-0.5, init_width=0.15,
                     init_amplitude=0.25)
    w0 = initial_state(bump, grid)
    t = 0.5
    exact = _semigroup_oracle(gen, w0.values, t)[0]
    traj = evolve(gen, w0, StepScheme(kind="implicit", dt=1e-4), horizon=t)
    diff = traj.final_state.values - exact
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


def run_all(cfg: SimConfig, transform=None, out=print) -> int:
    """Run every check, print one PASS/FAIL line each, return 0 iff all pass."""
    failures = 0
    for name, check in CHECKS:
        try:
            ok, detail = check(cfg, transform)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        out(f"{status}  {name:<22} {detail}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1
