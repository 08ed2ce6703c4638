"""Acceptance gate: every criterion at its stated size and tolerance.

Each test prints one `ACCEPTANCE <nn> <name>: PASS|FAIL` line (visible with
pytest -rA).  Criteria 01, 02, 04, 07, 08, 09 and 10 measure through the
functions of couplediff.verify that `couplediff verify` calls at smaller
sizes; each criterion asserts its own bounds.  Criterion 06 checks the rescaling limit along the sweep
eps = 0.4, 0.2, 0.1, 0.05: the sup error to the heat solution and the gap's
distance from pi^2/8 both decrease strictly, and at eps <= 0.1 the gap lies
within 2% of the transmission oracle mu^2/2 with mu tan mu = 2g, where
g = (1/eps) int_0^R rho J is the interface contact conductance of the
rescaled kernel.  That oracle tends to pi^2/8 as eps -> 0 but sits ~24%
below it at eps = 0.05, so pi^2/8 itself is not a reachable target there.
"""
import time

import numpy as np
import pytest

from couplediff import (
    BarrierSpec,
    assemble_generator,
    assemble_heat_generator,
    barrier_fields,
    build_grid,
    coupling_constants,
    epsilon_sweep,
    estimate_beta1,
    estimate_energy_control_k,
    make_kernel,
    supersolution_check,
)
from couplediff.config import SimConfig
from couplediff.kernels import FAMILIES
from couplediff.verify import (
    decay_fit,
    ordering_violation,
    picard_gap,
    semigroup_gap,
    step_drift_and_rise,
    structure_defect_by_case,
)
from conftest import transmission_beta1

PI2_OVER_8 = np.pi**2 / 8.0


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}  {detail}")
    return ok


def triangle_generator(n):
    kernel = make_kernel("triangle", 1.0, 1.0)
    return assemble_generator(build_grid(n, n), kernel, coupling_constants(kernel))


@pytest.fixture(scope="module")
def gen200():
    return triangle_generator(200)


@pytest.fixture(scope="module")
def step_run(gen200):
    start = time.time()
    drift, rise = step_drift_and_rise(gen200, 1e-3, 10.0)
    return drift, rise, time.time() - start


def test_criterion_01_mass_conservation(step_run):
    drift, _, elapsed = step_run
    ok = drift <= 1e-11 and elapsed <= 30.0
    assert report(1, "mass-conservation", ok, f"drift={drift:.2e} time={elapsed:.1f}s")


def test_criterion_02_energy_dissipation(step_run):
    _, rise, _ = step_run
    ok = rise <= 1e-12
    assert report(2, "energy-dissipation", ok, f"max step increase={rise:.2e}")


def test_criterion_03_spectral_gap(gen200):
    start = time.time()
    rep = estimate_beta1(gen200)
    fine = estimate_beta1(
        assemble_generator(build_grid(400, 400), gen200.kernel, gen200.constants)
    )
    elapsed = time.time() - start
    change = abs(fine.beta1 / rep.beta1 - 1.0)
    ok = (
        rep.beta1 > 0.01
        and rep.residual <= 1e-8 * rep.lambda2
        and change < 0.01
        and elapsed <= 60.0
    )
    assert report(
        3, "spectral-gap",
        ok,
        f"beta1={rep.beta1:.6f} residual={rep.residual:.1e} "
        f"refinement change={change:.2e} time={elapsed:.1f}s",
    )


def test_criterion_04_exponential_decay(gen200):
    rep, spectral = decay_fit(gen200, 2e-3, 8.0)
    in_range = 1.9 * spectral.beta1 <= rep.fitted_rate <= 2.1 * spectral.beta1
    ok = rep.bound_satisfied and in_range
    assert report(
        4, "exponential-decay",
        ok,
        f"bound={rep.bound_satisfied} fitted={rep.fitted_rate:.5f} "
        f"2*beta1={2 * spectral.beta1:.5f}",
    )


def test_criterion_05_eigensolver_anchor():
    rep = estimate_beta1(assemble_heat_generator(400))
    rel = abs(rep.beta1 / PI2_OVER_8 - 1.0)
    ok = rel <= 0.02
    assert report(5, "pure-heat-anchor", ok, f"beta1={rep.beta1:.6f} rel err={rel:.2e}")


def test_criterion_06_rescaling_limit():
    cfg = SimConfig(
        init_kind="gaussian", init_center=-0.5, init_width=0.15,
        grid_n_local=200, grid_n_nonlocal=200, time_dt=5e-4, time_horizon=0.5,
    )
    start = time.time()
    rows = epsilon_sweep(cfg, [0.4, 0.2, 0.1, 0.05])
    elapsed = time.time() - start
    errs = [r.sup_error_l2 for r in rows]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    heat_dist = [abs(r.beta1_eps / PI2_OVER_8 - 1.0) for r in rows]
    approaching = all(a > b for a, b in zip(heat_dist, heat_dist[1:]))
    # Half-moment int_0^R rho J of the unit-radius triangle family: R / 6.
    oracles = [transmission_beta1(r.epsilon, 1.0 / 6.0) for r in rows]
    oracle_rel = [abs(r.beta1_eps / o - 1.0) for r, o in zip(rows, oracles)]
    oracle_ok = all(
        rel <= 0.02 for r, rel in zip(rows, oracle_rel) if r.epsilon <= 0.1
    )
    ok = decreasing and approaching and oracle_ok and elapsed <= 300.0
    members = "; ".join(
        f"eps={r.epsilon:g}: beta1={r.beta1_eps:.4f} oracle={o:.4f} "
        f"(rel {rel:.2%}) pi^2/8 dist={d:.3f}"
        for r, o, rel, d in zip(rows, oracles, oracle_rel, heat_dist)
    )
    assert report(
        6, "rescaling-limit",
        ok,
        f"sup_errors={[f'{e:.4f}' for e in errs]} decreasing={decreasing} "
        f"approaching pi^2/8={approaching}; {members}; time={elapsed:.0f}s",
    )


def test_criterion_07_comparison_principle():
    worst = ordering_violation(triangle_generator(50), 20260801, 50, 200, 40)
    ok = worst <= 1e-12
    assert report(7, "comparison-principle", ok, f"worst violation={worst:.2e}")


def test_criterion_08_picard_fidelity():
    generator = triangle_generator(100)
    constants = generator.constants
    window = 0.8 / (2 * constants.c1 + 1.0)
    gap, rep = picard_gap(generator, window, 0.5)
    converged = all(n <= rep.tol for n in rep.final_update_norms)
    ratios_ok = rep.kappa >= 1.0 or all(r <= rep.kappa for r in rep.contraction_ratios)
    ok = converged and gap <= 1e-6 and ratios_ok
    assert report(
        8, "picard-fidelity",
        ok,
        f"windows={rep.window_count} gap={gap:.2e} kappa={rep.kappa:.3f} "
        f"max ratio={max(rep.contraction_ratios):.2e}",
    )


def test_criterion_09_semigroup_oracle():
    gap = semigroup_gap(triangle_generator(20), 0.5, 1e-4, 1.0)
    ok = gap <= 1e-5
    assert report(9, "semigroup-oracle", ok, f"L2 gap={gap:.2e}")


def test_criterion_10_operator_structure():
    cases = [(family, eps) for family in FAMILIES for eps in (1.0, 0.25)]
    worst = max(structure_defect_by_case(cases, 1.0, 50).values())
    ok = worst <= 1e-12
    assert report(10, "operator-structure", ok, f"worst defect={worst:.2e}")


def test_criterion_11_energy_control():
    constants = coupling_constants(make_kernel("triangle", 1.0, 1.0))
    ks = {}
    for eps, n in ((1.0, 100), (0.5, 200), (0.25, 400)):
        grid = build_grid(n, n)
        kernel = make_kernel("triangle", 1.0, eps)
        ks[eps] = estimate_energy_control_k(
            assemble_generator(grid, kernel, constants), 500, seed=1234
        )
    positive = all(v > 0.0 for v in ks.values())
    uniform = min(ks.values()) >= 0.5 * ks[1.0]
    ok = positive and uniform
    assert report(
        11, "energy-control",
        ok,
        "k-hat=" + ", ".join(f"{e}:{v:.1f}" for e, v in ks.items())
        + f" min/k(1)={min(ks.values()) / ks[1.0]:.3f}",
    )


def test_criterion_12_barrier_supersolution():
    kernel = make_kernel("triangle", 1.0, 1.0)
    constants = coupling_constants(kernel)
    grid = build_grid(1000, 100)
    spec = BarrierSpec(xi0=2.0, a=0.5, T=0.03)
    times = np.arange(0.0, spec.T + 1e-12, 1e-5)
    states = barrier_fields(spec, grid, times)
    rep = supersolution_check(states, times, assemble_generator(grid, kernel, constants), tol=1e-6)
    ok = rep.passed((1, 2, 3))
    assert report(
        12, "barrier-supersolution",
        ok,
        f"margins={[f'{m:.2e}' for m in rep.margins()[:3]]}",
    )
