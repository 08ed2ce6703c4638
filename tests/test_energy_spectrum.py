import numpy as np
import pytest
from scipy.integrate import dblquad

from couplediff import (
    GeneratorMatrix,
    StateField,
    assemble_generator,
    assemble_heat_generator,
    build_grid,
    constant_state,
    energy,
    estimate_beta1,
    estimate_energy_control_k,
    make_kernel,
    mass,
    nonlocal_energy_full,
    rayleigh,
    supersolution_check,
    weighted_inner,
)
from conftest import transmission_beta1

PI2_OVER_8 = np.pi**2 / 8.0


def test_energy_zero_for_constants(grid50, gen50):
    e = energy(gen50, constant_state(grid50, 5.0))
    assert e.local_term == 0.0
    assert e.nonlocal_term == 0.0
    assert e.coupling_term == 0.0
    assert e.total == 0.0


def test_energy_terms_nonnegative_and_additive(grid50, gen50):
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = StateField(grid50, rng.standard_normal(grid50.size))
        e = energy(gen50, w)
        assert e.local_term >= 0 and e.nonlocal_term >= 0 and e.coupling_term >= 0
        assert e.total == e.local_term + e.nonlocal_term + e.coupling_term


def test_energy_coupling_closed_form(triangle_kernel, constants):
    """u = 0, v = 1: only the interface term survives and its quadrature
    converges to (1/2) int_0^1 (1-y)^2/2 dy = 1/12."""
    errs = []
    for n in (50, 200):
        g = build_grid(n, n)
        w = StateField(g, np.where(g.positions <= 0, 0.0, 1.0))
        e = energy(assemble_generator(g, triangle_kernel, constants), w)
        assert e.local_term == 0.0
        assert e.nonlocal_term == 0.0
        errs.append(abs(e.coupling_term - 1.0 / 12.0))
    assert errs[1] < errs[0]
    assert errs[1] <= 1e-5


def test_tiny_energy_implies_near_constant(grid100, gen100):
    """total < 1e-14 must force max - min below 1e-6; the extremal state for
    that implication is the gap eigenvector, scaled to sit on the threshold."""
    rep = estimate_beta1(gen100)
    scale = np.sqrt(0.99e-14 / rep.beta1)
    w = StateField(grid100, 3.0 + scale * rep.eigvec.values)
    e = energy(gen100, w)
    assert e.total < 1e-14
    assert np.max(w.values) - np.min(w.values) < 1e-6
    rng = np.random.default_rng(9)
    for _ in range(5):
        z = rng.standard_normal(grid100.size)
        ez = energy(gen100, StateField(grid100, z)).total
        d = np.sqrt(0.9e-14 / ez)
        wz = StateField(grid100, 1.0 + d * z)
        assert energy(gen100, wz).total < 1e-14
        assert np.max(wz.values) - np.min(wz.values) < 1e-6


def test_energy_generator_identity(grid50, gen50):
    rng = np.random.default_rng(4)
    for _ in range(100):
        w = StateField(grid50, rng.standard_normal(grid50.size))
        quad_form = 0.5 * float(
            np.sum(grid50.weights * w.values * (-gen50.dense() @ w.values))
        )
        total = energy(gen50, w).total
        assert total == pytest.approx(quad_form, rel=1e-10)


def test_nonlocal_energy_full_constant(grid50, triangle_kernel):
    assert nonlocal_energy_full(grid50, triangle_kernel, constant_state(grid50, 2.0)) == 0.0


def test_nonlocal_energy_full_indicator_uniform():
    """Indicator of (0,1) under the uniform kernel: the differences are 1
    exactly on the two mixed-side triangles {|x - y| <= 1}, each of area 1/2,
    so the double integral is 2 * (1/2) * (1/2) = 1/2.  Adaptive quadrature
    of the defining integral agrees to its tolerance on the discontinuous
    integrand."""
    kernel = make_kernel("uniform", 1.0, 1.0)
    oracle = 0.5
    quad_val = 2.0 * dblquad(
        lambda y, x: float(kernel(x - y)), 0.0, 1.0, lambda x: -1.0, lambda x: 0.0
    )[0]
    assert quad_val == pytest.approx(oracle, abs=1e-4)
    vals = []
    for n in (50, 200):
        g = build_grid(n, n)
        w = StateField(g, np.where(g.positions <= 0, 0.0, 1.0))
        vals.append(nonlocal_energy_full(g, kernel, w))
    assert vals[1] == pytest.approx(oracle, abs=1e-3)
    assert abs(vals[1] - oracle) <= abs(vals[0] - oracle) + 1e-12


def test_nonlocal_energy_full_nonnegative(grid50, triangle_kernel):
    rng = np.random.default_rng(6)
    for _ in range(10):
        w = StateField(grid50, rng.standard_normal(grid50.size))
        assert nonlocal_energy_full(grid50, triangle_kernel, w) >= 0.0


def test_beta1_pure_heat_oracle():
    rep = estimate_beta1(assemble_heat_generator(400))
    assert rep.beta1 == pytest.approx(PI2_OVER_8, rel=0.02)
    assert rep.lambda2 == pytest.approx(2 * rep.beta1, rel=1e-14)
    assert rep.residual <= 1e-8 * rep.lambda2


def test_beta1_coupled_positive(gen100, grid100):
    rep = estimate_beta1(gen100)
    assert rep.beta1 > 0.0
    assert rep.lambda2 == pytest.approx(2 * rep.beta1, rel=1e-14)
    assert abs(mass(grid100, rep.eigvec)) <= 1e-10
    assert weighted_inner(grid100, rep.eigvec, rep.eigvec) == pytest.approx(1.0)


def test_beta1_small_eps_transmission_oracle(constants):
    """At small eps the gap is set by the interface contact conductance, so it
    matches the transmission value mu^2/2 (see conftest.transmission_beta1);
    the unit-radius triangle family has half-moment 1/6."""
    eps = 0.05
    oracle = transmission_beta1(eps, 1.0 / 6.0)
    grid = build_grid(200, 200)
    kernel = make_kernel("triangle", 1.0, eps)
    rep = estimate_beta1(assemble_generator(grid, kernel, constants))
    assert rep.beta1 == pytest.approx(oracle, rel=0.02)


def test_beta1_stable_under_refinement(triangle_kernel, constants):
    vals = []
    for n in (200, 400):
        gen = assemble_generator(build_grid(n, n), triangle_kernel, constants)
        vals.append(estimate_beta1(gen).beta1)
    assert abs(vals[1] / vals[0] - 1.0) < 0.01


def test_rayleigh_consistency(grid100, gen100):
    rep = estimate_beta1(gen100)
    assert rayleigh(gen100, rep.eigvec) == pytest.approx(rep.beta1, abs=1e-8)
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = StateField(grid100, rng.standard_normal(grid100.size))
        assert rayleigh(gen100, w) >= rep.beta1 - 1e-8
    w = StateField(grid100, rng.standard_normal(grid100.size))
    shifted = StateField(grid100, w.values + 5.0)
    assert rayleigh(gen100, shifted) == pytest.approx(rayleigh(gen100, w), rel=1e-10)
    with pytest.raises(ValueError):
        rayleigh(gen100, constant_state(grid100, 1.0))


def test_energy_control_estimate_contract(gen100):
    k1 = estimate_energy_control_k(gen100, 100, seed=77)
    assert k1 > 0.0
    assert estimate_energy_control_k(gen100, 100, seed=77) == k1
    k2 = estimate_energy_control_k(gen100, 1000, seed=77)
    assert k2 <= k1  # minimum over a superset of the same sample stream
    with pytest.raises(ValueError):
        estimate_energy_control_k(gen100, 5, seed=1)


def test_routines_read_the_given_generator(grid50, gen50):
    """Each routine after assembly reads the band it is handed: doubling A
    doubles the energy, the Rayleigh quotient, the energy-control estimate
    and the interface flux of supersolution margin 3 (u = 0, v = 1, so the
    one-sided interface slope is 0 and the margin is minus the flux)."""
    doubled = GeneratorMatrix(gen50.grid, 2 * gen50.band, gen50.constants, gen50.kernel)
    w = StateField(grid50, np.random.default_rng(3).standard_normal(grid50.size))
    u = np.zeros((3, grid50.n_local + 1))
    v = np.ones((3, grid50.n_nonlocal))
    pairs = [
        (energy(g, w).total, rayleigh(g, w), estimate_energy_control_k(g, 50, seed=11),
         supersolution_check(u, v, [0.0, 0.1, 0.2], g, 1e-6).margin_interface_flux)
        for g in (gen50, doubled)
    ]
    assert pairs[0][3] < 0.0
    for once, twice in zip(*pairs):
        assert twice == pytest.approx(2.0 * once, rel=1e-13)


def test_energy_control_eps_uniform_on_matched_grids(constants):
    """The continuum domination constant is eps-independent; the discrete
    analogue compares random rough states at a fixed cells-per-support
    ratio, i.e. grids refined with eps."""
    ks = {}
    for eps, n in ((1.0, 100), (0.5, 200), (0.25, 400)):
        grid = build_grid(n, n)
        kernel = make_kernel("triangle", 1.0, eps)
        ks[eps] = estimate_energy_control_k(
            assemble_generator(grid, kernel, constants), 200, seed=1234
        )
        assert ks[eps] > 0.0
    assert min(ks.values()) >= 0.5 * ks[1.0]


def test_poincare_constant_reusable_across_eps(grid100):
    """Calibrate ||w - mean||^2 <= C * full nonlocal energy at eps = 1 and
    reuse C unchanged for smaller eps."""
    rng = np.random.default_rng(5)
    samples = []
    for _ in range(50):
        z = rng.standard_normal(grid100.size)
        samples.append(z - 0.5 * float(grid100.weights @ z))

    def max_ratio(eps):
        kernel = make_kernel("triangle", 1.0, eps)
        worst = 0.0
        for z in samples:
            w = StateField(grid100, z)
            nlf = nonlocal_energy_full(grid100, kernel, w)
            worst = max(worst, weighted_inner(grid100, w, w) / nlf)
        return worst

    c_cal = max_ratio(1.0)
    violations = [eps for eps in (0.5, 0.25) if max_ratio(eps) > c_cal]
    assert violations == []
