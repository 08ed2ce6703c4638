import tracemalloc

import numpy as np
import pytest

from couplediff import (
    BarrierSpec,
    StepScheme,
    assemble_generator,
    assemble_heat_generator,
    barrier_fields,
    build_grid,
    decay_report,
    epsilon_sweep,
    estimate_beta1,
    evolve,
    heat_reference,
    interface_jump,
    supersolution_check,
)
from couplediff.analysis import _HeatReference
from couplediff.energy_spectrum import _semigroup_oracle
from couplediff.config import SimConfig, initial_state
from couplediff.evolution import BLOCK_STATES, _States
from couplediff.kernels import coupling_constants, make_kernel
from conftest import weighted_norm, with_edges


def test_heat_reference_single_mode(grid100):
    mode = np.cos(np.pi * (grid100.positions + 1) / 2)
    ref = heat_reference(grid100, mode, 1.0, 100)
    exact = np.exp(-np.pi**2 / 4) * mode
    assert np.max(np.abs(ref - exact)) <= 1e-5


def test_heat_reference_conserves_mass(grid100):
    prof = np.exp(-((grid100.positions + 0.5) ** 2) / (2 * 0.15**2))
    W = grid100.weights
    for t in (0.0, 0.05, 1.0):
        ref = heat_reference(grid100, prof, t, 100)
        assert abs(W @ ref - W @ prof) <= 1e-8


def test_heat_reference_projection_improves_with_modes():
    grid = build_grid(300, 300)
    prof = np.exp(-((grid.positions + 0.5) ** 2) / (2 * 0.15**2))
    errs = [weighted_norm(grid, heat_reference(grid, prof, 0.0, m) - prof) for m in (16, 64, 256)]
    assert errs[0] > errs[1] >= errs[2]


def test_heat_reference_drops_subnormal_terms():
    grid = build_grid(200, 200)
    w0 = np.exp(-((grid.positions + 0.5) ** 2) / (2 * 0.15**2))
    ref = _HeatReference(grid, w0, 256)
    t = 0.05
    terms = ref.coeff * np.exp(-ref.rates * t)
    assert np.any((terms != 0.0) & (np.abs(terms) < np.finfo(float).tiny))
    full = ref.mean + ref.modes @ terms
    assert np.max(np.abs(ref.at(t) - full)) <= 1e-15


def _all_modes(ref, t):
    """The reference summed over every mode, live or not."""
    c = ref.coeff * np.exp(-np.multiply.outer(t, ref.rates))
    c[np.abs(c) < np.finfo(float).tiny] = 0.0
    return ref.mean + (ref.modes @ c.T).T


def test_heat_reference_live_modes_bit_identical():
    """On every block of criterion 06's sweep (200 x 200, dt = 5e-4, horizon
    0.5: 16 blocks of up to 64 times) at() equals the product over all 200
    modes bit for bit, though it multiplies fewer from the second block on.
    So it does with the lowest coefficient exactly 0, whose mode is dead from
    t = 0 while the next ones live: the live modes are not a prefix."""
    cfg = SimConfig(init_kind="gaussian", init_center=-0.5, init_width=0.15,
                    grid_n_local=200, grid_n_nonlocal=200, time_dt=5e-4)
    grid = build_grid(200, 200)
    w0 = initial_state(cfg, grid)
    dt, n_steps = StepScheme(dt=cfg.time_dt).plan(0.5)[:2]
    times = np.arange(n_steps + 1) * dt  # _States' k dt
    blocks = [times[k : k + BLOCK_STATES] for k in range(0, times.size, BLOCK_STATES)]
    assert len(blocks) == 16
    ref, zero = _HeatReference(grid, w0), _HeatReference(grid, w0)
    zero.coeff[0] = 0.0  # before the first at(), which reads the reach off coeff
    assert ref.modes.shape[1] == 200
    assert np.count_nonzero(ref.rates * blocks[1][0] <= ref.reach) < 200
    live = zero.rates * blocks[-1][0] <= zero.reach
    assert not live[0] and live[1]
    for block in blocks:
        for r in (ref, zero):
            assert np.array_equal(r.at(block), _all_modes(r, block))


def test_heat_reference_peak_memory():
    """Building the 401 x 200 reference of criterion 06 holds at most 3.75
    n x m float arrays (n = 401 dofs, m = 200 modes) at once.  The modes are
    one array built and weighted in place; numpy's QR adds its working copy
    of it and q (three arrays), then R = triu(...) of its top m rows, an
    m x m float array and an m x m boolean mask: since m <= (n - 1) / 2,
    9 m^2 bytes are at most 9/16 of an n x m float array.  The O(n + m)
    vectors (positions, weights, rates, coefficients, tau) are well inside
    the last 3/16."""
    grid = build_grid(200, 200)
    w0 = np.where(grid.positions < 0.1, 1.0, 0.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ref = _HeatReference(grid, w0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert ref.modes.shape == (401, 200)
    assert peak <= 3.75 * ref.modes.nbytes


def test_heat_reference_long_time_constant(grid100):
    prof = np.exp(-((grid100.positions + 0.5) ** 2) / (2 * 0.15**2))
    ref = heat_reference(grid100, prof, 50.0, 100)
    assert np.max(np.abs(ref - grid100.weights @ prof / 2)) <= 1e-12


def test_decay_report_pure_heat_rate():
    gen = assemble_heat_generator(200)
    grid = gen.grid
    w0 = np.cos(np.pi * (grid.positions + 1) / 2)
    traj = evolve(gen, w0, StepScheme(dt=1e-3), 6.0)
    report = decay_report(traj, estimate_beta1(gen))
    assert report.fitted_rate == pytest.approx(np.pi**2 / 4, rel=0.02)
    assert report.bound_satisfied
    assert 0.0 <= report.r_squared <= 1.0


def test_decay_report_coupled_rate(grid100, gen100):
    prof = np.exp(-((grid100.positions + 0.5) ** 2) / (2 * 0.15**2))
    traj = evolve(gen100, prof, StepScheme(dt=2e-3), 8.0)
    spectral = estimate_beta1(gen100)
    report = decay_report(traj, spectral)
    assert 1.9 * spectral.beta1 <= report.fitted_rate <= 2.1 * spectral.beta1
    assert report.bound_satisfied
    assert report.fit_window[0] < report.fit_window[1]


def test_decay_report_insufficient_samples(grid100, gen100):
    traj = evolve(gen100, np.ones(grid100.size), StepScheme(dt=1e-2), 0.5)
    spectral = estimate_beta1(gen100)
    with pytest.raises(ValueError):
        decay_report(traj, spectral)


def _sweep_config(**kw):
    base = dict(
        init_kind="gaussian",
        init_center=-0.5,
        init_width=0.15,
        grid_n_local=100,
        grid_n_nonlocal=100,
        time_dt=1e-3,
    )
    base.update(kw)
    return SimConfig(**base)


def test_epsilon_sweep_monotone():
    rows = epsilon_sweep(_sweep_config(), [0.4, 0.2, 0.1, 0.05], horizon=0.5)
    errs = [r.sup_error_l2 for r in rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    betas = [r.beta1_eps for r in rows]
    assert all(b > a for a, b in zip(betas, betas[1:]))
    jumps = [r.interface_jump for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(jumps, jumps[1:]))
    assert rows[-1].n_nonlocal >= int(np.ceil(4 / 0.05))


def test_epsilon_sweep_error_matches_per_state_loop():
    """The sweep's sup error, taken over blocks of states against the heat
    reference at an array of times, equals the per-state loop to 1e-13
    relative, and its interface jump is that of the loop's last state.  The
    horizons make 64 states (one full block), 65 (a full block and one state)
    and 131 (two full blocks and a partial one)."""
    cfg = _sweep_config()
    constants = coupling_constants(make_kernel("triangle", 1.0, 1.0))
    for horizon, n_steps in ((0.063, 63), (0.064, 64), (0.13, 130)):
        rows = epsilon_sweep(cfg, [0.4, 0.2], horizon=horizon)
        for row in rows:
            grid = build_grid(cfg.grid_n_local, row.n_nonlocal)
            gen = assemble_generator(grid, make_kernel("triangle", 1.0, row.epsilon), constants)
            w0 = initial_state(cfg, grid)
            ref = _HeatReference(grid, w0, 256)
            states = _States(gen, w0, StepScheme(dt=cfg.time_dt), horizon)
            sup = 0.0
            for t, values in states:
                sup = max(sup, weighted_norm(grid, values - ref.at(t)))
            assert states.n_steps == n_steps
            assert abs(row.sup_error_l2 - sup) <= 1e-13 * sup
            assert row.interface_jump == interface_jump(grid, values)


def test_heat_reference_at_array_of_times(grid100):
    w0 = np.exp(-((grid100.positions + 0.5) ** 2) / (2 * 0.15**2))
    ref = _HeatReference(grid100, w0, 256)
    times = np.array([0.0, 1e-3, 0.05, 1.0, 400.0])
    block = ref.at(times)
    assert block.shape == (times.size, grid100.size)
    for t, row in zip(times, block):
        np.testing.assert_allclose(row, ref.at(t), rtol=1e-13, atol=1e-15)


def test_epsilon_sweep_constant_data_exact():
    rows = epsilon_sweep(_sweep_config(init_kind="constant"), [0.4, 0.1], horizon=0.3)
    assert all(r.sup_error_l2 <= 1e-10 for r in rows)


def test_epsilon_sweep_rejects_bad_lists():
    with pytest.raises(ValueError):
        epsilon_sweep(_sweep_config(), [0.1, 0.2], horizon=0.3)
    with pytest.raises(ValueError):
        epsilon_sweep(_sweep_config(), [], horizon=0.3)


def test_supersolution_exact_solution_margins(triangle_kernel, constants):
    """An exact trajectory satisfies every inequality with equality up to
    discretization: the one-sided boundary differences carry O(h) curvature,
    so the honest pass tolerance is the mesh width."""
    grid = build_grid(20, 20)
    gen = assemble_generator(grid, triangle_kernel, constants)
    prof = np.exp(-((grid.positions + 0.5) ** 2) / (2 * 0.15**2))
    times = np.arange(0.1, 0.5 + 1e-12, 5e-4)
    states = _semigroup_oracle(gen, prof, times)
    report = supersolution_check(states, times, gen, tol=grid.h_local)
    assert report.passed((1, 2, 3, 4)), report.margins()


def test_supersolution_needs_three_samples(grid50, gen50):
    with pytest.raises(ValueError):
        supersolution_check(np.zeros((2, grid50.size)), [0.0, 0.1], gen50, 1e-6)


def test_supersolution_rejects_nonuniform_times(grid50, gen50):
    with pytest.raises(ValueError, match="uniform"):
        supersolution_check(np.zeros((4, grid50.size)), [0.0, 0.1, 0.15, 0.4], gen50, 1e-6)


def test_supersolution_reads_its_generator(grid50, gen50):
    """All four margins are minima over the rows of the generator handed in:
    with the local edge (0, 1) ten times stronger, they equal the minima of
    w_t - L w and -(W L w) from its dense L on a random block of states."""
    gen = with_edges(gen50, [(0, 1, 9.0 / grid50.h_local)])
    states = np.random.default_rng(20).standard_normal((5, grid50.size))
    times = np.linspace(0.0, 0.04, 5)
    lw = states @ gen.dense().T
    residual = (states[2:] - states[:-2]) / 0.02 - lw[1:-1]
    iface = grid50.interface_index
    expected = (
        residual[:, 1:iface].min(),
        -(gen.weights[0] * lw[:, 0]).max(),
        -(gen.weights[iface] * lw[:, iface]).max(),
        residual[:, iface + 1 :].min(),
    )
    report = supersolution_check(states, times, gen, 1e-6)
    np.testing.assert_allclose(report.margins(), expected, rtol=1e-12, atol=0.0)


def test_heat_reference_needs_a_mode(grid100):
    with pytest.raises(ValueError):
        heat_reference(grid100, np.zeros(grid100.size), 0.1, 0)


def test_barrier_spec_properties():
    spec = BarrierSpec(xi0=2.0, a=0.5, T=0.03)
    xi = np.linspace(-5, 0, 2001)
    f = spec.profile(xi)
    assert np.all(f >= 1.0 - 1e-15)
    assert np.all(np.diff(f) >= -1e-15)
    assert spec.profile(-spec.xi0) == pytest.approx(1.0)
    d = 1e-6
    fp0 = (spec.profile(0.0) - spec.profile(-d)) / d
    assert fp0 == pytest.approx(1.0, rel=1e-4)
    fpp = np.diff(f, 2) / (xi[1] - xi[0]) ** 2
    assert np.max(np.abs(fpp)) <= 2.0 / spec.xi0 + 1e-6
    assert spec.a <= np.sqrt(spec.xi0) / 2
    with pytest.raises(ValueError):
        BarrierSpec(xi0=0.5, a=0.5, T=0.01)
    with pytest.raises(ValueError):
        BarrierSpec(xi0=2.0, a=0.5, T=0.04)  # T >= a^2 / (2 xi0^2)


def test_barrier_is_supersolution(triangle_kernel, constants):
    grid = build_grid(1000, 100)
    spec = BarrierSpec(xi0=2.0, a=0.5, T=0.03)
    times = np.arange(0.0, spec.T + 1e-12, 1e-5)
    states = barrier_fields(spec, grid, times)
    gen = assemble_generator(grid, triangle_kernel, constants)
    report = supersolution_check(states, times, gen, 1e-6)
    assert report.passed((1, 2, 3)), report.margins()


def test_negated_barrier_is_subsolution(triangle_kernel, constants):
    grid = build_grid(200, 50)
    spec = BarrierSpec(xi0=2.0, a=0.5, T=0.03)
    times = np.arange(0.0, spec.T + 1e-12, 2e-4)
    states = barrier_fields(spec, grid, times)
    gen = assemble_generator(grid, triangle_kernel, constants)
    report = supersolution_check(-states, times, gen, 1e-6)
    assert not report.passed((1,))
    assert report.margin_interior < -1e-3


def test_interface_jump_extrapolation(grid50):
    values = np.where(grid50.positions <= 0, 2.0, 1.0)
    assert interface_jump(grid50, values) == pytest.approx(1.0)
