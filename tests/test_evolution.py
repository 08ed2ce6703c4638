import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplediff import (
    ImplicitStepper,
    StepScheme,
    assemble_generator,
    assemble_heat_generator,
    build_grid,
    cfl_limit,
    contraction_factor,
    coupling_constants,
    energy_form,
    evolve,
    explicit_step,
    make_kernel,
)
from couplediff.config import SimConfig, initial_state
from couplediff.evolution import SCHEME_KINDS, _States
from conftest import _semigroup_oracle, from_dense, weighted_norm, with_edges


@pytest.fixture(scope="module")
def gen20(triangle_kernel, constants):
    return assemble_generator(build_grid(20, 20), triangle_kernel, constants)


def test_cfl_pure_heat_value():
    gen = assemble_heat_generator(200)  # spacing 0.01
    assert cfl_limit(gen) == pytest.approx(0.9 * 0.01**2 / 2.0, rel=1e-12)


def test_cfl_decreases_with_epsilon(constants):
    # coarse local side so the eps^-2 growth of the jump rows sets the limit
    grid = build_grid(4, 256)
    limits = []
    for eps in (1.0, 0.5, 0.25):
        gen = assemble_generator(grid, make_kernel("triangle", 1.0, eps), constants)
        limits.append(cfl_limit(gen))
    assert limits[0] > limits[1] > limits[2]


def test_cfl_zero_generator(grid50):
    gen = from_dense(grid50, np.zeros((grid50.size,) * 2))
    with pytest.raises(ValueError):
        cfl_limit(gen)


def test_step_explicit_contract(gen50, grid50):
    dt = cfl_limit(gen50)
    step = explicit_step(gen50, dt)
    const = np.full(grid50.size, 2.5)
    np.testing.assert_allclose(step(const), 2.5)
    rng = np.random.default_rng(0)
    w = rng.standard_normal(grid50.size)
    out = step(w)
    W = grid50.weights
    assert W @ out == pytest.approx(W @ w, rel=1e-13, abs=1e-14)
    with pytest.raises(ValueError, match="CFL"):
        explicit_step(gen50, 2 * dt)


def test_step_explicit_monotone(gen50, grid50):
    step = explicit_step(gen50, cfl_limit(gen50))
    rng = np.random.default_rng(1)
    lo = rng.standard_normal(grid50.size)
    hi = lo + np.abs(rng.standard_normal(grid50.size))
    a, b = lo, hi
    for _ in range(50):
        a = step(a)
        b = step(b)
        assert np.all(b - a >= -1e-12)


def test_explicit_auto_dt_nudge_stays_within_cfl(gen20):
    """The auto dt is the CFL limit; nudging it to divide the horizon must not
    push it over the limit, so the run takes one more step instead."""
    horizon = 10 * cfl_limit(gen20) * (1 + 5e-10)
    traj = evolve(gen20, np.ones(gen20.size), StepScheme(kind="explicit"), horizon)
    assert len(traj.times) == 12
    assert traj.dt <= cfl_limit(gen20)


def test_explicit_sup_norm_contraction(triangle_kernel, constants):
    grid = build_grid(20, 20)
    gen = assemble_generator(grid, triangle_kernel, constants)
    dt = cfl_limit(gen)
    rng = np.random.default_rng(11)
    w = rng.standard_normal(grid.size)
    M = np.eye(grid.size) + dt * gen.dense()
    prev = np.max(np.abs(w))
    for _ in range(10_000):
        w = M @ w
        cur = np.max(np.abs(w))
        assert cur <= prev * (1 + 1e-14)
        prev = cur


def test_step_implicit_contract(gen50, grid50):
    energy = energy_form(gen50)
    const = np.full(grid50.size, -1.5)
    np.testing.assert_allclose(ImplicitStepper(gen50, 0.1).step(const), -1.5)
    step = ImplicitStepper(gen50, 0.05).step
    rng = np.random.default_rng(2)
    W = grid50.weights
    for _ in range(5):
        w = rng.standard_normal(grid50.size)
        out = step(w)
        assert W @ out == pytest.approx(W @ w, rel=1e-12, abs=1e-13)
        e0 = sum(energy(w))
        e1 = sum(energy(out))
        assert e1 <= e0
    with pytest.raises(ValueError, match="dt must be positive"):
        ImplicitStepper(gen50, 0.0)


@pytest.mark.parametrize("eps, half_bandwidth", [(1.0, 200), (0.05, 10)])
def test_stepper_layouts_match_dense_solve(constants, eps, half_bandwidth):
    """A full-width (eps = 1) and a narrow band, 200 steps against
    numpy.linalg.solve of the increment step."""
    grid = build_grid(200, 200)
    gen = assemble_generator(grid, make_kernel("triangle", 1.0, eps), constants)
    dt = 5e-4
    stepper = ImplicitStepper(gen, dt)
    assert stepper.stiffness.half_bandwidth == half_bandwidth
    L = gen.dense()
    M = np.eye(grid.size) - dt * L
    w = ref = np.exp(-((grid.positions + 0.5) ** 2) / (2 * 0.15**2))
    for _ in range(200):
        w = stepper.step(w)
        ref = ref + np.linalg.solve(M, dt * (L @ ref))
        assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("family", ("uniform", "triangle", "epanechnikov"))
@pytest.mark.parametrize("eps", (1.0, 0.25, 0.05))
@pytest.mark.parametrize("n", (20, 200))
def test_split_solve_matches_dense_solve(family, eps, n):
    """The split factorization's solve, before and after refinement, against
    numpy.linalg.solve of I - dt L to 1e-12 relative; eps = 0.05 takes the
    sweep's 4 / eps nonlocal cells where n is too coarse for its kernel."""
    kernel = make_kernel(family, 1.0, eps)
    grid = build_grid(n, max(n, int(np.ceil(4.0 / eps))))
    gen = assemble_generator(grid, kernel, coupling_constants(kernel))
    dt = 5e-4
    stepper = ImplicitStepper(gen, dt)
    assert stepper.factor.p == grid.interface_index
    M = np.eye(grid.size) - dt * gen.dense()
    r = np.random.default_rng(33).standard_normal(grid.size)
    ref = np.linalg.solve(M, r)
    for x in (stepper.factor.solve(r), stepper.solve(r)):
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_split_solve_heat_generator():
    gen = assemble_heat_generator(200)
    dt = 5e-4
    stepper = ImplicitStepper(gen, dt)
    assert stepper.factor.p == gen.size - 1
    r = np.random.default_rng(34).standard_normal(gen.size)
    ref = np.linalg.solve(np.eye(gen.size) - dt * gen.dense(), r)
    assert np.max(np.abs(stepper.solve(r) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_far_link_from_node_zero_leaves_no_chain(gen20):
    """A hand-built generator whose node 0 links to node n - 1 has chain
    length p = 0: the block is the whole band, and 200 steps match the dense
    solve of the increment step."""
    grid = gen20.grid
    n = grid.size
    W = grid.weights
    L = gen20.dense()
    c = 0.7  # conductance of the far edge, (W L)[0, n - 1]
    L[0, n - 1], L[n - 1, 0] = c / W[0], c / W[n - 1]
    L[0, 0] -= c / W[0]
    L[n - 1, n - 1] -= c / W[n - 1]
    gen = from_dense(grid, L)
    assert gen.half_bandwidth == n - 1
    assert gen.split.p == 0
    dt = 5e-4
    stepper = ImplicitStepper(gen, dt)
    M = np.eye(n) - dt * L
    w = ref = np.exp(-((grid.positions + 0.5) ** 2) / (2 * 0.15**2))
    for _ in range(200):
        w = stepper.step(w)
        ref = ref + np.linalg.solve(M, dt * (L @ ref))
        assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_band_layout_conserves_mass_and_dissipates(constants):
    """Criteria 01/02's bounds on a narrow band (eps = 0.05) over 2,000 steps."""
    grid = build_grid(200, 200)
    gen = assemble_generator(grid, make_kernel("triangle", 1.0, 0.05), constants)
    step = np.where(grid.positions <= 0.0, 1.0, 0.0)
    traj = evolve(gen, step, StepScheme(dt=1e-3), 2.0)
    assert len(traj.times) == 2001
    assert np.max(np.abs(traj.mass - traj.mass[0])) / abs(traj.mass[0]) <= 1e-11
    assert np.max(np.diff(traj.energy_total)) <= 1e-12


def test_stepper_rejects_singular_factor(grid50):
    """A non-positive pivot, in the chain's pttrf or the block's pbtrf, raises
    naming its node instead of stepping on, and a dense L whose W L is not
    symmetric is refused before it becomes a band."""
    dt = 0.1
    n = grid50.size
    zero = from_dense(grid50, np.eye(n) / dt)  # W + dt A = 0
    with pytest.raises(RuntimeError, match="pttrf fails at node 0$"):
        ImplicitStepper(zero, dt)
    # symmetric and indefinite with a positive diagonal: W + dt A = W except
    # for rows i and i + 1, which hold h [[1, -2], [-2, 1]] (h = 0.02); the
    # chain is nodes 0..49, the block 50..100
    for i, routine in ((5, "pttrf"), (60, "pbtrf")):
        L = np.zeros((n, n))
        L[i, i + 1] = L[i + 1, i] = 2.0 / dt
        with pytest.raises(RuntimeError, match=f"{routine} fails at node {i + 1}$"):
            ImplicitStepper(from_dense(grid50, L), dt)
    skew = np.zeros((n, n))
    skew[0, 0] = 1.0 / dt
    skew[0, -1] = 1.0  # no (W L)[-1, 0] to match it
    with pytest.raises(ValueError, match="not symmetric"):
        from_dense(grid50, skew)


def test_small_eps_fine_grid_implicit_run(constants):
    """eps = 0.01 on 2000 x 2000 (4,001 dofs, half-bandwidth 20), dt = 1e-3 and
    the default gaussian: a dense LU solve stops at step 7 with its residual
    above 1e-12 ||b||; the band Cholesky stepper completes the run.
    Assembly writes only the band (21 rows, 0.67 MB)."""
    grid = build_grid(2000, 2000)
    gen = assemble_generator(grid, make_kernel("triangle", 1.0, 0.01), constants)
    w0 = initial_state(SimConfig(), grid)
    states = _States(gen, w0, StepScheme(dt=1e-3), 0.012)
    m0 = float(grid.weights @ w0)
    drift = max(abs(float(grid.weights @ values) - m0) for _, values in states)
    assert states.n_steps == 12
    assert drift <= 1e-11 * abs(m0)


def test_implicit_mass_drift_does_not_grow_with_step_count():
    """10,000 implicit steps at dt = 1e-2 from the default gaussian on
    50 x 200 cells (epanechnikov, eps = 0.05): the rows of A sum to zero only
    to roundoff, and a step that applied L to the state itself gained a mass
    error of dt (A 1)^T w each step, 1.1e-11 relative by t = 100.  Applied
    to w - w_I 1, the drift stays at the 1e-13 level."""
    kernel = make_kernel("epanechnikov", 1.0, 0.05)
    grid = build_grid(50, 200)
    gen = assemble_generator(grid, kernel, coupling_constants(kernel))
    traj = evolve(gen, initial_state(SimConfig(), grid), StepScheme(dt=1e-2), 100.0)
    assert len(traj.mass) == 10_001
    assert np.max(np.abs(traj.mass - traj.mass[0])) <= 1e-12 * abs(traj.mass[0])


@pytest.mark.parametrize("n_steps", (1, 62, 63, 64, 65, 127, 200))
def test_block_diagnostics_match_per_state(gen20, n_steps):
    """evolve evaluates its diagnostics a block of 64 states at a time (the
    initial state makes n_steps + 1 rows); every column equals the
    per-state evaluation of the same states to 1e-13.  The snapshots taken
    from the blocks' rows, with a stride of 63 or 64, and the final state
    are the per-state loop's states at the same steps."""
    grid = gen20.grid
    W = grid.weights
    w0 = np.where(grid.positions <= 0, 1.0, 0.0)
    scheme = StepScheme(dt=1e-3)
    terms = energy_form(gen20)
    rows, states = [], []
    for t, values in _States(gen20, w0, scheme, n_steps * 1e-3):
        m = float(W @ values)
        d = values - m / np.sum(W)
        loc, nl, cp = terms(values)
        rows.append((t, m, loc, nl, cp, loc + nl + cp, np.sqrt(np.sum(W * d * d))))
        states.append((t, values.copy()))
    expected = np.array(rows).T
    for stride in (63, 64):
        traj = evolve(gen20, w0, scheme, n_steps * 1e-3, stride)
        got = (traj.times, traj.mass, traj.energy_local, traj.energy_nonlocal,
               traj.energy_coupling, traj.energy_total, traj.dist_to_mean)
        assert len(traj.times) == n_steps + 1
        for column, ref in zip(got, expected):
            np.testing.assert_allclose(column, ref, rtol=1e-13,
                                       atol=1e-13 * np.max(np.abs(ref)))
        kept = [*range(0, n_steps, stride), n_steps]
        assert len(traj.snapshots) == len(kept)
        for (t, snap), k in zip(traj.snapshots, kept):
            assert t == states[k][0]
            assert np.array_equal(snap, states[k][1])
        assert np.array_equal(traj.final_state, states[-1][1])


def test_evolve_constant_state(gen50, grid50):
    traj = evolve(gen50, np.full(grid50.size, 4.0), StepScheme(dt=1e-2), 0.5)
    assert np.max(traj.dist_to_mean) <= 1e-12
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.times) == round(0.5 / 1e-2) + 1


def test_evolve_mass_and_ordering(gen100, grid100):
    step = np.where(grid100.positions <= 0, 1.0, 0.0)
    traj = evolve(gen100, step, StepScheme(dt=5e-3), 2.0)
    drift = np.max(np.abs(traj.mass - traj.mass[0])) / abs(traj.mass[0])
    assert drift <= 1e-11
    assert np.all(np.diff(traj.dist_to_mean) <= 1e-12)
    assert np.all(np.diff(traj.energy_total) <= 1e-12)


def test_evolve_snapshots_stride(gen50, grid50):
    traj = evolve(gen50, np.ones(grid50.size), StepScheme(dt=0.1), 1.0, 3)
    times = [t for t, _ in traj.snapshots]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0)
    assert len(times) == 2 + 3  # initial, final, and steps 3, 6, 9


def test_evolve_aborts_on_blowup():
    # sign-flipped heat generator is anti-dissipative: explicit stepping
    # overflows and evolve must abort instead of emitting corrupt series
    base = assemble_heat_generator(50)
    blow = from_dense(base.grid, -base.dense())
    w = np.cos(np.pi * (base.grid.positions + 1) / 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="non-finite"):
            evolve(blow, w, StepScheme(kind="explicit", dt="auto"), 2.0)


@pytest.mark.parametrize("position", [0, 50, -1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_states_abort_on_injected_non_finite(gen50, grid50, bad, position):
    """A single NaN or infinity in the third state stops the iteration there."""
    states = _States(gen50, np.ones(grid50.size), StepScheme(dt=0.1), 1.0)
    calls = []

    def poisoned(values):
        calls.append(None)
        out = values.copy()
        if len(calls) == 3:
            out[position] = bad
        return out

    states.step = poisoned
    seen = []
    with np.errstate(invalid="ignore"):
        with pytest.raises(RuntimeError, match="non-finite state detected at t = 0.3"):
            for t, _ in states:
                seen.append(t)
    assert seen == pytest.approx([0.0, 0.1, 0.2])


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_states_freed_without_the_cycle_collector(gen50, grid50, kind):
    """A consumed _States is freed, with its Cholesky factor, as soon as it is
    dropped: no reference cycle waits for the collector (it would raise the
    peak memory of the eigensolve that follows a simulate)."""
    dt = {"explicit": cfl_limit(gen50), "implicit": 0.1, "picard": "auto"}[kind]
    states = _States(gen50, np.ones(grid50.size), StepScheme(kind=kind, dt=dt), 0.032)
    for _ in states:
        pass
    ref = weakref.ref(states)
    gc.disable()
    try:
        del states
        assert ref() is None
    finally:
        gc.enable()


def test_scheme_agreement_first_order(triangle_kernel, constants):
    """Explicit and implicit steps differ at O(dt): halving dt at fixed
    horizon halves the gap within [1.5, 2.5]."""
    grid = build_grid(20, 20)
    gen = assemble_generator(grid, triangle_kernel, constants)
    prof = np.exp(-((grid.positions + 0.5) ** 2) / (2 * 0.15**2))
    horizon = 0.1
    gaps = []
    for dt in (cfl_limit(gen), cfl_limit(gen) / 2):
        e = i = prof
        n = int(np.ceil(horizon / dt))
        dt_eff = horizon / n
        explicit, implicit = explicit_step(gen, dt_eff), ImplicitStepper(gen, dt_eff).step
        for _ in range(n):
            e = explicit(e)
            i = implicit(i)
        gaps.append(weighted_norm(grid, e - i))
    assert 1.5 <= gaps[0] / gaps[1] <= 2.5


def test_semigroup_oracle_small_instance(triangle_kernel, constants):
    """Dense eigendecomposition in the weighted inner product gives the exact
    flow; implicit Euler at dt = 1e-4 must match at t = 0.5 within 1e-5."""
    grid = build_grid(20, 20)
    gen = assemble_generator(grid, triangle_kernel, constants)
    w0 = np.exp(-((grid.positions + 0.5) ** 2) / (2 * 0.15**2))
    exact = _semigroup_oracle(gen, w0, 0.5)[0]
    traj = evolve(gen, w0, StepScheme(dt=1e-4), 0.5)
    assert weighted_norm(grid, traj.final_state - exact) <= 1e-5


def test_picard_window_validation(constants):
    sup = 1.0 / (2 * constants.c1 + 1.0)
    with pytest.raises(ValueError):
        StepScheme(kind="picard", picard_window=sup * 1.01).window_for(constants)
    scheme = StepScheme(kind="picard", picard_window=0.8 * sup, dt=0.8 * sup / 7.3)
    grid = build_grid(20, 20)
    kernel = make_kernel("triangle", 1.0, 1.0)
    gen = assemble_generator(grid, kernel, constants)
    w0 = np.ones(grid.size)
    with pytest.raises(ValueError, match="divide"):
        evolve(gen, w0, scheme, 0.5)


@pytest.mark.parametrize("radius, horizon", [(1.0, 0.2), (1.0, 0.2005), (1.14, 0.5),
                                             (1.14, 1.0), (1.14, 5.0)])
def test_picard_auto_plan_divides_the_horizon(radius, horizon):
    """With dt and the window both auto, the sub-step is the auto window / 32
    where that divides the horizon (R = 1, horizon 0.2: 1e-3), and otherwise
    horizon / ceil(32 horizon / window), the window then being 32 of the
    shorter sub-steps."""
    scheme = StepScheme(kind="picard")
    constants = coupling_constants(make_kernel("triangle", radius, 1.0))
    auto = scheme.window_for(constants)
    dt, n_steps, window, window_steps = scheme.plan(horizon, constants)
    if (radius, horizon) == (1.0, 0.2):
        assert (dt, window) == (auto / 32.0, auto)
    else:
        assert n_steps == int(np.ceil(horizon / (auto / 32.0)))
        assert dt == horizon / n_steps and window == 32.0 * dt < auto
    assert window_steps == 32
    assert abs(n_steps * dt - horizon) <= 1e-12 * horizon


def test_picard_constant_state(grid50, gen50, constants):
    scheme = StepScheme(kind="picard")
    window = scheme.window_for(constants)
    traj = evolve(gen50, np.full(grid50.size, 3.0), scheme, 3 * window)
    report = traj.picard
    assert report.iterations == [1, 1, 1]
    assert np.max(traj.dist_to_mean) <= 1e-12
    assert report.kappa == pytest.approx(contraction_factor(constants, window))
    assert report.kappa < 1.0


@pytest.mark.parametrize("radius", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("family", ("triangle", "uniform", "epanechnikov"))
def test_contraction_factor_of_auto_window(family, radius):
    """Under the auto window 0.8 / (2 c1 + 1), kappa = 2 / (2 c1 + 1): it
    depends on the kernel only through c1, not on eps or the grid."""
    constants = coupling_constants(make_kernel(family, radius))
    window = StepScheme(kind="picard").window_for(constants)
    expected = 2.0 / (2.0 * constants.c1 + 1.0)
    assert contraction_factor(constants, window) == pytest.approx(expected, rel=1e-14)


def test_picard_matches_monolithic(grid100, gen100):
    w0 = np.where(grid100.positions <= 0, 1.0, 0.0)
    scheme = StepScheme(kind="picard", picard_tol=1e-10)
    horizon = 0.25
    traj = evolve(gen100, w0, scheme, horizon)
    report = traj.picard
    mono = evolve(gen100, w0, StepScheme(dt=traj.dt), horizon)
    assert np.array_equal(traj.times, mono.times)
    gap = weighted_norm(grid100, traj.final_state - mono.final_state)
    assert gap <= 1e-6
    assert all(n <= scheme.picard_tol for n in report.final_update_norms)
    assert report.kappa < 1.0
    assert all(r <= report.kappa for r in report.contraction_ratios)
    drift = np.max(np.abs(traj.mass - traj.mass[0]))
    assert drift <= 1e-11 * abs(traj.mass[0]) + 1e-13


def test_picard_nonconvergence_reported(grid50, gen50):
    w0 = np.where(grid50.positions <= 0, 1.0, 0.0)
    scheme = StepScheme(kind="picard", picard_tol=1e-14, picard_max_iters=1)
    with pytest.raises(RuntimeError, match="did not converge"):
        evolve(gen50, w0, scheme, 0.1)


def test_evolve_dispatches_picard(grid50, triangle_kernel, constants):
    gen = assemble_generator(grid50, triangle_kernel, constants)
    w0 = np.where(grid50.positions <= 0, 1.0, 0.0)
    traj = evolve(gen, w0, StepScheme(kind="picard"), 0.1)
    assert traj.times[-1] == pytest.approx(0.1)
    heat = assemble_heat_generator(50)
    with pytest.raises(ValueError):
        evolve(heat, np.zeros(heat.size),
               StepScheme(kind="picard"), 0.1)


def test_picard_snapshot_stride_matches_implicit(grid50, gen50):
    w0 = np.where(grid50.positions <= 0, 1.0, 0.0)
    horizon = 0.064  # two auto windows of 32 sub-steps
    traj = evolve(gen50, w0, StepScheme(kind="picard"), horizon, 8)
    mono = evolve(gen50, w0, StepScheme(dt=traj.dt), horizon, 8)
    assert np.array_equal(traj.times, mono.times)
    assert len(traj.snapshots) == len(mono.snapshots) == 9
    for (tp, wp), (tm, wm) in zip(traj.snapshots, mono.snapshots):
        assert tp == pytest.approx(tm, rel=1e-12, abs=1e-15)
        assert weighted_norm(grid50, wp - wm) <= 1e-6


def test_picard_reads_its_generator(grid50, gen50):
    """The window iteration takes its coupling from the generator it is
    handed: with the coupling edge (I, I + 1) ten times stronger, the picard
    run still lands within criterion 08's 1e-6 of the implicit run on that
    generator, and away from the picard run on the unmodified one."""
    iface = grid50.interface_index
    b = gen50.half_bandwidth
    c = -gen50.band[b - 1, iface + 1]  # the conductance of the edge (I, I + 1)
    strong = dataclasses.replace(with_edges(gen50, [(iface, iface + 1, 9.0 * c)]),
                                 constants=gen50.constants)
    w0 = np.where(grid50.positions <= 0, 1.0, 0.0)
    scheme, horizon = StepScheme(kind="picard"), 0.16
    traj = evolve(strong, w0, scheme, horizon)
    mono = evolve(strong, w0, StepScheme(dt=traj.dt), horizon)
    assert weighted_norm(grid50, traj.final_state - mono.final_state) <= 1e-6
    plain = evolve(gen50, w0, scheme, horizon)
    assert weighted_norm(grid50, traj.final_state - plain.final_state) > 1e-3


def test_picard_states_outlive_their_window(grid50, gen50):
    """The states the window iteration yields stay as they were yielded while
    later windows run: kept without copies, they equal evolve's snapshots at
    stride 1 one by one."""
    w0 = np.where(grid50.positions <= 0, 1.0, 0.0)
    scheme, horizon = StepScheme(kind="picard"), 0.16
    kept = list(_States(gen50, w0, scheme, horizon))
    snapshots = evolve(gen50, w0, scheme, horizon, 1).snapshots
    assert len(kept) == len(snapshots) == 161
    for (t, state), (ts, snapshot) in zip(kept, snapshots):
        assert t == ts
        assert np.array_equal(state, snapshot)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(SCHEME_KINDS), n_steps=st.integers(1, 64), data=st.data())
def test_one_clock_and_snapshot_rule(gen20, constants, kind, n_steps, data):
    """Every scheme records n_steps + 1 states at t = k dt, and snapshots the
    initial state, every stride-th step before the last, and the final state."""
    stride = data.draw(st.integers(0, n_steps + 2), label="stride")
    dt = {"explicit": cfl_limit(gen20), "implicit": 1e-3,
          "picard": StepScheme().window_for(constants) / 32}[kind]
    w0 = np.where(gen20.grid.positions <= 0, 1.0, 0.0)
    traj = evolve(gen20, w0, StepScheme(kind=kind, dt=dt), n_steps * dt, stride)
    assert len(traj.times) == n_steps + 1
    assert all(traj.times[k] == k * traj.dt for k in range(n_steps + 1))
    steps = range(stride, n_steps, stride) if stride > 0 else []
    expected = [0.0] + [k * traj.dt for k in steps] + [n_steps * traj.dt]
    assert [t for t, _ in traj.snapshots] == expected
