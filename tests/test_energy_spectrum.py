import numpy as np
import pytest
from scipy.integrate import quad

from couplediff import (
    GeneratorMatrix,
    StateField,
    assemble_generator,
    assemble_heat_generator,
    build_grid,
    constant_state,
    coupling_constants,
    edge_energy,
    energy,
    energy_form,
    estimate_beta1,
    estimate_energy_control_k,
    generator_edges,
    make_kernel,
    mass,
    nonlocal_energy_full,
    rayleigh,
    supersolution_check,
    weighted_inner,
)
from couplediff import energy_spectrum
from couplediff.energy_spectrum import EIGEN_MAX_ITERATIONS, _full_energy, _symmetrized_eigh
from couplediff.kernels import FAMILIES
from conftest import transmission_beta1, with_edges

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


def _coupled_generator(family, n_local, n_nonlocal, eps):
    kernel = make_kernel(family, 1.0, eps)
    return assemble_generator(build_grid(n_local, n_nonlocal), kernel, coupling_constants(kernel))


def _first_cosine_mode(grid):
    return np.cos(0.5 * np.pi * (grid.positions + 1.0))


# eps = 0.05 needs h_nl <= eps / 4, so it is run on 200x207 only.
@pytest.mark.parametrize(
    "n_local, n_nonlocal, eps",
    [(50, 57, 1.0), (50, 57, 0.25), (200, 207, 1.0), (200, 207, 0.25), (200, 207, 0.05)],
)
@pytest.mark.parametrize("family", FAMILIES)
def test_energy_form_matches_edge_oracle(family, n_local, n_nonlocal, eps):
    """The band form of the nonlocal term against the difference form over
    its edges; the local and coupling terms are the same edge sums."""
    gen = _coupled_generator(family, n_local, n_nonlocal, eps)
    terms = energy_form(gen)
    edges = generator_edges(gen)
    z = np.random.default_rng(21).standard_normal(gen.size)
    for values in (z, _first_cosine_mode(gen.grid)):
        loc, nl, cp = terms(values)
        oracle = edge_energy(edges, values)
        assert (loc, cp) == (oracle[0], oracle[2])
        assert abs(nl - oracle[1]) <= 1e-13 * oracle[1]


def test_energy_form_zero_for_constants():
    """A constant state has zero energy exactly, also where the mean of its
    values is not the constant (0.1 summed 207 times is not 20.7)."""
    gens = [_coupled_generator(f, 200, 207, 0.05) for f in FAMILIES]
    gens.append(_coupled_generator("triangle", 50, 57, 1.0))
    gens.append(assemble_heat_generator(100))
    rng = np.random.default_rng(22)
    for gen in gens:
        terms = energy_form(gen)
        for value in (0.1, 1.0 / 3.0, -7.1, 5.0, *rng.standard_normal(5)):
            assert terms(np.full(gen.size, value)) == (0.0, 0.0, 0.0)


def test_energy_form_block_matches_rows():
    """A 2-D block of states gives each row's energy terms to 1e-13
    relative, and exactly 0.0 on its constant rows."""
    gens = [_coupled_generator(f, 50, 57, 1.0) for f in FAMILIES]
    gens.append(_coupled_generator("triangle", 200, 207, 0.05))
    gens.append(assemble_heat_generator(100))
    rng = np.random.default_rng(24)
    for gen in gens:
        terms = energy_form(gen)
        block = np.vstack([
            rng.standard_normal((5, gen.size)),
            _first_cosine_mode(gen.grid),
            np.full(gen.size, 0.1),
            np.full(gen.size, -7.1),
        ])
        got = terms(block)
        for k, row in enumerate(block):
            for column, ref in zip(got, terms(row)):
                assert abs(column[k] - ref) <= 1e-13 * abs(ref)
        for column in got:
            assert column[-2] == column[-1] == 0.0


def test_energy_form_chain_through_the_nonlocal_cells(grid50):
    """A hand-built generator on the coupled grid with no far link, a path
    through every node: the band's chain would run past the interface node,
    but the split stops it there, so the nonlocal term is still read from the
    block and equals its edge sum."""
    n = grid50.size
    A = np.zeros((n, n))
    i = np.arange(n - 1)
    A[i, i + 1] = A[i + 1, i] = -1.0
    A[np.diag_indices(n)] = -A.sum(axis=1)
    gen = GeneratorMatrix.from_dense(grid50, -A / grid50.weights[:, None])
    assert gen.half_bandwidth == 1
    assert gen.split.p == grid50.interface_index
    z = np.random.default_rng(25).standard_normal(n)
    oracle = edge_energy(generator_edges(gen), z)
    loc, nl, cp = energy_form(gen)(z)
    assert (loc, cp) == (oracle[0], oracle[2])
    assert abs(nl - oracle[1]) <= 1e-13 * oracle[1]


def test_energy_form_heat_generator_has_no_nonlocal_term():
    gen = assemble_heat_generator(100)
    z = np.random.default_rng(23).standard_normal(gen.size)
    loc, nl, cp = energy_form(gen)(z)
    assert (nl, cp) == (0.0, 0.0)
    assert loc == edge_energy(generator_edges(gen), z)[0] > 0.0


def test_energy_form_smooth_state_small_eps():
    """A smooth state at eps = 0.005 with h_nl = eps / 10: each row of
    A_vv y cancels down to a small second difference of y, so the band form
    loses the most digits here.  It is held to the tolerance that
    test_energy_generator_identity grants E = 1/2 <w, -L w>_W."""
    gen = _coupled_generator("triangle", 200, 2000, 0.005)
    values = _first_cosine_mode(gen.grid)
    nl = energy_form(gen)(values)[1]
    oracle = edge_energy(generator_edges(gen), values)[1]
    rel = abs(nl - oracle) / oracle
    print(f"eps = 0.005, n_nonlocal = 2000: band vs edge nonlocal energy, relative {rel:.2e}")
    assert rel <= 1e-10


def test_nonlocal_energy_full_constant(grid50, triangle_kernel):
    assert nonlocal_energy_full(grid50, triangle_kernel, constant_state(grid50, 2.0)) == 0.0


def test_nonlocal_energy_full_indicator_uniform():
    """Indicator of (0,1) under the uniform kernel: the differences are 1
    exactly on the two mixed-side triangles {|x - y| <= 1}, each of area 1/2,
    so the double integral is 2 * (1/2) * (1/2) = 1/2.  Nested adaptive
    quadrature of the defining integral, the inner one split at the
    kernel's jump y = x - 1, agrees to its tolerance."""
    kernel = make_kernel("uniform", 1.0, 1.0)
    oracle = 0.5

    def inner(x):
        return quad(lambda y: float(kernel(x - y)), -1.0, 0.0, points=[x - 1.0])[0]

    quad_val = 2.0 * quad(inner, 0.0, 1.0)[0]
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


@pytest.mark.parametrize("n_local, n_nonlocal", [(50, 57), (200, 207)])
@pytest.mark.parametrize("eps", (1.0, 0.25, 0.05))
@pytest.mark.parametrize("family", FAMILIES)
def test_full_energy_matches_all_pairs_double_sum(family, eps, n_local, n_nonlocal):
    """The offset-by-offset sum against the all-pairs double sum
    sum_{i != j} w_i w_j J_eps(x_i - x_j) (v_j - v_i)^2, for one state and
    for each row of a block, to 1e-13 relative; each row of the block also
    matches its own single-state call."""
    kernel = make_kernel(family, 1.0, eps)
    grid = build_grid(n_local, n_nonlocal)
    x, ww = grid.positions, grid.weights
    pair = ww[:, None] * ww[None, :] * kernel(x[:, None] - x[None, :])

    def oracle(v):
        return float(np.sum(pair * np.square(v[None, :] - v[:, None])))

    rng = np.random.default_rng(31)
    block = np.vstack([rng.standard_normal((3, grid.size)), _first_cosine_mode(grid)])
    rows = _full_energy(grid, kernel, block)
    assert rows.shape == (len(block),)
    for v, row in zip(block, rows):
        single = nonlocal_energy_full(grid, kernel, StateField(grid, v))
        assert abs(single - oracle(v)) <= 1e-13 * oracle(v)
        assert abs(row - single) <= 1e-13 * single


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


def _far_linked_generator():
    """The 20 x 20 triangle generator plus an edge from node 0 to node n - 1:
    its chain length is p = 0, so the split's block is the whole band."""
    kernel = make_kernel("triangle", 1.0, 1.0)
    base = assemble_generator(build_grid(20, 20), kernel, coupling_constants(kernel))
    gen = with_edges(base, [(0, base.size - 1, 0.7)])
    assert gen.split.p == 0
    return gen


def _assert_matches_dense_eigh(gen):
    """lambda2 to 1e-9 relative and the eigenfunction, up to sign, to 1e-7 in
    the W-norm, against the dense eigh of the symmetrized generator; the
    eigenfunction is W-normalized and has mass at most 1e-10."""
    rep = estimate_beta1(gen)
    vals, vecs, d = _symmetrized_eigh(gen)
    assert abs(rep.lambda2 / vals[1] - 1.0) <= 1e-9
    assert rep.beta1 == 0.5 * rep.lambda2
    x, W = rep.eigvec.values, gen.weights
    assert abs(W @ x) <= 1e-10
    assert W @ (x * x) == pytest.approx(1.0, rel=1e-12)
    y = d * vecs[:, 1]
    y /= np.sqrt(W @ (y * y))
    assert min(np.sqrt(W @ (x - y) ** 2), np.sqrt(W @ (x + y) ** 2)) <= 1e-7
    return rep


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("eps", (1.0, 0.4, 0.1, 0.05))
@pytest.mark.parametrize("n_local, n_nonlocal", [(50, 57), (200, 200)])
def test_band_eigensolve_matches_dense_eigh(family, eps, n_local, n_nonlocal):
    """Block inverse iteration on the split band against the dense eigh;
    eps = 0.05 takes the sweep's 4 / eps nonlocal cells where 57 is too
    coarse for its kernel."""
    kernel = make_kernel(family, 1.0, eps)
    grid = build_grid(n_local, max(n_nonlocal, int(np.ceil(4.0 / eps))))
    _assert_matches_dense_eigh(assemble_generator(grid, kernel, coupling_constants(kernel)))


def test_band_eigensolve_heat_and_far_linked_generators():
    """The pure-heat generator (chain p = n - 1, whose cosine start vectors
    are its eigenvectors: one iteration) and a generator with no chain."""
    assert _assert_matches_dense_eigh(assemble_heat_generator(400)).iterations == 1
    _assert_matches_dense_eigh(_far_linked_generator())


def test_band_eigensolve_finds_a_mode_the_first_start_column_misses():
    """The heat generator on 40 intervals with its edges at x = -0.5 and
    x = 0.5 weakened to conductance 0.5 and a link of conductance 0.4 from
    x = -1 to x = 1: a reflection-symmetric generator whose lambda2 mode is
    even (1.747; the lowest odd one is 2.337).  The first start column
    cos(pi (x + 1) / 2) is odd, so it has no component along that mode:
    only the Rayleigh-Ritz step over the whole block finds lambda2."""
    heat = assemble_heat_generator(40)
    gen = with_edges(heat, [(9, 10, 0.5 - 20.0), (30, 31, 0.5 - 20.0), (0, heat.size - 1, 0.4)])
    rep = _assert_matches_dense_eigh(gen)
    x = rep.eigvec.values
    assert np.max(np.abs(x - x[::-1])) <= 1e-8  # the even mode
    assert rep.lambda2 == pytest.approx(1.747, abs=1e-3)


@pytest.mark.parametrize("family", FAMILIES)
def test_eigensolve_converges_well_inside_the_cap(family, constants):
    """Criteria 03/04 (triangle, eps = 1, 200 x 200 and 400 x 400), 05 (the
    heat generator on 400 intervals) and eps = 1 for every family stop in at
    most a quarter of the iteration cap."""
    kernel = make_kernel(family, 1.0, 1.0)
    gens = [assemble_generator(build_grid(200, 200), kernel, coupling_constants(kernel))]
    if family == "triangle":
        gens += [assemble_generator(build_grid(400, 400), kernel, constants),
                 assemble_heat_generator(400)]
    for gen in gens:
        rep = estimate_beta1(gen)
        assert 1 <= rep.iterations <= EIGEN_MAX_ITERATIONS // 4, (family, gen.size)
        assert rep.residual <= 1e-8 * rep.lambda2


@pytest.mark.parametrize("family", FAMILIES)
def test_eigensolve_converges_past_the_roundoff_floor(family):
    """At eps = 1 on 1600 x 1600 the Ritz residual of lambda2 stalls above
    1e-10 lambda2, at the roundoff floor of A X (about 4 u / h_local^2, which
    does not scale with lambda2); the stall rule accepts it there, inside
    the cap, and the final residual check holds."""
    rep = estimate_beta1(_coupled_generator(family, 1600, 1600, 1.0))
    assert rep.iterations < EIGEN_MAX_ITERATIONS
    assert rep.residual <= 1e-8 * rep.lambda2


def test_eigensolve_cap_names_the_residual(gen50, monkeypatch):
    monkeypatch.setattr(energy_spectrum, "EIGEN_MAX_ITERATIONS", 2)
    with pytest.raises(RuntimeError, match=r"did not converge in 2 iterations: Ritz residual"):
        estimate_beta1(gen50)


def test_eigensolve_needs_the_constant_mode(grid50):
    """L = -I has no constant mode: 1^T A 1 / 1^T W 1 = 1."""
    gen = GeneratorMatrix.from_dense(grid50, -np.eye(grid50.size))
    with pytest.raises(RuntimeError, match="constant mode not found"):
        estimate_beta1(gen)


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


@pytest.mark.parametrize("eps", [1.0, 0.25])
def test_energy_control_estimate_matches_sample_loop(eps):
    """The block evaluation against one state at a time from the same stream,
    on a dense (eps = 1) and a banded (eps = 0.25) block, to 1e-13 relative."""
    gen = _coupled_generator("triangle", 100, 100, eps)
    grid = gen.grid
    rng = np.random.default_rng(78)
    ratios = []
    for _ in range(60):
        z = rng.standard_normal(grid.size)
        z -= 0.5 * float(grid.weights @ z)
        w = StateField(grid, z)
        ratios.append(energy(gen, w).total / nonlocal_energy_full(grid, gen.kernel, w))
    assert estimate_energy_control_k(gen, 60, seed=78) == pytest.approx(min(ratios), rel=1e-13)


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
