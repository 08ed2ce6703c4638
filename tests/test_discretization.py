import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplediff import (
    StepScheme,
    assemble_generator,
    assemble_heat_generator,
    build_grid,
    coupling_constants,
    coupling_profile_analytic,
    evolve,
    generator_edges,
    make_kernel,
)
from couplediff.discretization import BandSplit
from couplediff.energy_spectrum import _symmetrized_eigh
from couplediff.kernels import FAMILIES
from couplediff.verify import _structure_defects
from conftest import weighted_norm, with_edges


def test_build_grid_layout():
    g = build_grid(4, 4)
    np.testing.assert_allclose(g.local_nodes, [-1, -0.75, -0.5, -0.25, 0])
    np.testing.assert_allclose(g.nonlocal_centers, [0.125, 0.375, 0.625, 0.875])
    assert g.interface_index == 4
    assert g.size == 9
    g2 = build_grid(200, 200)
    assert g2.interface_index == 200
    for grid in (g, g2):
        assert np.sum(grid.weights) == pytest.approx(2.0, abs=1e-14)
        assert np.all(np.diff(grid.local_nodes) > 0)
        assert np.all((grid.nonlocal_centers > 0) & (grid.nonlocal_centers < 1))


def test_build_grid_minimum():
    with pytest.raises(ValueError):
        build_grid(3, 10)
    with pytest.raises(ValueError):
        build_grid(10, 2)


def test_state_field_validation(gen50, grid50):
    """evolve, where a state enters stepping, refuses a wrong-length or
    non-finite initial state."""
    for w0 in (np.zeros(grid50.size - 1), np.full(grid50.size, np.nan)):
        with pytest.raises(ValueError):
            evolve(gen50, w0, StepScheme(dt=0.1), 0.1)


def test_mass_values(grid50):
    assert grid50.weights @ np.ones(grid50.size) == pytest.approx(2.0)
    assert grid50.weights @ np.zeros(grid50.size) == 0.0
    step = np.where(grid50.positions <= 0, 1.0, 0.0)
    assert grid50.weights @ step == pytest.approx(1.0)


def test_weighted_inner(gen50, grid50):
    def inner(a, b):
        return float(np.sum(grid50.weights * a * b))

    one = np.ones(grid50.size)
    assert inner(one, one) == pytest.approx(2.0)
    rng = np.random.default_rng(1)
    a = rng.standard_normal(grid50.size)
    b = rng.standard_normal(grid50.size)
    assert inner(a, b) == pytest.approx(inner(b, a))
    assert inner(a, a) > 0
    other = build_grid(40, 50)
    with pytest.raises(ValueError):
        evolve(gen50, np.ones(other.size), StepScheme(dt=0.1), 0.1)


def _structure_asserts(gen):
    L = gen.dense()
    W = gen.weights
    n = L.shape[0]
    row_mag = np.abs(L).sum(axis=1)
    assert np.max(np.abs(L.sum(axis=1)) / row_mag) <= 1e-12
    WL = W[:, None] * L
    assert np.max(np.abs(WL - WL.T)) <= 1e-12 * np.max(np.abs(WL))
    off = ~np.eye(n, dtype=bool)
    assert np.min(L[off]) >= 0.0
    assert np.max(np.diag(L)) <= 0.0
    assert np.max(np.abs(L @ np.ones(n)) / row_mag) <= 1e-12
    # weighted column sums: the generator conserves mass against any state
    assert np.max(np.abs(W @ L) / (W * row_mag)) <= 1e-12
    # (I - dt L) is an M-matrix with unit row sums for any dt > 0
    dt = 0.1
    M = np.eye(n) - dt * L
    assert np.max(np.abs(M.sum(axis=1) - 1.0) / (1.0 + dt * row_mag)) <= 1e-12
    assert np.min(np.diag(M)) >= 1.0
    assert np.max(M[off]) <= 0.0


@pytest.mark.parametrize("family", ("uniform", "triangle", "epanechnikov"))
@pytest.mark.parametrize("eps", (1.0, 0.25))
def test_generator_structure(family, eps):
    kernel = make_kernel(family, 1.0, eps)
    grid = build_grid(50, 50)
    gen = assemble_generator(grid, kernel, coupling_constants(kernel))
    _structure_asserts(gen)


def test_generator_structure_asymmetric_grid():
    kernel = make_kernel("epanechnikov", 1.0, 0.5)
    gen = assemble_generator(build_grid(40, 80), kernel, coupling_constants(kernel))
    _structure_asserts(gen)


def test_generator_rows_match_stated_stencil(grid50, triangle_kernel, constants):
    """The assembled rows equal the closed-form stencil the energy gradient
    produces; this pins the assembly independently of the quadratic form."""
    gen = assemble_generator(grid50, triangle_kernel, constants)
    L = gen.dense()
    g = grid50
    h, hn = g.h_local, g.h_nonlocal
    I = g.interface_index
    q = coupling_profile_analytic(triangle_kernel, g.nonlocal_centers)
    K = triangle_kernel(g.nonlocal_centers[:, None] - g.nonlocal_centers[None, :])

    assert L[0, 0] == pytest.approx(-2 / h**2)
    assert L[0, 1] == pytest.approx(2 / h**2)
    i = I // 2
    np.testing.assert_allclose(
        L[i, i - 1 : i + 2], [1 / h**2, -2 / h**2, 1 / h**2], rtol=1e-13
    )
    assert L[i, I + 3] == 0.0

    assert L[I, I - 1] == pytest.approx(2 / h**2)
    np.testing.assert_allclose(
        L[I, I + 1 :], (2 / h) * constants.c2 * q * hn, rtol=1e-13
    )
    assert L[I, I] == pytest.approx(
        -2 / h**2 - (2 / h) * constants.c2 * np.sum(q * hn), rel=1e-13
    )

    j = 7
    row = I + 1 + j
    np.testing.assert_allclose(
        np.delete(L[row, I + 1 :], j),
        constants.c1 * hn * np.delete(K[j], j),
        rtol=1e-13,
    )
    assert L[row, I] == pytest.approx(constants.c2 * q[j], rel=1e-13)
    assert L[row, row] == pytest.approx(
        -constants.c1 * hn * (np.sum(K[j]) - K[j, j]) - constants.c2 * q[j], rel=1e-13
    )
    assert np.all(L[row, : I - 1] == 0.0)


def test_uniform_block_translation_invariant(constants):
    """At eps = 0.05 on 200 x 200 the support edge R eps / h_nl = 10 is an
    integer: the kernel's closed support keeps or drops the pair at that
    offset once for the whole block, so every off-diagonal of the nonlocal
    block is constant (the roundoff of y_j - y_k once dropped 168 of its 380
    entries)."""
    grid = build_grid(200, 200)
    kernel = make_kernel("uniform", 1.0, 0.05)
    gen = assemble_generator(grid, kernel, coupling_constants(kernel))
    nl0 = grid.interface_index + 1
    block = gen.dense()[nl0:, nl0:]
    for d in range(1, grid.n_nonlocal):
        for diagonal in (np.diagonal(block, d), np.diagonal(block, -d)):
            assert np.ptp(diagonal) <= 1e-15 * np.max(np.abs(diagonal)), d
    assert np.all(np.diagonal(block, 10) > 0.0)


def test_constants_are_stationary(gen50, grid50):
    L = gen50.dense()
    out = L @ np.full(grid50.size, 3.7)
    assert np.max(np.abs(out)) <= 1e-12 * np.abs(L).max()


def test_mass_identity_random_states(gen50, grid50):
    rng = np.random.default_rng(3)
    L = gen50.dense()
    for _ in range(20):
        w = rng.standard_normal(grid50.size)
        rate = grid50.weights @ (L @ w)
        assert abs(rate) <= 1e-12 * weighted_norm(grid50, w)


def test_under_resolved_kernel_rejected(constants):
    grid = build_grid(50, 10)  # h_nl = 0.1 > eps R / 4 = 0.05
    kernel = make_kernel("triangle", 1.0, 0.2)
    with pytest.raises(ValueError, match="under-resolved"):
        assemble_generator(grid, kernel, constants)


def test_assembly_peak_memory(triangle_kernel, constants):
    """The 1000 x 1000 generator is assembled within 2.5 times the size of a
    dense L (32 MB); a separate -A / W and nonlocal block took 3.5 times."""
    grid = build_grid(1000, 1000)
    tracemalloc.start()
    try:
        gen = assemble_generator(grid, triangle_kernel, constants)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * gen.size**2 * 8


def test_assembly_peak_memory_narrow_band(constants):
    """At eps = 0.01 on 2000 x 2000 (4,001 dofs) assembly stays within 4 times
    the band it returns (21 rows, 0.67 MB); a dense L alone is 128 MB."""
    grid = build_grid(2000, 2000)
    kernel = make_kernel("triangle", 1.0, 0.01)
    tracemalloc.start()
    try:
        gen = assemble_generator(grid, kernel, constants)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gen.half_bandwidth == 20
    assert peak <= 4 * gen.band.nbytes


def test_consistency_with_second_derivative(constants):
    """Away from the interface the jump rows converge to the second
    derivative of a smooth sample as epsilon shrinks."""
    grid = build_grid(50, 400)
    center, sig = 0.6, 0.08
    phi = lambda x: np.exp(-((x - center) ** 2) / (2 * sig**2))
    phixx = lambda x: phi(x) * (((x - center) ** 2) / sig**4 - 1 / sig**2)
    w = np.where(grid.positions <= 0, 0.0, phi(grid.positions))
    errors = []
    for eps in (0.2, 0.1, 0.05):
        kernel = make_kernel("triangle", 1.0, eps)
        gen = assemble_generator(grid, kernel, coupling_constants(kernel))
        rhs = (gen.dense() @ w)[grid.interface_index + 1 :]
        y = grid.nonlocal_centers
        sel = (y > 0.3) & (y < 0.9)
        errors.append(np.max(np.abs(rhs[sel] - phixx(y[sel]))))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 0.05 * np.max(np.abs(phixx(grid.nonlocal_centers)))


@pytest.mark.parametrize("n", (100, 400))
def test_spectrum_nonnegative_single_zero(n, triangle_kernel, constants):
    grid = build_grid(n, n)
    gen = assemble_generator(grid, triangle_kernel, constants)
    vals = _symmetrized_eigh(gen)[0]
    assert vals[0] >= -1e-10
    assert int(np.sum(vals < 1e-10)) == 1


def test_heat_generator_structure():
    gen = assemble_heat_generator(100)
    assert gen.constants is None
    assert np.sum(gen.weights) == pytest.approx(2.0, abs=1e-14)
    _structure_asserts(gen)
    with pytest.raises(ValueError):
        assemble_heat_generator(2)


def _rebuild_from_edges(gen, edges):
    """-W^-1 A with A the graph Laplacian of the given edges."""
    A = np.zeros((gen.size, gen.size))
    for i, j, c in edges:
        np.add.at(A, (i, j), -c)
        np.add.at(A, (j, i), -c)
        np.add.at(A, (i, i), c)
        np.add.at(A, (j, j), c)
    return -A / gen.weights[:, None]


@pytest.mark.parametrize("eps", (1.0, 0.25))
@pytest.mark.parametrize("family", ("uniform", "triangle", "epanechnikov"))
def test_generator_edges_rebuild_generator(family, eps):
    grid = build_grid(50, 50)
    kernel = make_kernel(family, 1.0, eps)
    gen = assemble_generator(grid, kernel, coupling_constants(kernel))
    edges = generator_edges(gen)
    local, _, coupling = edges
    rebuilt = _rebuild_from_edges(gen, edges)
    L = gen.dense()
    assert np.max(np.abs(rebuilt - L)) <= 1e-14 * np.max(np.abs(L))
    assert local[0].size == grid.n_local
    q = coupling_profile_analytic(kernel, grid.nonlocal_centers)
    assert coupling[0].size == np.count_nonzero(q)
    assert np.all(coupling[0] == grid.interface_index)
    for i, j, c in edges:
        assert np.all(i < j)
        assert np.all(c > 0.0)


def test_generator_edges_heat_all_local():
    gen = assemble_heat_generator(64)
    local, nonlocal_, coupling = generator_edges(gen)
    assert local[0].size == 64
    assert nonlocal_[0].size == 0 and coupling[0].size == 0
    assert np.all(local[2] > 0.0)
    rebuilt = _rebuild_from_edges(gen, (local,))
    L = gen.dense()
    assert np.max(np.abs(rebuilt - L)) <= 1e-14 * np.max(np.abs(L))


@st.composite
def _resolved_generators(draw):
    """A coupled generator with at most 150 dofs whose grid meets the
    resolution rule h_nl <= R eps / 4."""
    family = draw(st.sampled_from(FAMILIES))
    radius = draw(st.floats(0.25, 2.0))
    n_local = draw(st.integers(4, 60))
    n_nonlocal = draw(st.integers(4, 149 - n_local))
    eps_min = 4.0 / (radius * n_nonlocal)
    eps = draw(st.floats(eps_min, max(eps_min, 2.0)))
    kernel = make_kernel(family, radius, eps)
    return assemble_generator(build_grid(n_local, n_nonlocal), kernel, coupling_constants(kernel))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_resolved_generators())
def test_generator_band_properties(gen):
    assert max(_structure_defects(gen).values()) <= 1e-12
    L = gen.dense()
    rebuilt = _rebuild_from_edges(gen, generator_edges(gen))
    assert np.max(np.abs(rebuilt - L)) <= 1e-14 * np.max(np.abs(L))
    i, j = np.nonzero(L)
    assert gen.half_bandwidth == np.max(np.abs(i - j))


def _split_cases():
    """Every family at eps in {1, 0.25, 0.05} on 20 and 200 local cells; the
    nonlocal side has as many cells, or the sweep's 4 / eps where eps = 0.05
    needs more to resolve the kernel."""
    return [(family, eps, n) for family in FAMILIES for eps in (1.0, 0.25, 0.05)
            for n in (20, 200)]


def _split_generator(family, eps, n):
    kernel = make_kernel(family, 1.0, eps)
    grid = build_grid(n, max(n, int(np.ceil(4.0 / eps))))
    return assemble_generator(grid, kernel, coupling_constants(kernel))


@pytest.mark.parametrize("family, eps, n", _split_cases())
def test_band_split_at_interface_matches_dense(family, eps, n):
    """The chain ends at the interface node, and A x read from the chain and
    the block is the dense L x to 1e-12 relative to |L| |x|, the roundoff
    scale of a product that cancels (a smooth x makes L x a second
    difference)."""
    gen = _split_generator(family, eps, n)
    assert gen.split.p == gen.grid.interface_index
    L = gen.dense()
    for x in (np.random.default_rng(31).standard_normal(gen.size),
              np.cos(np.pi * (gen.grid.positions + 1.0))):
        scale = np.max(np.abs(L) @ np.abs(x))
        assert np.max(np.abs(gen.apply(x) - L @ x)) <= 1e-12 * scale


def test_band_split_heat_generator_is_all_chain():
    gen = assemble_heat_generator(200)
    assert gen.split.p == gen.size - 1
    assert gen.split.block.shape == (2, 1)
    x = np.random.default_rng(32).standard_normal(gen.size)
    L = gen.dense()
    assert np.max(np.abs(gen.apply(x) - L @ x)) <= 1e-12 * np.max(np.abs(L) @ np.abs(x))


def _layout_generator(family, eps, n_local, n_nonlocal):
    kernel = make_kernel(family, 1.0, eps)
    return assemble_generator(build_grid(n_local, n_nonlocal), kernel, coupling_constants(kernel))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n_local, n_nonlocal", [(50, 57), (200, 207)])
@pytest.mark.parametrize("eps, dense", [(1.0, True), (0.9, False)])
def test_block_layouts_match_dense(family, n_local, n_nonlocal, eps, dense):
    """Both layouts of the split's block: eps = 1 fills the band over the
    nonlocal block (dense copy, symv and GEMM), eps = 0.9 does not (band,
    sbmv).  A x and the block product on rows match the dense reference to
    1e-13 relative to the roundoff scale |M| |x| of each product."""
    gen = _layout_generator(family, eps, n_local, n_nonlocal)
    split = gen.split
    assert (split.dense is not None) == dense
    L = gen.dense()
    rng = np.random.default_rng(41)
    x = rng.standard_normal(gen.size)
    assert np.max(np.abs(gen.apply(x) - L @ x)) <= 1e-13 * np.max(np.abs(L) @ np.abs(x))
    a_block = -(gen.weights[:, None] * L)[split.p :, split.p :]
    rows = rng.standard_normal((5, gen.size - split.p))
    scale = np.max(np.abs(rows) @ np.abs(a_block))
    assert np.max(np.abs(split.block_rows(rows) - rows @ a_block)) <= 1e-13 * scale


def test_split_is_dense_exactly_when_band_is_full():
    """The block is held dense exactly when b = n - p - 1, the kernel
    reaching across the whole nonlocal region; both outcomes occur."""
    seen = set()
    for family in FAMILIES:
        for eps in (0.9, 0.95, 0.99, 1.0, 1.5):
            for n_local, n_nonlocal in ((50, 57), (200, 207)):
                gen = _layout_generator(family, eps, n_local, n_nonlocal)
                split = gen.split
                full = gen.half_bandwidth == gen.size - split.p - 1
                assert (split.dense is not None) == full, (family, eps, n_nonlocal)
                seen.add(full)
    assert seen == {True, False}


@pytest.mark.parametrize("eps", [1.0, 0.95, 0.3])
def test_split_of_nonlocal_columns_has_no_chain(eps):
    """The picard window's jump sub-band band[:, nl0:] keeps its coupling
    entries above the matrix, in the storage triangle LAPACK never reads: its
    split has p = 0 and solves like the dense W_v + dt A_vv, and it makes no
    dense copy, not even where the band is full over the nonlocal block
    (eps = 0.95: b = n_nonlocal - 1)."""
    gen = _layout_generator("triangle", eps, 20, 23)
    nl0 = gen.grid.interface_index + 1
    split = BandSplit(gen.band[:, nl0:], 0)
    assert split.p == 0
    w_v = gen.weights[nl0:]
    dt = 0.3
    factor = split.factor(w_v, dt)
    a_vv = -(gen.weights[:, None] * gen.dense())[nl0:, nl0:]
    r = np.random.default_rng(44).standard_normal(len(w_v))
    x = factor.solve(r)
    ref = np.linalg.solve(np.diag(w_v) + dt * a_vv, w_v * r)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert "dense" not in vars(split)
    assert (gen.half_bandwidth == len(w_v) - 1) == (eps == 0.95)


LAYOUTS = ["dense block", "band block", "heat", "no chain"]


def _layout_case(case):
    """A chain at the interface node over a dense and a banded block, the
    heat generator's chain over every node, and a far link from node 0
    (p = 0)."""
    if case == "heat":
        return assemble_heat_generator(60)
    gen = _layout_generator("triangle", 1.0 if case != "band block" else 0.3, 20, 23)
    if case == "no chain":
        gen = with_edges(gen, [(0, gen.size - 1, 0.7)])
        assert gen.split.p == 0
    return gen


@pytest.mark.parametrize("case", LAYOUTS)
def test_split_factor_solves_blocks_of_columns(case):
    """SplitFactor.solve of each column of an (n, 3) right-hand side R, one
    state at a time, is W + dt A's dense solve of W R; the block itself and
    its transpose are refused, not read as their first column or broadcast."""
    gen = _layout_case(case)
    dt = 0.3
    factor = gen.split.factor(gen.weights, dt)
    M = np.diag(gen.weights) - dt * (gen.weights[:, None] * gen.dense())
    R = np.random.default_rng(43).standard_normal((gen.size, 3))
    X = np.column_stack([factor.solve(column) for column in R.T])
    ref = np.linalg.solve(M, gen.weights[:, None] * R)
    assert np.max(np.abs(X - ref)) <= 1e-12 * np.max(np.abs(X))
    for block in (R, R.T):
        with pytest.raises(ValueError, match=re.escape(f"({gen.size},), got shape {block.shape}")):
            factor.solve(block)


@pytest.mark.parametrize("case", LAYOUTS)
def test_split_and_solve_return_new_arrays(case):
    """split(x) and factor.solve(r) return arrays that share no memory with
    their argument, which they leave bitwise unchanged."""
    gen = _layout_case(case)
    factor = gen.split.factor(gen.weights, 0.3)
    x = np.random.default_rng(45).standard_normal(gen.size)
    kept = x.copy()
    for operator in (gen.split, factor.solve):
        y = operator(x)
        assert y.shape == x.shape and not np.shares_memory(x, y)
        assert np.array_equal(x, kept)


@pytest.mark.parametrize("shape", [(41, 3), (3, 41), (40,), (41, 1), ()])
def test_operators_refuse_anything_but_one_state(shape):
    """A block, a state of the wrong length or a scalar is refused with a
    ValueError naming its shape, by the product (split, apply) and the solve:
    BLAS alone would return the product of a (41, 3) block's first column."""
    gen = _layout_generator("triangle", 1.0, 20, 20)
    assert gen.size == 41
    factor = gen.split.factor(gen.weights, 0.3)
    x = np.ones(shape)
    for operator in (gen.split, gen.apply, factor.solve):
        with pytest.raises(ValueError, match=rf"got shape {re.escape(str(shape))}"):
            operator(x)
