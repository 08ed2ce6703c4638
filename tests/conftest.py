import numpy as np
import pytest
from scipy.optimize import brentq

from couplediff import (
    GeneratorMatrix,
    assemble_generator,
    build_grid,
    coupling_constants,
    make_kernel,
)
from couplediff.discretization import _symmetric


@pytest.fixture(scope="session")
def triangle_kernel():
    return make_kernel("triangle", 1.0, 1.0)


@pytest.fixture(scope="session")
def constants(triangle_kernel):
    return coupling_constants(triangle_kernel)


@pytest.fixture(scope="session")
def grid50():
    return build_grid(50, 50)


@pytest.fixture(scope="session")
def gen50(grid50, triangle_kernel, constants):
    return assemble_generator(grid50, triangle_kernel, constants)


@pytest.fixture(scope="session")
def grid100():
    return build_grid(100, 100)


@pytest.fixture(scope="session")
def gen100(grid100, triangle_kernel, constants):
    return assemble_generator(grid100, triangle_kernel, constants)


def weighted_norm(grid, values):
    return float(np.sqrt(np.sum(grid.weights * values * values)))


def transmission_beta1(eps, half_moment):
    """Small-eps oracle for the spectral gap of the rescaled problem.

    The interface contact conductance of J_eps = eps^-3 J(./eps) is
    g = half_moment / eps with half_moment = int_0^R rho J(rho) drho (R/6 for
    the triangle family).  The slowest antisymmetric mode of two unit rods
    exchanging flux g (v(0) - u(0)) solves mu tan mu = 2 g and decays at rate
    mu^2, so beta1 = mu^2 / 2; it tends to pi^2/8 as eps -> 0.
    """
    g = half_moment / eps
    mu = brentq(lambda m: m * np.tan(m) - 2.0 * g, 1e-9, np.pi / 2 - 1e-12)
    return 0.5 * mu * mu


def with_edges(gen, edges):
    """gen with each (i, j, c) of edges adding conductance c between nodes i
    and j (c < 0 weakens an edge), rebuilt through from_dense."""
    L, W = gen.dense(), gen.weights
    for i, j, c in edges:
        L[i, j] += c / W[i]
        L[j, i] += c / W[j]
        L[i, i] -= c / W[i]
        L[j, j] -= c / W[j]
    return from_dense(gen.grid, L)


def from_dense(grid, L):
    """The generator of a dense L (small, hand-built ones).  Only A's upper
    triangle is kept, so W L must be symmetric to roundoff."""
    WL = grid.weights[:, None] * L
    if np.max(np.abs(WL - WL.T)) > 1e-12 * np.max(np.abs(np.diagonal(WL))):
        raise ValueError("W L is not symmetric to roundoff: L is not self-adjoint in W")
    i, j = np.nonzero(L)
    b = int(np.max(np.abs(j - i), initial=0))
    band = np.zeros((b + 1, L.shape[0]), order="F")
    for k in range(b + 1):
        band[b - k, k:] = -np.diagonal(WL, k)
    return GeneratorMatrix(grid, band)


def _symmetrized_eigh(generator):
    """Eigenpairs of D A D with A = -W L and D = W^-1/2, from A's band
    written out dense: the dense oracle of the eigensolver, for small sizes.

    Returns the ascending eigenvalues, the orthonormal eigenvectors and the
    diagonal d of D; d * vecs[:, k] is the W-orthonormal eigenfunction of -L.
    """
    A = _symmetric(generator.band)
    d = 1.0 / np.sqrt(generator.weights)
    vals, vecs = np.linalg.eigh(d[:, None] * A * d[None, :])
    return vals, vecs, d


def _semigroup_oracle(generator, values, times):
    """exp(t L) w for each t in times (one row each), from the dense
    eigendecomposition: the exact semi-discrete flow, for small sizes."""
    vals, vecs, d = _symmetrized_eigh(generator)
    coeff = vecs.T @ (np.sqrt(generator.weights) * values)
    decay = np.exp(-np.outer(np.atleast_1d(times), vals))
    return (decay * coeff) @ vecs.T * d


def generator_edges(generator):
    """The edges of the weighted graph behind L, from one np.nonzero over the
    band's off-diagonal rows: three (i, j, c) triples of arrays -- local,
    nonlocal, coupling -- holding every pair i < j with c = -A_ij nonzero,
    widest offset first and in increasing j within an offset.  An edge is
    local when both ends are local degrees of freedom (every edge of an
    IntervalGrid generator is), nonlocal when both are nonlocal cells, and
    coupling when it joins a local node to a cell.  The oracle of the
    energy's local and coupling terms and of the band split."""
    n_loc = generator.grid.interface_index + 1
    b = generator.half_bandwidth
    rows, j = np.nonzero(generator.band[:b])
    i = j - (b - rows)
    c = -generator.band[rows, j]
    groups = (j < n_loc, i >= n_loc, (i < n_loc) & (j >= n_loc))
    return tuple((i[g], j[g], c[g]) for g in groups)


def edge_energy(edges, values):
    """1/2 sum c (w_j - w_i)^2 over each (i, j, c) group of edges: with
    generator_edges, the (local, nonlocal, coupling) energy in difference
    form, of one state or of each row of a 2-D block."""
    return tuple(0.5 * (np.square(values[..., j] - values[..., i]) @ c) for i, j, c in edges)
