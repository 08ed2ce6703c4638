"""Two-subdomain mesh and the discrete generator of the coupled flow.

Unknowns are nodal on [-1, 0] (the trace at x = 0 is a degree of freedom,
because the interface flux is driven by it) and cell-centered on (0, 1)
(the jump-diffusion field is only square integrable, so no value is ever
attached to the interface from the right).

The generator L of the semi-discrete system w' = L w is defined as the
negative weighted gradient of the discrete energy: with W the diagonal of
quadrature weights and A the (symmetric, positive semidefinite) Hessian of
the energy, L = -W^-1 A.  Symmetry of W L, zero row sums, nonnegative
off-diagonal entries and the exact mass identity  sum(W L w) = 0  are all
consequences of that single construction.

A is thus a weighted graph Laplacian, banded (the kernel reaches R eps) and
stored as W and A's upper band only; GeneratorMatrix.dense() rebuilds L for
small reference computations.  generator_edges reads the edges (i, j, c),
c = -A_ij, off the band as local, nonlocal or coupling; every energy and
interface flux is a sum over those edges.  The GeneratorMatrix also carries
its grid, kernel and constants: every routine after assembly takes it, and
none assembles again.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsbmv

from .kernels import CouplingConstants, Kernel, coupling_profile_analytic


class Grid:
    """Nodes on [-1, 0], cell centers on (0, 1), and quadrature weights.

    Attributes
    ----------
    local_nodes : x_i = -1 + i * h_local, i = 0..n_local (trapezoid weights)
    nonlocal_centers : y_j = (j + 1/2) * h_nonlocal, j = 0..n_nonlocal - 1
        (midpoint weights)
    interface_index : index of the node at x = 0 (= n_local)
    positions, weights : all degrees of freedom concatenated, local first
    """

    def __init__(self, n_local: int, n_nonlocal: int):
        self.n_local = int(n_local)
        self.n_nonlocal = int(n_nonlocal)
        self.h_local = 1.0 / self.n_local
        self.h_nonlocal = 1.0 / self.n_nonlocal
        self.local_nodes = np.linspace(-1.0, 0.0, self.n_local + 1)
        self.nonlocal_centers = (np.arange(self.n_nonlocal) + 0.5) * self.h_nonlocal
        self.interface_index = self.n_local
        self.size = self.n_local + 1 + self.n_nonlocal
        w = np.empty(self.size)
        w[: self.n_local + 1] = self.h_local
        w[0] *= 0.5
        w[self.n_local] *= 0.5
        w[self.n_local + 1 :] = self.h_nonlocal
        self.weights = w
        self.positions = np.concatenate([self.local_nodes, self.nonlocal_centers])

    def __repr__(self):
        return f"Grid(n_local={self.n_local}, n_nonlocal={self.n_nonlocal})"

    def compatible_with(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and other.n_local == self.n_local
            and other.n_nonlocal == self.n_nonlocal
        )


class IntervalGrid:
    """Single-domain diagnostic mesh: nodes on [-1, 1] with trapezoid weights.

    Used only by the pure-heat generator that validates the eigensolver
    against the closed-form Neumann spectrum.
    """

    def __init__(self, n_intervals: int):
        self.n_intervals = int(n_intervals)
        self.spacing = 2.0 / self.n_intervals
        self.positions = np.linspace(-1.0, 1.0, self.n_intervals + 1)
        self.size = self.n_intervals + 1
        w = np.full(self.size, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        self.weights = w

    def __repr__(self):
        return f"IntervalGrid(n_intervals={self.n_intervals})"

    def compatible_with(self, other) -> bool:
        return isinstance(other, IntervalGrid) and other.n_intervals == self.n_intervals


def build_grid(n_local: int, n_nonlocal: int) -> Grid:
    if n_local < 4 or n_nonlocal < 4:
        raise ValueError(
            f"grid needs at least 4 cells per subdomain, got ({n_local}, {n_nonlocal})"
        )
    return Grid(n_local, n_nonlocal)


@dataclass
class StateField:
    """A discrete state w = (u, v) sampled on a grid."""

    grid: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.size,):
            raise ValueError(
                f"state length {self.values.shape} does not match grid size {self.grid.size}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("state values must be finite")

    @property
    def u(self) -> np.ndarray:
        return self.values[: self.grid.interface_index + 1]

    @property
    def v(self) -> np.ndarray:
        return self.values[self.grid.interface_index + 1 :]

    def copy(self) -> "StateField":
        return StateField(self.grid, self.values.copy())


def constant_state(grid, value: float) -> StateField:
    return StateField(grid, np.full(grid.size, float(value)))


def state_from_function(grid, fn) -> StateField:
    return StateField(grid, np.asarray(fn(grid.positions), dtype=float))


def mass(grid, w: StateField) -> float:
    """Weighted total, the discrete integral of w over (-1, 1)."""
    _check_grid(grid, w)
    return float(grid.weights @ w.values)


def weighted_inner(grid, a: StateField, b: StateField) -> float:
    """Discrete L2 inner product with the grid quadrature weights."""
    _check_grid(grid, a)
    _check_grid(grid, b)
    return float(np.sum(grid.weights * a.values * b.values))


def _check_grid(grid, w: StateField):
    if w.grid is not grid and not grid.compatible_with(w.grid):
        raise ValueError("state field lives on a different grid")


def _add_path_stiffness(band: np.ndarray, n_edges: int, h: float):
    """Add sum over i < n_edges of (w_{i+1} - w_i)^2 / h to A's band."""
    b = band.shape[0] - 1
    band[b - 1, 1 : n_edges + 1] -= 1.0 / h
    band[b, :n_edges] += 1.0 / h
    band[b, 1 : n_edges + 1] += 1.0 / h


@dataclass
class GeneratorMatrix:
    """The generator L = -W^-1 A of w' = L w, kept as W and A's upper band.

    A[i, j] (i <= j) sits at band[b + i - j, j] of a (b + 1, n) Fortran
    array (LAPACK upper band storage), b the widest offset j - i that holds a
    nonzero; A is symmetric, so that is all of it.  W is grid.weights;
    constants and kernel are None for the single-domain diagnostic Laplacian.
    """

    grid: object
    band: np.ndarray
    constants: CouplingConstants | None = None
    kernel: Kernel | None = None

    @property
    def weights(self) -> np.ndarray:
        return self.grid.weights

    @property
    def size(self) -> int:
        return self.band.shape[1]

    @property
    def half_bandwidth(self) -> int:
        return self.band.shape[0] - 1

    def apply(self, x: np.ndarray) -> np.ndarray:
        """L x = -(A x) / W."""
        return dsbmv(self.half_bandwidth, -1.0, self.band, x) / self.weights

    def dense(self) -> np.ndarray:
        """L as an n x n array; a reference for small sizes and oracles."""
        n, b = self.size, self.half_bandwidth
        L = np.zeros((n, n))
        for k in range(b + 1):
            i = np.arange(n - k)
            L[i, i + k] = L[i + k, i] = self.band[b - k, k:]
        L /= -self.weights[:, None]
        return L

    @classmethod
    def from_dense(cls, grid, L, constants=None, kernel=None):
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
        return cls(grid, band, constants, kernel)


def assemble_generator(
    grid: Grid, kernel: Kernel, constants: CouplingConstants
) -> GeneratorMatrix:
    """Assemble A's band from the three energy terms, in O(n b).

    Rows of L, written out: interior local nodes carry the standard 3-point
    Laplacian, the left end a second-order Neumann ghost, the interface node
    the Laplacian plus (2/h) times the discrete interface flux, and each
    nonlocal row the quadrature jump operator minus the interface exchange.
    """
    limit = kernel.support_radius / 4.0  # at least 8 cells across the kernel support
    if grid.h_nonlocal > limit * (1.0 + 1e-12):
        raise ValueError(
            f"under-resolved kernel: h_nonlocal = {grid.h_nonlocal:.3g} exceeds "
            f"support_radius/4 = {limit:.3g}; refine n_nonlocal or increase epsilon"
        )
    if not isinstance(constants, CouplingConstants):
        raise ValueError("constants must be a CouplingConstants instance")

    n_nl = grid.n_nonlocal
    nl0 = grid.interface_index + 1
    hn = grid.h_nonlocal
    # The nonlocal block is Toeplitz (uniform cell centers): its offset-d
    # entries all come from the symbol s_d = J_eps(d h), whose zeros the
    # kernel's own support rule settles once per offset.
    width = min(n_nl - 1, int(np.ceil(kernel.support_radius / hn)))
    s = kernel(np.arange(width + 1) * hn)
    beta = constants.c2 * coupling_profile_analytic(kernel, grid.nonlocal_centers) * hn
    b = max(1, int(np.flatnonzero(s)[-1]), int(np.max(np.flatnonzero(beta), initial=-1)) + 1)
    band = np.zeros((b + 1, grid.size), order="F")

    # Local stiffness: sum over edges of (u_{i+1} - u_i)^2 / h.
    _add_path_stiffness(band, grid.n_local, grid.h_local)

    # Jump-diffusion quadratic form: (c1/4) sum_jk K_jk (v_k - v_j)^2 h^2,
    # that is c1 h^2 (diag(rowsum) - K); the row sums are partial sums of s,
    # rows within the support of 0 or 1 losing terms.
    c = constants.c1 * hn * hn
    for d in range(1, min(width, b) + 1):
        band[b - d, nl0 + d :] = -c * s[d]
    partial = np.concatenate(([0.0], np.cumsum(s[1:])))
    rows = np.minimum(np.arange(n_nl), width)
    band[b, nl0:] = (partial[rows] + partial[rows[::-1]]) * c

    # Interface exchange: (c2/2) sum_j q_j (v_j - u_I)^2 h, an edge of
    # offset j + 1 from the interface node nl0 - 1 to cell j.
    j = np.arange(b)
    band[b - 1 - j, nl0 + j] = np.negative(beta[:b])
    band[b, nl0 - 1] += beta.sum()
    band[b, nl0:] += beta
    return GeneratorMatrix(grid, band, constants, kernel)


def assemble_heat_generator(n_intervals: int) -> GeneratorMatrix:
    """Diagnostic 3-point Neumann Laplacian on all of (-1, 1).

    Included to validate the eigensolver: the first nonzero eigenvalue of -L
    tends to (pi/2)^2 as the mesh refines.
    """
    if n_intervals < 4:
        raise ValueError("pure-heat diagnostic needs at least 4 intervals")
    grid = IntervalGrid(n_intervals)
    band = np.zeros((2, grid.size), order="F")
    _add_path_stiffness(band, grid.n_intervals, grid.spacing)
    return GeneratorMatrix(grid, band)


def generator_edges(generator: GeneratorMatrix):
    """The edges of the weighted graph behind L, grouped by index range.

    Returns three (i, j, c) triples of arrays -- local, nonlocal, coupling --
    holding every pair i < j with c = -A_ij = (W L)_ij nonzero, the
    conductance of the edge, read off the band diagonal by diagonal.  An edge
    is local when both ends are local degrees of freedom (every edge of an
    IntervalGrid generator is), nonlocal when both are nonlocal cells, and
    coupling when it joins the interface node to a cell.
    """
    grid = generator.grid
    n_loc = grid.interface_index + 1 if isinstance(grid, Grid) else generator.size
    b = generator.half_bandwidth
    rows, j = np.nonzero(generator.band[:b])
    i = j - (b - rows)
    c = -generator.band[rows, j]
    groups = (j < n_loc, i >= n_loc, (i < n_loc) & (j >= n_loc))
    return tuple((i[g], j[g], c[g]) for g in groups)
