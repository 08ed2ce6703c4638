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

A is thus a weighted graph Laplacian.  generator_edges reads its edges
(i, j, c), c = (W L)_ij, off L as local, nonlocal or coupling; every
energy and interface flux is a sum over those edges.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def pair_kernel_matrix(grid: Grid, kernel: Kernel) -> np.ndarray:
    """J_eps evaluated at all pairs of nonlocal cell centers."""
    y = grid.nonlocal_centers
    return kernel(y[:, None] - y[None, :])


def interface_profile(grid: Grid, kernel: Kernel) -> np.ndarray:
    """Coupling weight q(y_j) at the nonlocal cell centers."""
    return coupling_profile_analytic(kernel, grid.nonlocal_centers)


def _add_path_stiffness(A: np.ndarray, n_edges: int, h: float):
    """Add sum over i < n_edges of (w_{i+1} - w_i)^2 / h to the quadratic form A."""
    i = np.arange(n_edges)
    np.add.at(A, (i, i), 1.0 / h)
    np.add.at(A, (i + 1, i + 1), 1.0 / h)
    np.add.at(A, (i, i + 1), -1.0 / h)
    np.add.at(A, (i + 1, i), -1.0 / h)


@dataclass
class GeneratorMatrix:
    """Dense generator L with its weights; w' = L w is the discrete flow.

    kind is "coupled" for the two-subdomain model and "heat" for the
    single-domain diagnostic Laplacian.
    """

    grid: object
    matrix: np.ndarray
    weights: np.ndarray
    constants: CouplingConstants | None = None
    kernel: Kernel | None = None
    kind: str = "coupled"

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def assemble_generator(
    grid: Grid, kernel: Kernel, constants: CouplingConstants
) -> GeneratorMatrix:
    """Assemble L = -W^-1 A from the three energy terms.

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

    n = grid.size
    nl0 = grid.interface_index + 1
    hn = grid.h_nonlocal
    A = np.zeros((n, n))

    # Local stiffness: sum over edges of (u_{i+1} - u_i)^2 / h.
    _add_path_stiffness(A, grid.n_local, grid.h_local)

    # Jump-diffusion quadratic form: (c1/4) sum_jk K_jk (v_k - v_j)^2 h^2,
    # written straight into A's (still zero) nonlocal block as
    # c1 h^2 (diag(rowsum) - pair); 0 - pair, not -pair, keeps the zeros
    # off the kernel support +0.0.
    pair = pair_kernel_matrix(grid, kernel)
    block = A[nl0:, nl0:]
    np.subtract(0.0, pair, out=block)
    np.fill_diagonal(block, pair.sum(axis=1) - np.diagonal(pair))
    del pair
    block *= constants.c1 * hn * hn

    # Interface exchange: (c2/2) sum_j q_j (v_j - u_I)^2 h.
    q = interface_profile(grid, kernel)
    beta = constants.c2 * q * hn
    I = grid.interface_index
    jj = np.arange(nl0, n)
    A[I, I] += beta.sum()
    A[jj, jj] += beta
    A[I, jj] -= beta
    A[jj, I] -= beta

    L = np.negative(A, out=A)  # L = -A / W, in A's memory
    L /= grid.weights[:, None]
    return GeneratorMatrix(grid, L, grid.weights, constants, kernel, "coupled")


def assemble_heat_generator(n_intervals: int) -> GeneratorMatrix:
    """Diagnostic 3-point Neumann Laplacian on all of (-1, 1).

    Included to validate the eigensolver: the first nonzero eigenvalue of -L
    tends to (pi/2)^2 as the mesh refines.
    """
    if n_intervals < 4:
        raise ValueError("pure-heat diagnostic needs at least 4 intervals")
    grid = IntervalGrid(n_intervals)
    A = np.zeros((grid.size, grid.size))
    _add_path_stiffness(A, grid.n_intervals, grid.spacing)
    L = -A / grid.weights[:, None]
    return GeneratorMatrix(grid, L, grid.weights, None, None, "heat")


def generator_edges(generator: GeneratorMatrix):
    """The edges of the weighted graph behind L, grouped by index range.

    Returns three (i, j, c) triples of arrays -- local, nonlocal, coupling --
    holding every pair i < j with c = (W L)_ij nonzero, the conductance of
    the edge.  An edge is local when both ends are local degrees of freedom
    (every edge of an IntervalGrid generator is), nonlocal when both are
    nonlocal cells, and coupling when it joins the interface node to a cell.
    """
    grid = generator.grid
    n_loc = grid.interface_index + 1 if isinstance(grid, Grid) else generator.size
    i, j = np.nonzero(generator.matrix)
    i, j = i[i < j], j[i < j]
    c = generator.weights[i] * generator.matrix[i, j]
    groups = (j < n_loc, i >= n_loc, (i < n_loc) & (j >= n_loc))
    return tuple((i[g], j[g], c[g]) for g in groups)
