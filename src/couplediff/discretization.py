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
stored as W and A's upper band only; GeneratorMatrix.dense() rebuilds L as
the tests' dense oracle.  The local nodes form a tridiagonal chain that
meets the rest only at the interface node, so A x and the implicit solves
read the band split there (BandSplit), never the zeros of the band over the
local nodes.  The block behind the chain is read as a band, or, when the
kernel reaches across the whole nonlocal region and the band holds no zeros
there, as one dense symmetric copy (symv for A x, one GEMM for a block of
rows).  The split also owns the factor of W + dt A (BandSplit.factor,
SplitFactor): a tridiagonal L D L^T factor over the chain and a band
Cholesky factor of the block, whose solve applies
(I - dt L)^-1 = (W + dt A)^-1 W: every implicit solve of the package is it,
the stepper's and the one Krylov basis's (energy_spectrum) alike.
A x and the solve take one state of n values and return a new array.
The energy reads the same split (energy_spectrum.energy_form): the local
conductances are the chain's off-diagonal, the exchange conductances node
p's row of the block, and the nonlocal term goes through the block; the
interface fluxes are rows of A w, one split product.  No edge list of A is
kept.
The GeneratorMatrix also carries its grid, kernel and constants: every
routine after assembly takes it, and none assembles again.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import dpbtrf, dpbtrs, dpttrf, dpttrs, dsbmv, dsymv
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


class IntervalGrid:
    """Single-domain diagnostic mesh: nodes on [-1, 1] with trapezoid weights.

    Used only by the pure-heat generator that validates the eigensolver
    against the closed-form Neumann spectrum.  Every node is local.
    """

    n_nonlocal = 0

    def __init__(self, n_intervals: int):
        self.n_intervals = int(n_intervals)
        self.spacing = 2.0 / self.n_intervals
        self.positions = np.linspace(-1.0, 1.0, self.n_intervals + 1)
        self.size = self.n_intervals + 1
        self.interface_index = self.n_intervals
        w = np.full(self.size, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        self.weights = w

    def __repr__(self):
        return f"IntervalGrid(n_intervals={self.n_intervals})"


def build_grid(n_local: int, n_nonlocal: int) -> Grid:
    if n_local < 4 or n_nonlocal < 4:
        raise ValueError(
            f"grid needs at least 4 cells per subdomain, got ({n_local}, {n_nonlocal})"
        )
    return Grid(n_local, n_nonlocal)


def resolved_n_nonlocal(n_nonlocal: int, epsilon: float, radius: float) -> int:
    """max(n_nonlocal, ceil(4 / (epsilon radius))): at least four nonlocal
    cells across the reach of the kernel of the given epsilon and radius,
    the coarsest grid assemble_generator accepts for it."""
    return max(n_nonlocal, int(np.ceil(4.0 / (epsilon * radius))))


def _add_path_stiffness(band: np.ndarray, n_edges: int, h: float):
    """Add sum over i < n_edges of (w_{i+1} - w_i)^2 / h to A's band."""
    b = band.shape[0] - 1
    band[b - 1, 1 : n_edges + 1] -= 1.0 / h
    band[b, :n_edges] += 1.0 / h
    band[b, 1 : n_edges + 1] += 1.0 / h


def _symmetric(band: np.ndarray) -> np.ndarray:
    """The symmetric n x n matrix held in (b + 1, n) upper band storage."""
    b, n = band.shape[0] - 1, band.shape[1]
    a = np.zeros((n, n))
    for k in range(b + 1):
        i = np.arange(n - k)
        a[i, i + k] = a[i + k, i] = band[b - k, k:]
    return a


class BandSplit:
    """A's band split at the interface node p: the chain and the block.

    p is the chain length, the longest leading run of nodes that link only to
    their neighbours (A[i, j] = 0 for i < p and j > i + 1), so that they reach
    the rest only through node p, and at most last = grid.interface_index
    (n - 1 for the heat generator); a band with a far link from node 0 has
    p = 0, and the block is then the whole band.  Entries stored above the
    matrix (row j - (b - row) < 0, never read by LAPACK) are not links.  p
    is found one far offset d = b..2 at a time, each scan reading only the
    nodes below the current p, so making the split holds no copy or index
    of the band.

    chain holds A on nodes 0..p in (2, p + 1) upper band storage with its
    (p, p) entry zero; block = band[:, p:] is A[p:, p:] in place, an
    F-contiguous view whose entries that link to the chain lie in the
    storage triangle BLAS and LAPACK do not read.  A x = chain x + block x
    then costs O(p + (n - p) b), not O(n b).  When the band is full over
    the block (b = n - p - 1: the kernel reaches across the whole nonlocal
    region), band kernels would read a band without zeros at about twice
    the cost of dense ones, so dense holds A[p:, p:] as a dense symmetric
    copy and the block is applied by symv, or by one GEMM for many rows;
    otherwise dense is None and sbmv reads the band.  The chain and dense
    are copies, dense made on first use (a split that only factors has
    none): a band changed after its split is made no longer matches it.
    """

    def __init__(self, band: np.ndarray, last: int):
        b = band.shape[0] - 1
        p = last
        for d in range(b, 1, -1):  # far links of offset d from nodes 0..p-1
            far = np.flatnonzero(band[b - d, d : d + p])
            if far.size:
                p = int(far[0])
        chain = np.zeros((2, p + 1), order="F")
        if b > 0:
            chain[0, 1:] = band[b - 1, 1 : p + 1]
        chain[1, :p] = band[b, :p]
        self.p = p
        self.half_bandwidth = b
        self.chain = chain
        self.block = band[:, p:]

    @cached_property
    def dense(self) -> np.ndarray | None:
        # .T: the transpose of a symmetric C-order array is the same matrix in
        # Fortran order, which BLAS reads without a copy
        return _symmetric(self.block).T if self.block.shape[1] == self.half_bandwidth + 1 else None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """A x for one state x, a new array: the chain's sbmv, then the
        block's product added into the same y."""
        p = self.p
        _check_state(x, p + self.block.shape[1])
        y = np.zeros(x.shape)  # beta = 1 below reads y
        dsbmv(1, 1.0, self.chain, x, y=y, overwrite_y=1)
        if self.dense is not None:
            return dsymv(1.0, self.dense, x, offx=p, beta=1.0, y=y, offy=p, overwrite_y=1)
        return dsbmv(self.half_bandwidth, 1.0, self.block, x, offx=p, beta=1.0, y=y,
                     offy=p, overwrite_y=1)

    def block_rows(self, rows: np.ndarray) -> np.ndarray:
        """Each row of the (k, n - p) array rows times A[p:, p:]: one GEMM
        when dense, one sbmv per row otherwise."""
        if self.dense is not None:
            return rows @ self.dense
        out = np.empty_like(rows)
        for row, y in zip(rows, out):
            dsbmv(self.half_bandwidth, 1.0, self.block, row, y=y, overwrite_y=1)
        return out

    def factor(self, weights: np.ndarray, dt: float) -> "SplitFactor":
        """The factor of W + dt A along this split."""
        return SplitFactor(self, weights, dt)


def _check_state(x: np.ndarray, n: int):
    """Refuse the array x unless it is one state of n values: BLAS would read
    an (n, k) block's first column, numpy broadcast a (k, n) one."""
    if x.shape != (n,):
        raise ValueError(f"expected one state of shape ({n},), got shape {x.shape}")


def _not_positive_definite(routine: str, info: int, first: int) -> RuntimeError:
    """The error for LAPACK's info > 0 from a factorization whose first row
    is node `first` of the generator: the pivot of node first + info - 1 is
    not positive."""
    return RuntimeError(f"W + dt A is not positive definite: {routine} fails at node "
                        f"{first + info - 1}")


class SplitFactor:
    """W + dt A factored in two parts along a BandSplit at the interface node p.

    M_c = W_c + dt A_c on the chain of nodes 0..p-1 and the block on nodes
    p..n-1 meet in the one entry m = dt A[p-1, p].  The chain is tridiagonal
    and factored as L D L^T by pttrf, its unit bidiagonal L's subdiagonal in
    e and D in d; the block is band Cholesky factored by pbtrf, after the
    Schur complement's one change sigma = m^2 / d[p-1] = m^2 (M_c^-1)[p-1,
    p-1] to its first diagonal entry: block = chol(W_R + dt A_R - sigma
    e0 e0^T).  solve() is block elimination on s = W r: y_c = M_c^-1 s_c
    (pttrs), then the block's solve of s_R - m y_c[-1] e0 (pbtrs), then
    y_c -= m x_R[0] z with z = M_c^-1 e_{p-1}.  The factor takes
    (b + 1)(n - p) entries plus 3 p for the chain and z: about n^2 / 4 at
    epsilon = 1 on a square grid (b = p = n/2), O(n b) at small epsilon.
    """

    def __init__(self, split: BandSplit, weights: np.ndarray, dt: float):
        p = self.p = split.p
        self.weights = weights
        self.m = m = dt * split.chain[0, p]  # dt A[p-1, p]; 0 when p = 0
        self.z = np.zeros(p)
        diagonal = weights[p:].copy()
        if p:  # pttrf refuses an empty chain
            self.d, self.e, info = dpttrf(weights[:p] + dt * split.chain[1, :p],
                                          dt * split.chain[0, 1:p], overwrite_d=1, overwrite_e=1)
            if info != 0:
                raise _not_positive_definite("pttrf", info, 0)
            self.z[-1] = 1.0
            dpttrs(self.d, self.e, self.z, overwrite_b=1)  # z = M_c^-1 e_{p-1}
            diagonal[0] -= m * m / self.d[-1]
        block = np.multiply(split.block, dt, order="F")
        block[-1] += diagonal
        self.block, info = dpbtrf(block, overwrite_ab=1)
        if info != 0:
            raise _not_positive_definite("pbtrf", info, p)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """(I - dt L)^-1 r = (W + dt A)^-1 W r for one state r, a new array.
        LAPACK overwrites the array's two contiguous pieces in place."""
        _check_state(r, self.weights.size)
        x = self.weights * r
        p = self.p
        if p:  # LAPACK refuses an empty right-hand side
            dpttrs(self.d, self.e, x[:p], overwrite_b=1)
            x[p] -= self.m * x[p - 1]
        dpbtrs(self.block, x[p:], overwrite_b=1)
        if p:
            x[:p] -= (self.m * x[p]) * self.z
        return x


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

    @cached_property
    def split(self) -> BandSplit:
        """The band split at the interface node, made on first use.  On a
        two-subdomain grid the chain ends at the interface node at the
        latest, so the nonlocal block always lies in the split's block."""
        return BandSplit(self.band, self.grid.interface_index)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """L x = -(A x) / W."""
        return np.negative(self.split(x)) / self.weights

    def dense(self) -> np.ndarray:
        """L as an n x n array, the tests' dense oracle; nothing in the
        package calls it."""
        L = _symmetric(self.band)
        L /= -self.weights[:, None]
        return L


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
            f"support_radius/4 = {limit:.3g}; refine n_nonlocal or widen the kernel"
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
    beta = coupling_profile_analytic(kernel, grid.nonlocal_centers) * hn
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

    # Interface exchange: (1/2) sum_j q_j (v_j - u_I)^2 h, an edge of
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

