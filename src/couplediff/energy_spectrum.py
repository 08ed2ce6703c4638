"""Discrete energy, spectral gap, and the energy-control estimate.

The energy of a state w = (u, v) has three nonnegative terms: the Dirichlet
term of u on (-1, 0), the double-quadrature jump term of v on (0, 1), and
the interface exchange term tying v to the trace u(0).  The generator is
the negative weighted gradient of this energy, so

    E(w) = 1/2 <w, -L w>_W

holds to roundoff, and the smallest nonzero eigenvalue lambda2 of -L in the
weighted inner product equals twice the gap constant beta1 that controls the
exponential decay of ||w - mean||.

energy_form(generator) evaluates the three terms of a generator's energy,
for one state or a block of states.  The local and coupling terms have O(n)
edges and are edge sums in difference form (edge_energy over their
generator_edges groups).  The nonlocal term has O(n b) edges, about n^2 / 2
at epsilon = 1, so it is read from the block of A's band split
(discretization.BandSplit) instead, applied to a block of states at once:
one GEMM per block when the kernel reaches across the whole nonlocal region,
one symmetric band mat-vec per state otherwise.

nonlocal_energy_full is the jump energy of the kernel over the whole
domain, local nodes included: not a term of the generator, it is summed
one index offset at a time out to the kernel's reach, for one state or a
block of states (estimate_energy_control_k reads it for all its samples
at once).

estimate_beta1 finds lambda2 by block inverse iteration with the stepper's
solve at dt = 1, (I - L)^-1 = (W + A)^-1 W (discretization.SplitFactor), on
four columns, each solved as one state, with Rayleigh-Ritz: it never forms
an n x n array.  numpy.linalg.eigh of W^-1/2 A W^-1/2, A written out dense
from its band (_symmetrized_eigh), remains only as an oracle, for tests and
for verify's semigroup check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import GeneratorMatrix, Grid, _symmetric, generator_edges
from .kernels import Kernel


@dataclass
class EnergyBreakdown:
    local_term: float
    nonlocal_term: float
    coupling_term: float

    @property
    def total(self) -> float:
        return self.local_term + self.nonlocal_term + self.coupling_term


def edge_energy(edges, values) -> tuple:
    """Energy of each edge group in difference form, 1/2 sum c (w_j - w_i)^2.

    With the groups of generator_edges this is (local, nonlocal, coupling):
    local    = 1/2 sum_i (u_{i+1} - u_i)^2 / h
    nonlocal = (c1/4) sum_jk K_jk (v_k - v_j)^2 h^2
    coupling = (c2/2) sum_j q_j (v_j - u_I)^2 h
    energy_form sums the local and coupling groups this way; the nonlocal
    group, all pairs within the kernel's reach, it reads from the band, and
    this sum over its edges is the oracle the tests hold it to.  values is
    one state, or a 2-D block of states with one energy per row.
    """
    return tuple(0.5 * (np.square(values[..., j] - values[..., i]) @ c) for i, j, c in edges)


def energy_form(generator: GeneratorMatrix):
    """terms(values) -> (local, nonlocal, coupling), the generator's energy.

    Built once per generator.  values is one state, giving three floats, or
    a 2-D block of states, giving three arrays with one entry per row.  The
    local and coupling terms are edge_energy over their generator_edges
    groups.  The nonlocal term is

        1/2 (y^T A_vv y - sum_j c_j y_j^2),   y = v - s,

    with A_vv the nonlocal block of A and c_j the coupling conductances.
    A_vv y is read from the block A_R = A[p:, p:] of the generator's band
    split, whose chain ends at the interface node p = nl0 - 1 (for an
    assembled generator; at most that on any two-subdomain grid): the rows
    [0; y], zero on nodes p..nl0-1, go through BandSplit.block_rows, and
    A_R [0; y] = [c^T y; A_vv y].  That is one GEMM per block when the block
    is dense, one sbmv per state otherwise, then one row-wise dot per block.
    A_vv is the Laplacian of the nonlocal edges plus diag(c), and a
    Laplacian's rows sum to 0, so this equals 1/2 sum c (v_k - v_j)^2 over
    the nonlocal edges for any shift s.  The shift s, the value of the
    state's v nearest its mean, keeps the roundoff relative to the energy,
    is exact by Sterbenz for values within a factor 2 of it, and makes a
    constant v give exactly 0 (its mean in floating point need not be the
    constant).  A generator without a nonlocal block (an IntervalGrid,
    n_nonlocal = 0) has nonlocal and coupling terms 0.
    """
    local, _, coupling = generator_edges(generator)
    grid = generator.grid
    if grid.n_nonlocal:
        nl0 = grid.interface_index + 1
        split = generator.split
        pad = nl0 - split.p  # leading zeros of each row: nodes p..nl0-1
        cells, cond = coupling[1] - nl0, coupling[2]

        def nonlocal_term(values):
            v = np.atleast_2d(values[..., nl0:])
            mean = v.sum(axis=1, keepdims=True) / v.shape[1]
            nearest = np.abs(v - mean).argmin(axis=1)
            rows = np.zeros((len(v), pad + v.shape[1]))
            y = rows[:, pad:]
            np.subtract(v, v[np.arange(len(v)), nearest][:, None], out=y)
            ay = split.block_rows(rows)[:, pad:]
            yc = y[:, cells]
            return 0.5 * (np.einsum("ij,ij->i", y, ay) - (yc * yc) @ cond)
    else:
        def nonlocal_term(values):
            return np.zeros(len(np.atleast_2d(values)))

    def terms(values):
        loc, cp = edge_energy((local, coupling), values)
        nl = nonlocal_term(values)
        if np.ndim(values) == 1:
            return float(loc), float(nl[0]), float(cp)
        return loc, nl, cp

    return terms


def energy(generator: GeneratorMatrix, w: np.ndarray) -> EnergyBreakdown:
    return EnergyBreakdown(*energy_form(generator)(w))


def _full_energy(grid: Grid, kernel: Kernel, values):
    """Full-domain nonlocal energy of one state, or of each row of a block.

    1/2 sum_d sum_i c_d,i (w_{i+d} - w_i)^2, one offset d at a time out to
    the kernel's reach in index (positions sorted), with
    c_d,i = 4 w_i J_eps(x_i - x_{i+d}) w_{i+d}: the d-th diagonal of the
    full-domain form, each unordered pair counted twice.  The kernel decides
    every value, and a constant state gives exactly 0.
    """
    x, ww = grid.positions, grid.weights
    reach = np.searchsorted(x, x + kernel.support_radius * (1.0 + 1e-9), side="right")
    total = np.zeros(np.shape(values)[:-1])
    for d in range(1, int(np.max(reach - np.arange(x.size)))):
        c = 4.0 * ww[:-d] * kernel(x[:-d] - x[d:]) * ww[d:]
        total += np.square(values[..., d:] - values[..., :-d]) @ c
    return 0.5 * total


def nonlocal_energy_full(grid: Grid, kernel: Kernel, w: np.ndarray) -> float:
    """Pure nonlocal energy over the whole domain (-1, 1).

    Double quadrature over all degree-of-freedom pairs, local nodes and
    nonlocal centers alike, of J_eps(x - y) (w(y) - w(x))^2.
    """
    return float(_full_energy(grid, kernel, w))


@dataclass
class SpectralReport:
    beta1: float
    lambda2: float
    eigvec: np.ndarray
    residual: float
    iterations: int


def _symmetrized_eigh(generator: GeneratorMatrix):
    """Eigenpairs of D A D with A = -W L and D = W^-1/2, from A's band
    written out dense: an oracle for small sizes (estimate_beta1 never
    builds it).

    Returns the ascending eigenvalues, the orthonormal eigenvectors and the
    diagonal d of D; d * vecs[:, k] is the W-orthonormal eigenfunction of -L.
    """
    A = _symmetric(generator.band)
    d = 1.0 / np.sqrt(generator.weights)
    vals, vecs = np.linalg.eigh(d[:, None] * A * d[None, :])
    return vals, vecs, d


def _semigroup_oracle(generator: GeneratorMatrix, values, times) -> np.ndarray:
    """exp(t L) w for each t in times (one row each), from the dense
    eigendecomposition: the exact semi-discrete flow, for small sizes."""
    vals, vecs, d = _symmetrized_eigh(generator)
    coeff = vecs.T @ (np.sqrt(generator.weights) * values)
    decay = np.exp(-np.outer(np.atleast_1d(times), vals))
    return (decay * coeff) @ vecs.T * d


EIGEN_COLUMNS = 4  # columns of the block inverse iteration
EIGEN_MAX_ITERATIONS = 100


def estimate_beta1(generator: GeneratorMatrix) -> SpectralReport:
    """Smallest nonzero eigenvalue of -L in the weighted inner product.

    Solves A x = lambda W x (A = -W L) by block inverse iteration with
    Rayleigh-Ritz on the split band: the iteration operator is
    (I - L)^-1 = (W + A)^-1 W, the stepper's SplitFactor.solve at dt = 1
    (BandSplit.factor) applied to each column as one state, whose
    eigenvalues 1 / (1 + lambda) are largest for the smallest lambda.  It
    iterates on EIGEN_COLUMNS W-orthonormal columns started from the cosines
    cos(j pi (x - x_0) / (x_end - x_0)), j = 1..4, with the constant (zero)
    mode projected out every iteration; A X comes from the split, and the
    4 x 4 matrix X^T A X gives the Ritz pairs (numpy.linalg.eigh).  It stops
    when the W-norm Ritz residual of lambda2 is at most 1e-10 lambda2, or
    no longer halving below the roundoff floor of A X in the W-norm,
    8 u max_i sum_j |A_ij| / W_i = 16 u max_i A_ii / W_i (u the unit
    roundoff; A is a Laplacian with nonpositive off-diagonal entries), and
    raises after EIGEN_MAX_ITERATIONS.  Nothing n x n is formed: the factor
    of the block and a few (n, 4) arrays.

    Returns lambda2 together with beta1 = lambda2 / 2, the mass-zero
    eigenfunction (W-normalized, its largest entry positive), the residual
    of -L x = lambda2 x through generator.apply, and the iteration count.
    The constant must be in the kernel: its Rayleigh quotient
    1^T A 1 / 1^T W 1 must be at most 1e-8 max(lambda2, 1).
    """
    W = generator.weights
    split = generator.split
    ones = np.ones(generator.size)
    measure = float(np.sum(W))
    constant = float(ones @ split(ones)) / measure
    factor = split.factor(W, 1.0)
    floor = 8.0 * np.finfo(float).eps * float(np.max(generator.band[-1] / W))  # eps = 2 u
    root_w = np.sqrt(W)[:, None]
    x = generator.grid.positions
    j = np.arange(1, EIGEN_COLUMNS + 1)
    X = np.cos(np.pi * np.multiply.outer((x - x[0]) / (x[-1] - x[0]), j))
    previous = np.inf
    for iterations in range(1, EIGEN_MAX_ITERATIONS + 1):
        X = np.column_stack([factor.solve(column) for column in X.T])
        X -= (W @ X) / measure  # the constant mode, W-orthogonally
        X = np.linalg.qr(root_w * X)[0] / root_w
        AX = np.column_stack([split(column) for column in X.T])
        ritz, V = np.linalg.eigh(X.T @ AX)
        X, AX = X @ V, AX @ V
        lam = float(ritz[0])
        r = AX[:, 0] / W - lam * X[:, 0]
        ritz_residual = float(np.sqrt(r @ (W * r)))
        converged = (ritz_residual <= 1e-10 * lam
                     or floor >= ritz_residual > 0.5 * previous)
        if converged:
            break
        previous = ritz_residual
    if constant > 1e-8 * max(lam, 1.0):
        raise RuntimeError(
            f"constant mode not found in the spectrum (lowest eigenvalue {constant:.3e})"
        )
    if not converged:
        raise RuntimeError(
            f"eigensolver did not converge in {EIGEN_MAX_ITERATIONS} iterations: Ritz residual "
            f"{ritz_residual:.3e} of lambda2 = {lam:.6g} above 1e-10 * lambda2"
        )
    x = X[:, 0].copy()
    x /= np.sqrt(np.sum(W * x * x))
    x *= np.sign(x[np.argmax(np.abs(x))]) or 1.0
    r = -generator.apply(x) - lam * x
    residual = float(np.sqrt(np.sum(W * r * r)))
    if residual > 1e-8 * lam:
        raise RuntimeError(
            f"eigensolver residual {residual:.3e} exceeds 1e-8 * lambda2 = {1e-8 * lam:.3e}"
        )
    return SpectralReport(
        beta1=0.5 * lam,
        lambda2=lam,
        eigvec=x,
        residual=residual,
        iterations=iterations,
    )


def rayleigh(generator: GeneratorMatrix, w: np.ndarray) -> float:
    """Energy over squared weighted norm of the mean-free part of w."""
    weights = generator.weights
    shifted = w - 0.5 * float(weights @ w)
    denom = float(np.sum(weights * shifted * shifted))
    scale = float(np.max(np.abs(w))) or 1.0
    if denom <= 1e-28 * scale * scale:
        raise ValueError("rayleigh quotient undefined for (numerically) constant input")
    return energy(generator, w).total / denom


def estimate_energy_control_k(generator: GeneratorMatrix, n_samples: int, seed: int) -> float:
    """Randomized lower estimate of the constant dominating the full nonlocal energy.

    Draws mean-zero standard normal states sequentially from one seeded
    stream, as the rows of one block, and returns the minimum over samples
    of energy(w).total / nonlocal_energy_full(w), both evaluated once on
    the whole block (energy_form and the offset sum behind
    nonlocal_energy_full).  Samples whose full nonlocal energy is below
    1e-14 are discarded.
    """
    if n_samples < 10:
        raise ValueError("need at least 10 samples")
    grid = generator.grid
    terms = energy_form(generator)
    ww = grid.weights

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, grid.size))  # row k: the k-th draw of the stream
    z -= 0.5 * (z @ ww)[:, None]
    nlf = _full_energy(grid, generator.kernel, z)
    loc, nl, cp = terms(z)
    kept = nlf >= 1e-14
    best = np.min((loc + nl + cp)[kept] / nlf[kept], initial=np.inf)
    if not np.isfinite(best):
        raise RuntimeError("all random samples had degenerate nonlocal energy")
    return float(best)
