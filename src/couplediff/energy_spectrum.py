"""Discrete energy, spectral gap, and the energy-control estimate.

The energy of a state w = (u, v) has three nonnegative terms: the Dirichlet
term of u on (-1, 0), the double-quadrature jump term of v on (0, 1), and
the interface exchange term tying v to the trace u(0).  The generator is
the negative weighted gradient of this energy, so

    E(w) = 1/2 <w, -L w>_W

holds to roundoff, and the smallest nonzero eigenvalue lambda2 of -L in the
weighted inner product equals twice the gap constant beta1 that controls the
exponential decay of ||w - mean||.

energy_form(generator) is the one evaluator of a generator's energy: built
once, it gives the three terms for one state or a block of states, and the
energy is their sum.  It reads A's band split at the interface node
(discretization.BandSplit) and nothing else.  The local and coupling terms
have O(n) edges and are edge sums in difference form, their conductances
the chain's off-diagonal and the interface node's row of the block.  The
nonlocal term has O(n b) edges, about n^2 / 2 at epsilon = 1, so its edges
are never listed: it is read from the split's block, applied to a block of
states at once: one GEMM per block when the kernel reaches across the whole
nonlocal region, one symmetric band mat-vec per state otherwise.

nonlocal_energy_full is the jump energy of the kernel over the whole
domain, local nodes included: not a term of the generator, it is summed
one index offset at a time out to the kernel's reach, for one state or a
block of states (estimate_energy_control_k reads it for all its samples
at once).

One Krylov iteration serves the spectral quantities (_krylov): a
W-orthonormal, mean-free basis grown by the stepper's solve
(I - gamma L)^-1 = (W + gamma A)^-1 W (discretization.SplitFactor), one
state per solve, with Rayleigh-Ritz on A over it.  estimate_beta1 reads
lambda2 off its lowest Ritz pair, and semigroup the exact flow exp(t L) w
off all of them.  Neither forms an n x n array; the dense eigendecomposition
they are checked against lives in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import GeneratorMatrix, Grid
from .kernels import Kernel


def energy_form(generator: GeneratorMatrix):
    """terms(values) -> (local, nonlocal, coupling), the generator's energy,
    whose total is the sum of the three:

    local    = 1/2 sum_i (u_{i+1} - u_i)^2 / h
    nonlocal = (c1/4) sum_jk K_jk (v_k - v_j)^2 h^2
    coupling = (1/2) sum_j q_j (v_j - u_I)^2 h

    Built once per generator, from its band split (discretization.BandSplit)
    alone.  Its chain must end at the interface node, p =
    grid.interface_index, as it does for every generator assemble_generator
    and assemble_heat_generator build; a split that stops earlier raises
    ValueError.  values is one state, giving three floats, or a 2-D block of
    states, giving three arrays with one entry per row.

    The local and coupling terms are sums over their edges in difference
    form, 1/2 sum c (w_j - w_i)^2.  The local conductances c = -A[i, i + 1]
    are the chain's off-diagonal.  The coupling conductances c_j = -A[p,
    nl0 + j] (nl0 = p + 1, the first cell) are node p's row of the block,
    its nonzero entries, widest offset first.  Making the form holds O(n)
    floats besides the split.  The nonlocal term is

        1/2 (y^T A_vv y - sum_j c_j y_j^2),   y = v - s,

    with A_vv the nonlocal block of A.  A_vv y is read from the block
    A_R = A[p:, p:]: the rows [0; y] go through BandSplit.block_rows, and
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
    grid, split = generator.grid, generator.split
    p, b = split.p, split.half_bandwidth
    if p != grid.interface_index:
        raise ValueError(f"energy_form needs the band's chain to end at the interface node "
                         f"{grid.interface_index}, but a far link ends it at p = {p}")
    local = -split.chain[0, 1:]
    d = np.arange(min(b, split.block.shape[1] - 1), 0, -1)  # node p's row, widest offset first
    exchange = -split.block[b - d, d]
    cells, cond = d[exchange != 0] - 1, exchange[exchange != 0]
    nl0 = p + 1

    def edge_sum(ends, starts, c):
        # The differences in Fortran order, the layout of an index gather as
        # the tests' edge oracle forms them: for a C-ordered block matmul
        # takes another BLAS path, and the sums differ in their last digits.
        return 0.5 * (np.square(np.subtract(ends, starts, order="F")) @ c)

    if grid.n_nonlocal:
        def nonlocal_term(values):
            v = np.atleast_2d(values[..., nl0:])
            mean = v.sum(axis=1, keepdims=True) / v.shape[1]
            nearest = np.abs(v - mean).argmin(axis=1)
            rows = np.zeros((len(v), 1 + v.shape[1]))  # a leading 0 at node p
            y = rows[:, 1:]
            np.subtract(v, v[np.arange(len(v)), nearest][:, None], out=y)
            ay = split.block_rows(rows)[:, 1:]
            yc = y[:, cells]
            return 0.5 * (np.einsum("ij,ij->i", y, ay) - (yc * yc) @ cond)
    else:
        def nonlocal_term(values):
            return np.zeros(len(np.atleast_2d(values)))

    def terms(values):
        loc = edge_sum(values[..., 1:nl0], values[..., :p], local)
        cp = edge_sum(values[..., nl0 + cells], values[..., p, None], cond)
        nl = nonlocal_term(values)
        if np.ndim(values) == 1:
            return float(loc), float(nl[0]), float(cp)
        return loc, nl, cp

    return terms


def nonlocal_energy_full(grid: Grid, kernel: Kernel, values):
    """Pure nonlocal energy over the whole domain (-1, 1), of one state or
    of each row of a block: the double quadrature over all
    degree-of-freedom pairs, local nodes and nonlocal centers alike, of
    J_eps(x - y) (w(y) - w(x))^2.

    1/2 sum_d sum_i c_d,i (w_{i+d} - w_i)^2, one offset d at a time out to
    the kernel's reach in index (positions sorted), with
    c_d,i = 4 w_i J_eps(x_i - x_{i+d}) w_{i+d}: the d-th diagonal of the
    full-domain form, each unordered pair counted twice.  The kernel decides
    every value, and a constant state gives exactly 0.  Each offset's
    differences are squared in place: one (samples, n - d) temporary.
    """
    x, ww = grid.positions, grid.weights
    reach = np.searchsorted(x, x + kernel.support_radius * (1.0 + 1e-9), side="right")
    total = np.zeros(np.shape(values)[:-1])
    for d in range(1, int(np.max(reach - np.arange(x.size)))):
        c = 4.0 * ww[:-d] * kernel(x[:-d] - x[d:]) * ww[d:]
        diff = values[..., d:] - values[..., :-d]
        total += np.square(diff, out=diff) @ c
    return 0.5 * total


@dataclass
class SpectralReport:
    lambda2: float
    eigvec: np.ndarray
    residual: float
    iterations: int

    @property
    def beta1(self) -> float:
        """The gap constant of the decay bound, lambda2 / 2."""
        return 0.5 * self.lambda2


EIGEN_MAX_ITERATIONS = 400  # the cap of the Krylov basis, in vectors (one solve each)


def _krylov(generator: GeneratorMatrix, start: np.ndarray, probe: np.ndarray):
    """Rayleigh-Ritz on A over a growing Krylov basis of (W + gamma A)^-1 W.

    The shift is gamma = 1 / rho, rho the W-Rayleigh quotient of probe's
    mean-free part (one split product), and the operator is the stepper's
    SplitFactor.solve at dt = gamma, whose eigenvalues 1 / (1 + gamma
    lambda) single out the low end of the spectrum.  The basis starts from
    start; each new vector is the solve of the newest one, then two passes of
    W-orthogonalization against the basis, each pass projecting out the
    constant (zero) mode first, then W-normalization.  After each new vector
    it yields (basis, ritz, vectors, residual, settled): the (m, n) basis,
    W-orthonormal and mean-free, one vector per row; the ascending
    eigenvalues and eigenvectors (columns) of H = basis A basis^T, the Ritz
    pairs of A x = lambda W x on the basis (one split product per vector);
    the W-norm residual of the lowest pair, A x / W - lambda x (one more);
    and whether that pair has settled, which, once true, stays true: its
    residual at most 1e-10 lambda, or no longer halving below the roundoff
    floor of A x in the W-norm, 8 u max_i sum_j |A_ij| / W_i =
    16 u max_i A_ii / W_i (u the unit roundoff; A is a Laplacian with
    nonpositive off-diagonal entries).  It stops at EIGEN_MAX_ITERATIONS
    vectors, or when a solve leaves nothing new.  The basis grows by
    doubling, never allocated at the cap: at most the new and the old
    capacity, below 2 EIGEN_MAX_ITERATIONS states, are held at once.
    """
    W, split = generator.weights, generator.split
    measure = float(np.sum(W))
    floor = 8.0 * np.finfo(float).eps * float(np.max(generator.band[-1] / W))  # eps = 2 u
    probe = probe - float(W @ probe) / measure
    factor = split.factor(W, float(probe @ (W * probe)) / float(probe @ split(probe)))
    basis, gram = np.empty((0, generator.size)), np.empty((0, 0))
    previous, settled, v = np.inf, False, start
    for m in range(EIGEN_MAX_ITERATIONS):
        for _ in range(2):  # twice is enough
            v = v - float(W @ v) / measure
            v -= (basis[:m] @ (W * v)) @ basis[:m]
        norm = np.sqrt(float(v @ (W * v)))
        if norm == 0.0:
            return
        if m == len(basis):
            grown = np.empty((min(max(2 * m, 8), EIGEN_MAX_ITERATIONS), generator.size))
            grown[:m] = basis
            basis, gram = grown, np.pad(gram, (0, len(grown) - m))
        basis[m] = v / norm
        gram[m, : m + 1] = gram[: m + 1, m] = basis[: m + 1] @ split(basis[m])
        ritz, vectors = np.linalg.eigh(gram[: m + 1, : m + 1])
        lam, x = float(ritz[0]), vectors[:, 0] @ basis[: m + 1]
        r = split(x) / W - lam * x
        residual = float(np.sqrt(r @ (W * r)))
        settled = settled or residual <= 1e-10 * lam or floor >= residual > 0.5 * previous
        yield basis[: m + 1], ritz, vectors, residual, settled
        previous = residual
        v = factor.solve(basis[m])


def estimate_beta1(generator: GeneratorMatrix) -> SpectralReport:
    """Smallest nonzero eigenvalue of -L in the weighted inner product.

    Solves A x = lambda W x (A = -W L) by Rayleigh-Ritz on the Krylov basis
    of _krylov, started from the sum of the cosines
    cos(j pi (x - x_0) / (x_end - x_0)), j = 1..4, and shifted by the first
    of them (shifted by the sum, it needs 21-22 vectors where it needs 13 on
    the 401- to 3,201-dof generators at epsilon = 1).  Its rate depends on the
    square root of the relative gap, so wide kernels, whose low eigenvalues
    cluster, converge too.  It stops once the lowest Ritz pair has settled
    (its residual at most 1e-10 lambda2, or stalled at the roundoff floor),
    and raises after EIGEN_MAX_ITERATIONS basis vectors.  Nothing n x n is
    formed: the factor of the block and the basis.

    Returns lambda2 together with beta1 = lambda2 / 2, the mass-zero
    eigenfunction (W-normalized, its largest entry positive), the residual
    of -L x = lambda2 x through generator.apply, and the number of basis
    vectors.  The constant must be in the kernel: its Rayleigh quotient
    1^T A 1 / 1^T W 1 must be at most 1e-8 max(lambda2, 1).
    """
    W = generator.weights
    ones = np.ones(generator.size)
    constant = float(ones @ generator.split(ones)) / float(np.sum(W))
    x = generator.grid.positions
    cosines = np.cos(np.pi * np.multiply.outer(np.arange(1, 5), (x - x[0]) / (x[-1] - x[0])))
    krylov = _krylov(generator, cosines.sum(axis=0), cosines[0])
    for basis, ritz, vectors, ritz_residual, settled in krylov:
        if settled:
            break
    lam = float(ritz[0])
    if constant > 1e-8 * max(lam, 1.0):
        raise RuntimeError(
            f"constant mode not found in the spectrum (lowest eigenvalue {constant:.3e})"
        )
    if not settled:
        raise RuntimeError(
            f"eigensolver did not converge in {EIGEN_MAX_ITERATIONS} iterations: Ritz residual "
            f"{ritz_residual:.3e} of lambda2 = {lam:.6g} above 1e-10 * lambda2"
        )
    x = vectors[:, 0] @ basis
    x /= np.sqrt(np.sum(W * x * x))
    x *= np.sign(x[np.argmax(np.abs(x))]) or 1.0
    r = -generator.apply(x) - lam * x
    residual = float(np.sqrt(np.sum(W * r * r)))
    if residual > 1e-8 * lam:
        raise RuntimeError(
            f"eigensolver residual {residual:.3e} exceeds 1e-8 * lambda2 = {1e-8 * lam:.3e}"
        )
    return SpectralReport(
        lambda2=lam,
        eigvec=x,
        residual=residual,
        iterations=len(basis),
    )


def semigroup(generator: GeneratorMatrix, w0: np.ndarray, times) -> np.ndarray:
    """exp(t L) w0 for each t in times, one row each: the exact semi-discrete
    flow, with no time step.

    The mean m = W w0 / sum(W), a constant state the flow keeps, is added back
    exactly; the rest is the Rayleigh-Ritz flow on _krylov's basis B started
    from, and shifted by, w0 - m:
    m + ||w0 - m||_W B^T c(t), c(t) = V exp(-t mu) V^T e1, with (mu, V) the
    Ritz pairs.  The basis stops growing once both hold: the lowest Ritz
    pair has settled, so the slowest mode the start reaches is in the basis
    (without it, a late time where exp(-t mu) is below 1e-13 for every Ritz
    value of the first vectors would stop there and drop that mode), and
    the coefficient c(t)_m on the newest vector is at most 1e-13 at every
    requested time.  A basis that spans an invariant subspace, where the
    flow on it is exact, stops too; one that reaches EIGEN_MAX_ITERATIONS
    vectors raises.
    """
    W = generator.weights
    times = np.atleast_1d(np.asarray(times, dtype=float))
    mean = float(W @ w0) / float(np.sum(W))
    start = w0 - mean
    scale = np.sqrt(float(start @ (W * start)))
    if scale == 0.0:
        return np.full((times.size, generator.size), mean)
    for basis, ritz, vectors, _, settled in _krylov(generator, start, start):
        coeff = (np.exp(-np.outer(times, ritz)) * vectors[0]) @ vectors.T
        if settled and np.all(np.abs(coeff[:, -1]) <= 1e-13):
            break
    else:  # the basis stopped growing: at its cap, or on an invariant subspace
        if len(basis) == EIGEN_MAX_ITERATIONS:
            raise RuntimeError(
                f"semigroup did not converge in {EIGEN_MAX_ITERATIONS} basis vectors")
    return mean + scale * (coeff @ basis)


def rayleigh(generator: GeneratorMatrix, w: np.ndarray) -> float:
    """Energy over squared weighted norm of the mean-free part of w."""
    weights = generator.weights
    shifted = w - 0.5 * float(weights @ w)
    denom = float(np.sum(weights * shifted * shifted))
    scale = float(np.max(np.abs(w))) or 1.0
    if denom <= 1e-28 * scale * scale:
        raise ValueError("rayleigh quotient undefined for (numerically) constant input")
    return sum(energy_form(generator)(w)) / denom


def estimate_energy_control_k(generator: GeneratorMatrix, n_samples: int, seed: int) -> float:
    """Randomized lower estimate of the constant dominating the full nonlocal energy.

    Draws mean-zero standard normal states sequentially from one seeded
    stream, as the rows of one block, and returns the minimum over samples
    of the energy's total over nonlocal_energy_full, both evaluated once on
    the whole block (energy_form and nonlocal_energy_full's offset sum).
    Samples whose full nonlocal energy is below 1e-14 are discarded.
    """
    if n_samples < 10:
        raise ValueError("need at least 10 samples")
    grid = generator.grid
    terms = energy_form(generator)
    ww = grid.weights

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, grid.size))  # row k: the k-th draw of the stream
    z -= 0.5 * (z @ ww)[:, None]
    nlf = nonlocal_energy_full(grid, generator.kernel, z)
    loc, nl, cp = terms(z)
    kept = nlf >= 1e-14
    best = np.min((loc + nl + cp)[kept] / nlf[kept], initial=np.inf)
    if not np.isfinite(best):
        raise RuntimeError("all random samples had degenerate nonlocal energy")
    return float(best)
