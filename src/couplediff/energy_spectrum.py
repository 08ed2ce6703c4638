"""Discrete energy, spectral gap, and the energy-control estimate.

The energy of a state w = (u, v) has three nonnegative terms: the Dirichlet
term of u on (-1, 0), the double-quadrature jump term of v on (0, 1), and
the interface exchange term tying v to the trace u(0).  The generator is
the negative weighted gradient of this energy, so

    E(w) = 1/2 <w, -L w>_W

holds to roundoff, and the smallest nonzero eigenvalue lambda2 of -L in the
weighted inner product equals twice the gap constant beta1 that controls the
exponential decay of ||w - mean||.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .discretization import (
    GeneratorMatrix,
    Grid,
    StateField,
    generator_edges,
    mass,
    weighted_inner,
)
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
    """
    return tuple(0.5 * float(c @ np.square(values[j] - values[i])) for i, j, c in edges)


def energy(generator: GeneratorMatrix, w: StateField) -> EnergyBreakdown:
    return EnergyBreakdown(*edge_energy(generator_edges(generator), w.values))


def _full_pair_weights(grid: Grid, kernel: Kernel):
    """Edges (i, j, c) of the full-domain nonlocal energy: every pair i < j
    of degrees of freedom (positions sorted) within the kernel's reach, with
    c = 4 w_i J_eps(x_i - x_j) w_j, so that edge_energy sums over ordered
    pairs, each unordered pair twice.  The kernel decides every value."""
    x = grid.positions
    ww = grid.weights
    reach = np.searchsorted(x, x + kernel.support_radius * (1.0 + 1e-9), side="right")
    counts = reach - np.arange(x.size) - 1
    i = np.repeat(np.arange(x.size), counts)
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return i, j, 4.0 * ww[i] * kernel(x[i] - x[j]) * ww[j]


def nonlocal_energy_full(grid: Grid, kernel: Kernel, w: StateField) -> float:
    """Pure nonlocal energy over the whole domain (-1, 1).

    Double quadrature over all degree-of-freedom pairs, local nodes and
    nonlocal centers alike, of J_eps(x - y) (w(y) - w(x))^2.
    """
    return edge_energy((_full_pair_weights(grid, kernel),), w.values)[0]


@dataclass
class SpectralReport:
    beta1: float
    lambda2: float
    eigvec: StateField
    residual: float


def _symmetrized_eigh(generator: GeneratorMatrix, subset_by_index=None):
    """Eigenpairs of D A D with A = -W L symmetrized and D = W^-1/2.

    Returns the ascending eigenvalues, the orthonormal eigenvectors and the
    diagonal d of D; d * vecs[:, k] is the W-orthonormal eigenfunction of -L.
    subset_by_index = [lo, hi] keeps only eigenpairs lo..hi (all by default).
    """
    W = generator.weights
    A = -(W[:, None] * generator.dense())
    A = 0.5 * (A + A.T)
    d = 1.0 / np.sqrt(W)
    vals, vecs = scipy.linalg.eigh(d[:, None] * A * d[None, :], subset_by_index=subset_by_index)
    return vals, vecs, d


def _semigroup_oracle(generator: GeneratorMatrix, values, times) -> np.ndarray:
    """exp(t L) w for each t in times (one row each), from the dense
    eigendecomposition: the exact semi-discrete flow, for small sizes."""
    vals, vecs, d = _symmetrized_eigh(generator)
    coeff = vecs.T @ (np.sqrt(generator.weights) * values)
    decay = np.exp(-np.outer(np.atleast_1d(times), vals))
    return (decay * coeff) @ vecs.T * d


def estimate_beta1(generator: GeneratorMatrix) -> SpectralReport:
    """Smallest nonzero eigenvalue of -L in the weighted inner product.

    Solves the W-symmetric eigenproblem A x = lambda W x with A = -W L for
    its two lowest eigenpairs only, deflates the constant (zero) mode, and
    returns lambda2 together with beta1 = lambda2 / 2 and the mass-zero
    eigenfunction.
    """
    W = generator.weights
    vals, vecs, d = _symmetrized_eigh(generator, subset_by_index=[0, 1])
    if vals[0] > 1e-8 * max(vals[1], 1.0):
        raise RuntimeError(
            f"constant mode not found in the spectrum (lowest eigenvalue {vals[0]:.3e})"
        )
    lam = float(vals[1])
    x = d * vecs[:, 1]
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
        eigvec=StateField(generator.grid, x),
        residual=residual,
    )


def rayleigh(generator: GeneratorMatrix, w: StateField) -> float:
    """Energy over squared weighted norm of the mean-free part of w."""
    grid = generator.grid
    shifted = StateField(grid, w.values - 0.5 * mass(grid, w))
    denom = weighted_inner(grid, shifted, shifted)
    scale = float(np.max(np.abs(w.values))) or 1.0
    if denom <= 1e-28 * scale * scale:
        raise ValueError("rayleigh quotient undefined for (numerically) constant input")
    return energy(generator, w).total / denom


def estimate_energy_control_k(generator: GeneratorMatrix, n_samples: int, seed: int) -> float:
    """Randomized lower estimate of the constant dominating the full nonlocal energy.

    Draws mean-zero standard normal states sequentially from one seeded
    stream and returns the minimum over samples of
    energy(w).total / nonlocal_energy_full(w).  Samples whose full nonlocal
    energy is below 1e-14 are discarded.
    """
    if n_samples < 10:
        raise ValueError("need at least 10 samples")
    grid = generator.grid
    edges = generator_edges(generator)
    pairs = (_full_pair_weights(grid, generator.kernel),)
    ww = grid.weights

    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(n_samples):
        z = rng.standard_normal(grid.size)
        z -= 0.5 * float(ww @ z)
        nlf = edge_energy(pairs, z)[0]
        if nlf < 1e-14:
            continue
        total = sum(edge_energy(edges, z))
        best = min(best, total / nlf)
    if not np.isfinite(best):
        raise RuntimeError("all random samples had degenerate nonlocal energy")
    return best
