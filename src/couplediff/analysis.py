"""Post-processing and theorem-verification harnesses.

Covers the exact Neumann heat reference (cosine series), decay-rate fitting
against the spectral gap, the kernel-rescaling convergence sweep, and the
discrete sub/supersolution checker together with the concrete self-similar
barrier profile used to exercise it.  A block of states is a (k, n) array,
one state per row: the checker reads its four inequalities off the rows of
W L w = -A w, and barrier_fields returns the barrier as such a block.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import dgeqrf, dorgqr
from .config import SimConfig, initial_state
from .discretization import (
    GeneratorMatrix,
    Grid,
    assemble_generator,
    build_grid,
    resolved_n_nonlocal,
)
from .energy_spectrum import SpectralReport, estimate_beta1
from .evolution import StepScheme, Trajectory, _States
from .kernels import coupling_constants, make_kernel

_TINY = np.finfo(float).tiny
HEAT_REFERENCE_MODES = 256  # the cosine modes of a heat reference, at most


class HeatReference:
    """Cosine-series Neumann heat solution on (-1, 1), sampled on a grid:
    built once from the initial data w0, at(t) evaluates it at any times.

    The sampled cosine modes are deflated by their discrete means and then
    orthonormalized in the weighted inner product, so the reference conserves
    the discrete mass exactly, maps constants to themselves exactly, and its
    t = 0 projection error is monotone in the mode count.  Modes beyond the
    grid resolution would alias and are dropped.  The modes are one n x m
    Fortran array, built, weighted and orthonormalized in place: LAPACK's
    Householder QR (geqrf, then orgqr to form Q), the factorization
    np.linalg.qr runs, without its working copy, Q and R.  Building holds
    the modes and vectors of n or m floats at once.

    Mode k's term coeff_k exp(-rate_k t) is below tiny / e, so zeroed as
    subnormal, once rate_k t exceeds reach_k = ln(|coeff_k| / tiny) + 1
    (-inf for a zero coefficient): at() multiplies only the modes up to
    the last one still live at its earliest time.
    """

    def __init__(self, grid: Grid, w0: np.ndarray, n_modes: int = HEAT_REFERENCE_MODES):
        if n_modes < 1:
            raise ValueError("need at least one cosine mode")
        n_modes = min(n_modes, grid.n_local, grid.n_nonlocal)
        x = grid.positions
        ww = grid.weights
        k = np.arange(1, n_modes + 1)
        modes = np.empty((x.size, n_modes), order="F")
        np.multiply.outer(x + 1.0, 0.5 * np.pi * k, out=modes)
        np.cos(modes, out=modes)
        modes -= 0.5 * (modes.T @ ww)[None, :]
        root_w = np.sqrt(ww)
        modes *= root_w[:, None]
        q = _orthonormalize(modes)
        self.grid = grid
        self.mean = float(ww @ w0) / float(np.sum(ww))
        self.coeff = q.T @ (root_w * w0)
        self.rates = (0.5 * np.pi * k) ** 2
        self.modes = np.divide(q, root_w[:, None], out=q)

    @cached_property
    def reach(self) -> np.ndarray:
        with np.errstate(divide="ignore"):  # log(0) = -inf: a zero term is never live
            return np.log(np.abs(self.coeff)) - np.log(_TINY) + 1.0

    def at(self, t) -> np.ndarray:
        """The reference at time t, or one row per time for an array of times
        (one matrix product for all of them).  Only the modes up to the last
        one live at the earliest time enter the exp and the product: every
        term dropped is one the subnormal zeroing would have made 0."""
        live = np.flatnonzero(self.rates * np.min(t) <= self.reach)
        k = live[-1] + 1 if live.size else 0
        c = self.coeff[:k] * np.exp(-np.multiply.outer(t, self.rates[:k]))
        c[np.abs(c) < _TINY] = 0.0  # subnormal terms (< 2.2e-308) slow the product severalfold
        return self.mean + (self.modes[:, :k] @ c.T).T


def _orthonormalize(a: np.ndarray) -> np.ndarray:
    """Q of a = Q R, the n x m Fortran array a overwritten with it: geqrf and
    orgqr in place.  Each runs in the wrapper's default workspace of 3 m
    floats, so LAPACK cuts its block size to 3: the blocked updates then
    pack panels of 3 columns into the BLAS buffers, not 32.  On the
    criterion-06 sweep (401 x 200 modes) that keeps the run's peak RSS
    0.6 MB lower, for about 3 ms more than the optimal workspace (8 against
    5 ms per reference)."""
    a, tau, _, info = dgeqrf(a, overwrite_a=1)
    if info == 0:
        a, _, info = dorgqr(a, tau, overwrite_a=1)
    if info != 0:
        raise RuntimeError(f"QR of the heat reference modes failed: LAPACK info = {info}")
    return a


class DecayFitError(ValueError):
    """The trajectory does not decay enough for a fit window."""


@dataclass
class DecayReport:
    fitted_rate: float
    fit_window: tuple
    r_squared: float
    bound_satisfied: bool


def decay_report(traj: Trajectory, spectral: SpectralReport) -> DecayReport:
    """Least-squares decay rate of dist_to_mean and the gap-rate bound check.

    The fit window keeps samples with dist in [1e-10, 0.5 * dist(0)]: early
    multi-mode transients and the late roundoff floor are both excluded.
    """
    d = traj.dist_to_mean
    t = traj.times
    if int(np.sum(d >= 1e-12)) < 20:
        raise DecayFitError("insufficient usable samples for a decay fit")
    window = (d >= 1e-10) & (d <= 0.5 * d[0])
    if int(np.sum(window)) < 2:
        raise DecayFitError("decay fit window is empty; extend the horizon")
    tw = t[window]
    logd = np.log(d[window])
    slope, intercept = np.polyfit(tw, logd, 1)
    resid = logd - (slope * tw + intercept)
    ss_tot = float(np.sum((logd - logd.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 1.0
    bound = bool(np.all(d <= d[0] * np.exp(-spectral.beta1 * t) * (1.0 + 1e-6)))
    return DecayReport(
        fitted_rate=float(-slope),
        fit_window=(float(tw[0]), float(tw[-1])),
        r_squared=r2,
        bound_satisfied=bound,
    )


@dataclass
class SweepRow:
    epsilon: float
    n_nonlocal: int
    dt: float
    sup_error_l2: float
    beta1_eps: float
    interface_jump: float


def interface_jump(grid: Grid, w: np.ndarray) -> float:
    """|u(0-) - v(0+)| with v extrapolated to the interface from the first
    two cell centers."""
    iface = grid.interface_index
    return float(abs(w[iface] - (1.5 * w[iface + 1] - 0.5 * w[iface + 2])))


def sweep_members(base_config: SimConfig, eps_list) -> list:
    """(epsilon, n_nonlocal) of each member of a sweep over eps_list, which
    must be strictly decreasing, positive and finite (ValueError otherwise).
    The nonlocal resolution is resolved_n_nonlocal's, max(base,
    ceil(4 / (eps R))): at least four cells across the kernel's reach, so
    the last member has the finest grid."""
    eps = [float(e) for e in eps_list]
    if not eps or not all(0.0 < e < np.inf for e in eps):
        raise ValueError(f"eps_list must contain positive, finite values, got {eps}")
    if any(b >= a for a, b in zip(eps[:-1], eps[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    return [(e, resolved_n_nonlocal(base_config.grid_n_nonlocal, e, base_config.kernel_radius))
            for e in eps]


def epsilon_sweep(base_config: SimConfig, eps_list) -> list[SweepRow]:
    """Run the rescaled problem for each epsilon to the config's time
    horizon and measure the sup-in-time weighted L2 distance to the exact
    heat solution from the same data.

    Each member's nonlocal resolution is sweep_members', the implicit scheme
    is forced, and every member starts from the same initial profile.  The
    heat reference is built once per grid: consecutive members with the same
    n_nonlocal share it.
    """
    members = sweep_members(base_config, eps_list)
    scheme = StepScheme(kind="implicit", dt=base_config.time_dt)
    rows, ref = [], None
    for e, n_nl in members:
        if ref is None or ref.grid.n_nonlocal != n_nl:  # members on one grid share it
            grid = build_grid(base_config.grid_n_local, n_nl)
            w0 = initial_state(base_config, grid)
            ref = HeatReference(grid, w0)
        rows.append(_sweep_member(base_config, e, scheme, w0, ref))
    return rows


def _sweep_member(base_config, e, scheme, w0, ref) -> SweepRow:
    """One sweep row from w0 and the heat reference ref on the member's grid
    (ref.grid), stepping the member once.  The generator and the stepper
    live in this frame only, so they are freed before the next member is
    assembled; the eigensolve runs before the stepper exists."""
    grid = ref.grid
    kernel = make_kernel(base_config.kernel_family, base_config.kernel_radius, e)
    generator = assemble_generator(grid, kernel, coupling_constants(kernel))
    spectral = estimate_beta1(generator)
    states = _States(generator, w0, scheme, base_config.time_horizon)
    sup = 0.0
    for times, block in states.blocks():
        diff = ref.at(times)
        diff -= block
        err = np.sqrt(np.square(diff, out=diff) @ grid.weights)
        sup = max(sup, float(err.max()))
    return SweepRow(
        epsilon=e,
        n_nonlocal=grid.n_nonlocal,
        dt=states.dt,
        sup_error_l2=sup,
        beta1_eps=spectral.beta1,
        interface_jump=interface_jump(grid, block[-1]),
    )


@dataclass
class SupersolutionReport:
    """Worst margins of the four discrete supersolution inequalities.

    Sign convention: a supersolution has every margin >= 0, so the check
    passes when all requested margins stay above -tol.
    """

    margin_interior: float
    margin_left_flux: float
    margin_interface_flux: float
    margin_nonlocal: float
    tol: float

    def margins(self) -> tuple:
        return (
            self.margin_interior,
            self.margin_left_flux,
            self.margin_interface_flux,
            self.margin_nonlocal,
        )

    def passed(self, which=(1, 2, 3, 4)) -> bool:
        m = self.margins()
        return all(m[i - 1] >= -self.tol for i in which)


def supersolution_check(states, times, generator: GeneratorMatrix,
                        tol: float) -> SupersolutionReport:
    """Check the four discrete supersolution inequalities on a (T, n) block
    of states, one per sample time, read off the rows of W L w = -A w.

    (1) w_t >= L w at interior local nodes,
    (2) -(W L w) >= 0 at x = -1: the one-sided slope there is <= 0,
    (3) -(W L w) >= 0 at the interface node: the one-sided slope there is
        >= the discrete exchange flux,
    (4) w_t >= L w at every cell center (the jump operator minus exchange).

    Time derivatives use centered differences, so (1) and (4) are evaluated
    at interior time samples; (2) and (3) are pointwise in time.
    """
    w = np.asarray(states, dtype=float)
    times = np.asarray(times, dtype=float)
    if times.size < 3:
        raise ValueError("need at least 3 time samples for centered differences")
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("time partition must be uniform")
    if w.shape != (times.size, generator.size):
        raise ValueError("states do not match the generator and time partition")
    aw = np.array([generator.split(row) for row in w])  # A w = -(W L w)
    residual = (w[2:] - w[:-2]) / (2.0 * float(steps[0])) + aw[1:-1] / generator.weights
    iface = generator.grid.interface_index
    margins = (residual[:, 1:iface], aw[:, 0], aw[:, iface], residual[:, iface + 1 :])
    return SupersolutionReport(*(float(np.min(m)) for m in margins), float(tol))


@dataclass(frozen=True)
class BarrierSpec:
    """Self-similar barrier sqrt(T+t) * g(x / sqrt(T+t)) on the local side.

    g(xi) = f(a xi) / a where f is flat at 1 left of -xi0 and the cubic
    1 + (xi + xi0)^3 / (3 xi0^2) on (-xi0, 0]; then f'(0) = 1,
    max |f''| = 2 / xi0, and a <= sqrt(xi0) / 2 gives 1/2 >= a^2 max |f''|.
    """

    xi0: float = 2.0
    a: float = 0.5
    T: float = 0.03

    def __post_init__(self):
        if not self.xi0 > 1.0:
            raise ValueError("xi0 must exceed 1")
        if not 0.0 < self.a < 1.0:
            raise ValueError("a must lie in (0, 1)")
        if not 0.0 < self.T < self.a**2 / (2.0 * self.xi0**2):
            raise ValueError("T must lie in (0, a^2 / (2 xi0^2))")
        if self.a > np.sqrt(self.xi0) / 2.0 + 1e-12:
            raise ValueError("a must not exceed sqrt(xi0) / 2")

    def profile(self, xi):
        """The flattened cubic f; defined for xi <= 0."""
        xi = np.asarray(xi, dtype=float)
        cubic = 1.0 + (xi + self.xi0) ** 3 / (3.0 * self.xi0**2)
        return np.where(xi <= -self.xi0, 1.0, cubic)

    def g(self, xi):
        return self.profile(self.a * np.asarray(xi, dtype=float)) / self.a

    def value(self, x, t):
        s = np.sqrt(self.T + np.asarray(t, dtype=float))
        return s * self.g(np.asarray(x, dtype=float) / s)


def barrier_fields(spec: BarrierSpec, grid: Grid, times):
    """The barrier as a (T, n) block of states, one per time: sampled at
    min(x, 0), so every cell holds the barrier's interface value."""
    return spec.value(np.minimum(grid.positions, 0.0), np.asarray(times, dtype=float)[:, None])
