"""Post-processing and theorem-verification harnesses.

Covers the exact Neumann heat reference (cosine series), decay-rate fitting
against the spectral gap, the kernel-rescaling convergence sweep, and the
discrete sub/supersolution checker together with the concrete self-similar
barrier profile used to exercise it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SimConfig, initial_state, kernel_from
from .discretization import (
    GeneratorMatrix,
    Grid,
    StateField,
    assemble_generator,
    build_grid,
    generator_edges,
)
from .energy_spectrum import SpectralReport, estimate_beta1
from .evolution import StepScheme, Trajectory, _States
from .kernels import coupling_constants, make_kernel

_TINY = np.finfo(float).tiny


class _HeatReference:
    """Cosine-series Neumann heat solution on (-1, 1), sampled on a grid.

    The sampled cosine modes are deflated by their discrete means and then
    orthonormalized in the weighted inner product, so the reference conserves
    the discrete mass exactly, maps constants to themselves exactly, and its
    t = 0 projection error is monotone in the mode count.  Modes beyond the
    grid resolution would alias and are dropped.
    """

    def __init__(self, w0: StateField, n_modes: int = 256):
        if n_modes < 1:
            raise ValueError("need at least one cosine mode")
        grid = w0.grid
        n_modes = min(n_modes, grid.n_local, grid.n_nonlocal)
        x = grid.positions
        ww = grid.weights
        k = np.arange(1, n_modes + 1)
        modes = np.cos(0.5 * np.pi * k[None, :] * (x[:, None] + 1.0))
        modes -= 0.5 * (modes.T @ ww)[None, :]
        root_w = np.sqrt(ww)
        q, r = np.linalg.qr(root_w[:, None] * modes)
        sign = np.sign(np.diag(r))
        sign[sign == 0.0] = 1.0
        q *= sign[None, :]
        self.grid = grid
        self.mean = float(ww @ w0.values) / float(np.sum(ww))
        self.coeff = q.T @ (root_w * w0.values)
        self.rates = (0.5 * np.pi * k) ** 2
        self.modes = q / root_w[:, None]

    def at(self, t) -> np.ndarray:
        """The reference at time t, or one row per time for an array of times
        (one matrix product for all of them)."""
        c = self.coeff * np.exp(-np.multiply.outer(t, self.rates))
        c[np.abs(c) < _TINY] = 0.0  # subnormal terms (< 2.2e-308) slow the product severalfold
        return self.mean + (self.modes @ c.T).T


def heat_reference(w0: StateField, t: float, n_modes: int = 256) -> StateField:
    """Exact Neumann heat solution at time t from the sampled initial data."""
    ref = _HeatReference(w0, n_modes)
    return StateField(w0.grid, ref.at(t))


class DecayFitError(ValueError):
    """The trajectory does not decay enough for a fit window."""


@dataclass
class DecayReport:
    fitted_rate: float
    fit_window: tuple
    r_squared: float
    beta1_used: float
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
    beta1 = spectral.beta1
    bound = bool(np.all(d <= d[0] * np.exp(-beta1 * t) * (1.0 + 1e-6)))
    return DecayReport(
        fitted_rate=float(-slope),
        fit_window=(float(tw[0]), float(tw[-1])),
        r_squared=r2,
        beta1_used=beta1,
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


def interface_jump(state: StateField) -> float:
    """|u(0-) - v(0+)| with v extrapolated to the interface from the first
    two cell centers."""
    v = state.v
    return float(abs(state.u[-1] - (1.5 * v[0] - 0.5 * v[1])))


def epsilon_sweep(
    base_config: SimConfig,
    eps_list,
    horizon: float | None = None,
) -> list[SweepRow]:
    """Run the rescaled problem for each epsilon and measure the sup-in-time
    weighted L2 distance to the exact heat solution from the same data.

    The nonlocal resolution is auto-adjusted per member
    (n_nonlocal = max(base, ceil(4 / (eps R)))), the implicit scheme is
    forced, and every member starts from the same initial profile.  The
    heat reference is built once per grid: consecutive members with the same
    n_nonlocal share it.
    """
    eps = [float(e) for e in eps_list]
    if not eps or any(e <= 0.0 for e in eps):
        raise ValueError("eps_list must contain positive values")
    if any(b >= a for a, b in zip(eps[:-1], eps[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    horizon = base_config.time_horizon if horizon is None else float(horizon)
    base_kernel = kernel_from(base_config)
    constants = coupling_constants(base_kernel)

    scheme = StepScheme(kind="implicit", dt=base_config.time_dt)
    rows, ref = [], None
    for e in eps:
        n_nl = max(base_config.grid_n_nonlocal,
                   int(np.ceil(4.0 / (e * base_config.kernel_radius))))
        if ref is None or ref.grid.n_nonlocal != n_nl:  # members on one grid share it
            w0 = initial_state(base_config, build_grid(base_config.grid_n_local, n_nl))
            ref = _HeatReference(w0)
        rows.append(_sweep_member(base_config, e, constants, scheme, horizon, w0, ref))
    return rows


def _sweep_member(base_config, e, constants, scheme, horizon, w0, ref) -> SweepRow:
    """One sweep row from w0 and the heat reference ref on the member's grid,
    stepping the member once.  The generator and the stepper live in this
    frame only, so they are freed before the next member is assembled; the
    eigensolve runs before the stepper exists."""
    grid = w0.grid
    kernel = make_kernel(base_config.kernel_family, base_config.kernel_radius, e)
    generator = assemble_generator(grid, kernel, constants)
    spectral = estimate_beta1(generator)
    states = _States(generator, w0, scheme, horizon)
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
        interface_jump=interface_jump(StateField(grid, block[-1])),
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


def supersolution_check(
    u_field,
    v_field,
    times,
    generator: GeneratorMatrix,
    tol: float,
) -> SupersolutionReport:
    """Check the four discrete supersolution inequalities on sampled fields.

    (1) du/dt >= discrete Laplacian at interior local nodes,
    (2) one-sided derivative at x = -1 is <= 0,
    (3) one-sided derivative at the interface >= discrete exchange flux,
    (4) dv/dt >= jump operator minus exchange, at every cell center.

    Time derivatives use centered differences, so (1) and (4) are evaluated
    at interior time samples; (2) and (3) are pointwise in time.
    """
    grid = generator.grid
    u = np.asarray(u_field, dtype=float)
    v = np.asarray(v_field, dtype=float)
    times = np.asarray(times, dtype=float)
    if times.size < 3:
        raise ValueError("need at least 3 time samples for centered differences")
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("time partition must be uniform")
    if u.shape != (times.size, grid.n_local + 1) or v.shape != (times.size, grid.n_nonlocal):
        raise ValueError("field shapes do not match the grid and time partition")
    dt = float(steps[0])
    h = grid.h_local

    ut = (u[2:] - u[:-2]) / (2.0 * dt)
    lap = (u[1:-1, :-2] - 2.0 * u[1:-1, 1:-1] + u[1:-1, 2:]) / h**2
    margin1 = float(np.min(ut[:, 1:-1] - lap))

    left_slope = (u[:, 1] - u[:, 0]) / h
    margin2 = float(np.min(-left_slope))

    w = np.hstack([u, v])
    i, j, c = generator_edges(generator)[2]
    flux = (w[:, j] - w[:, i]) @ c
    iface_slope = (u[:, -1] - u[:, -2]) / h
    margin3 = float(np.min(iface_slope - flux))

    nl0 = grid.interface_index + 1  # the nonlocal rows of L are jump minus exchange
    vt = (v[2:] - v[:-2]) / (2.0 * dt)
    jump = np.array([generator.apply(row)[nl0:] for row in w[1:-1]])
    margin4 = float(np.min(vt - jump))

    return SupersolutionReport(margin1, margin2, margin3, margin4, float(tol))


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
    """Sample the barrier on local nodes; the nonlocal companion is the
    spatial constant equal to the barrier's interface value."""
    times = np.asarray(times, dtype=float)
    x = grid.local_nodes
    u = spec.value(x[None, :], times[:, None])
    s = np.sqrt(spec.T + times)
    v = np.tile((s * spec.g(0.0))[:, None], (1, grid.n_nonlocal))
    return u, v
