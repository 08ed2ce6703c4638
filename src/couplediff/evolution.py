"""Time stepping for the semi-discrete flow w' = L w.

Three schemes: explicit Euler (monotone under the CFL bound), implicit Euler
(unconditionally stable, dissipative, mass-exact; the default), and the
window-alternating fixed-point construction that mirrors how the continuum
solution is built: freeze the interface trace, solve the jump subsystem over
a short window, feed the result back into the local heat subsystem, and
iterate to a fixed point before moving to the next window.  All three go
through evolve: _States yields the state at t = k dt, from single steps or
from the window iteration, and evolve records and snapshots it; both read
dt and the step count off StepScheme.plan, as does the CLI's refusal of an
oversized run.  The picard iteration's report is Trajectory.picard.  The
single steps are built once per generator and step size and then applied to
any number of states: explicit_step(generator, dt) is the explicit step
function, ImplicitStepper(generator, dt).step the implicit one.

L = -W^-1 A with A symmetric positive semidefinite, so every implicit solve
x = (I - dt L)^-1 b is the SPD system (W + dt A) x = W b, factored once per
step size and split at the interface node like A's band (L D L^T over the
tridiagonal chain, band Cholesky behind it):
discretization.SplitFactor.solve applies it, W included, for the stepper,
the Krylov basis of the eigensolver and of the exact flow
(energy_spectrum.estimate_beta1 and semigroup, at dt = 1 / rho, rho a
Rayleigh quotient of the start) and the window
iteration's two sub-solves (splits with no chain, p = 0, not refined); it and
A x (the BandSplit) take one state and return a new array, which the
stepper works on.  The stepper refines its solves so the per-step residual
stays near machine precision, and keeps the mass drift near 1e-13 over ten
thousand steps (see ImplicitStepper).  A x reads the block as a band, or
as a dense copy (symv) when the kernel reaches across the whole nonlocal
region; the solves read the band factors either way.

The per-state diagnostics (mass, energy terms, distance to the mean) are
evaluated on blocks of BLOCK_STATES states (_States.blocks), not state by
state: the energy terms of a block take one GEMM when the block is dense.
They go into one table in timeseries.csv column order (TIMESERIES_COLUMNS),
which Trajectory keeps.  The non-finite check stays per state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretization import BandSplit, GeneratorMatrix
from .energy_spectrum import energy_form
from .kernels import CouplingConstants

SCHEME_KINDS = ("explicit", "implicit", "picard")


@dataclass
class StepScheme:
    kind: str = "implicit"
    dt: float | str = "auto"
    picard_window: float | str = "auto"
    picard_tol: float = 1e-10
    picard_max_iters: int = 60

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme {self.kind!r}; expected one of {SCHEME_KINDS}")
        if self.dt != "auto" and not float(self.dt) > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.picard_tol <= 0.0 or self.picard_max_iters < 1:
            raise ValueError("picard tolerance and iteration cap must be positive")

    def window_for(self, constants: CouplingConstants) -> float:
        """Window length; 'auto' takes 80% of the contraction bound 1/(2 c1 + 1)."""
        sup = 1.0 / (2.0 * constants.c1 + 1.0)
        if self.picard_window == "auto":
            return 0.8 * sup
        tw = float(self.picard_window)
        if not 0.0 < tw < sup:
            raise ValueError(
                f"picard window {tw} must lie in (0, 1/(2 c1 + 1)) = (0, {sup:.6g})"
            )
        return tw

    def plan(self, horizon: float, constants: CouplingConstants | None = None,
             cfl: float = math.inf) -> tuple:
        """(dt, n_steps, window, window_steps), the last two None but for
        picard.  'auto' takes 1/32 of the picard window, the CFL limit cfl
        (explicit) or horizon / 1000 (implicit).  The picard sub-step must
        divide the window and the horizon: where both dt and the window are
        'auto' and window / 32 does not divide the horizon, dt is horizon /
        ceil(32 horizon / window) and the window 32 dt.  Any other dt is
        nudged so that n_steps dt = horizon, by one more step where the nudge
        would push a dt within cfl over it.  A step count that overflows a
        float is refused."""
        if not horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if self.kind == "picard" and constants is None:
            raise ValueError("picard scheme needs the coupling constants")
        window = self.window_for(constants) if self.kind == "picard" else None
        if self.dt != "auto":
            dt = float(self.dt)
        elif window is not None:
            dt = window / 32.0
            n_steps = round(horizon / dt)
            if self.picard_window == "auto" and abs(n_steps * dt - horizon) > 1e-9 * horizon:
                dt = horizon / math.ceil(horizon / dt)
                window = 32.0 * dt
        else:
            dt = cfl if self.kind == "explicit" else horizon / 1000.0
        if max(horizon, window or 0.0) / dt == math.inf:
            raise ValueError(f"dt = {dt:.6g} takes more steps than a float can count")
        if window is not None:
            counts = []
            for name, span in (("picard window", window), ("horizon", horizon)):
                n_steps = round(span / dt)
                if n_steps < 1 or abs(n_steps * dt - span) > 1e-9 * span:
                    raise ValueError(f"sub-step dt = {dt:.6g} must divide the {name} {span:.6g}")
                counts.append(n_steps)
            return dt, counts[1], window, counts[0]
        n_steps = max(1, round(horizon / dt))
        if abs(n_steps * dt - horizon) > 1e-9 * horizon:
            n_steps = int(np.ceil(horizon / dt - 1e-12))
        if dt <= cfl * (1.0 + 1e-12) < horizon / n_steps:
            n_steps += 1  # the nudge would push a dt that explicit_step allows over its bound
        return horizon / n_steps, n_steps, None, None


@dataclass
class PicardReport:
    """The picard window iteration: its contraction bound kappa, its
    tolerance, and per window the update norm of every iteration."""

    kappa: float
    tol: float
    update_norms: list

    @property
    def window_count(self) -> int:
        return len(self.update_norms)

    @property
    def iterations(self) -> list:
        return [len(norms) for norms in self.update_norms]

    @property
    def final_update_norms(self) -> list:
        return [norms[-1] for norms in self.update_norms]

    @property
    def contraction_ratios(self) -> list:
        """Successive update ratios, while the update is above 10 tol."""
        return [b / a for norms in self.update_norms
                for a, b in zip(norms[:-1], norms[1:]) if a > 10.0 * self.tol]


# the columns of Trajectory.table, which timeseries.csv writes as they are
TIMESERIES_COLUMNS = ("t", "mass", "energy_total", "energy_local", "energy_nonlocal",
                      "energy_coupling", "dist_to_mean")


def _column(name: str):
    index = TIMESERIES_COLUMNS.index(name)
    return property(lambda self: self.table[:, index])


@dataclass
class Trajectory:
    """table holds one row per recorded state, in TIMESERIES_COLUMNS order;
    it is read-only, and so are the column views times, mass, energy_* and
    dist_to_mean.  snapshots holds (t, state) pairs; every state is an
    array of one value per grid node."""

    table: np.ndarray
    snapshots: list = field(default_factory=list)
    final_state: np.ndarray | None = None
    dt: float = 0.0
    picard: PicardReport | None = None

    def __post_init__(self):
        self.table.flags.writeable = False

    times = _column("t")
    mass = _column("mass")
    energy_total = _column("energy_total")
    energy_local = _column("energy_local")
    energy_nonlocal = _column("energy_nonlocal")
    energy_coupling = _column("energy_coupling")
    dist_to_mean = _column("dist_to_mean")


def contraction_factor(constants: CouplingConstants, window: float) -> float:
    """Estimated contraction of one alternating sweep over a window of given length.

    kappa = (window / 2) / (1 - (2 c1 + 1) window), so the auto window
    0.8 / (2 c1 + 1) gives kappa = 2 / (2 c1 + 1), whatever eps or the grid.
    Its factor 1/2 is half the unscaled kernel's mass, not the double
    integral of J_eps across the interface, which is the half-moment over
    eps (1/(6 eps) for the unit triangle); what holds is q <= half of
    J_eps's mass, eps^-2 / 2.  So kappa is no bound at small eps: on
    verify's picard check (50 local cells, the auto window) the largest
    ratio first exceeds it at eps = 0.06 for the triangle (0.084 > 0.080)
    and the epanechnikov (0.118 > 0.095), and at 0.07 for the uniform
    (0.181 > 0.154).  The remaining factor is the data dependence of the
    jump subsystem on the frozen trace.
    """
    denom = 1.0 - (2.0 * constants.c1 + 1.0) * window
    if denom <= 0.0:
        raise ValueError("window too long: contraction denominator not positive")
    return 0.5 * window / denom


def cfl_limit(generator: GeneratorMatrix) -> float:
    """Explicit-step bound 0.9 / max |L_ii| (Gershgorin, row sums vanish)."""
    dmax = float(np.max(np.abs(generator.band[-1] / generator.weights)))
    if dmax == 0.0:
        raise ValueError("zero generator has no CFL limit")
    return 0.9 / dmax


def explicit_step(generator: GeneratorMatrix, dt: float):
    """The explicit Euler step values -> values + dt L values, once dt is
    checked against the CFL limit (ValueError above it)."""
    limit = cfl_limit(generator)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"explicit dt = {dt:.6g} exceeds the CFL limit {limit:.6g}")
    return lambda values: values + dt * generator.apply(values)


class ImplicitStepper:
    """The implicit Euler step of a generator at a step size dt > 0
    (ValueError otherwise), factored once: step(w) advances one state.

    solve(b) solves (I - dt L) x = b with the split's factor, iteratively
    refined; dt L x is applied as -dt (A x) / W through the BandSplit.

    step() advances in increment form: solve (I - dt L) d = dt L w and return
    w + d, in the array the solve made for d.  The solve residual then scales
    with ||d|| rather than ||w||, so per-step conservation errors shrink as
    the state relaxes.  dt L w is applied to w - w_I 1 (w_I the interface
    value), equal as A 1 = 0: the rows of A sum to delta = A 1 at roundoff,
    and the mass error dt delta^T w per step adds up (1.1e-11 in 10,000 steps
    at eps = 0.05) where dt delta^T (w - w_I 1) shrinks as the state relaxes.
    The step is a function of the state alone: restarts retrace a run.
    """

    def __init__(self, generator: GeneratorMatrix, dt: float):
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.iface = generator.grid.interface_index
        self.scale = -dt / generator.weights
        self.stiffness = generator.split
        self.factor = self.stiffness.factor(generator.weights, dt)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """dt L x = -dt (A x) / W."""
        y = self.stiffness(x)
        y *= self.scale
        return y

    def _residual(self, b: np.ndarray, x: np.ndarray) -> tuple:
        """r = (b - x) + dt L x and ||r||."""
        r = b - x
        r += self._apply(x)
        return r, math.sqrt(r @ r)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = self.factor.solve(b)
        norm_b = math.sqrt(b @ b) or 1.0
        for _ in range(3):
            r, norm_r = self._residual(b, x)
            if norm_r <= 1e-14 * norm_b:
                return x
            x += self.factor.solve(r)
        norm_r = self._residual(b, x)[1]
        if norm_r > 1e-12 * norm_b:
            raise RuntimeError(f"implicit solve residual {norm_r:.3e} above 1e-12 * ||b||")
        return x

    def step(self, w: np.ndarray) -> np.ndarray:
        x = self.solve(self._apply(w - w[self.iface]))
        x += w
        return x


BLOCK_STATES = 64  # states per block of the per-state diagnostics


def _picard_states(generator: GeneratorMatrix, scheme: StepScheme, dt: float,
                   window_steps: int, n_steps: int, report: PicardReport):
    """Window-alternating fixed point: jump solve given the trace, then heat
    solve given the jump field, iterated to convergence window by window.
    Factors the two sub-blocks now and returns states(values), a generator of
    the state after each of the n_steps sub-steps from values.

    A window of m sub-steps is one (m + 1, n) block of states, one per row,
    every row starting as the window's first state; u and v are its local
    and nonlocal columns, and each sweep rewrites its columns of rows 1..m in
    place.  The coupling is column iface of A (one split product with the
    unit vector at the interface node): A[nl0:, iface] = -W_v L[nl0:, iface].
    Both subsystem solves (SplitFactor.solve of one row's columns, its new
    array assigned to the next row, not refined) use implicit sub-steps and
    exchange full histories at sub-step resolution, evaluating the frozen
    data at the new time level; the fixed point therefore coincides with the
    monolithic implicit solution at the same step size.  Convergence is
    measured in the sup-over-window discrete L2(-1, 0) norm of the trace-side
    update; each window's update norms are appended to the report.  The
    window yields its rows 1..m, and the next window starts from its last row.
    """
    grid = generator.grid
    nl0 = grid.interface_index + 1
    iface = grid.interface_index
    w_local, w_nonlocal = grid.weights[:nl0], grid.weights[nl0:]
    unit = np.zeros(generator.size)
    unit[iface] = 1.0
    coupling = -generator.split(unit)[nl0:]  # q h_nl per cell
    trace_coeff = coupling / w_nonlocal  # L[nl0:, iface] = q, source for the jump solve
    robin_coeff = coupling / w_local[iface]  # L[iface, nl0:], source for the heat solve
    # splits with no chain of A_uu, the band's tridiagonal corner, and A_vv,
    # its nonlocal columns (their coupling entries lie above the matrix)
    heat = BandSplit(generator.band[-2:, :nl0], 0).factor(w_local, dt)
    jump = BandSplit(generator.band[:, nl0:], 0).factor(w_nonlocal, dt)

    def states(values):
        for start in range(0, n_steps, window_steps):
            m = min(window_steps, n_steps - start)
            block = np.tile(values, (m + 1, 1))  # a new block: yielded rows outlive it
            u, v = block[:, :nl0], block[:, nl0:]
            norms: list[float] = []
            for _ in range(scheme.picard_max_iters):
                for k in range(1, m + 1):  # u still holds the last iterate's trace
                    v[k] = jump.solve(v[k - 1] + dt * trace_coeff * u[k, iface])

                previous = u.copy()
                for k in range(1, m + 1):
                    u[k] = heat.solve(u[k - 1] + dt * float(robin_coeff @ v[k]) * unit[:nl0])

                diff = u - previous
                delta = float(np.sqrt(np.max(np.sum(w_local * diff * diff, axis=1))))
                norms.append(delta)
                if delta <= scheme.picard_tol:
                    break
            else:
                raise RuntimeError(
                    "picard iteration did not converge in window starting at "
                    f"t = {start * dt:.6g}: "
                    f"last update {norms[-1]:.3e}, tolerance {scheme.picard_tol:.1e}, "
                    f"kappa = {report.kappa:.3f}"
                )
            report.update_norms.append(norms)
            yield from block[1:]
            values = block[m]

    return states


class _States:
    """The states of w' = L w at t = k dt, k = 0..n_steps, one per iteration.

    dt and the step count are scheme.plan's, given the generator's coupling
    constants and, for the explicit scheme, its CFL limit.  This is where a
    state enters stepping: w0 must be grid.size finite values (ValueError
    otherwise).  Explicit and implicit steps (self.step) start from a
    private copy of w0.  The picard scheme takes its states from the window
    iteration, whose report is self.picard.  Every scheme aborts on a
    non-finite state.
    """

    def __init__(self, generator: GeneratorMatrix, w0: np.ndarray, scheme: StepScheme,
                 horizon: float):
        w0 = np.asarray(w0, dtype=float)
        if w0.shape != (generator.size,):
            raise ValueError(
                f"state length {w0.shape} does not match grid size {generator.size}")
        if not np.all(np.isfinite(w0)):
            raise ValueError("state values must be finite")
        cfl = cfl_limit(generator) if scheme.kind == "explicit" else math.inf
        self.dt, self.n_steps, window, window_steps = scheme.plan(
            horizon, generator.constants, cfl)
        self.w0 = w0
        self.picard = None
        if scheme.kind == "picard":
            kappa = contraction_factor(generator.constants, window)
            self.picard = PicardReport(kappa, scheme.picard_tol, [])
            self._windows = _picard_states(generator, scheme, self.dt, window_steps,
                                           self.n_steps, self.picard)
        elif scheme.kind == "explicit":
            self.step = explicit_step(generator, self.dt)
        else:
            self.step = ImplicitStepper(generator, self.dt).step

    def _stepped(self, values):
        for _ in range(self.n_steps):
            values = self.step(values)
            yield values

    def __iter__(self):
        values = self.w0.copy()
        zeros = np.zeros_like(values)  # 0 . w is 0 for finite w and NaN otherwise
        yield 0.0, values
        # no step source is stored on self: a bound method there would make a
        # reference cycle and keep the factor alive until the cyclic collector runs
        source = self._stepped(values) if self.picard is None else self._windows(values)
        for k, values in enumerate(source, start=1):
            t = k * self.dt
            if not math.isfinite(zeros @ values):
                raise RuntimeError(f"non-finite state detected at t = {t:.6g}; aborting")
            yield t, values

    def blocks(self):
        """(times, block) for each run of BLOCK_STATES consecutive states, the
        last run possibly shorter: per-state diagnostics evaluated on a block
        pay numpy's per-call cost once per BLOCK_STATES states.  The two
        arrays are reused from one block to the next."""
        times = np.empty(BLOCK_STATES)
        block = np.empty((BLOCK_STATES, self.w0.size))
        fill = 0
        for t, values in self:
            times[fill] = t
            block[fill] = values
            fill += 1
            if fill == BLOCK_STATES:
                yield times, block
                fill = 0
        if fill:
            yield times[:fill], block[:fill]


def evolve(
    generator: GeneratorMatrix,
    w0: np.ndarray,
    scheme: StepScheme,
    horizon: float,
    snapshot_stride: int = 0,
):
    """Advance w' = L w to t = horizon with any of the three schemes,
    recording diagnostics at every step (sub-step for picard) at t = k dt,
    k = 0..n_steps, with dt and n_steps from scheme.plan.

    Each block of states fills its rows of Trajectory.table: the mass is one
    matrix-vector product, the energy terms one energy_form call (built once
    per run), the distance to the mean one more product.  Snapshots, copied
    from block rows, are the initial state, for snapshot_stride > 0 every
    stride-th step before the last, and the final state.  For the picard
    scheme the window iteration's report is Trajectory.picard.
    """
    states = _States(generator, w0, scheme, horizon)
    n_steps = states.n_steps
    weights = generator.weights
    measure = float(np.sum(weights))
    energy = energy_form(generator)
    table = np.empty((n_steps + 1, len(TIMESERIES_COLUMNS)))
    # the steps snapshotted before the last one
    kept = range(0, n_steps, snapshot_stride) if snapshot_stride > 0 else range(1)
    snapshots = []
    k = 0
    for times, block in states.blocks():
        m = block @ weights
        loc, nl, cp = energy(block)
        d = block - (m / measure)[:, None]
        dist = np.sqrt(np.square(d, out=d) @ weights)
        table[k : k + len(times)] = np.column_stack((times, m, loc + nl + cp, loc, nl, cp, dist))
        for i in range(len(times)):
            if k + i in kept:
                snapshots.append((float(times[i]), block[i].copy()))
        k += len(times)
    final = block[-1].copy()
    snapshots.append((n_steps * states.dt, final))
    return Trajectory(table, snapshots, final, states.dt, states.picard)
