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
oversized run.  The picard iteration's report is Trajectory.picard.

L = -W^-1 A with A symmetric positive semidefinite, so every implicit solve
(I - dt L) x = b is the SPD system (W + dt A) x = W b: band-Cholesky factored
once per step size and polished with iterative refinement so the per-step
residual stays near machine precision; that keeps the mass drift below 1e-11
over ten thousand steps.  The factor is split at the interface node like
A's band (discretization.SplitFactor, made by BandSplit.factor): a
tridiagonal factor over the local chain and a band factor of the block
behind it, so neither a solve nor A x reads the band's zeros over the local
nodes; the stepper keeps only the refinement and its buffers.  A x reads the
block as a band, or as a dense copy (symv) when the kernel reaches across
the whole nonlocal region; the solves read the band factors either way.  The
eigensolver (energy_spectrum.estimate_beta1) solves with the same factor at
dt = 1.  A step writes dt L w,
dt L x and the solve residual into buffers of its stepper.  See
_ImplicitStepper.  The window iteration factors its two sub-blocks the same
way.

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

from ._lapack import dpbtrs
from .discretization import GeneratorMatrix, StateField, _cholesky, generator_edges
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
        """Window length; 'auto' takes 80% of the contraction bound."""
        sup = 1.0 / (2.0 * constants.c1 + constants.c2)
        if self.picard_window == "auto":
            return 0.8 * sup
        tw = float(self.picard_window)
        if not 0.0 < tw < sup:
            raise ValueError(
                f"picard window {tw} must lie in (0, 1/(2 c1 + c2)) = (0, {sup:.6g})"
            )
        return tw

    def plan(self, horizon: float, constants: CouplingConstants | None = None,
             cfl: float = math.inf) -> tuple:
        """(dt, n_steps, window, window_steps), the last two None but for
        picard.  'auto' takes 1/32 of the picard window, the CFL limit cfl
        (explicit) or horizon / 1000 (implicit).  The picard sub-step must
        divide the window and the horizon; any other dt is nudged so that
        n_steps dt = horizon, by one more step where the nudge would push a
        dt within cfl over it.  A step count that overflows a float is refused."""
        if not horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if self.kind == "picard" and constants is None:
            raise ValueError("picard scheme needs the coupling constants")
        window = self.window_for(constants) if self.kind == "picard" else None
        if self.dt != "auto":
            dt = float(self.dt)
        elif window is not None:
            dt = window / 32.0
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
            n_steps += 1  # the nudge would push a dt that _explicit_step allows over its bound
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
    dist_to_mean."""

    grid: object
    table: np.ndarray
    snapshots: list = field(default_factory=list)
    final_state: StateField | None = None
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
    """Lipschitz bound of one alternating sweep over a window of given length.

    (c2/2) is the exact double integral of the kernel across the interface
    for a symmetric unit-mass kernel; the remaining factor is the data
    dependence of the jump subsystem on the frozen trace.
    """
    denom = 1.0 - (2.0 * constants.c1 + constants.c2) * window
    if denom <= 0.0:
        raise ValueError("window too long: contraction denominator not positive")
    return 0.5 * constants.c2 * (constants.c2 * window) / denom


def cfl_limit(generator: GeneratorMatrix) -> float:
    """Explicit-step bound 0.9 / max |L_ii| (Gershgorin, row sums vanish)."""
    dmax = float(np.max(np.abs(generator.band[-1] / generator.weights)))
    if dmax == 0.0:
        raise ValueError("zero generator has no CFL limit")
    return 0.9 / dmax


def _explicit_step(generator: GeneratorMatrix, dt: float):
    """values -> values + dt L values, once dt is checked against the CFL limit."""
    limit = cfl_limit(generator)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"explicit dt = {dt:.6g} exceeds the CFL limit {limit:.6g}")
    return lambda values: values + dt * generator.apply(values)


def step_explicit(generator: GeneratorMatrix, w: StateField, dt: float) -> StateField:
    return StateField(w.grid, _explicit_step(generator, dt)(w.values))


class _ImplicitStepper:
    """Solve of (I - dt L) x = b as (W + dt A) x = W b, iteratively refined.

    W + dt A is factored along the generator's BandSplit at the interface
    node (discretization.SplitFactor), and dt L x is applied as
    -dt (A x) / W through the split.

    step() advances in increment form: solve (I - dt L) d = dt L w and return
    w + d, in the array the solve made for d.  The solve residual then scales
    with ||d|| rather than ||w||, so per-step conservation errors shrink as
    the state relaxes; that is what keeps the mass drift at the 1e-12 level
    over ten thousand steps.
    """

    def __init__(self, generator: GeneratorMatrix, dt: float):
        self.weights = generator.weights
        self.scale = -dt / self.weights
        self.stiffness = generator.split
        self.factor = self.stiffness.factor(self.weights, dt)
        # dt L w, dt L x and the residual of a step: the step allocates only
        # the state it returns
        self.lw, self.lx, self.residual = (np.empty(generator.size) for _ in range(3))

    def _apply(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """dt L x = -dt (A x) / W, written into out."""
        return np.multiply(self.stiffness(x, out), self.scale, out=out)

    def _solve(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(I - dt L)^-1 r as (W + dt A)^-1 W r, in out (a new array when not
        given; out may be r)."""
        out = np.multiply(self.weights, r, out=out)
        return self.factor.solve(out, out=out)

    def _residual(self, b: np.ndarray, x: np.ndarray) -> float:
        """||r|| for r = (b - x) + dt L x, left in the residual buffer."""
        r = np.subtract(b, x, out=self.residual)
        r += self._apply(x, self.lx)
        return math.sqrt(r @ r)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = self._solve(b)
        norm_b = math.sqrt(b @ b) or 1.0
        for _ in range(3):
            if self._residual(b, x) <= 1e-14 * norm_b:
                return x
            x += self._solve(self.residual, out=self.residual)
        norm_r = self._residual(b, x)
        if norm_r > 1e-12 * norm_b:
            raise RuntimeError(f"implicit solve residual {norm_r:.3e} above 1e-12 * ||b||")
        return x

    def step(self, w: np.ndarray) -> np.ndarray:
        x = self.solve(self._apply(w, self.lw))
        x += w
        return x


def step_implicit(generator: GeneratorMatrix, w: StateField, dt: float) -> StateField:
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    stepper = _ImplicitStepper(generator, dt)
    return StateField(w.grid, stepper.step(w.values))


BLOCK_STATES = 64  # states per block of the per-state diagnostics


def _picard_states(generator: GeneratorMatrix, scheme: StepScheme, dt: float,
                   window_steps: int, n_steps: int, report: PicardReport):
    """Window-alternating fixed point: jump solve given the trace, then heat
    solve given the jump field, iterated to convergence window by window.
    Factors the two sub-blocks now and returns states(values), a generator of
    the state after each of the n_steps sub-steps from values.

    Both subsystem solves use implicit sub-steps and exchange full histories
    at sub-step resolution, evaluating the frozen data at the new time level;
    the fixed point therefore coincides with the monolithic implicit solution
    at the same step size.  Convergence is measured in the sup-over-window
    discrete L2(-1, 0) norm of the trace-side iterate; each window's update
    norms are appended to the report.
    """
    grid = generator.grid
    nl0 = grid.interface_index + 1
    iface = grid.interface_index
    w_local, w_nonlocal = grid.weights[:nl0], grid.weights[nl0:]
    _, j, c = generator_edges(generator)[2]  # edges (iface, j), c = c2 q h_nl
    trace_coeff = np.zeros(grid.n_nonlocal)  # L[nl0:, iface] = c2 q, source for the jump solve
    robin_coeff = np.zeros(grid.n_nonlocal)  # L[iface, nl0:], source for the heat solve
    trace_coeff[j - nl0] = c / w_nonlocal[j - nl0]
    robin_coeff[j - nl0] = c / w_local[iface]
    # (I - dt L_uu) x = r is (W_u + dt A_uu) x = W_u r with A_uu the tridiagonal
    # corner of the band; A_vv is the band's nonlocal columns, whose coupling
    # entries fall in the storage triangle LAPACK does not reference.
    b = generator.half_bandwidth
    chol_u = _cholesky(generator.band[b - 1 :, :nl0], w_local, dt)
    chol_v = _cholesky(generator.band[:, nl0:], w_nonlocal, dt)

    def states(values):
        u_start, v_start = values[:nl0], values[nl0:]
        for start in range(0, n_steps, window_steps):
            m = min(window_steps, n_steps - start)
            u_hist = np.tile(u_start, (m + 1, 1))
            v_hist = np.empty((m + 1, grid.n_nonlocal))
            norms: list[float] = []
            for _ in range(scheme.picard_max_iters):
                trace = u_hist[:, iface]
                v_hist[0] = v_start
                for k in range(1, m + 1):
                    rhs = v_hist[k - 1] + dt * trace_coeff * trace[k]
                    v_hist[k] = dpbtrs(chol_v, w_nonlocal * rhs, overwrite_b=1)[0]

                u_new = np.empty_like(u_hist)
                u_new[0] = u_start
                for k in range(1, m + 1):
                    rhs = w_local * u_new[k - 1]
                    rhs[iface] += w_local[iface] * dt * float(robin_coeff @ v_hist[k])
                    u_new[k] = dpbtrs(chol_u, rhs, overwrite_b=1)[0]

                diff = u_new - u_hist
                delta = float(np.sqrt(np.max(np.sum(w_local * diff * diff, axis=1))))
                norms.append(delta)
                u_hist = u_new
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
            for k in range(1, m + 1):
                yield np.concatenate([u_hist[k], v_hist[k]])
            # copies: views would keep this window's histories alive through the next
            u_start, v_start = u_hist[m].copy(), v_hist[m].copy()

    return states


class _States:
    """The states of w' = L w at t = k dt, k = 0..n_steps, one per iteration.

    dt and the step count are scheme.plan's, given the generator's coupling
    constants and, for the explicit scheme, its CFL limit.  Explicit and
    implicit steps (self.step) start from a private copy of w0.  The picard
    scheme takes its states from the window iteration, whose report is
    self.picard.  Every scheme aborts on a non-finite state.
    """

    def __init__(self, generator: GeneratorMatrix, w0: StateField, scheme: StepScheme,
                 horizon: float):
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
            self.step = _explicit_step(generator, self.dt)
        else:
            self.step = _ImplicitStepper(generator, self.dt).step

    def _stepped(self, values):
        for _ in range(self.n_steps):
            values = self.step(values)
            yield values

    def __iter__(self):
        values = self.w0.values.copy()
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
        block = np.empty((BLOCK_STATES, self.w0.grid.size))
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
    w0: StateField,
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
                snapshots.append((float(times[i]), StateField(w0.grid, block[i].copy())))
        k += len(times)
    final = StateField(w0.grid, block[-1].copy())
    snapshots.append((n_steps * states.dt, final))
    return Trajectory(w0.grid, table, snapshots, final, states.dt, states.picard)
