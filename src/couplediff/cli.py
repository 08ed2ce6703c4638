"""Command-line front end: simulate, spectrum, sweep-epsilon, verify.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 runtime
failure.  All artifacts are CSV (17 significant digits, headers always);
SVG plots are opt-in and purely decorative.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

from .analysis import (
    HEAT_REFERENCE_MODES,
    DecayFitError,
    SweepRow,
    decay_report,
    epsilon_sweep,
    sweep_members,
)
from .config import (
    ConfigError,
    SimConfig,
    config_to_text,
    grid_from,
    initial_state,
    kernel_from,
    load_config,
    scheme_from,
    validate,
)
from .discretization import assemble_generator, assemble_heat_generator, resolved_n_nonlocal
from .energy_spectrum import EIGEN_MAX_ITERATIONS, estimate_beta1, estimate_energy_control_k
from .evolution import TIMESERIES_COLUMNS, StepScheme, cfl_limit, evolve
from .kernels import coupling_constants
from .output import atomic_write_text, svg_line_plot, write_csv, write_float_csv

SPECTRUM_SAMPLES = 200


def _setup(cfg: SimConfig):
    kernel = kernel_from(cfg)
    try:
        return assemble_generator(grid_from(cfg), kernel, coupling_constants(kernel))
    except ValueError as exc:
        raise ConfigError(f"grid.n_nonlocal / kernel.epsilon / kernel.radius: {exc}") from exc


def _half_bandwidth(cfg: SimConfig) -> int:
    """A bound on the generator's half-bandwidth b, read off the config: at
    most n_nonlocal, and at most the kernel's reach in cells, ceil(R eps
    n_nonlocal), which the coupling edges do not pass either, plus one cell
    for rounding."""
    n_nl = cfg.grid_n_nonlocal
    return min(n_nl, math.ceil(min(cfg.kernel_radius * cfg.kernel_epsilon, 1.0) * n_nl) + 1)


def _band_bytes(cfg: SimConfig) -> int:
    """A bound on the bytes of the generator's band, (b + 1) n float64."""
    return (_half_bandwidth(cfg) + 1) * (cfg.grid_n_local + 1 + cfg.grid_n_nonlocal) * 8


def _check_memory(cfg: SimConfig, keys: str, states: int = 0, rows: int = 0):
    """Refuse, naming keys, a run whose generator (its band, the factor of
    the split's block, (b + 1)(n_nonlocal + 1) floats, the chains of split
    and factor, 5 (n_local + 1), and a dense copy of the block when
    b = n_nonlocal), `states` more states and a table of `rows` rows of
    diagnostics (len(TIMESERIES_COLUMNS) float64 each) exceed physical
    memory.  Every count is read off the config: nothing is allocated.
    Returns the count, in bytes."""
    n, block = cfg.grid_n_local + 1 + cfg.grid_n_nonlocal, cfg.grid_n_nonlocal + 1
    b = _half_bandwidth(cfg)
    solve = (b + 1) * block + 5 * (n - block + 1) + (block * block if b == block - 1 else 0)
    need = _band_bytes(cfg) + (solve + states * n + rows * len(TIMESERIES_COLUMNS)) * 8
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise ConfigError(f"{keys}: {need / 2**30:.3g} GiB (the generator and its factor on {n} "
                          f"nodes, plus {states:.3g} states and {rows:.3g} rows of diagnostics)"
                          f" exceed physical memory ({memory / 2**30:.3g} GiB)")
    return need


def _write_snapshot(path, grid, state):
    iface = grid.interface_index
    rows = (
        (float(x), float(w), "local" if i <= iface else "nonlocal")
        for i, (x, w) in enumerate(zip(grid.positions, state))
    )
    write_csv(path, ("x", "w", "region"), rows)


def run_simulate(cfg: SimConfig, svg: bool = False) -> list:
    _check_memory(cfg, "grid.n_local / grid.n_nonlocal")
    scheme = scheme_from(cfg)
    constants, cfl = None, math.inf
    if scheme.kind == "picard":
        constants = coupling_constants(kernel_from(cfg))
        try:
            scheme.window_for(constants)
        except ValueError as exc:
            raise ConfigError(f"picard.window: {exc}") from exc
    elif scheme.kind == "explicit":  # its plan needs the CFL limit of the generator
        generator = _setup(cfg)
        cfl = cfl_limit(generator)
        if scheme.dt != "auto" and float(scheme.dt) > cfl * (1.0 + 1e-12):
            raise ConfigError(f"time.dt: {scheme.dt} exceeds the explicit CFL limit {cfl:.6g}")
    try:
        _, n_steps, window, _ = scheme.plan(cfg.time_horizon, constants, cfl)
    except ValueError as exc:
        raise ConfigError(f"time.horizon / time.dt: {exc}") from exc
    # evolve keeps step 0, every stride-th step before the last and the last
    stride = cfg.time_snapshot_stride
    states = (-(-n_steps // stride) if stride > 0 else 1) + 1
    _check_memory(cfg, "time.horizon / time.dt / time.snapshot_stride", states, n_steps + 1)
    if scheme.kind != "explicit":
        generator = _setup(cfg)
    w0 = initial_state(cfg, generator.grid)
    # before evolve and the writes, so a failing eigensolve costs no stepping and leaves no artifact
    spectral = estimate_beta1(generator)
    traj = evolve(generator, w0, scheme, cfg.time_horizon, cfg.time_snapshot_stride)

    out = Path(cfg.output_dir)
    artifacts = []
    ts = out / "timeseries.csv"
    write_float_csv(ts, TIMESERIES_COLUMNS, traj.table)
    artifacts.append(ts)
    for k, (_, state) in enumerate(traj.snapshots):
        snap = out / f"snapshot_{k:06d}.csv"
        _write_snapshot(snap, generator.grid, state)
        artifacts.append(snap)

    resolved = replace(cfg, time_dt=traj.dt)
    header = "# manifest: resolved parameters; re-parses as a config\n"
    report = traj.picard
    if report is not None:
        resolved = replace(resolved, picard_window=window)
        header += (
            f"# picard.windows = {report.window_count}; "
            f"iterations = {report.iterations}; kappa = {report.kappa:.6g}\n"
        )
    manifest = out / "manifest.cfg"
    atomic_write_text(manifest, header + config_to_text(resolved))
    artifacts.append(manifest)

    try:
        decay = decay_report(traj, spectral)
    except DecayFitError as exc:  # the timeseries still stands
        print(f"decay.csv skipped: {exc}", file=sys.stderr)
    else:
        dec = out / "decay.csv"
        write_csv(
            dec,
            ("fitted_rate", "beta1", "lambda2", "r_squared", "bound_satisfied"),
            [(
                decay.fitted_rate,
                spectral.beta1,
                spectral.lambda2,
                decay.r_squared,
                decay.bound_satisfied,
            )],
        )
        artifacts.append(dec)

    if svg:
        plot = out / "dist_to_mean.svg"
        svg_line_plot(
            plot,
            traj.times.tolist(),
            traj.dist_to_mean.tolist(),
            title="distance to mean",
            xlabel="t",
            ylabel="||w - mean||",
            log_y=True,
        )
        artifacts.append(plot)
    return artifacts


def run_spectrum(cfg: SimConfig, pure_heat: bool = False) -> list:
    if pure_heat:  # its band and factor are no larger than on n - 1 local cells and 1 nonlocal
        n = cfg.grid_n_local + cfg.grid_n_nonlocal
        _check_memory(replace(cfg, grid_n_local=n - 1, grid_n_nonlocal=1),
                      "grid.n_local / grid.n_nonlocal")
        generator, sizes, k_hat = assemble_heat_generator(n), (n, 0, 0.0), float("nan")
    else:
        _check_memory(cfg, "grid.n_local / grid.n_nonlocal", SPECTRUM_SAMPLES)
        generator = _setup(cfg)
        sizes = (cfg.grid_n_local, cfg.grid_n_nonlocal, cfg.kernel_epsilon)
        k_hat = estimate_energy_control_k(generator, n_samples=SPECTRUM_SAMPLES, seed=cfg.seed)
    spectral = estimate_beta1(generator)
    path = Path(cfg.output_dir) / "spectrum.csv"
    write_csv(
        path,
        ("n_local", "n_nonlocal", "epsilon", "beta1", "lambda2", "residual", "k_estimate"),
        [(*sizes, spectral.beta1, spectral.lambda2, spectral.residual, k_hat)],
    )
    return [path]


def run_sweep(cfg: SimConfig, eps_list, svg: bool = False) -> list:
    try:  # every member steps implicitly with this plan; refuse it before any exists
        StepScheme(kind="implicit", dt=cfg.time_dt).plan(cfg.time_horizon)
    except ValueError as exc:
        raise ConfigError(f"time.horizon / time.dt: {exc}") from exc
    try:
        members = sweep_members(cfg, eps_list)
    except (ValueError, ArithmeticError) as exc:  # or an n_nonlocal that overflows
        raise ConfigError(f"sweep epsilon list: {exc}") from exc
    for e, n_nl in members:  # every member's generator and heat reference modes, up front
        _check_memory(replace(cfg, kernel_epsilon=e, grid_n_nonlocal=n_nl),
                      f"sweep epsilon list: epsilon = {e:g} on n_nonlocal = {n_nl}",
                      min(HEAT_REFERENCE_MODES, cfg.grid_n_local, n_nl))
    try:
        rows = epsilon_sweep(cfg, eps_list)
    except ValueError as exc:
        raise ConfigError(f"sweep epsilon list: {exc}") from exc
    path = Path(cfg.output_dir) / "sweep.csv"
    write_csv(path, [f.name for f in fields(SweepRow)], [astuple(r) for r in rows])
    artifacts = [path]
    if svg:
        plot = Path(cfg.output_dir) / "sweep.svg"
        svg_line_plot(
            plot,
            [r.epsilon for r in rows],
            [r.sup_error_l2 for r in rows],
            title="rescaling convergence",
            xlabel="epsilon",
            ylabel="sup L2 error",
            log_x=True,
            log_y=True,
        )
        artifacts.append(plot)
    return artifacts


def _parse_eps(raw: str):
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--eps: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="couplediff",
        description="Coupled local/nonlocal diffusion simulator and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "spectrum", "sweep-epsilon", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--out", help="override output.dir")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        if name in ("simulate", "sweep-epsilon"):
            p.add_argument("--svg", action="store_true", help="also write SVG plots")
        if name == "sweep-epsilon":
            p.add_argument(
                "--eps",
                default="0.4,0.2,0.1,0.05",
                help="comma-separated decreasing epsilon values",
            )
        if name == "spectrum":
            p.add_argument(
                "--pure-heat",
                action="store_true",
                help="diagnostic single-domain Neumann Laplacian instead of the coupled model",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        if args.out:  # the manifest writes it, so it must re-parse too
            cfg.output_dir = args.out
            validate(cfg)

        if args.command == "simulate":
            artifacts = run_simulate(cfg, svg=args.svg)
        elif args.command == "spectrum":
            artifacts = run_spectrum(cfg, pure_heat=args.pure_heat)
        elif args.command == "sweep-epsilon":
            artifacts = run_sweep(cfg, _parse_eps(args.eps), svg=args.svg)
        else:
            from .verify import CHECK_CELLS, run_all  # only verify pays for its import

            keys = "kernel.epsilon / kernel.radius"
            # the largest check grid, with the Krylov basis at the cap: growing by doubling,
            # it holds its new and old capacity at once, 400 + 256 states, below the count
            try:
                n_nl = resolved_n_nonlocal(CHECK_CELLS, cfg.kernel_epsilon, cfg.kernel_radius)
                _check_memory(replace(cfg, grid_n_local=CHECK_CELLS, grid_n_nonlocal=n_nl), keys,
                              2 * EIGEN_MAX_ITERATIONS)
            except ArithmeticError as exc:  # a cell count too large for a float
                raise ConfigError(f"{keys}: the check grid overflows ({exc})") from exc
            return run_all(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for path in artifacts:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
