"""Flat key = value run configuration.

One dotted key per line, UTF-8, '#' comments; unknown keys are rejected so a
typo cannot silently fall back to a default.  Each key is declared once, as a
`SimConfig` field: the key is the field name with its first '_' read as '.'
(``grid_n_local`` is ``grid.n_local``, ``seed`` is ``seed``) and its parser is
read off the field's annotation.  The manifest written by every run uses the
same format with all values resolved, so it re-parses as a config that
reproduces the run bit for bit.  That is why validate refuses a string value
that holds a '#' or a line break, or starts or ends with whitespace: the
parser would cut or strip it.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .discretization import Grid, build_grid
from .evolution import SCHEME_KINDS, StepScheme
from .kernels import FAMILIES, Kernel, coupling_constants, make_kernel

INIT_KINDS = ("constant", "step", "cosine", "gaussian", "file")


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


@dataclass
class SimConfig:
    """Every key of a run, with its default.  A field is the key with its
    first '.' written '_'; its annotation (str, float, int or float | str,
    the last for 'auto' or a number) chooses the key's parser."""

    kernel_family: str = "triangle"
    kernel_radius: float = 1.0
    kernel_epsilon: float = 1.0
    grid_n_local: int = 200
    grid_n_nonlocal: int = 200
    time_scheme: str = "implicit"
    time_dt: float | str = "auto"
    time_horizon: float = 5.0
    time_snapshot_stride: int = 0
    picard_window: float | str = "auto"
    picard_tol: float = 1e-10
    picard_max_iters: int = 60
    init_kind: str = "gaussian"
    init_value: float = 1.0
    init_u_value: float = 1.0
    init_v_value: float = 0.0
    init_amplitude: float = 1.0
    init_center: float = -0.5
    init_width: float = 0.15
    init_path: str = ""
    output_dir: str = "out"
    seed: int = 20260801


def _parse_auto_float(raw: str):
    return "auto" if raw == "auto" else float(raw)


# dotted key -> (attribute, parser), in field order
_KEYS = {
    f.name.replace("_", ".", 1): (
        f.name,
        {"str": str, "float": float, "int": int, "float | str": _parse_auto_float}[f.type],
    )
    for f in fields(SimConfig)
}


def parse_config_text(text: str, overrides=()) -> SimConfig:
    """The config of text, with each KEY=VALUE of overrides applied after
    its lines, validated once."""
    cfg = SimConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        set_key(cfg, key, value, where=f"line {lineno}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        set_key(cfg, key.strip(), value.strip())
    validate(cfg)
    return cfg


def set_key(cfg: SimConfig, key: str, value: str, where: str = "override"):
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    attr, parser = _KEYS[key]
    try:
        setattr(cfg, attr, parser(value))
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc


def load_config(path, overrides=()) -> SimConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, overrides)


def config_to_text(cfg: SimConfig) -> str:
    return "".join(f"{key} = {_format_value(getattr(cfg, attr))}\n"
                   for key, (attr, _) in _KEYS.items())


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def validate(cfg: SimConfig):
    for key, (attr, parser) in _KEYS.items():
        value = getattr(cfg, attr)
        if isinstance(value, str):
            if parser is _parse_auto_float and value != "auto":
                raise ConfigError(f"{key}: must be a number or 'auto', got {value!r}")
            if "#" in value or value != value.strip() or len(value.splitlines()) > 1:
                raise ConfigError(f"{key}: {value!r} would not re-parse: a value may not "
                                  "hold '#' or a line break, or start or end with whitespace")
        elif parser in (float, _parse_auto_float) and not np.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value}")
    if cfg.kernel_family not in FAMILIES:
        raise ConfigError(f"kernel.family: unknown family {cfg.kernel_family!r}")
    if not cfg.kernel_radius > 0.0:
        raise ConfigError("kernel.radius: must be positive")
    if not cfg.kernel_epsilon > 0.0:
        raise ConfigError("kernel.epsilon: must be positive")
    try:
        coupling_constants(kernel_from(cfg))
    except ValueError as exc:
        raise ConfigError(f"kernel.radius: {exc}") from exc
    if cfg.grid_n_local < 4 or cfg.grid_n_nonlocal < 4:
        raise ConfigError("grid.n_local / grid.n_nonlocal: need at least 4 cells each")
    if cfg.time_scheme not in SCHEME_KINDS:
        raise ConfigError(f"time.scheme: unknown scheme {cfg.time_scheme!r}")
    if cfg.time_dt != "auto" and not float(cfg.time_dt) > 0.0:
        raise ConfigError("time.dt: must be positive or 'auto'")
    if not cfg.time_horizon > 0.0:
        raise ConfigError("time.horizon: must be positive")
    if cfg.time_snapshot_stride < 0:
        raise ConfigError("time.snapshot_stride: must be nonnegative")
    if cfg.picard_window != "auto" and not float(cfg.picard_window) > 0.0:
        raise ConfigError("picard.window: must be positive or 'auto'")
    if not cfg.picard_tol > 0.0:
        raise ConfigError("picard.tol: must be positive")
    if cfg.picard_max_iters < 1:
        raise ConfigError("picard.max_iters: must be at least 1")
    if cfg.init_kind not in INIT_KINDS:
        raise ConfigError(f"init.kind: unknown kind {cfg.init_kind!r}")
    if cfg.init_kind == "gaussian" and not cfg.init_width > 0.0:
        raise ConfigError("init.width: must be positive")
    if cfg.init_kind == "file" and not cfg.init_path:
        raise ConfigError("init.path: required when init.kind = file")
    if cfg.seed < 0:
        raise ConfigError("seed: must be nonnegative")


def kernel_from(cfg: SimConfig) -> Kernel:
    return make_kernel(cfg.kernel_family, cfg.kernel_radius, cfg.kernel_epsilon)


def grid_from(cfg: SimConfig) -> Grid:
    return build_grid(cfg.grid_n_local, cfg.grid_n_nonlocal)


def scheme_from(cfg: SimConfig) -> StepScheme:
    return StepScheme(
        kind=cfg.time_scheme,
        dt=cfg.time_dt,
        picard_window=cfg.picard_window,
        picard_tol=cfg.picard_tol,
        picard_max_iters=cfg.picard_max_iters,
    )


def initial_state(cfg: SimConfig, grid: Grid) -> np.ndarray:
    """The init.* datum sampled at the grid's positions, one value per
    position."""
    if cfg.init_kind == "file":
        return _state_from_csv(cfg.init_path, grid)
    x = grid.positions
    if cfg.init_kind == "constant":
        values = np.full_like(x, cfg.init_value)
    elif cfg.init_kind == "step":
        values = np.where(x <= 0.0, cfg.init_u_value, cfg.init_v_value)
    elif cfg.init_kind == "cosine":
        values = cfg.init_amplitude * np.cos(np.pi * (x + 1.0) / 2.0)
    elif cfg.init_kind == "gaussian":
        values = cfg.init_amplitude * np.exp(
            -((x - cfg.init_center) ** 2) / (2.0 * cfg.init_width**2)
        )
    else:  # a SimConfig built in code skips validate
        raise ConfigError(f"init.kind: unknown kind {cfg.init_kind!r}")
    return values


def _state_from_csv(path, grid: Grid) -> np.ndarray:
    try:
        rows = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"init.path: cannot read {path}: {exc}") from exc
    if not rows or rows[0].split(",")[:2] != ["x", "w"]:
        raise ConfigError(f"init.path: {path} is not a snapshot CSV (x,w,region)")
    data = [line.split(",") for line in rows[1:] if line.strip()]
    if len(data) != grid.size:
        raise ConfigError(
            f"init.path: snapshot has {len(data)} rows, grid needs {grid.size}"
        )
    try:
        x = np.array([float(r[0]) for r in data])
        w = np.array([float(r[1]) for r in data])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"init.path: {path} has a non-numeric x or w value: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise ConfigError(f"init.path: {path} has a non-finite w value")
    if not np.allclose(x, grid.positions, atol=1e-9):
        raise ConfigError("init.path: snapshot positions do not match the grid")
    return w
