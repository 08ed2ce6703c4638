"""The four benchmark workloads: their config, CLI arguments and output checks.

Each workload is one CLI invocation.  The benchmark seed reaches the program
only as the config ``seed`` key, which drives the 200 energy-control samples
of ``spectrum_fine``; the other workloads are deterministic in it.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Bounds of acceptance criteria 01 (mass) and 02 (energy) in tests/.
MASS_DRIFT_MAX = 1e-11
ENERGY_RISE_MAX = 1e-12
SWEEP_EPS = (0.4, 0.2, 0.1, 0.05)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _check_timeseries(out: Path, n_steps: int) -> list[str]:
    rows = _rows(out / "timeseries.csv")
    problems = []
    if len(rows) != n_steps + 1:
        problems.append(f"timeseries.csv has {len(rows)} rows, expected {n_steps + 1}")
    mass = [float(r["mass"]) for r in rows]
    energy = [float(r["energy_total"]) for r in rows]
    drift = max(abs(m - mass[0]) for m in mass) / abs(mass[0])
    rise = max(b - a for a, b in zip(energy, energy[1:]))
    if not drift <= MASS_DRIFT_MAX:
        problems.append(f"relative mass drift {drift:.3e} > {MASS_DRIFT_MAX:g}")
    if not rise <= ENERGY_RISE_MAX:
        problems.append(f"largest per-step energy rise {rise:.3e} > {ENERGY_RISE_MAX:g}")
    return problems


def transmission_oracle(eps: float) -> float:
    """beta1 = mu^2 / 2 with mu tan mu = 2 g and g = (1/eps) * 1/6, the
    interface conductance of the unit-radius triangle kernel; the same oracle
    as test_beta1_small_eps_transmission_oracle, solved by bisection."""
    g = (1.0 / 6.0) / eps
    lo, hi = 1e-9, math.pi / 2 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.tan(mid) < 2.0 * g:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    return 0.5 * mu * mu


def _check_sweep(out: Path) -> list[str]:
    rows = _rows(out / "sweep.csv")
    eps = [float(r["epsilon"]) for r in rows]
    if eps != list(SWEEP_EPS):
        return [f"sweep.csv epsilons {eps}, expected {list(SWEEP_EPS)}"]
    problems = []
    errs = [float(r["sup_error_l2"]) for r in rows]
    if not all(a > b for a, b in zip(errs, errs[1:])):
        problems.append(f"sup_error_l2 does not decrease in epsilon: {errs}")
    beta = float(rows[-1]["beta1_eps"])
    oracle = transmission_oracle(eps[-1])
    if not abs(beta / oracle - 1.0) <= 0.02:
        problems.append(f"beta1_eps {beta:.6f} at eps={eps[-1]} not within 2% of {oracle:.6f}")
    return problems


def _check_spectrum(out: Path) -> list[str]:
    (row,) = _rows(out / "spectrum.csv")
    lam, res = float(row["lambda2"]), float(row["residual"])
    beta, k_hat = float(row["beta1"]), float(row["k_estimate"])
    problems = []
    if not res <= 1e-8 * lam:
        problems.append(f"residual {res:.3e} > 1e-8 * lambda2 = {1e-8 * lam:.3e}")
    for name, value in (("beta1", beta), ("k_estimate", k_hat)):
        if not (math.isfinite(value) and value > 0.0):
            problems.append(f"{name} = {value} is not finite and positive")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: dict
    extra_args: tuple
    check: Callable[[Path], list]


WORKLOADS = {
    w.name: w
    for w in (
        # The criterion-01 run: full-width kernel block, time in the per-step
        # solve and energy diagnostics, plus a 10,001-row CSV.
        Workload(
            "simulate_dense", "simulate",
            {"kernel.family": "triangle", "kernel.radius": "1.0", "kernel.epsilon": "1.0",
             "grid.n_local": "200", "grid.n_nonlocal": "200", "time.scheme": "implicit",
             "time.dt": "0.001", "time.horizon": "10.0", "init.kind": "step"},
            (), lambda out: _check_timeseries(out, 10_000),
        ),
        # Narrow band (half-bandwidth about 20 of 2,001 dofs): the mechanism
        # a bandwidth-aware solver targets.
        Workload(
            "simulate_narrow", "simulate",
            {"kernel.family": "triangle", "kernel.radius": "1.0", "kernel.epsilon": "0.02",
             "grid.n_local": "1000", "grid.n_nonlocal": "1000", "time.scheme": "implicit",
             "time.dt": "0.001", "time.horizon": "0.3", "init.kind": "gaussian"},
            (), lambda out: _check_timeseries(out, 300),
        ),
        # The criterion-06 config: the only workload that drives analysis.
        Workload(
            "sweep_epsilon", "sweep-epsilon",
            {"kernel.family": "triangle", "kernel.radius": "1.0",
             "grid.n_local": "200", "grid.n_nonlocal": "200", "time.scheme": "implicit",
             "time.dt": "0.0005", "time.horizon": "0.5", "init.kind": "gaussian",
             "init.center": "-0.5", "init.width": "0.15"},
            ("--eps", ",".join(str(e) for e in SWEEP_EPS)), _check_sweep,
        ),
        # No time stepping: dense eigensolve plus the all-pairs
        # energy-control estimate, driven by the seed.
        Workload(
            "spectrum_fine", "spectrum",
            {"kernel.family": "triangle", "kernel.radius": "1.0", "kernel.epsilon": "1.0",
             "grid.n_local": "800", "grid.n_nonlocal": "800"},
            (), _check_spectrum,
        ),
    )
}


def config_text(workload: Workload, seed: int) -> str:
    keys = dict(workload.config, seed=str(seed))
    return "".join(f"{k} = {v}\n" for k, v in keys.items())
