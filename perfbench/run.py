#!/usr/bin/env python3
"""couplediff benchmark: the CLI timed end to end, and per layer when traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: closed loop, one client.  Every sample is one fresh ``python``
process that makes one CLI invocation; the next starts only after it exits.
BLAS runs on one thread (see PIN_REASON).  The program is imported from
``src/`` of this checkout and nothing is installed.

--trace 0 runs five set-up probes (after one discarded warm-up), then CLI
invocations until S seconds have passed, and reports the end-to-end metrics:
wall_s, cpu_s and peak_rss_mb as medians over the invocations, setup_s as the
median over the probes, and success_rate.  --trace 1 alternates untraced and
traced invocations for S seconds and reports the per-layer metrics of
layers.py, medians over the traced invocations, plus the tracing overhead.

Every invocation's outputs are checked (workloads.py).  A failed invocation
is recorded with its exit code and first stderr line and the run goes on.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it print
every metric with its unit, sample count and, for ratios, their base.  The
full record, machine included, goes to perfbench/out/<workload>-seed<N>-trace<T>/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import PER_LAYER, aggregate
from workloads import WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
PIN_REASON = (
    "one BLAS thread was measured faster than two at these sizes on 2 cores: "
    "main() of simulate_dense took 3.6 s with 1 thread and 5.0 s with 2, "
    "sweep_epsilon 2.4 s and 3.2 s"
)
SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0  # the whole run must end within 180 s


@dataclass
class Sample:
    kind: str  # "warmup", "probe", "cli" or "traced"
    exit_code: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    problems: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PIN)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(kind: str, argv: list, workdir: Path, deadline: float) -> Sample:
    """Run one process to completion; wall from spawn to reaping, CPU and
    peak RSS from its own rusage."""
    workdir.mkdir(parents=True, exist_ok=True)
    timeout = max(1.0, deadline - time.perf_counter())
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=workdir)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(
        kind,
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,
    )
    if sample.exit_code != 0:
        lines = (workdir / "stderr.txt").read_text(errors="replace").splitlines()
        first = next((ln for ln in lines if ln.strip()), "")
        reason = "killed at the run deadline" if wall >= timeout else "exited non-zero"
        sample.problems.append(f"{reason} (code {sample.exit_code}): {first}")
    return sample


def probe(kind: str, workdir: Path, cfg: Path, deadline: float) -> Sample:
    sample = run_child(
        kind, [sys.executable, str(HERE / "setup_probe.py"), str(cfg)], workdir, deadline
    )
    if sample.exit_code == 0:
        try:
            sample.data = json.loads((workdir / "stdout.txt").read_text().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            sample.problems.append(f"unreadable probe output: {exc}")
    if sample.ok:
        shutil.rmtree(workdir)
    return sample


def invoke(workload, cfg: Path, workdir: Path, deadline: float, run_id: str | None) -> Sample:
    """One CLI invocation, traced when run_id is given; outputs are checked."""
    cli = [workload.subcommand, "--config", str(cfg), "--out", str(workdir / "cli-out"),
           *workload.extra_args]
    if run_id is None:
        argv = [sys.executable, "-c",
                "import sys; from couplediff.cli import main; sys.exit(main(sys.argv[1:]))",
                *cli]
    else:
        argv = [sys.executable, str(HERE / "traced.py"), str(workdir / "spans.json"),
                run_id, "--", *cli]
    sample = run_child("cli" if run_id is None else "traced", argv, workdir, deadline)
    if sample.exit_code == 0:
        try:
            sample.problems.extend(workload.check(workdir / "cli-out"))
        except (OSError, KeyError, ValueError) as exc:
            sample.problems.append(f"output check failed: {type(exc).__name__}: {exc}")
    if run_id is not None and sample.ok:
        try:
            trace = json.loads((workdir / "spans.json").read_text())
        except (OSError, ValueError) as exc:
            sample.problems.append(f"unreadable spans: {exc}")
            return sample
        sample.data = {"missing": trace["missing"]}
        sample.data["metrics"], sample.data["bases"] = aggregate(trace["spans"])
    return sample


def finish_invocation(sample: Sample, workdir: Path, keep_spans: Path | None):
    """Keep a failed invocation's directory for inspection; drop the rest."""
    if keep_spans is not None and sample.ok:
        shutil.move(str(workdir / "spans.json"), keep_spans)
    if sample.ok:
        shutil.rmtree(workdir)


def machine(info: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": info.get("blas"),
        "numpy": info.get("numpy"),
        "scipy": info.get("scipy"),
        "python": info.get("python"),
        "thread_pin": THREAD_PIN,
        "thread_pin_reason": PIN_REASON,
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "couplediff" / "__init__.py").is_file():
        print(f"benchmark: no couplediff sources under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg = run_dir / "run.cfg"
    cfg.write_text(config_text(workload, args.seed), encoding="utf-8")

    # Warm-up probe: fills the page and bytecode caches, names the stack,
    # and proves the package is imported from this checkout.
    samples = [probe("warmup", run_dir / "probe0", cfg, deadline)]
    info = samples[0].data
    where = info.get("couplediff_file", "")
    if info and not Path(where).resolve().is_relative_to(SRC.resolve()):
        print(f"benchmark: couplediff imported from {where}, not from {SRC}", file=sys.stderr)
        return 2

    if args.trace == 0:
        for k in range(1, SETUP_PROBES + 1):
            samples.append(probe("probe", run_dir / f"probe{k}", cfg, deadline))
    t_measure = time.perf_counter()
    k = 0
    while k == 0 or (args.trace and k == 1) or time.perf_counter() - t_measure < args.seconds:
        traced = bool(args.trace) and k % 2 == 1
        workdir = run_dir / f"inv{k}"
        run_id = f"{tag}-inv{k}" if traced else None
        sample = invoke(workload, cfg, workdir, deadline, run_id)
        first_traced = traced and not any(s.kind == "traced" for s in samples)
        finish_invocation(sample, workdir, run_dir / "spans.json" if first_traced else None)
        samples.append(sample)
        k += 1
        if time.perf_counter() >= deadline:
            break

    ok = [s for s in samples if s.ok]
    failed = len(samples) - len(ok)
    cli = [s for s in ok if s.kind == "cli"]
    setups = [s.data["setup_s"] for s in ok if s.kind == "probe"]
    rows = []  # (name, value, unit, samples, note)
    if args.trace == 0:
        rows += [
            ("wall_s", median([s.wall_s for s in cli]), "s", len(cli), "median, CLI process"),
            ("cpu_s", median([s.cpu_s for s in cli]), "s", len(cli), "median, user + system"),
            ("setup_s", median(setups), "s", len(setups), "median, import + config + assemble"),
            ("peak_rss_mb", median([s.rss_mb for s in cli]), "MB", len(cli), "median"),
            ("success_rate", len(ok) / len(samples), "ratio", len(samples),
             f"{len(ok)} ok of {len(samples)} processes attempted (error rate "
             f"{failed / len(samples):g})"),
        ]
        complete = bool(cli) and bool(setups)
    else:
        traced = [s for s in ok if s.kind == "traced"]
        per_run = [s.data["metrics"] for s in traced]
        bases = traced[0].data["bases"] if traced else {}
        traced_wall = median([s.wall_s for s in traced])
        untraced_wall = median([s.wall_s for s in cli])
        for name, (unit, moves) in PER_LAYER.items():
            if name == "trace.wall_s":
                value, note = traced_wall, "median traced wall_s"
            elif name == "trace.overhead_s":
                value = traced_wall - untraced_wall
                note = f"{traced_wall:.4f} s traced - {untraced_wall:.4f} s untraced"
            else:
                value = median([m[name] for m in per_run])
                note = bases.get(name, "")
            note = f"{note}; moves {moves}" if note else f"moves {moves}"
            rows.append((name, value, unit, len(per_run), note))
        complete = bool(traced) and bool(cli)
        missing = traced[0].data["missing"] if traced else []
        if missing:
            print(f"# trace targets not found (counted as 0): {', '.join(missing)}")

    mach = machine(info)
    print(f"# couplediff benchmark: workload={workload.name} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print(f"# machine: nproc={mach['nproc']} cpu={mach['cpu_model']!r} blas={mach['blas']} "
          f"numpy={mach['numpy']} scipy={mach['scipy']} python={mach['python']}")
    print(f"# threads: {' '.join(f'{k}={v}' for k, v in THREAD_PIN.items())} ({PIN_REASON})")
    print(f"{'metric':<36} {'value':>14} {'unit':<6} {'n':>3}  note")
    for name, value, unit, n, note in rows:
        print(f"{name:<36} {value:>14.6g} {unit:<6} {n:>3}  {note}")
    failures = []
    for k, s in enumerate(samples):
        if not s.ok:
            failures.append({"kind": s.kind, "index": k, "exit_code": s.exit_code,
                             "problems": s.problems})
            print(f"# FAILED {s.kind} #{k}: exit {s.exit_code}: {'; '.join(s.problems)}")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": mach,
        "metrics": {name: {"value": v, "unit": u, "samples": n, "note": note}
                    for name, v, u, n, note in rows},
        "samples": [{"kind": s.kind, "exit_code": s.exit_code, "wall_s": s.wall_s,
                     "cpu_s": s.cpu_s, "rss_mb": s.rss_mb} for s in samples],
        "failures": failures,
        "elapsed_s": time.perf_counter() - start,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, v, u, _, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
