import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from couplediff import analysis, cli, verify
from couplediff.cli import main
from couplediff.config import (
    INIT_KINDS,
    ConfigError,
    SimConfig,
    config_to_text,
    initial_state,
    parse_config_text,
    validate,
)
from couplediff.discretization import GeneratorMatrix, build_grid
from couplediff.evolution import SCHEME_KINDS
from couplediff.kernels import FAMILIES
from couplediff.output import write_csv, write_float_csv

SMALL = """
kernel.family = triangle
grid.n_local = 50
grid.n_nonlocal = 50
time.scheme = implicit
time.dt = 1e-2
time.horizon = 1.0
init.kind = step
seed = 7
"""


def write_cfg(tmp_path, text, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(text + extra)
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_parse_defaults_and_roundtrip():
    cfg = parse_config_text("")
    assert cfg == SimConfig()
    again = parse_config_text(config_to_text(cfg))
    assert again == cfg


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# '#' starts a comment, and the parser splits lines and strips each value
_TEXT = st.text(st.sampled_from("ab/._=\u00e9 #\n\u2028"), max_size=5)


# no explain phase: it traces the 22 fields of a failing example for minutes
@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          phases=(Phase.generate, Phase.shrink))
@given(st.builds(
    SimConfig,
    kernel_family=st.sampled_from(FAMILIES),
    kernel_radius=st.floats(1e-3, 1e3),
    kernel_epsilon=st.floats(1e-4, 1e4),
    grid_n_local=st.integers(4, 4000),
    grid_n_nonlocal=st.integers(4, 4000),
    time_scheme=st.sampled_from(SCHEME_KINDS),
    time_dt=st.one_of(st.just("auto"), _POSITIVE),
    time_horizon=_POSITIVE,
    time_snapshot_stride=st.integers(0, 10**6),
    picard_window=st.one_of(st.just("auto"), _POSITIVE),
    picard_tol=_POSITIVE,
    picard_max_iters=st.integers(1, 1000),
    init_kind=st.sampled_from(INIT_KINDS),
    init_value=_FINITE,
    init_u_value=_FINITE,
    init_v_value=_FINITE,
    init_amplitude=_FINITE,
    init_center=_FINITE,
    init_width=_POSITIVE,
    init_path=_TEXT,
    output_dir=_TEXT,
    seed=st.integers(0, 2**63 - 1),
))
def test_manifest_reparses_as_its_config(cfg):
    """Every config of the annotated types that validate accepts is written
    by config_to_text as text that parse_config_text reads back as the same
    config.  Nothing is run or allocated: the grids drawn are at most
    4000 x 4000 cells, well inside the resource guard."""
    try:
        validate(cfg)
    except ConfigError:
        assume(False)
    assert parse_config_text(config_to_text(cfg)) == cfg


def test_readme_config_block_is_the_defaults():
    """README's "Config keys and defaults" block lists every key, in the
    manifest's order, and parses as SimConfig()."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config keys and defaults", 1)[1].split("```", 2)[1]
    assert parse_config_text(block) == SimConfig()
    keys = [line.split("=", 1)[0].strip() for line in block.strip().splitlines()]
    assert keys == [line.split(" = ", 1)[0]
                    for line in config_to_text(SimConfig()).splitlines()]


def test_readme_library_sketch_runs(capsys):
    """README's "Library sketch" runs as written, and its run conserves mass
    and decays at the rate of the spectral gap."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sketch = readme.split("## Library sketch", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md (Library sketch)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    m0, m1 = map(float, lines[1].split())
    assert abs(m1 - m0) <= 1e-12
    beta1, rate = map(float, lines[-1].split())
    assert 1.9 * beta1 <= rate <= 2.1 * beta1


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("kernel.width = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("kernel.family triangle\n")


def test_parse_validates_values():
    with pytest.raises(ConfigError, match="kernel.family"):
        parse_config_text("kernel.family = box\n")
    with pytest.raises(ConfigError, match="time.scheme"):
        parse_config_text("time.scheme = rk4\n")
    with pytest.raises(ConfigError, match="init.kind"):
        parse_config_text("init.kind = spline\n")


@pytest.mark.parametrize("key, cfg", [
    # string values that a manifest would cut at '#' or strip
    ("output.dir", SimConfig(output_dir="runs/#3")),
    ("init.path", SimConfig(init_path=" snap.csv")),
    ("init.path", SimConfig(init_path="snap.csv\n")),
    # a string other than 'auto' in a key that takes a number or 'auto'
    ("time.dt", SimConfig(time_dt="fast")),
    ("picard.window", SimConfig(picard_window="wide")),
], ids=["dir-hash", "path-leading-space", "path-line-break", "dt-word", "window-word"])
def test_validate_refuses_a_config_built_in_code(key, cfg):
    with pytest.raises(ConfigError, match=key):
        validate(cfg)


def test_simulate_artifacts_and_schemas(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    assert main(["simulate", "--config", cfg, "--svg"]) == 0
    plot = tmp_path / "out" / "dist_to_mean.svg"
    assert str(plot) in capsys.readouterr().out.splitlines()
    assert plot.read_text().startswith("<svg")
    header, rows = read_csv(tmp_path / "out" / "timeseries.csv")
    assert header == [
        "t", "mass", "energy_total", "energy_local", "energy_nonlocal",
        "energy_coupling", "dist_to_mean",
    ]
    assert len(rows) == 101
    m = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(m - 1.0)) <= 1e-11
    header, rows = read_csv(tmp_path / "out" / "snapshot_000000.csv")
    assert header == ["x", "w", "region"]
    g = build_grid(50, 50)
    assert len(rows) == g.size
    assert rows[g.interface_index][2] == "local"
    assert rows[g.interface_index + 1][2] == "nonlocal"
    # 17 significant digits round-trip
    assert float(rows[0][0]) == -1.0


def test_simulate_constant_init_flat_series(tmp_path):
    cfg = write_cfg(
        tmp_path, SMALL, f"init.kind = constant\noutput.dir = {tmp_path}/out\n"
    )
    assert main(["simulate", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "out" / "timeseries.csv")
    assert all(float(r[6]) <= 1e-12 for r in rows)


def test_manifest_roundtrip_bit_identical(tmp_path):
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/a\n")
    assert main(["simulate", "--config", cfg]) == 0
    manifest = tmp_path / "a" / "manifest.cfg"
    assert main(["simulate", "--config", str(manifest), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "timeseries.csv").read_bytes()
    b = (tmp_path / "b" / "timeseries.csv").read_bytes()
    assert a == b


def test_simulate_twice_byte_identical(tmp_path):
    """Two runs of one config write byte-identical series, decay fit and
    snapshots (the manifest differs only in output.dir)."""
    cfg = write_cfg(tmp_path, SMALL, "init.kind = gaussian\ntime.snapshot_stride = 25\n")
    for run in ("a", "b"):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / run)]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "decay.csv" in names and len([n for n in names if n.startswith("snapshot_")]) == 5
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        if name == "manifest.cfg":
            a, b = (b"".join(line for line in x.splitlines(keepends=True)
                             if not line.startswith(b"output.dir")) for x in (a, b))
        assert a == b, name


def test_simulate_short_horizon_skips_decay_fit(tmp_path, capsys):
    """Eleven samples are too few for a decay fit: the run still succeeds,
    writes no decay.csv and says why on stderr."""
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "short"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--set", "time.horizon=0.1"]) == 0
    assert (out / "timeseries.csv").exists()
    assert not (out / "decay.csv").exists()
    err = capsys.readouterr().err
    assert "decay.csv skipped: insufficient usable samples for a decay fit" in err


def test_picard_manifest_roundtrip(tmp_path):
    cfg = write_cfg(
        tmp_path, SMALL,
        "time.scheme = picard\ntime.dt = auto\ntime.horizon = 0.2\n"
        f"output.dir = {tmp_path}/a\n",
    )
    assert main(["simulate", "--config", cfg]) == 0
    manifest = tmp_path / "a" / "manifest.cfg"
    text = manifest.read_text()
    assert "picard.window = 0.8" not in text  # resolved to a number, not auto
    assert main(["simulate", "--config", str(manifest), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "timeseries.csv").read_bytes() == (
        tmp_path / "b" / "timeseries.csv"
    ).read_bytes()


@pytest.mark.parametrize("horizon", ["0.5", "1", "5"])
def test_picard_auto_dt_at_any_horizon(tmp_path, horizon):
    """At kernel.radius = 1.14 the auto window / 32 divides none of these
    horizons; with time.dt and picard.window auto the run shortens its
    sub-step to divide the horizon instead of refusing it, and a rerun from
    the manifest retraces the series byte for byte."""
    cfg = write_cfg(
        tmp_path, SMALL,
        f"time.scheme = picard\ntime.dt = auto\nkernel.radius = 1.14\ntime.horizon = {horizon}\n"
        f"output.dir = {tmp_path}/a\n",
    )
    assert main(["simulate", "--config", cfg]) == 0
    manifest = tmp_path / "a" / "manifest.cfg"
    assert main(["simulate", "--config", str(manifest), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "timeseries.csv").read_bytes() == (
        tmp_path / "b" / "timeseries.csv"
    ).read_bytes()


def test_picard_simulate_honours_snapshot_stride(tmp_path):
    cfg = write_cfg(tmp_path, SMALL, "time.horizon = 0.064\ntime.snapshot_stride = 8\n")
    for scheme, dt in (("picard", "auto"), ("implicit", "0.001")):
        out = tmp_path / scheme
        args = ["--set", f"time.scheme={scheme}", "--set", f"time.dt={dt}", "--out", str(out)]
        assert main(["simulate", "--config", cfg, *args]) == 0
        assert len(list(out.glob("snapshot_*.csv"))) == 9, scheme


def test_restart_from_snapshot(tmp_path):
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/a\n")
    assert main(["simulate", "--config", cfg]) == 0
    final = sorted((tmp_path / "a").glob("snapshot_*.csv"))[-1]
    assert main([
        "simulate", "--config", cfg,
        "--set", "init.kind=file", "--set", f"init.path={final}",
        "--out", str(tmp_path / "b"),
    ]) == 0
    _, rows_a = read_csv(tmp_path / "a" / "timeseries.csv")
    _, rows_b = read_csv(tmp_path / "b" / "timeseries.csv")
    # restarted run continues the decay from where the first one stopped
    assert float(rows_b[0][6]) == pytest.approx(float(rows_a[-1][6]), rel=1e-12)
    assert float(rows_b[-1][6]) < float(rows_b[0][6])


def test_explicit_auto_dt_records_cfl(tmp_path):
    cfg = write_cfg(
        tmp_path, SMALL,
        f"time.scheme = explicit\ntime.dt = auto\ntime.horizon = 0.01\n"
        f"output.dir = {tmp_path}/out\n",
    )
    assert main(["simulate", "--config", cfg]) == 0
    manifest = (tmp_path / "out" / "manifest.cfg").read_text()
    dt_line = next(l for l in manifest.splitlines() if l.startswith("time.dt"))
    dt = float(dt_line.split("=")[1])
    # resolved to the CFL limit, then nudged to divide the horizon exactly
    from couplediff import assemble_generator, cfl_limit, coupling_constants, make_kernel

    kernel = make_kernel("triangle", 1.0, 1.0)
    gen = assemble_generator(build_grid(50, 50), kernel, coupling_constants(kernel))
    assert dt <= cfl_limit(gen) * (1 + 1e-12)
    assert dt >= 0.9 * cfl_limit(gen)


def test_explicit_dt_above_cfl_is_config_error(tmp_path):
    cfg = write_cfg(
        tmp_path, SMALL,
        f"time.scheme = explicit\ntime.dt = 0.1\noutput.dir = {tmp_path}/out\n",
    )
    assert main(["simulate", "--config", cfg]) == 2


def test_unknown_key_and_bad_value_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    assert main(["simulate", "--config", cfg, "--set", "nope=1"]) == 2
    assert main(["simulate", "--config", cfg, "--set", "nodelimiter"]) == 2
    assert main(["simulate", "--config", cfg, "--set", "time.dt=fast"]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2


def _init_csv(tmp_path, header="x,w,region", w="0.5", shift=0.0, row3=None):
    """Overrides that start from a 50 x 50 snapshot CSV with this header,
    every w equal to w, every x shifted by shift and, if given, row3 in place
    of the fourth row."""
    grid = build_grid(50, 50)
    rows = [f"{float(x + shift)!r},{w},local" for x in grid.positions]
    if row3 is not None:
        rows[3] = row3
    path = tmp_path / "init.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return ["init.kind=file", f"init.path={path}"]


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("kernel.radius", lambda p: ["kernel.radius=inf"]),
        ("time.horizon", lambda p: ["time.horizon=inf"]),
        ("time.dt", lambda p: ["time.dt=inf"]),
        ("init.value", lambda p: ["init.kind=constant", "init.value=nan"]),
        ("init.path", lambda p: _init_csv(p, row3="0.1x,0.5,local")),
        ("init.path", lambda p: _init_csv(p, w="abc")),
        ("picard.window", lambda p: ["time.scheme=picard", "picard.window=0.5"]),
        ("time.dt", lambda p: ["time.scheme=picard", "time.dt=0.003"]),  # window 0.032
        ("time.horizon",  # a given window's sub-step, window / 32, must divide the horizon
         lambda p: ["time.scheme=picard", "picard.window=0.03", "time.dt=auto",
                    "time.horizon=0.2005"]),
        ("seed", lambda p: ["seed=-1"]),
        ("kernel.radius", lambda p: ["kernel.radius=1e-300"]),  # its square underflows
        ("kernel.radius", lambda p: ["kernel.radius=1e200"]),  # its square overflows
        ("kernel.radius", lambda p: ["kernel.radius=1e-3"]),  # h = 0.02 > R eps / 4
        ("kernel.radius", lambda p: ["kernel.radius=0"]),
        ("kernel.epsilon", lambda p: ["kernel.epsilon=-1"]),
        ("grid.n_local", lambda p: ["grid.n_local=3"]),
        ("time.dt", lambda p: ["time.dt=-1"]),
        ("time.horizon", lambda p: ["time.horizon=0"]),
        ("time.snapshot_stride", lambda p: ["time.snapshot_stride=-1"]),
        ("picard.window", lambda p: ["picard.window=0"]),
        ("picard.tol", lambda p: ["picard.tol=0"]),
        ("picard.max_iters", lambda p: ["picard.max_iters=0"]),
        ("init.width", lambda p: ["init.kind=gaussian", "init.width=0"]),
        ("init.path", lambda p: ["init.kind=file"]),
        ("init.path", lambda p: ["init.kind=file", f"init.path={p / 'absent.csv'}"]),
        ("init.path", lambda p: _init_csv(p, header="t,w,region")),
        ("init.path", lambda p: _init_csv(p, w="inf")),
        ("init.path", lambda p: _init_csv(p, shift=0.01)),
        ("time.dt", lambda p: ["time.scheme=explicit", "time.dt=0.1"]),  # above the CFL limit
        ("output.dir", lambda p: [f"output.dir={p}/runs/#3"]),
        ("output.dir", lambda p: [f"output.dir={p}/out\nb"]),
        ("output.dir", lambda p: [f"--out={p}/runs/#3"]),
        ("output.dir", lambda p: [f"--out={p}/out "]),
    ],
    ids=["radius-inf", "horizon-inf", "dt-inf", "value-nan", "csv-bad-x", "csv-bad-w",
         "picard-window", "picard-dt", "picard-horizon", "seed-negative",
         "radius-tiny", "radius-huge", "radius-under-resolved",
         "radius-zero", "epsilon-negative", "n-local-3", "dt-negative", "horizon-zero",
         "stride-negative", "picard-window-zero", "picard-tol-zero", "picard-iters-zero",
         "width-zero", "csv-no-path", "csv-missing", "csv-no-header", "csv-inf-w",
         "csv-shifted", "explicit-dt-above-cfl", "dir-hash", "dir-line-break", "out-hash",
         "out-trailing-space"],
)
def test_bad_input_exits_2_naming_key(tmp_path, capsys, key, overrides):
    """Each input exits 2 naming its key; an item --out=... is passed as it
    is, any other one after --set."""
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    args = ["simulate", "--config", cfg]
    for item in overrides(tmp_path):
        args += [item] if item.startswith("--out=") else ["--set", item]
    assert main(args) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "broken, repair",
    [("init.kind = file\n", lambda p: _init_csv(p)[1:]),  # init.path only
     ("grid.n_local = 3\n", lambda p: ["grid.n_local=50"])],
    ids=["supply-init-path", "correct-n-local"],
)
def test_set_completes_the_config_file_before_validation(tmp_path, broken, repair):
    """--set overrides are applied before the config is validated, so they
    can supply a key the file needs (init.path) or correct one it gets wrong."""
    cfg = write_cfg(tmp_path, SMALL, broken + f"output.dir = {tmp_path}/out\n")
    args = ["simulate", "--config", cfg]
    for item in repair(tmp_path):
        args += ["--set", item]
    assert main(args) == 0
    assert (tmp_path / "out" / "timeseries.csv").exists()


@pytest.mark.parametrize("dt", ["1e-300", "1e-12", "1e-320"])
def test_step_count_beyond_memory_exits_2_before_assembly(tmp_path, capsys, monkeypatch, dt):
    """A time.dt whose (n_steps + 1) x 7 table of diagnostics exceeds
    physical memory is refused, naming the key, before any assembly, by the
    implicit and the picard scheme; so is one whose step count horizon / dt
    overflows a float (1e-320)."""

    def unreachable(*args):
        raise AssertionError("a refused run assembled its generator")

    monkeypatch.setattr(cli, "assemble_generator", unreachable)
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    for scheme in ("implicit", "picard"):
        args = ["--set", f"time.dt={dt}", "--set", f"time.scheme={scheme}"]
        assert main(["simulate", "--config", cfg, *args]) == 2, scheme
        err = capsys.readouterr().err
        assert "time.dt" in err and "time.horizon" in err, scheme
        assert not (tmp_path / "out" / "timeseries.csv").exists()


@pytest.mark.parametrize(
    "scheme, horizon, assembles",
    [("picard", "1e9", False), ("explicit", "1e7", True)],
)
def test_auto_dt_step_count_beyond_memory_exits_2(tmp_path, capsys, monkeypatch,
                                                   scheme, horizon, assembles):
    """With time.dt = auto the step size is known from the picard window before
    assembly and from the CFL limit after it; a horizon that takes more steps
    than physical memory holds rows of diagnostics (5.6e10 explicit steps,
    1e12 picard sub-steps on 50 x 50) is refused, naming both keys, before
    evolve allocates its table."""

    def unreachable(*args):
        raise AssertionError("a refused run went on")

    if not assembles:
        monkeypatch.setattr(cli, "assemble_generator", unreachable)
    monkeypatch.setattr(cli, "evolve", unreachable)
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    args = ["simulate", "--config", cfg, "--set", f"time.scheme={scheme}",
            "--set", "time.dt=auto", "--set", f"time.horizon={horizon}"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "time.horizon" in err and "time.dt" in err


def test_explicit_dt_beyond_memory_exits_2_before_evolve(tmp_path, capsys, monkeypatch):
    """A given explicit time.dt is planned after assembly, against the CFL
    limit; one whose table of diagnostics exceeds physical memory (5e10
    steps) is refused there, naming both keys, before evolve."""

    def unreachable(*args):
        raise AssertionError("a refused run went on")

    monkeypatch.setattr(cli, "evolve", unreachable)
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    args = ["--set", "time.scheme=explicit", "--set", "time.dt=1e-12",
            "--set", "time.horizon=0.05"]
    assert main(["simulate", "--config", cfg, *args]) == 2
    err = capsys.readouterr().err
    assert "time.horizon" in err and "time.dt" in err


def test_snapshots_beyond_memory_exit_2_before_assembly(tmp_path, capsys, monkeypatch):
    """The memory guard counts the snapshotted states as well as the table of
    diagnostics: with 1 MiB of physical memory, 2,000 steps at stride 1 keep
    2,001 states of 101 values (1.6 MB) and exit 2 before assembly, naming
    time.snapshot_stride; the same run at stride 0 keeps two and exits 0."""
    sysconf = cli.os.sysconf
    fake = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
    monkeypatch.setattr(cli.os, "sysconf", lambda name: fake.get(name) or sysconf(name))
    assemble = cli.assemble_generator

    def unreachable(*args):
        raise AssertionError("a refused run assembled its generator")

    monkeypatch.setattr(cli, "assemble_generator", unreachable)
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\ntime.dt = 5e-4\n")
    assert main(["simulate", "--config", cfg, "--set", "time.snapshot_stride=1"]) == 2
    assert "time.snapshot_stride" in capsys.readouterr().err
    monkeypatch.setattr(cli, "assemble_generator", assemble)
    assert main(["simulate", "--config", cfg, "--set", "time.snapshot_stride=0"]) == 0


def _fake_memory(monkeypatch, gib):
    sysconf = cli.os.sysconf
    fake = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": gib * 2**18}
    monkeypatch.setattr(cli.os, "sysconf", lambda name: fake.get(name) or sysconf(name))


def _no_grids(monkeypatch):
    """Fail the test when a grid is built or a generator assembled: a
    refusal must come from the config alone."""

    def unreachable(*args):
        raise AssertionError("a refused run allocated its grid")

    for module in (cli, analysis):
        monkeypatch.setattr(module, "assemble_generator", unreachable)
    monkeypatch.setattr(cli, "assemble_heat_generator", unreachable)
    monkeypatch.setattr("couplediff.config.build_grid", unreachable)
    monkeypatch.setattr(analysis, "build_grid", unreachable)


@pytest.mark.parametrize("args", [
    ["simulate"],
    ["simulate", "--set", "time.scheme=explicit", "--set", "time.dt=auto"],
    ["simulate", "--set", "time.scheme=picard", "--set", "time.dt=auto"],
    ["spectrum"],
], ids=["implicit", "explicit", "picard", "spectrum"])
def test_band_beyond_memory_exit_2_before_assembly(tmp_path, capsys, monkeypatch, args):
    """The memory guard counts the generator's band from the config alone:
    grid.n_local = 3,000,000 with 200 cells at eps = 1 has a band of
    201 x 3,000,201 float64 (4.8 GB), which 4 GiB of physical memory cannot
    hold, so every scheme and spectrum exit 2 naming the grid keys before
    a grid is built; the 50 x 50 run fits and runs."""
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    _fake_memory(monkeypatch, 4)
    _no_grids(monkeypatch)
    big = ["--set", "grid.n_local=3000000", "--set", "grid.n_nonlocal=200"]
    assert main([args[0], "--config", cfg, *args[1:], *big]) == 2
    assert "grid.n_local / grid.n_nonlocal: " in capsys.readouterr().err
    monkeypatch.undo()
    _fake_memory(monkeypatch, 4)
    assert main([args[0], "--config", cfg, *args[1:], "--set", "time.horizon=0.05"]) == 0


PEAK_RUN = """
import sys
from couplediff import cli
counts = []
check = cli._check_memory
cli._check_memory = lambda *args: counts.append(check(*args))
assert cli.main(sys.argv[1:]) == 0
print(max(counts))
"""


def _peak_rss(code: str, *args: str) -> tuple:
    """(peak RSS in bytes, stdout) of one fresh interpreter running code,
    the RSS from os.wait4 as perfbench reads it, on one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    assert proc.returncode == 0
    return usage.ru_maxrss * 1024, out.decode()


def test_simulate_peak_memory_is_what_the_guard_counts(tmp_path):
    """A 1,000 x 1,000, eps = 1 simulate of 5 steps peaks at most 1.3 times
    the largest count of cli._check_memory above an import-only process:
    the guard's count is what a run holds.  Measured 1.12 (36 MB above the
    import against a 32 MB count); 2.0 while the split, energy_form and the
    edge list indexed every band entry."""
    cfg = write_cfg(tmp_path, SMALL, "grid.n_local = 1000\ngrid.n_nonlocal = 1000\n"
                    "time.dt = 1e-3\ntime.horizon = 5e-3\n")
    base, _ = _peak_rss("import couplediff.cli")
    peak, out = _peak_rss(PEAK_RUN, "simulate", "--config", cfg, "--out", str(tmp_path / "o"))
    count = int(out.splitlines()[-1])
    assert count > 30e6
    assert peak - base <= 1.3 * count


@pytest.mark.parametrize("command", ["simulate", "spectrum"])
def test_factor_and_dense_copy_beyond_memory_exit_2(tmp_path, capsys, monkeypatch, command):
    """The guard counts the split's factor and dense copy with the band: at
    eps = 1 on 50 x 20,000 cells the band (20,001 x 20,051 float64, 3.0 GiB)
    fits in 4 GiB, but the block's factor and its dense copy (20,001^2
    float64 each) do not, so both commands exit 2 naming the grid keys
    before a generator is assembled."""
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    big = SimConfig(grid_n_local=50, grid_n_nonlocal=20_000)
    _fake_memory(monkeypatch, 4)
    assert cli._band_bytes(big) < 4 * 2**30
    _no_grids(monkeypatch)
    assert main([command, "--config", cfg, "--set", "grid.n_nonlocal=20000"]) == 2
    assert "grid.n_local / grid.n_nonlocal: " in capsys.readouterr().err


def test_pure_heat_spectrum_beyond_memory_exit_2(tmp_path, capsys, monkeypatch):
    """spectrum --pure-heat counts its two-row band and its chain factor:
    on 50,000,000 + 50 intervals the band (0.75 GiB) fits in 2 GiB but band
    and factor (2.6 GiB) do not, so it exits 2 naming the grid keys before
    the heat generator is assembled; a 50 x 50 run fits and runs."""
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    _fake_memory(monkeypatch, 2)
    _no_grids(monkeypatch)
    big = ["--set", "grid.n_local=50000000"]
    assert main(["spectrum", "--config", cfg, "--pure-heat", *big]) == 2
    assert "grid.n_local / grid.n_nonlocal: " in capsys.readouterr().err
    monkeypatch.undo()
    _fake_memory(monkeypatch, 2)
    assert main(["spectrum", "--config", cfg, "--pure-heat"]) == 0


@pytest.mark.parametrize("eps, named", [
    ("0.4,1e-9", "sweep epsilon list: epsilon = 1e-09 on n_nonlocal = 4000000000: "),
    ("0.4,1e-320", "sweep epsilon list: "),
], ids=["band", "overflow"])
def test_sweep_beyond_memory_refused_before_any_member(tmp_path, capsys, monkeypatch,
                                                       eps, named):
    """Each sweep member refines n_nonlocal to max(base, ceil(4 / (eps R))):
    at eps = 1e-9 that is 4e9 cells, whose band no 8 GiB machine holds, and
    at 1e-320 the count overflows.  Both exit 2 naming the epsilon list
    before the first member (eps = 0.4) is built."""
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    _fake_memory(monkeypatch, 8)
    _no_grids(monkeypatch)
    assert main(["sweep-epsilon", "--config", cfg, "--eps", eps]) == 2
    assert named in capsys.readouterr().err


def test_band_bound_holds_on_assembled_generators():
    """The guard's band bound, (b + 1) n float64 with
    b <= min(n_nonlocal, ceil(R eps n_nonlocal) + 1), is never below the
    assembled band, and is reached where the kernel spans the nonlocal
    region (b = n_nonlocal)."""
    reached = 0
    for family in ("uniform", "triangle", "epanechnikov"):
        for radius in (0.5, 1.0, 2.0):
            for eps in (1.0, 0.25, 0.05):
                for n_local, n_nonlocal in ((50, 50), (40, 200)):
                    cfg = SimConfig(kernel_family=family, kernel_radius=radius,
                                    kernel_epsilon=eps, grid_n_local=n_local,
                                    grid_n_nonlocal=n_nonlocal)
                    try:
                        band = cli._setup(cfg).band
                    except ConfigError:  # under-resolved kernel
                        continue
                    assert band.nbytes <= cli._band_bytes(cfg), cfg
                    reached += band.nbytes == cli._band_bytes(cfg)
    assert reached > 0


def test_runtime_failure_exits_3(tmp_path):
    cfg = write_cfg(
        tmp_path, SMALL,
        "time.scheme = picard\npicard.max_iters = 1\npicard.tol = 1e-15\n"
        f"time.horizon = 0.05\ntime.dt = auto\noutput.dir = {tmp_path}/out\n",
    )
    assert main(["simulate", "--config", cfg]) == 3


def test_failing_eigensolve_exits_3_before_any_artifact(tmp_path, monkeypatch):
    """simulate runs the eigensolve before evolve and before any write: when
    it fails, the run exits 3 and leaves no timeseries.csv and no manifest."""
    def failing(generator):
        raise RuntimeError("inverse iteration did not converge")

    monkeypatch.setattr(cli, "estimate_beta1", failing)
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    assert main(["simulate", "--config", cfg]) == 3
    assert not (tmp_path / "out" / "timeseries.csv").exists()
    assert not (tmp_path / "out" / "manifest.cfg").exists()


def test_spectrum_rows_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/s1\n")
    assert main(["spectrum", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "s1" / "spectrum.csv")
    assert header == [
        "n_local", "n_nonlocal", "epsilon", "beta1", "lambda2", "residual", "k_estimate",
    ]
    beta1, k_est = float(rows[0][3]), float(rows[0][6])
    assert beta1 > 0.0
    assert k_est > 0.0
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "s2")]) == 0
    assert (tmp_path / "s1" / "spectrum.csv").read_bytes() == (
        tmp_path / "s2" / "spectrum.csv"
    ).read_bytes()


def test_spectrum_eps_one_fine_grid(tmp_path):
    """The triangle at eps = 1 on 1200 x 1200, where the eigensolver's Ritz
    residual stalls at its roundoff floor: the run exits 0."""
    cfg = write_cfg(
        tmp_path,
        "kernel.family = triangle\nkernel.epsilon = 1.0\n"
        "grid.n_local = 1200\ngrid.n_nonlocal = 1200\n",
        f"output.dir = {tmp_path}/out\n",
    )
    assert main(["spectrum", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "out" / "spectrum.csv")
    assert float(rows[0][5]) <= 1e-8 * float(rows[0][4])


@pytest.mark.parametrize("command", ["simulate", "spectrum"])
@pytest.mark.parametrize("radius", ["3", "10"])
def test_wide_kernel_runs_exit_0(tmp_path, command, radius):
    """A kernel of radius 3 or 10 clusters the low spectrum, where the
    eigensolver once stalled and both runs exited 3; now each exits 0
    (simulate's eigensolve runs before its stepping and writes)."""
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    assert main([command, "--config", cfg, "--set", f"kernel.radius={radius}"]) == 0
    if command == "spectrum":
        _, rows = read_csv(tmp_path / "out" / "spectrum.csv")
        assert float(rows[0][5]) <= 1e-8 * float(rows[0][4])
    else:
        assert (tmp_path / "out" / "timeseries.csv").exists()


def test_spectrum_pure_heat_flag(tmp_path):
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    assert main(["spectrum", "--config", cfg, "--pure-heat"]) == 0
    _, rows = read_csv(tmp_path / "out" / "spectrum.csv")
    beta1 = float(rows[0][3])
    assert beta1 == pytest.approx(np.pi**2 / 8, rel=0.02)


def test_sweep_artifacts(tmp_path):
    cfg = write_cfg(
        tmp_path, SMALL,
        f"init.kind = gaussian\ntime.dt = 2e-3\ntime.horizon = 0.3\n"
        f"output.dir = {tmp_path}/out\n",
    )
    assert main(["sweep-epsilon", "--config", cfg, "--eps", "0.4,0.2,0.1", "--svg"]) == 0
    header, rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert header == ["epsilon", "n_nonlocal", "dt", "sup_error_l2", "beta1_eps",
                      "interface_jump"]
    errs = [float(r[3]) for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert (tmp_path / "out" / "sweep.svg").exists()
    assert main(["sweep-epsilon", "--config", cfg, "--eps", "0.1,0.4"]) == 2


@pytest.mark.parametrize("args, named", [
    (["--set", "time.dt=1e-320"], "time.horizon / time.dt: "),
    (["--eps", "0.4,nan"], "sweep epsilon list: eps_list must contain positive, finite values"),
    (["--eps", "inf,0.4"], "sweep epsilon list: eps_list must contain positive, finite values"),
], ids=["dt-overflow", "eps-nan", "eps-inf"])
def test_sweep_refuses_before_any_member(tmp_path, capsys, monkeypatch, args, named):
    """sweep-epsilon plans its implicit step and checks its epsilon list before
    any member is assembled: a time.dt whose step count overflows a float
    exits 2 naming time.horizon / time.dt, and a NaN or infinite epsilon
    exits 2 as not positive and finite."""

    def unreachable(*args):
        raise AssertionError("a refused sweep assembled a member")

    monkeypatch.setattr(analysis, "assemble_generator", unreachable)
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    assert main(["sweep-epsilon", "--config", cfg, *args]) == 2
    assert named in capsys.readouterr().err


def test_sweep_constant_init_near_zero_error(tmp_path):
    cfg = write_cfg(
        tmp_path, SMALL,
        f"init.kind = constant\ntime.dt = 5e-3\ntime.horizon = 0.2\n"
        f"output.dir = {tmp_path}/out\n",
    )
    assert main(["sweep-epsilon", "--config", cfg, "--eps", "0.4,0.1"]) == 0
    _, rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert all(float(r[3]) <= 1e-10 for r in rows)


def test_cli_runs_never_build_the_dense_generator(tmp_path, monkeypatch):
    """simulate, spectrum and sweep-epsilon read only the band, and so does
    verify's structure check: with GeneratorMatrix.dense raising, the runs
    still succeed and the structure check passes."""
    def refuse(self):
        raise AssertionError("GeneratorMatrix.dense called")

    monkeypatch.setattr(GeneratorMatrix, "dense", refuse)
    cfg = write_cfg(tmp_path, SMALL, "init.kind = gaussian\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
    assert (tmp_path / "sim" / "decay.csv").exists()
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "spec")]) == 0
    assert main(["spectrum", "--config", cfg, "--pure-heat", "--out",
                 str(tmp_path / "heat")]) == 0
    assert main(["sweep-epsilon", "--config", cfg, "--eps", "0.4,0.1", "--out",
                 str(tmp_path / "sweep")]) == 0
    ok, _ = verify.check_operator_structure(SimConfig())
    assert ok


def test_init_file_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    assert main(["simulate", "--config", cfg]) == 0
    snap = tmp_path / "out" / "snapshot_000001.csv"
    cfg2 = SimConfig(init_kind="file", init_path=str(snap), grid_n_local=50,
                     grid_n_nonlocal=50)
    grid = build_grid(50, 50)
    w = initial_state(cfg2, grid)
    assert w.shape == (grid.size,)
    bad = SimConfig(init_kind="file", init_path=str(snap), grid_n_local=40,
                    grid_n_nonlocal=50)
    with pytest.raises(ConfigError):
        initial_state(bad, build_grid(40, 50))


@pytest.mark.parametrize("stride", [500, 0, 250])
def test_restart_from_a_snapshot_reproduces_the_run(tmp_path, stride):
    """The semigroup property S(t + s) = S(s) S(t), bit for bit: a run
    restarted from its mid-run snapshot (init.kind = file) retraces the
    first run's last 500 steps, whatever the restarted run's snapshot
    stride.  Every column but t of timeseries.csv and the final snapshot
    are byte-identical."""
    cfg = write_cfg(tmp_path, SMALL)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["simulate", "--config", cfg, "--out", str(first), "--set", "time.dt=1e-3",
                 "--set", "time.snapshot_stride=500"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(second), "--set", "time.dt=1e-3",
                 "--set", f"time.snapshot_stride={stride}", "--set", "init.kind=file",
                 "--set", f"init.path={first / 'snapshot_000001.csv'}",
                 "--set", "time.horizon=0.5"]) == 0

    def without_t(path):
        return [line.split(",", 1)[1] for line in path.read_text().splitlines()]

    series = without_t(first / "timeseries.csv")
    assert len(series) == 1 + 1001
    assert series[1 + 500:] == without_t(second / "timeseries.csv")[1:]
    final = (first / "snapshot_000002.csv").read_bytes()
    assert final == sorted(second.glob("snapshot_*.csv"))[-1].read_bytes()


def test_initial_profiles():
    grid = build_grid(50, 50)
    cosine = initial_state(SimConfig(init_kind="cosine", init_amplitude=2.0), grid)
    expected = 2.0 * np.cos(np.pi * (grid.positions + 1) / 2)
    np.testing.assert_allclose(cosine, expected)
    step = initial_state(SimConfig(init_kind="step", init_u_value=3.0), grid)
    assert step[grid.interface_index] == 3.0
    assert step[-1] == 0.0
    const = initial_state(SimConfig(init_kind="constant", init_value=-2.0), grid)
    assert np.all(const == -2.0)
    bump = initial_state(SimConfig(init_amplitude=0.5), grid)  # the default gaussian
    assert np.array_equal(bump, 0.5 * np.exp(-((grid.positions + 0.5) ** 2) / 0.045))
    with pytest.raises(ConfigError, match="init.kind"):
        initial_state(SimConfig(init_kind="spline"), grid)


def _zero_coupling_edge(gen):  # A[I, I + 1], the coupling edge to the first cell
    gen.band[gen.half_bandwidth - 1, gen.grid.interface_index + 1] = 0.0


def _flip_coupling_edge(gen):  # A[I, I + 1] > 0; both rows still sum to zero
    b, i = gen.half_bandwidth, gen.grid.interface_index
    c = -gen.band[b - 1, i + 1]
    gen.band[b - 1, i + 1] = c
    gen.band[b, i : i + 2] -= 2.0 * c


def _scale_diagonal(gen):
    gen.band[-1, 10] *= 1.0 + 1e-9


def _negate_diagonal(gen):
    gen.band[-1, 10] *= -1.0


def _nan_coupling_edge(gen):
    gen.band[gen.half_bandwidth - 1, gen.grid.interface_index + 1] = np.nan


def _isolate_node(gen):  # node 10's two local edges and its diagonal
    b = gen.half_bandwidth
    gen.band[b - 1, 10] = gen.band[b - 1, 11] = gen.band[b, 10] = 0.0


@pytest.mark.parametrize("corrupt", (
    _zero_coupling_edge, _flip_coupling_edge, _scale_diagonal, _negate_diagonal,
    _nan_coupling_edge, _isolate_node,
), ids=lambda corrupt: corrupt.__name__.strip("_"))
def test_verify_detects_corruption(monkeypatch, corrupt):
    """Each corruption of the band fails the structure check: a NaN entry and
    an isolated node (whose own row reads 0 / 0) included."""
    assemble = verify.assemble_generator

    def corrupted(*args):
        gen = assemble(*args)
        corrupt(gen)
        return gen

    cfg = SimConfig(grid_n_local=50, grid_n_nonlocal=50)
    with monkeypatch.context() as patch:
        patch.setattr(verify, "assemble_generator", corrupted)
        ok, _ = verify.check_operator_structure(cfg)
        assert not ok
        if corrupt is _zero_coupling_edge:
            ok, _ = verify.check_mass_conservation(cfg)
            assert not ok
    if corrupt is _zero_coupling_edge:
        ok, _ = verify.check_mass_conservation(cfg)
        assert ok


def test_verify_failure_exits_1(tmp_path, capsys, monkeypatch):
    """A failed check and a crashed one each make verify exit 1: with the
    coupling edge zeroed the structure check fails, and a measuring function
    that raises fails its check with the exception named."""
    cfg = write_cfg(tmp_path, SMALL)
    assemble = verify.assemble_generator

    def corrupted(*args):
        gen = assemble(*args)
        _zero_coupling_edge(gen)
        return gen

    def crashing(*args):
        raise RuntimeError("measurement crashed")

    with monkeypatch.context() as patch:
        patch.setattr(verify, "assemble_generator", corrupted)
        assert main(["verify", "--config", cfg]) == 1
    assert capsys.readouterr().out.startswith("FAIL  operator-structure ")
    with monkeypatch.context() as patch:
        patch.setattr(verify, "picard_gap", crashing)
        assert main(["verify", "--config", cfg]) == 1
    line = next(line for line in capsys.readouterr().out.splitlines()
                if "picard-vs-implicit" in line)
    assert line.startswith("FAIL") and "raised RuntimeError: measurement crashed" in line


def test_verify_clean_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert "FAIL" not in out


def test_verify_passes_at_narrow_kernel(tmp_path, capsys):
    """At eps = 0.1 the fixed check grids under-resolve the kernel; each
    check refines its nonlocal side (resolved_n_nonlocal) and all seven pass."""
    cfg = write_cfg(tmp_path, SMALL)
    assert main(["verify", "--config", cfg, "--set", "kernel.epsilon=0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7 and all(line.startswith("PASS  ") for line in lines)


def test_verify_oracle_beyond_memory_exit_2(tmp_path, capsys, monkeypatch):
    """verify's largest check grid has 100 local cells and
    max(100, ceil(4 / (eps R))) nonlocal ones, and its eigensolve and
    semigroup hold a Krylov basis counted as 2 EIGEN_MAX_ITERATIONS = 800
    states (it grows by doubling: 400 + 256 at the cap).  At eps = 1e-6 that is 4,000,101
    nodes and 25.6 GB of basis, which 8 GiB cannot hold, so verify exits 2
    naming the kernel keys before any check runs; at eps = 1e-3 (4,101
    nodes, 26 MB) and eps = 1e-4 (40,101 nodes, 0.26 GB) it goes on to the
    checks."""
    cfg = write_cfg(tmp_path, SMALL)
    reached = []
    monkeypatch.setattr(verify, "run_all", lambda cfg: reached.append(cfg.kernel_epsilon) or 0)
    _fake_memory(monkeypatch, 8)
    assert main(["verify", "--config", cfg, "--set", "kernel.epsilon=1e-6"]) == 2
    assert "kernel.epsilon / kernel.radius: " in capsys.readouterr().err
    assert reached == []
    for eps in (1e-3, 1e-4):
        assert main(["verify", "--config", cfg, "--set", f"kernel.epsilon={eps}"]) == 0
    assert reached == [1e-3, 1e-4]


@pytest.mark.parametrize("n_rows", (6, 1100))
def test_float_csv_matches_write_csv(tmp_path, n_rows):
    """The streamed float writer gives write_csv's text byte for byte: for
    nan, the infinities, -0.0, the smallest subnormal, 1/3 and 1e22, and for
    a row count that crosses the chunk boundaries (CSV_CHUNK_ROWS = 512)."""
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0 / 3.0, 1e22]
    rng = np.random.default_rng(35)
    table = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
    table.flat[: len(special)] = special
    header = ("a", "b", "c")
    write_csv(tmp_path / "ref.csv", header, ([float(v) for v in row] for row in table))
    write_float_csv(tmp_path / "out.csv", header, table)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert len((tmp_path / "out.csv").read_text().splitlines()) == n_rows + 1
