import numpy as np
import pytest

from couplediff import verify
from couplediff.cli import main
from couplediff.config import (
    ConfigError,
    SimConfig,
    config_to_text,
    initial_state,
    parse_config_text,
)
from couplediff.discretization import build_grid

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


def test_simulate_artifacts_and_schemas(tmp_path):
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    assert main(["simulate", "--config", cfg]) == 0
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
    assert main(["simulate", "--config", cfg, "--set", "time.dt=fast"]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2


def _bad_init_csv(tmp_path, bad_x):
    grid = build_grid(50, 50)
    rows = [f"{x!r},0.5,local" for x in grid.positions]
    rows[3] = "0.1x,0.5,local" if bad_x else f"{grid.positions[3]!r},abc,local"
    path = tmp_path / "init.csv"
    path.write_text("x,w,region\n" + "\n".join(rows) + "\n")
    return ["init.kind=file", f"init.path={path}"]


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("kernel.radius", lambda p: ["kernel.radius=inf"]),
        ("time.horizon", lambda p: ["time.horizon=inf"]),
        ("time.dt", lambda p: ["time.dt=inf"]),
        ("init.value", lambda p: ["init.kind=constant", "init.value=nan"]),
        ("init.path", lambda p: _bad_init_csv(p, bad_x=True)),
        ("init.path", lambda p: _bad_init_csv(p, bad_x=False)),
        ("picard.window", lambda p: ["time.scheme=picard", "picard.window=0.5"]),
        ("time.dt", lambda p: ["time.scheme=picard", "time.dt=0.003"]),  # window 0.032
        ("time.horizon",
         lambda p: ["time.scheme=picard", "time.dt=auto", "time.horizon=0.2005"]),
    ],
    ids=["radius-inf", "horizon-inf", "dt-inf", "value-nan", "csv-bad-x", "csv-bad-w",
         "picard-window", "picard-dt", "picard-horizon"],
)
def test_bad_input_exits_2_naming_key(tmp_path, capsys, key, overrides):
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    args = ["simulate", "--config", cfg]
    for item in overrides(tmp_path):
        args += ["--set", item]
    assert main(args) == 2
    assert key in capsys.readouterr().err


def test_runtime_failure_exits_3(tmp_path):
    cfg = write_cfg(
        tmp_path, SMALL,
        "time.scheme = picard\npicard.max_iters = 1\npicard.tol = 1e-15\n"
        f"time.horizon = 0.05\ntime.dt = auto\noutput.dir = {tmp_path}/out\n",
    )
    assert main(["simulate", "--config", cfg]) == 3


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
    assert header == ["epsilon", "n_nonlocal", "dt", "sup_error_l2", "beta1_eps"]
    errs = [float(r[3]) for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert (tmp_path / "out" / "sweep.svg").exists()
    assert main(["sweep-epsilon", "--config", cfg, "--eps", "0.1,0.4"]) == 2


def test_sweep_constant_init_near_zero_error(tmp_path):
    cfg = write_cfg(
        tmp_path, SMALL,
        f"init.kind = constant\ntime.dt = 5e-3\ntime.horizon = 0.2\n"
        f"output.dir = {tmp_path}/out\n",
    )
    assert main(["sweep-epsilon", "--config", cfg, "--eps", "0.4,0.1"]) == 0
    _, rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert all(float(r[3]) <= 1e-10 for r in rows)


def test_init_file_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, SMALL, f"output.dir = {tmp_path}/out\n")
    assert main(["simulate", "--config", cfg]) == 0
    snap = tmp_path / "out" / "snapshot_000001.csv"
    cfg2 = SimConfig(init_kind="file", init_path=str(snap), grid_n_local=50,
                     grid_n_nonlocal=50)
    grid = build_grid(50, 50)
    w = initial_state(cfg2, grid)
    assert w.values.shape == (grid.size,)
    bad = SimConfig(init_kind="file", init_path=str(snap), grid_n_local=40,
                    grid_n_nonlocal=50)
    with pytest.raises(ConfigError):
        initial_state(bad, build_grid(40, 50))


def test_initial_profiles():
    grid = build_grid(50, 50)
    cosine = initial_state(SimConfig(init_kind="cosine", init_amplitude=2.0), grid)
    expected = 2.0 * np.cos(np.pi * (grid.positions + 1) / 2)
    np.testing.assert_allclose(cosine.values, expected)
    step = initial_state(SimConfig(init_kind="step", init_u_value=3.0), grid)
    assert step.values[grid.interface_index] == 3.0
    assert step.values[-1] == 0.0
    const = initial_state(SimConfig(init_kind="constant", init_value=-2.0), grid)
    assert np.all(const.values == -2.0)


def test_verify_detects_corruption():
    cfg = SimConfig(grid_n_local=50, grid_n_nonlocal=50)

    def corrupt(gen):  # zero A[I, I + 1], the coupling edge to the first cell
        i = gen.grid.interface_index
        gen.band[gen.half_bandwidth - 1, i + 1] = 0.0

    ok, _ = verify.check_mass_conservation(cfg, transform=corrupt)
    assert not ok
    ok, _ = verify.check_operator_structure(cfg, transform=corrupt)
    assert not ok
    ok, _ = verify.check_mass_conservation(cfg, transform=None)
    assert ok


def test_verify_clean_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert "FAIL" not in out
