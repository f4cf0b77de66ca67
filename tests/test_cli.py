"""End-to-end command-line runs: artifacts, determinism, exit codes."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import spinphase
from spinphase import cli
from spinphase import sphere_ops as so

ROOT = Path(__file__).resolve().parents[1]


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def _evolve_config(**over):
    cfg = {
        "spin": {"twice_s": 2},
        "sigma": 0.0,
        "hamiltonian": {"expression": [[-1.0, [3]], [0.3, [1]]]},
        "bath": {"coupling": [[1.0, [1]]], "gamma": 0.1, "temperature": 1.0},
        "initial": {"coherent": {"theta": 1.1, "phi": 0.4}},
        "time": {"t_end": 2.0, "dt": 0.05, "method": "expm"},
    }
    cfg.update(over)
    return cfg


def test_evolve_writes_trajectory_and_sidecar(tmp_path, capsys):
    cfg_path = _write(tmp_path, "run.json", _evolve_config())
    rc = cli.main(["evolve", "--config", cfg_path, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 0
    assert "validity ratio" in err and "trace drift" in err
    with open(tmp_path / "o" / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "Sx", "Sy", "Sz", "trace", "purity"]
    assert len(rows) == 1 + 41
    assert float(rows[1][4]) == pytest.approx(1.0, abs=1e-12)
    resolved = json.loads((tmp_path / "o" / "resolved_config.json").read_text())
    assert resolved["command"] == "evolve"
    assert resolved["tolerance"] == 1e-8
    assert resolved["seed"] == 0


def test_evolve_outputs_are_byte_identical_across_runs(tmp_path):
    cfg_path = _write(tmp_path, "run.json", _evolve_config())
    for d in ("a", "b"):
        assert cli.main(["evolve", "--config", cfg_path,
                         "--out", str(tmp_path / d)]) == 0
    for name in ("trajectory.csv", "resolved_config.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_evolve_quadratic_hamiltonian_without_bath(tmp_path):
    cfg = _evolve_config(hamiltonian={"quadratic": {
        "d": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.2]],
        "b": [0.0, 0.0, 1.0]}})
    del cfg["bath"]
    cfg_path = _write(tmp_path, "run.json", cfg)
    assert cli.main(["evolve", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 0


def test_evolve_grid_output_and_band_check(tmp_path):
    cfg = _evolve_config(grid={"band_limit": 4},
                         outputs={"grid": "final.csv"})
    cfg_path = _write(tmp_path, "run.json", cfg)
    assert cli.main(["evolve", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "final.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "phi", "value_re", "value_im"]
    assert len(rows) == 1 + 5 * 10  # band 4: 5 x 10 nodes

    bad = _evolve_config(grid={"band_limit": 1})
    cfg_path = _write(tmp_path, "bad.json", bad)
    assert cli.main(["evolve", "--config", cfg_path,
                     "--out", str(tmp_path / "o2")]) == 1


def test_evolve_matrix_file_initial_state(tmp_path):
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    np.save(tmp_path / "rho.npy", rho)
    cfg = _evolve_config(initial={"matrix_file": str(tmp_path / "rho.npy")})
    cfg_path = _write(tmp_path, "run.json", cfg)
    assert cli.main(["evolve", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 0

    np.save(tmp_path / "bad.npy", rho + 1j * np.eye(3))
    cfg = _evolve_config(initial={"matrix_file": str(tmp_path / "bad.npy")})
    cfg_path = _write(tmp_path, "bad.json", cfg)
    assert cli.main(["evolve", "--config", cfg_path,
                     "--out", str(tmp_path / "o2")]) == 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_evolve_classifies_instability_and_divergence(tmp_path, monkeypatch):
    """The gates after integration, for an unstable step that gets past the
    rk4 pre-flight (switched off here; its own test is below)."""
    monkeypatch.setattr(cli, "_check_rk4_step", lambda *args: None)
    stiff = _evolve_config(
        spin={"twice_s": 4},
        bath={"coupling": [[1.0, [1]]], "gamma": 60.0, "temperature": 10.0},
        time={"t_end": 5.0, "dt": 0.5, "method": "rk4"})
    cfg_path = _write(tmp_path, "stiff.json", stiff)
    assert cli.main(["evolve", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 2

    worse = _evolve_config(
        spin={"twice_s": 4},
        bath={"coupling": [[1.0, [1]]], "gamma": 600.0, "temperature": 100.0},
        time={"t_end": 20.0, "dt": 0.5, "method": "rk4"})
    cfg_path = _write(tmp_path, "worse.json", worse)
    assert cli.main(["evolve", "--config", cfg_path,
                     "--out", str(tmp_path / "o2")]) == 3


@pytest.mark.parametrize("twice_s, gamma, temperature, dt, t_end", [
    (4, 60.0, 10.0, 0.01, 0.05),
    (20, 0.1, 1.0, 0.1, 2.0),
])
def test_evolve_rejects_an_unstable_rk4_step_before_writing(
        tmp_path, capsys, twice_s, gamma, temperature, dt, t_end):
    """exit 1 with no files, and the dt it names runs and passes the gates."""
    bath = {"coupling": [[1.0, [1]]], "gamma": gamma, "temperature": temperature}
    cfg = _evolve_config(spin={"twice_s": twice_s}, bath=bath,
                         time={"t_end": t_end, "dt": dt, "method": "rk4"})
    out = tmp_path / "o"
    assert cli.main(["evolve", "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "rk4 is unstable" in err and not out.exists()
    stable = float(err.rsplit("use dt <= ", 1)[1].split()[0])
    assert stable < dt
    cfg["time"]["dt"] = stable
    assert cli.main(["evolve", "--config", _write(tmp_path, "ok.json", cfg),
                     "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 2 + round(t_end / stable)


def test_evolve_checks_reality_over_the_whole_trajectory(tmp_path, monkeypatch):
    """A state that leaves the real symbols mid-run fails the gate even when
    the final state is real again."""
    integrate = cli.dynamics.integrate

    def non_real_midway(*args, **kwargs):
        result = integrate(*args, **kwargs)
        result.reality[result.reality.size // 2] = 1e-3
        return result

    monkeypatch.setattr(cli.dynamics, "integrate", non_real_midway)
    cfg_path = _write(tmp_path, "run.json", _evolve_config())
    assert cli.main(["evolve", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 2


def test_evolve_fails_a_generator_that_leaves_the_real_symbols(tmp_path, monkeypatch,
                                                             capsys):
    """exp(i t) c0 is not real at t = pi/2 but real again at t = pi: the
    reality column catches it mid-run and the gate exits 2."""
    monkeypatch.setattr(cli.dynamics, "qfp_generator", lambda h, bath, sigma, ctx:
                        1j * sp.identity(ctx.symbol_dim, dtype=complex, format="csr"))
    cfg = _evolve_config(time={"t_end": math.pi, "dt": math.pi / 8, "method": "expm"})
    assert cli.main(["evolve", "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(tmp_path / "o")]) == 2
    residual = float(capsys.readouterr().err.split("reality residual = ")[1].split()[0])
    assert residual > 0.1


@pytest.mark.parametrize("key", ("t_end", "dt"))
@pytest.mark.parametrize("value", (math.inf, math.nan))
def test_evolve_rejects_a_non_finite_time_grid(tmp_path, capsys, key, value):
    cfg = _evolve_config()
    cfg["time"][key] = value  # written as Infinity or NaN, which json accepts
    out = tmp_path / "o"
    assert cli.main(["evolve", "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(out)]) == 1
    assert "error: t_end and dt must be finite" in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


@pytest.mark.parametrize("t_end, dt", [(1e300, 1e-10), (1e14, 0.1)])
def test_evolve_refuses_a_step_count_above_the_ceiling(tmp_path, capsys, t_end, dt):
    """t_end / dt overflowing to inf, or finite and absurd: exit 1, no traceback."""
    cfg = _evolve_config()
    cfg["time"].update(t_end=t_end, dt=dt)
    out = tmp_path / "o"
    assert cli.main(["evolve", "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: t_end / dt" in err and f"MAX_STEPS = {cli.dynamics.MAX_STEPS}" in err
    assert not (out / "resolved_config.json").exists()


def test_evolve_memory_does_not_grow_with_the_step_count(tmp_path, monkeypatch):
    """Peak traced allocation of a whole evolve run grows by less than a
    quarter of one state per added step (the states themselves, kept, would
    add a whole one)."""
    twice_s = 10
    n = (twice_s + 1) ** 2
    monkeypatch.setattr(cli.dynamics, "_BLOCK_BYTES", 8 * 16 * n)  # 8 rows
    cfg = _evolve_config(spin={"twice_s": twice_s})
    peaks = {}
    for steps in (1, 40, 200):  # the first run only warms the caches
        cfg["time"] = {"t_end": steps * 0.01, "dt": 0.01, "method": "expm"}
        argv = ["evolve", "--config", _write(tmp_path, f"{steps}.json", cfg),
                "--out", str(tmp_path / str(steps))]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[200] - peaks[40]) / 160 < 16 * n / 4


@pytest.mark.parametrize("where", ("flag", "config"))
@pytest.mark.parametrize("value", ("nan", "-1"))
def test_tolerance_must_be_finite_and_non_negative(tmp_path, capsys, where, value):
    cfg = _evolve_config()
    argv = ["evolve", "--out", str(tmp_path / "o")]
    if where == "flag":
        argv += ["--tolerance", value]
    else:
        cfg["tolerance"] = float(value)
    argv += ["--config", _write(tmp_path, "run.json", cfg)]
    assert cli.main(argv) == 1
    assert "tolerance" in capsys.readouterr().err
    assert not (tmp_path / "o" / "resolved_config.json").exists()


def test_gates_fail_on_nan_measurements(tmp_path, monkeypatch):
    """A NaN reality residual, deviation or slope fails its gate with exit 2."""
    integrate = cli.dynamics.integrate

    def nan_final_state(*args, **kwargs):
        result = integrate(*args, **kwargs)
        result.states[-1] = np.nan  # read by compare
        if result.reality is not None:
            result.reality[-1] = np.nan  # read by evolve
        return result

    monkeypatch.setattr(cli.dynamics, "integrate", nan_final_state)
    cfg_path = _write(tmp_path, "run.json", _evolve_config())
    assert cli.main(["evolve", "--config", cfg_path,
                     "--out", str(tmp_path / "e")]) == 2
    cfg = {
        "spin": {"twice_s": 2},
        "hamiltonian": {"expression": [[-1.0, [3]]]},
        "bath": {"coupling": [[1.0, [1]]], "gamma": 0.1, "temperature": 1.0},
        "initial": {"coherent": {"theta": 0.9, "phi": 0.0}},
        "time": {"t_end": 0.5, "dt": 0.1},
    }
    assert cli.main(["compare", "--config", _write(tmp_path, "cmp.json", cfg),
                     "--out", str(tmp_path / "c")]) == 2

    monkeypatch.setattr(cli.dynamics, "classical_limit_scan", lambda *a, **k: {
        "s_values": np.array([3.0, 5.0]), "deviations": np.array([np.nan, np.nan]),
        "slope": float("nan")})
    cfg = {
        "scan": {"mode": "unitary", "twice_s_values": [6, 10],
                 "l_test": 3, "expected_slope": -1.0},
        "field": [0.0, 0.0, 1.0],
    }
    assert cli.main(["limit-scan", "--config", _write(tmp_path, "scan.json", cfg),
                     "--out", str(tmp_path / "s")]) == 2


def test_compare_agrees_and_honors_tolerance(tmp_path, capsys):
    cfg = {
        "spin": {"twice_s": 2},
        "sigma": 0.0,
        "hamiltonian": {"expression": [[-1.0, [3]]]},
        "bath": {"coupling": [[0.6, [1]], [0.8, [3]]],
                 "gamma": 0.1, "temperature": 1.0},
        "initial": {"coherent": {"theta": 0.9, "phi": 0.0}},
        "time": {"t_end": 3.0, "dt": 0.1},
    }
    cfg_path = _write(tmp_path, "cmp.json", cfg)
    rc = cli.main(["compare", "--config", cfg_path, "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max deviation" in out
    with open(tmp_path / "o" / "compare.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "deviation"]
    assert max(float(r[1]) for r in rows[1:]) < 1e-10

    rc = cli.main(["compare", "--config", cfg_path, "--out",
                   str(tmp_path / "o2"), "--tolerance", "1e-30"])
    assert rc == 2


def test_compare_integrates_with_the_configured_method(tmp_path, capsys, monkeypatch):
    """An unstable rk4 step exits 1 before anything is written; a stable one
    runs both trajectories with rk4, which agree to rounding."""
    cfg = {
        "spin": {"twice_s": 4},
        "hamiltonian": {"expression": [[-1.0, [3]]]},
        "bath": {"coupling": [[1.0, [1]]], "gamma": 60.0, "temperature": 10.0},
        "initial": {"coherent": {"theta": 0.9, "phi": 0.0}},
        "time": {"t_end": 0.05, "dt": 0.01, "method": "rk4"},
    }
    out = tmp_path / "o"
    assert cli.main(["compare", "--config", _write(tmp_path, "bad.json", cfg),
                     "--out", str(out)]) == 1
    assert "rk4 is unstable" in capsys.readouterr().err and not out.exists()

    methods = []
    integrate = cli.dynamics.integrate

    def spy(gen, y0, t_end, dt, method, *args, **kwargs):
        methods.append(method)
        return integrate(gen, y0, t_end, dt, method, *args, **kwargs)

    monkeypatch.setattr(cli.dynamics, "integrate", spy)
    cfg["bath"]["gamma"] = 0.1
    assert cli.main(["compare", "--config", _write(tmp_path, "ok.json", cfg),
                     "--out", str(out)]) == 0
    assert methods == ["rk4", "rk4"]
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 6 and max(float(r[1]) for r in rows) < 1e-10


def test_compare_rejects_oversized_hilbert_space(tmp_path):
    cfg = {
        "spin": {"twice_s": 64},
        "hamiltonian": {"expression": [[-1.0, [3]]]},
        "bath": {"coupling": [[1.0, [1]]], "gamma": 0.1, "temperature": 1.0},
        "initial": {"mixed": True},
        "time": {"t_end": 1.0, "dt": 0.5},
    }
    cfg_path = _write(tmp_path, "cmp.json", cfg)
    assert cli.main(["compare", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 1


def test_limit_scan_unitary_reports_vanishing_deviation(tmp_path, capsys):
    cfg = {
        "scan": {"mode": "unitary", "twice_s_values": [6, 10, 14],
                 "l_test": 3, "expected_slope": -1.0},
        "sigma": 0.0,
        "field": [0.0, 0.0, 1.0],
    }
    cfg_path = _write(tmp_path, "scan.json", cfg)
    rc = cli.main(["limit-scan", "--config", cfg_path,
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "slope" in capsys.readouterr().out
    with open(tmp_path / "o" / "scan.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["S", "deviation"]
    assert [float(r[0]) for r in rows[1:]] == [3.0, 5.0, 7.0]
    assert all(float(r[1]) < 1e-12 for r in rows[1:])


def test_limit_scan_bilinear_slope_gate(tmp_path):
    cfg = {
        "scan": {"mode": "bilinear", "twice_s_values": [10, 20, 40],
                 "l_test": 3, "expected_slope": -1.0},
        "sigma": -1.0,
        "field": [0.0, 0.0, 1.0],
        "xi": [1.0, 0.0, 0.0],
        "gamma": 2.0,
        "temperature": 0.1,
    }
    cfg_path = _write(tmp_path, "scan.json", cfg)
    assert cli.main(["limit-scan", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 0
    cfg["scan"]["expected_slope"] = -2.0  # wrong law must be flagged
    cfg_path = _write(tmp_path, "scan2.json", cfg)
    assert cli.main(["limit-scan", "--config", cfg_path,
                     "--out", str(tmp_path / "o2")]) == 2


def test_kernel_dump_covers_grid_and_matrix_indices(tmp_path):
    cfg = {"spin": {"twice_s": 1}, "sigma": 0.0, "grid": {"band_limit": 2}}
    cfg_path = _write(tmp_path, "k.json", cfg)
    assert cli.main(["kernel", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "kernel.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "phi", "row", "col", "value_re", "value_im"]
    assert len(rows) == 1 + 3 * 6 * 4  # nodes x matrix entries


def test_kernel_streams_its_output(tmp_path):
    """kernel.csv is written as it is computed: the traced peak of a whole run
    at 2S=12 (57k rows, 4.6 MB of text) stays below a tenth of the file."""
    cfg_path = _write(tmp_path, "k.json", {"spin": {"twice_s": 12}, "sigma": 0.3})
    tracemalloc.start()
    try:
        assert cli.main(["kernel", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "o" / "kernel.csv").stat().st_size / 10


def test_symbol_spin_component_matches_library(tmp_path):
    cfg = {"spin": {"twice_s": 2}, "sigma": 0.0,
           "operator": {"spin_component": 3}}
    cfg_path = _write(tmp_path, "s.json", cfg)
    assert cli.main(["symbol", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "symbol.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    grid = so.make_grid(2)
    # S3 symbols are l = 1 harmonics: proportional to cos(theta), phase-free
    vals = {}
    for r in rows[1:]:
        vals.setdefault(float(r[0]), []).append(float(r[2]))
        assert abs(float(r[3])) < 1e-12
    by_theta = np.array([np.mean(vals[t]) for t in sorted(vals)])
    ct = np.cos(grid.thetas)
    scale = np.dot(by_theta, ct) / np.dot(ct, ct)
    assert scale > 0
    np.testing.assert_allclose(by_theta, scale * ct, atol=1e-10)


def test_symbol_random_hermitian_is_seed_deterministic(tmp_path):
    cfg = {"spin": {"twice_s": 3}, "operator": {"random_hermitian": True},
           "seed": 11}
    cfg_path = _write(tmp_path, "s.json", cfg)
    for d in ("a", "b"):
        assert cli.main(["symbol", "--config", cfg_path,
                         "--out", str(tmp_path / d)]) == 0
    assert (tmp_path / "a" / "symbol.csv").read_bytes() == \
           (tmp_path / "b" / "symbol.csv").read_bytes()
    assert cli.main(["symbol", "--config", cfg_path, "--seed", "12",
                     "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "a" / "symbol.csv").read_bytes() != \
           (tmp_path / "c" / "symbol.csv").read_bytes()


def test_validation_failures_exit_one(tmp_path, capsys):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text('{"spin": {,}')
    rc = cli.main(["evolve", "--config", str(bad_json),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "line" in capsys.readouterr().err

    rc = cli.main(["evolve", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "o")])
    assert rc == 1

    cfg = _evolve_config(unknown_section=1)
    cfg_path = _write(tmp_path, "junk.json", cfg)
    rc = cli.main(["evolve", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err

    cfg = {"spin": {"twice_s": 2}, "operator": {"spin_component": 7}}
    cfg_path = _write(tmp_path, "comp.json", cfg)
    assert cli.main(["symbol", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("make_config", [
    lambda tmp: _evolve_config(initial={"coherent": {"phi": 0.4}}),
    lambda tmp: _evolve_config(initial={"matrix_file": str(tmp / "absent.npy")}),
    lambda tmp: _evolve_config(grid={"band_limit": "8"}),
    lambda tmp: _evolve_config(grid={"band_limit": None}),
    lambda tmp: _evolve_config(grid={"band_limit": 6.5}),
    lambda tmp: {"spin": {"twice_s": 1}, "grid": {"band_limit": 6.5}},
], ids=["coherent-without-theta", "missing-matrix-file", "band-limit-string",
        "band-limit-null", "band-limit-fractional", "kernel-band-limit-fractional"])
def test_malformed_config_fields_exit_one(tmp_path, capsys, make_config):
    cfg = make_config(tmp_path)
    command = "evolve" if "time" in cfg else "kernel"
    rc = cli.main([command, "--config", _write(tmp_path, "bad.json", cfg),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "resolved_config.json").exists()


def _with(cfg, path, value):
    """cfg with the field at the dotted path set to value."""
    *parents, key = path.split(".")
    node = cfg
    for name in parents:
        node = node[name]
    node[key] = value
    return cfg


_SCAN_CONFIG = {"scan": {"mode": "bilinear", "twice_s_values": [8, 12], "l_test": 3},
                "field": [0.0, 0.0, 1.0], "xi": [1.0, 0.0, 0.0], "gamma": 0.1,
                "temperature": 1.0}


@pytest.mark.parametrize("command, path, value, message", [
    ("evolve", "initial.coherent.theta", None, "coherent theta must be a number"),
    ("evolve", "time.dt", None, "time dt must be a number"),
    ("evolve", "bath.gamma", None, "bath gamma must be a number"),
    ("evolve", "bath", [], '"bath" must be an object'),
    ("evolve", "outputs", [], '"outputs" must map names'),
    ("evolve", "seed", 2.7, "seed must be an integer"),
    ("limit-scan", "scan.l_test", 3.7, "scan l_test must be an integer"),
    ("evolve", "hamiltonian", {"quadratic": []}, 'hamiltonian "quadratic" must be an object'),
    ("symbol", "operator.spin_component", 1.5, "spin_component must be an integer"),
    ("limit-scan", "scan.twice_s_values", 5, 'scan needs "twice_s_values"'),
    ("limit-scan", "scan.twice_s_values", [8, 12.5],
     "scan twice_s_values entry must be an integer"),
    ("limit-scan", "scan.mode", "foo", "scan mode must be"),
    ("limit-scan", "field", [0, 0], "field must be a list of 3 numbers"),
    ("limit-scan", "xi", [1.0, 0.0, None], "xi must be a number"),
    ("limit-scan", "scan.expected_slope", [1], "scan expected_slope must be a number"),
    ("limit-scan", "temperature", "hot", "temperature must be a number"),
    ("limit-scan", "gamma", True, "gamma must be a number"),
    ("evolve", "hamiltonian.expression", [[-1.0, 3]], "expression term [-1.0, 3] is not"),
    ("evolve", "bath.coupling", [[1.0, 1]], "expression term [1.0, 1] is not"),
    ("evolve", "hamiltonian.expression", [[None, [3]]], "coefficient must be a number"),
    ("evolve", "hamiltonian.expression", [[True, [3]]], "coefficient must be a number"),
    ("evolve", "hamiltonian.expression", [[-1.0, [1.5]]], "word component must be an integer"),
    ("evolve", "sigma", None, "sigma must be a number"),
    ("evolve", "initial", {"matrix_file": 3}, 'initial "matrix_file" must be a path'),
    ("evolve", "initial", {"mixed": "no"}, "initial mixed must be true or false"),
    ("evolve", "spin.twice_s", None, "spin twice_s must be an integer"),
    ("compare", "sigma", [0], "sigma must be a number"),
    ("compare", "bath.coupling", [[[1.0, None], [1]]], "coefficient im must be a number"),
    ("symbol", "sigma", None, "sigma must be a number"),
    ("symbol", "operator", {"expression": [[None, [1]]]}, "coefficient must be a number"),
    ("symbol", "operator", {"random_hermitian": "no"},
     "operator random_hermitian must be true or false"),
], ids=["theta-null", "dt-null", "gamma-null", "bath-list", "outputs-list",
        "seed-fractional", "l-test-fractional", "quadratic-list", "spin-component-fractional",
        "twice-s-values-number", "twice-s-values-fractional", "scan-mode-unknown",
        "field-short", "xi-null", "expected-slope-list", "temperature-string", "gamma-boolean",
        "word-number", "coupling-word-number", "coeff-null", "coeff-boolean",
        "word-fractional", "sigma-null", "matrix-file-number", "mixed-string",
        "twice-s-null", "compare-sigma-list", "compare-coeff-im-null", "symbol-sigma-null",
        "symbol-coeff-null", "random-hermitian-string"])
def test_malformed_field_types_exit_one_at_parse(tmp_path, capsys, command, path, value,
                                                  message):
    """A null number, a list where an object belongs or a fractional integer
    is refused with an error line: no traceback, no truncation, no files."""
    base = {"evolve": _evolve_config(), "compare": _evolve_config(),
            "limit-scan": json.loads(json.dumps(_SCAN_CONFIG)),
            "symbol": {"spin": {"twice_s": 2}, "operator": {"spin_component": 1}}}[command]
    cfg = _with(base, path, value)
    out = tmp_path / "o"
    assert cli.main([command, "--config", _write(tmp_path, "bad.json", cfg),
                     "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


def test_console_script_entry_point(tmp_path):
    """The declared `spinphase` script runs `symbol` as its own process.

    The target named in `[project.scripts]` is run under the contract of a
    console-script wrapper (argv from the command line, `sys.exit(main())`),
    with the package the suite imports first on PYTHONPATH, so no install
    is needed.  An installed `spinphase` wrapper on PATH is run as well,
    in the same environment.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["spinphase"]
    module, attr = target.split(":")
    cfg = {"spin": {"twice_s": 1}, "operator": {"spin_component": 1}}
    cfg_path = _write(tmp_path, "s.json", cfg)

    src = str(Path(spinphase.__file__).resolve().parents[1])
    # the child runs in tmp_path, so relative entries are anchored here
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [os.path.abspath(p) for p in inherited if p]))
    runs = {"declared": [sys.executable, "-c",
                         f"import sys; from {module} import {attr}; "
                         f"sys.exit({attr}())"]}
    exe = shutil.which("spinphase")
    if exe is not None:
        runs["installed"] = [exe]

    for name, cmd in runs.items():
        out = tmp_path / name
        proc = subprocess.run([*cmd, "symbol", "--config", cfg_path,
                               "--out", str(out)],
                              cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, f"{name} {target}: {proc.stderr}"
        assert (out / "symbol.csv").exists()
