"""End-to-end command-line runs: artifacts, determinism, exit codes."""

import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import eval_legendre

import oracles
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


def test_evolve_outputs_are_byte_identical_across_runs(tmp_path):
    cfg_path = _write(tmp_path, "run.json", _evolve_config())
    for d in ("a", "b"):
        assert cli.main(["evolve", "--config", cfg_path,
                         "--out", str(tmp_path / d)]) == 0
    for name in ("trajectory.csv", "resolved_config.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_evolve_quadratic_hamiltonian_without_bath(tmp_path):
    cfg = _evolve_config(hamiltonian={"expression": [[-0.2, [3, 3]], [-1.0, [3]]]})
    del cfg["bath"]
    cfg_path = _write(tmp_path, "run.json", cfg)
    assert cli.main(["evolve", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_asymmetric_quadratic_d_exits_one_as_non_hermitian(tmp_path, capsys, command):
    """H = -sum d_jk S_j S_k with d_12 = 1 alone is -S1 S2, which is not
    Hermitian: the run exits 1 before writing anything.  Its symmetric half,
    d_12 = d_21 = 0.5, runs."""
    cfg = _evolve_config(hamiltonian={"expression": [[-1.0, [1, 2]]]})
    assert cli.main([command, "--config", _write(tmp_path, "bad.json", cfg),
                     "--out", str(tmp_path / "bad")]) == 1
    assert "error: Hamiltonian must be Hermitian" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    cfg = _evolve_config(hamiltonian={"expression": [[-0.5, [1, 2]], [-0.5, [2, 1]]]})
    assert cli.main([command, "--config", _write(tmp_path, "good.json", cfg),
                     "--out", str(tmp_path / "good")]) == 0


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

    bad = _evolve_config(grid={"band_limit": 1}, outputs={"grid": "final.csv"})
    cfg_path = _write(tmp_path, "bad.json", bad)
    assert cli.main(["evolve", "--config", cfg_path,
                     "--out", str(tmp_path / "o2")]) == 1


def test_evolve_from_an_expression_initial_state(tmp_path):
    """0.3 + 0.15 S3 + 0.05 S3 S3 at 2S = 2 is rho = diag(0.5, 0.3, 0.2): the first
    row holds its Sz, trace and purity, and ten times the expression, divided
    by its trace, is the same state."""
    expr = [[0.3, []], [0.15, [3]], [0.05, [3, 3]]]
    rows = []
    for scale in (1, 10):
        cfg = _evolve_config(initial={"expression": [[scale * c, w] for c, w in expr]})
        out = tmp_path / f"x{scale}"
        assert cli.main(["evolve", "--config", _write(tmp_path, "run.json", cfg),
                         "--out", str(out)]) == 0
        rows.append(np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1))
    np.testing.assert_allclose(rows[0][0], [0.0, 0.0, 0.0, 0.3, 1.0, 0.38], atol=1e-14)
    np.testing.assert_allclose(rows[1], rows[0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("command", ["evolve", "compare"])
@pytest.mark.parametrize("twice_s, expression, code, message", [
    (2, [[1.0, [3]]], 1, "error: initial expression must have a positive trace, got 0"),
    (2, [[1.0, []], [2.0, [3]]], 1, "error: initial expression must be positive "
                                    "semidefinite: divided by its trace, its lowest "
                                    "eigenvalue is -0.333333"),
    (2, [[[0.0, 1.0], [3]]], 1, "error: initial expression must be Hermitian"),
    (2, [[1e308, [3, 3]]], 3,
     "numerical failure: the symbol of the initial expression overflows"),
    (4, [[5e307, []]], 3, "numerical failure: the matrix of the initial expression overflows"),
], ids=["traceless", "not-positive", "not-hermitian", "symbol-overflow", "trace-overflow"])
def test_an_initial_expression_that_is_no_state_is_refused(tmp_path, capsys, command, twice_s,
                                                           expression, code, message):
    """S3 has trace 0, 1 + 2 S3 (S = 1) has the eigenvalue -1 and i S3 is not
    Hermitian: each exits 1.  The symbol of 1e308 S3 S3 overflows, and so does
    the trace 2.5e308 of 5e307 at 2S = 4 (its symbol, 1.8e308, does not): each
    exits 3, not with a RuntimeWarning traceback.  None writes a file."""
    cfg = _evolve_config(spin={"twice_s": twice_s}, initial={"expression": expression})
    out = tmp_path / "o"
    assert cli.main([command, "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_evolve_classifies_instability_and_divergence(tmp_path, capsys, monkeypatch):
    """The gates after integration, on an integrator whose generator is shifted
    by s I: s = 1e-3 lets the trace drift past the tolerance (exit 2, with the
    resolved config), s = 1e4 overflows to a non-finite state (exit 3, no
    resolved config)."""
    integrate = cli.dynamics.integrate
    shift = {}

    def shifted(gen, *args, **kwargs):
        return integrate(gen + shift["s"] * sp.identity(gen.shape[0], format="csr"),
                         *args, **kwargs)

    monkeypatch.setattr(cli.dynamics, "integrate", shifted)
    cfg_path = _write(tmp_path, "run.json", _evolve_config(spin={"twice_s": 4}))
    for s, code, message in ((1e-3, 2, "conservation violated"),
                             (1e4, 3, "numerical failure: non-finite state")):
        shift["s"] = s
        out = tmp_path / f"o{code}"
        assert cli.main(["evolve", "--config", cfg_path, "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert (out / "resolved_config.json").exists() == (code == 2)


# an empty expression is the twin of the removed "quadratic": {}
@pytest.mark.parametrize("hamiltonian", [{"expression": []}, {"expression": [[0.0, [3]]]}],
                         ids=["empty-quadratic", "zero-coefficient"])
def test_evolve_keeps_the_state_under_a_zero_generator(tmp_path, hamiltonian):
    """G = 0 leaves every row of the trajectory at the initial one."""
    cfg = _evolve_config(hamiltonian=hamiltonian, time={"t_end": 1.0, "dt": 0.1})
    del cfg["bath"]
    out = tmp_path / "o"
    assert cli.main(["evolve", "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(out)]) == 0
    rows = [row.split(",") for row in (out / "trajectory.csv").read_text().splitlines()]
    assert len(rows) == 12 and all(row[1:] == rows[1][1:] for row in rows[2:])


def test_evolve_without_a_method_writes_the_bytes_of_expm(tmp_path, capsys):
    """time.method defaults to expm: a config without it and its "method":
    "expm" twin write the same files.  Any other method, such as rk4, exits 1,
    naming it, before anything is written."""
    cfg = _evolve_config(spin={"twice_s": 6}, grid={"band_limit": 6},
                         outputs={"grid": "grid.csv"})
    outputs = []
    for name in ("expm", "omitted"):
        if name == "omitted":
            del cfg["time"]["method"]
        out = tmp_path / name
        assert cli.main(["evolve", "--config", _write(tmp_path, f"{name}.json", cfg),
                         "--out", str(out)]) == 0
        outputs.append({f: (out / f).read_bytes() for f in ("trajectory.csv", "grid.csv")})
    assert outputs[0] == outputs[1]
    capsys.readouterr()
    for method in ("rk4", "euler", None):
        cfg["time"]["method"] = method
        out = tmp_path / "refused"
        assert cli.main(["evolve", "--config", _write(tmp_path, "bad.json", cfg),
                         "--out", str(out)]) == 1
        assert (f'error: time method must be "expm", the only one the CLI runs, '
                f"got {method!r}") in capsys.readouterr().err
        assert not out.exists()


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


@pytest.mark.parametrize("over, message", [
    ({"initial": {"coherent": {"phi": 0.4}}}, 'initial "coherent" needs {"theta": <angle>}'),
    ({"time": {"t_end": 1.0, "dt": -0.1}}, "t_end and dt must be finite and positive"),
    ({"grid": {"band_limit": 1}, "outputs": {"grid": "final.csv"}},
     "grid band_limit 1 is below 2"),
], ids=["initial", "time", "grid"])
def test_evolve_reads_its_inputs_before_it_builds_the_generator(tmp_path, capsys, monkeypatch,
                                                                over, message):
    """A bad initial state, time block or grid band exits 1 with its own
    message before qfp_generator, the run's costly build (about 10^6
    coefficients at 2S=1030), is called; no file is written."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("the generator was built")

    monkeypatch.setattr(cli.dynamics, "qfp_generator", unbuilt)
    out = tmp_path / "o"
    assert cli.main(["evolve", "--config", _write(tmp_path, "run.json", _evolve_config(**over)),
                     "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_a_coherent_start_past_the_kernel_range_is_refused_by_name(tmp_path, capsys, command):
    """At 2S = 1030 and sigma 0 the coherent start is refused under its own
    name, not as the sigma = 1 ordering its kernel is built at."""
    out = tmp_path / "o"
    cfg = _evolve_config(spin={"twice_s": 1030})
    assert cli.main([command, "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: a coherent state at 2S = 1030 is out of range" in err
    assert "sigma = 1.0" not in err and not out.exists()


def test_evolve_memory_does_not_grow_with_the_step_count(tmp_path):
    """Peak traced allocation of a whole evolve run grows by less than a
    quarter of one state per added step (the states themselves, kept, would
    add a whole one)."""
    twice_s = 10
    n = (twice_s + 1) ** 2
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
    """The config key is the tolerance's only channel: a --tolerance flag exits 1
    as an unknown argument whatever its value."""
    cfg = _evolve_config()
    argv = ["evolve", "--out", str(tmp_path / "o")]
    if where == "flag":
        argv += ["--tolerance", value]
        message = f"error: unrecognized arguments: --tolerance {value}"
    else:
        cfg["tolerance"] = float(value)
        message = "error: tolerance must be finite and >= 0"
    argv += ["--config", _write(tmp_path, "run.json", cfg)]
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "resolved_config.json").exists()


def test_gates_fail_on_nan_measurements(tmp_path, monkeypatch):
    """A NaN reality residual, deviation or slope fails its gate with exit 2."""
    integrate, lockstep = cli.dynamics.integrate, cli.dynamics.lockstep

    def nan_final_reality(*args, **kwargs):  # read by evolve
        result = integrate(*args, **kwargs)
        result.reality[-1] = np.nan
        return result

    def nan_final_states(*args, **kwargs):  # read by compare
        times, states = lockstep(*args, **kwargs)
        return times, (y if k < times.size - 1 else np.full_like(y, np.nan)
                       for k, y in enumerate(states))

    monkeypatch.setattr(cli.dynamics, "integrate", nan_final_reality)
    monkeypatch.setattr(cli.dynamics, "lockstep", nan_final_states)
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
    cfg = {**_SCAN_BASE, "scan": {"mode": "bilinear", "twice_s_values": [6, 10],
                                  "l_test": 3, "expected_slope": -1.0}}
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

    tight = _write(tmp_path, "tight.json", dict(cfg, tolerance=1e-30))
    rc = cli.main(["compare", "--config", tight, "--out", str(tmp_path / "o2")])
    assert rc == 2


@pytest.mark.parametrize("command, written_file", [("evolve", "trajectory.csv"),
                                                   ("compare", "compare.csv")],
                         ids=["evolve", "compare"])
def test_no_bath_runs_the_unitary_model_of_an_empty_bath(tmp_path, capsys, command,
                                                        written_file):
    """A config with no "bath" section is the unitary model: evolve and compare
    write the bytes they write for "bath": {}, evolve with a validity ratio
    of 0 on stderr."""
    cfg = _evolve_config(spin={"twice_s": 4}, time={"t_end": 1.0, "dt": 0.1})
    written = []
    for name, bath in (("none", None), ("empty", {})):
        run = {k: v for k, v in cfg.items() if k != "bath"}
        if bath is not None:
            run["bath"] = bath
        out = tmp_path / name
        assert cli.main([command, "--config", _write(tmp_path, f"{name}.json", run),
                         "--out", str(out)]) == 0
        if command == "evolve":
            assert "validity ratio gamma/(S T) = 0\n" in capsys.readouterr().err
        written.append((out / written_file).read_bytes())
    assert written[0] == written[1]
    if command == "compare":
        deviations = [float(r.split(",")[1]) for r in written[0].decode().splitlines()[1:]]
        assert max(deviations) < 1e-13


@pytest.mark.parametrize("route", ["qfp_generator", "master_liouvillian"])
def test_compare_names_the_first_step_at_which_either_route_overflows(tmp_path, capsys,
                                                                       monkeypatch, route):
    """The symbol route or the oracle under 1e3 I overflows at step 8/10; the
    route that stays finite does not move the step named, in either order,
    and nothing is written."""
    if route == "qfp_generator":
        monkeypatch.setattr(cli.dynamics, route, lambda h, bath, sigma, ctx:
                            1e3 * sp.identity(ctx.symbol_dim, dtype=complex, format="csr"))
    else:
        monkeypatch.setattr(cli.dynamics, route, lambda h, f, gamma, temperature:
                            1e3 * sp.identity(h.shape[0] ** 2, dtype=complex, format="csr"))
    cfg = {"spin": {"twice_s": 2}, "hamiltonian": {"expression": [[-1.0, [3]]]},
           "bath": {"coupling": [[1.0, [1]]], "gamma": 0.1, "temperature": 1.0},
           "initial": {"coherent": {"theta": 0.9, "phi": 0.0}},
           "time": {"t_end": 1.0, "dt": 0.1}}
    out = tmp_path / "o"
    assert cli.main(["compare", "--config", _write(tmp_path, "cmp.json", cfg),
                     "--out", str(out)]) == 3
    assert ("numerical failure: non-finite state at t = 0.8 (step 8/10, dt = 0.1)"
            in capsys.readouterr().err)
    assert not (out / "compare.csv").exists()
    assert not (out / "resolved_config.json").exists()


def test_compare_integrates_with_the_configured_method(tmp_path, capsys, monkeypatch):
    """An rk4 config exits 1, naming the value, before anything is written;
    an expm one runs both trajectories with expm, which agree to rounding."""
    cfg = {
        "spin": {"twice_s": 4},
        "hamiltonian": {"expression": [[-1.0, [3]]]},
        "bath": {"coupling": [[1.0, [1]]], "gamma": 0.1, "temperature": 10.0},
        "initial": {"coherent": {"theta": 0.9, "phi": 0.0}},
        "time": {"t_end": 0.05, "dt": 0.01, "method": "rk4"},
    }
    out = tmp_path / "o"
    assert cli.main(["compare", "--config", _write(tmp_path, "rk4.json", cfg),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: time method must be \"expm\"" in err and "'rk4'" in err
    assert not out.exists()

    methods = []  # one per trajectory, by the stepper it builds
    for name, method in (("_taylor_step", "expm"), ("_rk4_step", "rk4")):
        stepper = getattr(cli.dynamics, name)
        monkeypatch.setattr(cli.dynamics, name, lambda *args, method=method, stepper=stepper:
                            methods.append(method) or stepper(*args))
    cfg["time"]["method"] = "expm"
    assert cli.main(["compare", "--config", _write(tmp_path, "ok.json", cfg),
                     "--out", str(out)]) == 0
    assert methods == ["expm", "expm"]
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 6 and max(float(r[1]) for r in rows) < 1e-10


def _sigma_one_config():
    """An exact run at sigma = 1 and 2S=40 (README bath, expm): read at sigma,
    rounding in the top shell gives a reality residual of 6.6e-6."""
    return _evolve_config(spin={"twice_s": 40}, sigma=1.0,
                          hamiltonian={"expression": [[-1.0, [3]]]},
                          time={"t_end": 1.0, "dt": 0.05, "method": "expm"})


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_exact_runs_at_sigma_one_pass_the_sigma_zero_gates(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert cli.main([command, "--config", _write(tmp_path, "run.json", _sigma_one_config()),
                     "--out", str(out)]) == 0
    captured = capsys.readouterr()
    if command == "evolve":
        measured = float(captured.err.split("reality residual = ")[1].split()[0])
    else:
        measured = float(captured.out.split("max deviation = ")[1].split()[0])
        deviations = [float(row.split(",")[1]) for row in
                      (out / "compare.csv").read_text().splitlines()[1:]]
        assert max(deviations) == pytest.approx(measured, rel=1e-5)
    assert measured < 1e-13


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_sigma_zero_gates_fail_a_corrupted_top_shell(tmp_path, monkeypatch, capsys, command):
    """A non-real 1e-6 in one top-shell coefficient of the sigma = 0 image of
    the initial symbol (an operator error of about 1e-6) fails both gates.
    compare's oracle starts from the uncorrupted rho0."""
    initial_state = cli._initial_state

    def bumped(cfg, ctx, sigma):
        rho0, c0 = initial_state(cfg, ctx, sigma)
        bump = np.zeros(ctx.symbol_dim, dtype=complex)
        bump[so.flat_index(ctx.band_limit, 0)] = 1e-6j
        return rho0, c0 + cli.sw_transform.switch_ordering(bump, 0.0, sigma, ctx)

    monkeypatch.setattr(cli, "_initial_state", bumped)
    assert cli.main([command, "--config", _write(tmp_path, "run.json", _sigma_one_config()),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert ("conservation violated" if command == "evolve" else "exceeds tolerance") in err


def _compare_config(twice_s, sigma, t_end=0.2):
    """H = -S3 + 0.2 S1 S1 with the README bath, expm, dt 0.05."""
    return _evolve_config(spin={"twice_s": twice_s}, sigma=sigma,
                          hamiltonian={"expression": [[-1.0, [3]], [0.2, [1, 1]]]},
                          time={"t_end": t_end, "dt": 0.05, "method": "expm"})


@pytest.mark.parametrize("sigma", [-1.0, 1.0])
@pytest.mark.parametrize("twice_s", [64, 80])
def test_compare_verifies_exactness_above_2s_plus_1_of_64(tmp_path, capsys, twice_s, sigma):
    """The sparse oracle has no size cap: the gap stays at rounding level."""
    cfg_path = _write(tmp_path, "cmp.json", _compare_config(twice_s, sigma))
    assert cli.main(["compare", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    assert float(capsys.readouterr().out.split("max deviation = ")[1].split()[0]) <= 1e-13


def test_compare_peak_memory_at_2s_40(tmp_path):
    """The oracle's Liouvillian is sparse: a dense one alone is 45 MB at 2S=40."""
    cfg_path = _write(tmp_path, "cmp.json", _compare_config(40, 0.5, t_end=1.0))
    tracemalloc.start()
    try:
        assert cli.main(["compare", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_compare_memory_does_not_grow_with_the_step_count(tmp_path):
    """compare steps both routes in lockstep and holds only the current
    states: ten times the steps peak within 10% of the one-time run.  Two kept
    trajectories would grow by 2 x 16 B x (2S+1)^2 per step, 5.1 MB over the
    360 extra steps here."""
    peaks = []
    for t_end in (2.0, 20.0):  # 40 and 400 steps of 0.05
        cfg_path = _write(tmp_path, f"cmp{t_end}.json", _compare_config(20, 0.5, t_end))
        tracemalloc.start()
        try:
            assert cli.main(["compare", "--config", cfg_path,
                             "--out", str(tmp_path / f"o{t_end}")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rows = (tmp_path / f"o{t_end}" / "compare.csv").read_text().splitlines()
        assert len(rows) == 2 + round(t_end / 0.05)
    assert peaks[1] <= 1.1 * peaks[0]


def test_compare_computes_no_symbol_observables(tmp_path, monkeypatch):
    def unread(*args, **kwargs):
        raise AssertionError("compare reads only the symbol states")

    monkeypatch.setattr(cli.dynamics, "_symbol_observables", unread)
    cfg_path = _write(tmp_path, "cmp.json", _compare_config(4, 0.5))
    assert cli.main(["compare", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0


def test_limit_scan_bilinear_without_damping_reports_vanishing_deviation(tmp_path, capsys):
    """At gamma = 0 both generators are the drift i b.L: every deviation is
    rounding, no slope is fitted, and the gate passes."""
    cfg = {
        **_SCAN_BASE,
        "scan": {"mode": "bilinear", "twice_s_values": [6, 10, 14],
                 "l_test": 3, "expected_slope": -1.0},
        "sigma": 0.0,
        "hamiltonian": {"expression": [[-0.3, [1]], [0.2, [2]], [-1.0, [3]]]},
    }
    cfg_path = _write(tmp_path, "scan.json", cfg)
    rc = cli.main(["limit-scan", "--config", cfg_path,
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "slope = nan" in capsys.readouterr().out
    with open(tmp_path / "o" / "scan.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["S", "deviation"]
    assert [float(r[0]) for r in rows[1:]] == [3.0, 5.0, 7.0]
    assert all(float(r[1]) <= cli.dynamics._ROUNDING for r in rows[1:])


def test_limit_scan_bilinear_slope_gate(tmp_path):
    cfg = {
        "scan": {"mode": "bilinear", "twice_s_values": [10, 20, 40],
                 "l_test": 3, "expected_slope": -1.0},
        "sigma": -1.0,
        "hamiltonian": {"expression": [[-1.0, [3]]]},
        "bath": {"coupling": [[1.0, [1]]], "gamma": 2.0, "temperature": 0.1},
    }
    cfg_path = _write(tmp_path, "scan.json", cfg)
    assert cli.main(["limit-scan", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 0
    cfg["scan"]["expected_slope"] = -2.0  # wrong law must be flagged
    cfg_path = _write(tmp_path, "scan2.json", cfg)
    assert cli.main(["limit-scan", "--config", cfg_path,
                     "--out", str(tmp_path / "o2")]) == 2


def _readme_asymptotics_config():
    text = (ROOT / "README.md").read_text()
    return json.loads(re.search(r"Example asymptotics `limit-scan` config.*?```json\n(.*?)```",
                                text, re.S).group(1))


@pytest.mark.parametrize("sigma", [None, -0.5, 0.5])
def test_readme_asymptotics_scan_fits_minus_two(tmp_path, capsys, sigma):
    """The README's asymptotics scan over 2S up to 10^5 fits slope -2 +- 0.01,
    as written (sigma = 0) and at two other orderings."""
    cfg = _readme_asymptotics_config()
    if sigma is not None:
        cfg["sigma"] = sigma
    assert cli.main(["limit-scan", "--config", _write(tmp_path, "scan.json", cfg),
                     "--out", str(tmp_path / "o")]) == 0
    assert abs(float(capsys.readouterr().out.split("slope = ")[1]) + 2.0) <= 0.01


@pytest.mark.parametrize("sigma", [-1.0, 1.0])
def test_asymptotics_scan_at_constant_orderings_has_no_slope(tmp_path, capsys, sigma):
    """At sigma = +-1 the tables equal their asymptotic forms, so the deviations
    are rounding and the gate passes through the undefined-slope path."""
    cfg = _readme_asymptotics_config()
    cfg["sigma"] = sigma
    assert cli.main(["limit-scan", "--config", _write(tmp_path, "scan.json", cfg),
                     "--out", str(tmp_path / "o")]) == 0
    assert "slope = nan" in capsys.readouterr().out
    with open(tmp_path / "o" / "scan.csv", newline="") as fh:
        assert all(float(r[1]) <= 1e-15 for r in list(csv.reader(fh))[1:])


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
           "operator": {"expression": [[1.0, [3]]]}}
    cfg_path = _write(tmp_path, "s.json", cfg)
    assert cli.main(["symbol", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "symbol.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # S3 symbols are l = 1 harmonics: proportional to cos(theta), phase-free
    vals = {}
    for r in rows[1:]:
        vals.setdefault(float(r[0]), []).append(float(r[2]))
        assert abs(float(r[3])) < 1e-12
    by_theta = np.array([np.mean(vals[t]) for t in sorted(vals)])
    ct = np.cos(so.grid_points(2)[0])
    scale = np.dot(by_theta, ct) / np.dot(ct, ct)
    assert scale > 0
    np.testing.assert_allclose(by_theta, scale * ct, atol=1e-10)


def _grid_columns(path):
    """(theta, phi, value_re, value_im) columns of a grid CSV."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T


def test_symbol_of_s3_is_exact_at_sigma_one_and_2s_80(tmp_path):
    """The sigma = 1 symbol of S3 is (S+1) cos(theta): at 2S = 80 every written
    value is within 1e-12 (S+1) of it, with a zero imaginary part.  Through
    the transform's factors w_l^-1 the values reached 5.4e8."""
    cfg = {"spin": {"twice_s": 80}, "sigma": 1.0, "operator": {"expression": [[1.0, [3]]]}}
    assert cli.main(["symbol", "--config", _write(tmp_path, "s.json", cfg),
                     "--out", str(tmp_path / "o")]) == 0
    theta, _, re_, im = _grid_columns(tmp_path / "o" / "symbol.csv")
    assert theta.size == 81 * 162
    assert np.max(np.abs(re_ - 41.0 * np.cos(theta))) <= 1e-12 * 41.0
    assert np.all(im == 0.0)


def test_evolve_from_the_mixed_state_stays_uniform_at_sigma_one_and_2s_80(tmp_path):
    """The mixed state, the expression 1 over its trace, has the constant symbol
    1/(2S+1), and H = -S3 keeps it: at 2S = 80, sigma = 1 the final grid is 1/81
    to 1e-15, where the mixed state's transform wrote values up to 1.9e6."""
    cfg = {"spin": {"twice_s": 80}, "sigma": 1.0,
           "hamiltonian": {"expression": [[-1.0, [3]]]}, "initial": {"expression": [[1, []]]},
           "time": {"t_end": 0.1, "dt": 0.05}, "outputs": {"grid": "grid.csv"}}
    assert cli.main(["evolve", "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(tmp_path / "o")]) == 0
    _, _, re_, im = _grid_columns(tmp_path / "o" / "grid.csv")
    assert re_.size == 81 * 162
    assert np.max(np.abs(re_ - 1.0 / 81)) <= 1e-15
    assert np.all(im == 0.0)


def _tilted_state(twice_s):
    """rho = (1 + 0.9 n.S/S)/(2S+1), n at (theta, phi) = (1.1, 0.4), as an
    initial expression, and the bound (1 + 0.9 (S+1)/S)/(2S+1) on its sigma = 1
    symbol (1 + 0.9 (S+1)/S n.m)/(2S+1): the sigma = 1 symbol of S_k is (S+1) m_k."""
    s = twice_s / 2
    n = (math.sin(1.1) * math.cos(0.4), math.sin(1.1) * math.sin(0.4), math.cos(1.1))
    return ([[1.0, []]] + [[0.9 * n_k / s, [k]] for k, n_k in enumerate(n, 1)],
            (1 + 0.9 * (s + 1) / s) / (twice_s + 1))


@pytest.mark.parametrize("twice_s", [80, 160])
def test_evolve_from_an_expression_stays_within_its_p_symbol(tmp_path, twice_s):
    """H = -S3 rotates the tilted state's sigma = 1 symbol, so every value of
    the final grid stays within the symbol's bound (0.0237 at 2S = 80, 0.0119
    at 160) and is real to 1e-15.  The same state read from a matrix through
    the transform wrote values up to 3.0e6 at 2S = 80."""
    expr, bound = _tilted_state(twice_s)
    cfg = {"spin": {"twice_s": twice_s}, "sigma": 1.0,
           "hamiltonian": {"expression": [[-1.0, [3]]]}, "initial": {"expression": expr},
           "time": {"t_end": 0.1, "dt": 0.05}, "outputs": {"grid": "grid.csv"}}
    assert cli.main(["evolve", "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(tmp_path / "o")]) == 0
    _, _, re_, im = _grid_columns(tmp_path / "o" / "grid.csv")
    assert re_.size == (twice_s + 1) * (2 * twice_s + 2)
    assert 0.999 * bound <= np.max(np.abs(re_)) <= bound * (1 + 1e-12)
    assert np.max(np.abs(im)) <= 1e-15


@pytest.mark.parametrize("twice_s", [80, 160])
@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_coherent_start_rotates_as_its_closed_form_at_every_sigma(tmp_path, twice_s, sigma):
    """H = -S3 with no bath turns the coherent state at (1.1, 0.4) to (1.1, 0.4 - t):
    the grid written at t = 0.5 is the closed-form symbol there to 1e-11 and
    within the exact bound 2S + 1.  The closed form is the band-limited delta
    (4pi/(2S+1)) sum_lm conj(Y_lm(n)) Y_lm at sigma = 1, switched to sigma.
    Read through the transform's factors w_l^-sigma, the start wrote values
    up to 6.3e6 at 2S = 80, sigma = 1 and 7.3e30 at 2S = 160, sigma = 1."""
    cfg = {"spin": {"twice_s": twice_s}, "sigma": sigma,
           "hamiltonian": {"expression": [[-1.0, [3]]]},
           "initial": {"coherent": {"theta": 1.1, "phi": 0.4}},
           "time": {"t_end": 0.5, "dt": 0.05}, "outputs": {"grid": "grid.csv"}}
    assert cli.main(["evolve", "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(tmp_path / "o")]) == 0
    _, _, re_, im = _grid_columns(tmp_path / "o" / "grid.csv")
    ctx = cli.SpinContext(twice_s)
    delta = np.conj(so.ylm_point(twice_s, 1.1, 0.4 - 0.5)) / cli.sw_transform.measure_constant(ctx)
    want = so.grid_values(twice_s, cli.sw_transform.switch_ordering(delta, 1.0, sigma, ctx))
    assert np.max(np.abs(re_ + 1j * im - want.ravel())) <= 1e-11
    assert np.max(np.abs(re_)) <= twice_s + 1


@pytest.mark.parametrize("sigma", [-1.0, 0.0, 0.5, 1.0])
def test_coherent_start_symbol_is_the_legendre_sum_of_the_delta(sigma):
    """The coherent start's symbol at sigma is sum_l (2l+1)/(2S+1) w_l^(1-sigma)
    P_l(n.m), with w_l the Racah-sum <S,S; l,0 | S,S> and P_l scipy's: at 2S = 20
    it matches on the whole grid to 1e-12."""
    twice_s, theta, phi = 20, 1.1, 0.4
    _, c0 = cli._initial_state({"initial": {"coherent": {"theta": theta, "phi": phi}}},
                               cli.SpinContext(twice_s), sigma)
    thetas, phis = so.grid_points(twice_s)
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    cos_gamma = np.cos(t) * math.cos(theta) + np.sin(t) * math.sin(theta) * np.cos(p - phi)
    want = sum((2 * l + 1) / (twice_s + 1) * eval_legendre(l, cos_gamma)
               * oracles.clebsch_gordan(twice_s, twice_s, 2 * l, 0, twice_s, twice_s)
               ** (1 - sigma) for l in range(twice_s + 1))
    assert np.max(np.abs(so.grid_values(twice_s, c0) - want)) <= 1e-12


def test_coherent_evolve_reports_the_transform_self_check(tmp_path, capsys):
    """A coherent evolve prints max |operator_to_symbol(rho, 0) - its closed form
    at sigma = 0| on stderr, a self-check of the transform that gates nothing;
    at 2S = 40 it is at rounding level."""
    cfg = _evolve_config(spin={"twice_s": 40}, sigma=1.0, time={"t_end": 0.1, "dt": 0.05})
    assert cli.main(["evolve", "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(tmp_path / "o")]) == 0
    found = re.search(r"^transform self-check = (\S+)$", capsys.readouterr().err, re.M)
    assert found and float(found.group(1)) <= 1e-14


def test_polynomials_reach_their_symbols_without_the_transform(tmp_path, monkeypatch):
    """symbol of an expression, and evolve from an initial expression with its
    Hermiticity checks and observables, never call operator_to_symbol."""
    def unread(*args):
        raise AssertionError("operator_to_symbol called")

    monkeypatch.setattr(cli.sw_transform, "operator_to_symbol", unread)
    sym = {"spin": {"twice_s": 6}, "sigma": 0.5,
           "operator": {"expression": [[1.0, [1, 2]], [1.0, [2, 1]]]}}
    assert cli.main(["symbol", "--config", _write(tmp_path, "s.json", sym),
                     "--out", str(tmp_path / "s")]) == 0
    cfg = _evolve_config(initial={"expression": _tilted_state(6)[0]}, sigma=0.5,
                         time={"t_end": 0.2, "dt": 0.1})
    assert cli.main(["evolve", "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(tmp_path / "e")]) == 0


@pytest.mark.parametrize("hamiltonian, bath", [
    ([[1e306, [3]]], None),
    ([[1e200, [3, 3]]], {"coupling": [[1e200, [1]]], "gamma": 1.0}),
    ([[1e300, [3]]], None),
], ids=["substeps-overflow", "generator-nan", "substeps-above-max-steps"])
def test_evolve_refuses_a_generator_without_finite_taylor_parameters(tmp_path, capsys,
                                                                    hamiltonian, bath):
    """H = 1e306 S3 would take 2.0e305 Taylor substeps a step (a count that
    overflowed under the theta_m table used before), 1e200 S3S3 with
    F = 1e200 S1 gives a NaN generator and so no finite count, and 1e300 S3
    would take 2.0e299 substeps a step: each exits 3 before the first step and
    writes no file, where it raised an OverflowError, exited 1 or ran for ever."""
    cfg = {"spin": {"twice_s": 4}, "hamiltonian": {"expression": hamiltonian},
           "initial": {"expression": [[1, []]]}, "time": {"t_end": 1.0, "dt": 0.5}}
    if bath is not None:
        cfg["bath"] = bath
    out = tmp_path / "o"
    assert cli.main(["evolve", "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(out)]) == 3
    assert "numerical failure: ||A||_1 = " in capsys.readouterr().err
    assert not out.exists()


def test_evolve_refuses_an_overflowing_hamiltonian_with_exit_three(tmp_path, capsys):
    """1e308 S3S3 is Hermitian, but its symbol overflows: evolve exits 3 and
    writes no file, where it exited 1 as if H were non-Hermitian."""
    cfg = {"spin": {"twice_s": 4}, "hamiltonian": {"expression": [[1e308, [3, 3]]]},
           "initial": {"expression": [[1, []]]}, "time": {"t_end": 1.0, "dt": 0.5}}
    out = tmp_path / "o"
    assert cli.main(["evolve", "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(out)]) == 3
    assert ("numerical failure: the symbol of the Hamiltonian overflows"
            in capsys.readouterr().err)
    assert not out.exists()


def test_compare_refuses_an_overflowing_hamiltonian_before_any_matrix(tmp_path, capsys):
    """compare checks H through qfp_generator before it builds the
    Hilbert-space matrices, whose products of 1e308 S3S3 overflow with a
    RuntimeWarning (an uncaught error under the suite's warning filter)."""
    cfg = {"spin": {"twice_s": 4}, "hamiltonian": {"expression": [[1e308, [3, 3]]]},
           "bath": {"coupling": [[1.0, [1]]]}, "initial": {"expression": [[1, []]]},
           "time": {"t_end": 1.0, "dt": 0.5}}
    out = tmp_path / "o"
    assert cli.main(["compare", "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(out)]) == 3
    assert ("numerical failure: the symbol of the Hamiltonian overflows"
            in capsys.readouterr().err)
    assert not out.exists()


def test_symbol_refuses_non_finite_grid_values(tmp_path, capsys):
    """1e308 S3S3 overflows its symbol: symbol exits 3 and writes no file,
    where it wrote 50 NaN rows and exited 0.  The grid writer refuses before
    it opens the file."""
    cfg = {"spin": {"twice_s": 4}, "sigma": 1.0,
           "operator": {"expression": [[1e308, [3, 3]]]}}
    out = tmp_path / "o"
    assert cli.main(["symbol", "--config", _write(tmp_path, "s.json", cfg),
                     "--out", str(out)]) == 3
    assert "numerical failure: 50 grid values are not finite" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(RuntimeError, match="grid values are not finite"):
        cli._write_grid(tmp_path / "g.csv", 4, np.full(25, 1e308))
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("where", ["config", "flag"])
@pytest.mark.parametrize("command, key", [
    ("evolve", "seed"), ("compare", "seed"), ("limit-scan", "seed"), ("kernel", "seed"),
    ("symbol", "seed"), ("kernel", "tolerance"), ("symbol", "tolerance")])
def test_commands_refuse_a_seed_or_tolerance_they_do_not_read(tmp_path, capsys, command,
                                                              key, where):
    """No command reads a seed, and only evolve, compare and limit-scan gate on
    a tolerance.  Elsewhere the key exits 1 before any file is written,
    as does the flag, which no command takes, and the resolved config of a run
    without it does not echo it."""
    cfg = {"evolve": _evolve_config(), "compare": _evolve_config(),
           "limit-scan": json.loads(json.dumps(_SCAN_BASE)), "kernel": {"spin": {"twice_s": 2}},
           "symbol": {"spin": {"twice_s": 2}, "operator": {"expression": [[1.0, [3]]]}}}[command]
    good = _write(tmp_path, "good.json", cfg)
    argv = [command, "--out", str(tmp_path / "o")]
    if where == "flag":
        argv += [f"--{key}", "3", "--config", good]
        message = f"error: unrecognized arguments: --{key} 3"
    else:
        argv += ["--config", _write(tmp_path, "bad.json", dict(cfg, **{key: 3}))]
        message = f"error: unknown config keys for {command}: {key}"
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert cli.main([command, "--config", good, "--out", str(tmp_path / "o")]) == 0
    assert key not in json.loads((tmp_path / "o" / "resolved_config.json").read_text())


@pytest.mark.parametrize("command, key, missing", [
    ("evolve", "grid", '"outputs": {"grid": <file name>}'),
    ("limit-scan", "tolerance", '"scan": {"expected_slope": <slope>}')],
    ids=["evolve-grid", "limit-scan-tolerance"])
def test_a_setting_left_unread_by_another_exits_one(tmp_path, capsys, command, key, missing):
    """evolve reads "grid" only to write outputs.grid, and limit-scan reads its
    tolerance only to gate scan.expected_slope.  Without the other key the
    setting would be ignored, and a scan would echo a tolerance it never used,
    so the run exits 1 before any file is written, naming the missing key."""
    if command == "evolve":
        cfg = _evolve_config(grid={"band_limit": 50})
    else:
        cfg = dict(json.loads(json.dumps(_SCAN_BASE)), tolerance=1e-9)
    out = tmp_path / "o"
    assert cli.main([command, "--config", _write(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == 1
    assert f'error: "{key}" is read only with {missing}' in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("evolve", "--tolerance"), ("compare", "--tolerance"), ("limit-scan", "--tolerance"),
    ("symbol", "--seed")])
def test_the_config_is_the_only_channel_for_tolerance_and_seed(tmp_path, capsys, command,
                                                               flag):
    """The flags that once set a command's tolerance or seed are gone: each
    exits 1 naming itself and creates no output directory."""
    cfg_path = _write(tmp_path, "c.json", {"spin": {"twice_s": 2}})
    out = tmp_path / "o"
    assert cli.main([command, "--config", cfg_path, "--out", str(out), flag, "1"]) == 1
    assert f"error: unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not out.exists()


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

    cfg = {"spin": {"twice_s": 2}, "operator": {"expression": [[1.0, [7]]]}}
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
    lambda tmp: [],
], ids=["coherent-without-theta", "missing-matrix-file", "band-limit-string",
        "band-limit-null", "band-limit-fractional", "kernel-band-limit-fractional",
        "root-list"])
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
                "hamiltonian": {"expression": [[-1.0, [3]]]},
                "bath": {"coupling": [[1.0, [1]]], "gamma": 0.1, "temperature": 1.0}}


@pytest.mark.parametrize("command, path, value, message", [
    ("evolve", "initial.coherent.theta", None, "coherent theta must be a number"),
    ("evolve", "time.dt", None, "time dt must be a number"),
    ("evolve", "bath.gamma", None, "bath gamma must be a number"),
    ("evolve", "bath", [], '"bath" must be an object'),
    ("evolve", "bath", None, '"bath" must be an object, got None'),
    ("compare", "bath", None, '"bath" must be an object, got None'),
    ("evolve", "outputs", [], '"outputs" must map names'),
    ("symbol", "seed", 2.7, "unknown config keys for symbol: seed"),  # no command reads it
    ("limit-scan", "scan.l_test", 3.7, "scan l_test must be an integer"),
    # the removed forms: whatever they hold, the key itself is refused
    ("evolve", "hamiltonian", {"quadratic": []},
     'unknown config keys in "hamiltonian" for evolve: quadratic'),
    ("symbol", "operator", {"spin_component": 1.5},
     'unknown config keys in "operator" for symbol: spin_component'),
    ("limit-scan", "scan.twice_s_values", 5, 'scan needs "twice_s_values"'),
    ("limit-scan", "scan.twice_s_values", [8, 12.5],
     "scan twice_s_values entry must be an integer"),
    ("limit-scan", "scan.mode", "foo", "scan mode must be"),
    ("limit-scan", "scan.mode", "unitary", 'scan mode must be "bilinear" or "asymptotics"'),
    ("limit-scan", "field", [0, 0], "unknown config keys for limit-scan: field"),
    ("limit-scan", "xi", [1.0, 0.0, None], "unknown config keys for limit-scan: xi"),
    ("limit-scan", "scan.expected_slope", [1], "scan expected_slope must be a number"),
    ("limit-scan", "temperature", "hot", "unknown config keys for limit-scan: temperature"),
    ("limit-scan", "gamma", True, "unknown config keys for limit-scan: gamma"),
    ("evolve", "hamiltonian.expression", [[-1.0, 3]], "expression term [-1.0, 3] is not"),
    ("evolve", "bath.coupling", [[1.0, 1]], "expression term [1.0, 1] is not"),
    ("evolve", "hamiltonian.expression", [[None, [3]]], "coefficient must be a number"),
    ("evolve", "hamiltonian.expression", [[True, [3]]], "coefficient must be a number"),
    ("evolve", "hamiltonian.expression", [[-1.0, [1.5]]], "word component must be an integer"),
    ("evolve", "sigma", None, "sigma must be a number"),
    # the removed matrix_file, mixed and random_hermitian: the key itself is refused
    ("evolve", "initial", {"matrix_file": 3},
     'unknown config keys in "initial" for evolve: matrix_file'),
    ("evolve", "initial", {"mixed": "no"}, 'unknown config keys in "initial" for evolve: mixed'),
    ("evolve", "spin.twice_s", None, "spin twice_s must be an integer"),
    ("compare", "sigma", [0], "sigma must be a number"),
    ("compare", "bath.coupling", [[[1.0, None], [1]]], "coefficient im must be a number"),
    ("symbol", "sigma", None, "sigma must be a number"),
    ("symbol", "operator", {"expression": [[None, [1]]]}, "coefficient must be a number"),
    ("symbol", "operator", {"random_hermitian": "no"},
     'unknown config keys in "operator" for symbol: random_hermitian'),
    # the removed "quadratic" form, malformed: refused by its key before its content
    ("evolve", "hamiltonian", {"quadratic": {"d": {}}},
     'unknown config keys in "hamiltonian" for evolve: quadratic'),
    ("evolve", "hamiltonian", {"quadratic": {"d": [[0, 0, 0], [0, None, 0], [0, 0, 0]]}},
     'unknown config keys in "hamiltonian" for evolve: quadratic'),
    ("evolve", "hamiltonian", {"quadratic": {"b": [True, 0, 1]}},
     'unknown config keys in "hamiltonian" for evolve: quadratic'),
    ("evolve", "hamiltonian", {"quadratic": {"d": [[0, 0, 0], [0, 0], [0, 0, 0]]}},
     'unknown config keys in "hamiltonian" for evolve: quadratic'),
    ("evolve", "hamiltonian.expression", [[-1.0, [1, 2]]], "Hamiltonian must be Hermitian"),
    ("evolve", "initial.coherent.theta", math.inf, "coherent theta must be finite"),
    ("evolve", "initial.coherent.phi", math.inf, "coherent phi must be finite"),
    ("evolve", "hamiltonian.expression", [[math.nan, [3]]], "coefficient must be finite"),
    ("evolve", "hamiltonian.expression", [[[math.inf, 0], [3]]],
     "coefficient re must be finite"),
    ("evolve", "bath.coupling", [[math.nan, [1]]], "coefficient must be finite"),
    ("compare", "bath.coupling", [[[1.0, -math.inf], [1]]], "coefficient im must be finite"),
    ("evolve", "hamiltonian", {"quadratic": {"d": [[math.inf, 0, 0], [0, 0, 0], [0, 0, 0]]}},
     'unknown config keys in "hamiltonian" for evolve: quadratic'),
    ("evolve", "hamiltonian", {"quadratic": {"b": [0, 0, math.nan]}},
     'unknown config keys in "hamiltonian" for evolve: quadratic'),
    ("limit-scan", "field", [0, 0, math.nan], "unknown config keys for limit-scan: field"),
    ("limit-scan", "xi", [math.inf, 0, 0], "unknown config keys for limit-scan: xi"),
    ("limit-scan", "scan.expected_slope", math.nan, "scan expected_slope must be finite"),
    ("limit-scan", "scan.l_test", -1, "l_test must be >= 0"),
    ("limit-scan", "scan.twice_s_values", [40],
     "twice_s_values needs at least two distinct values"),
    ("limit-scan", "scan.twice_s_values", [40, 40],
     "twice_s_values needs at least two distinct values"),
    ("limit-scan", "scan.twice_s_values", [0, 10], "twice_s must be >= 1"),
    ("limit-scan", "hamiltonian.expression", [[math.nan, [3]]], "coefficient must be finite"),
    ("limit-scan", "hamiltonian.expression", [[1.0, [1, 2]]], "Hamiltonian must be Hermitian"),
    ("limit-scan", "hamiltonian", [], 'config needs "hamiltonian"'),
    ("limit-scan", "bath.coupling", [[1.0, [1, 2]]], "the scan's coupling must be xi.S"),
    ("limit-scan", "bath.coupling", [[[1.0, 0.5], [1]]], "the scan's coupling must be xi.S"),
    ("limit-scan", "bath.temperature", "hot", "bath temperature must be a number"),
    ("limit-scan", "bath", [], '"bath" must be an object'),
    ("limit-scan", "bath", None, '"bath" must be an object, got None'),
    # a missing section, a malformed expression, a section with no alternative
    ("evolve", "spin", None, 'config needs "spin": {"twice_s": <int>}'),
    ("evolve", "initial", None, 'config needs an "initial" section'),
    ("evolve", "time", None, 'config needs a "time" section'),
    ("limit-scan", "scan", None, 'config needs a "scan" section'),
    ("symbol", "operator", None, 'config needs "operator": {"expression": [[coeff, word], ...]}'),
    ("evolve", "hamiltonian.expression", [[[1.0], [3]]],
     "complex coefficient must be [re, im], got [1.0]"),
    ("evolve", "hamiltonian.expression", 3, "expression must be a list of [coeff, word] pairs"),
    ("evolve", "initial", {}, 'initial needs "coherent" or "expression"'),
    ("symbol", "operator", {}, 'config needs "operator": {"expression": [[coeff, word], ...]}'),
    ("symbol", "grid", [], '"grid" must be an object'),
    ("evolve", "initial", {"expression": 3}, "expression must be a list of [coeff, word] pairs"),
    ("compare", "initial", {"expression": [[None, []]]}, "coefficient must be a number"),
], ids=["theta-null", "dt-null", "gamma-null", "bath-list", "bath-null", "compare-bath-null",
        "outputs-list",
        "seed-fractional", "l-test-fractional", "quadratic-list", "spin-component-fractional",
        "twice-s-values-number", "twice-s-values-fractional", "scan-mode-unknown",
        "scan-mode-unitary",
        "field-short", "xi-null", "expected-slope-list", "temperature-string", "gamma-boolean",
        "word-number", "coupling-word-number", "coeff-null", "coeff-boolean",
        "word-fractional", "sigma-null", "matrix-file-number", "mixed-string",
        "twice-s-null", "compare-sigma-list", "compare-coeff-im-null", "symbol-sigma-null",
        "symbol-coeff-null", "random-hermitian-string", "quadratic-d-object",
        "quadratic-d-null-entry", "quadratic-b-boolean", "quadratic-d-short-row",
        "quadratic-d-asymmetric", "theta-infinite", "phi-infinite", "coeff-nan",
        "coeff-re-infinite", "coupling-coeff-nan", "compare-coeff-im-infinite",
        "quadratic-d-infinite", "quadratic-b-nan", "field-nan", "xi-infinite",
        "expected-slope-nan", "l-test-negative", "twice-s-values-one",
        "twice-s-values-repeated", "twice-s-values-zero", "scan-coeff-nan",
        "scan-h-non-hermitian", "scan-hamiltonian-list", "scan-coupling-word-long",
        "scan-coupling-complex", "scan-temperature-string", "scan-bath-list", "scan-bath-null",
        "spin-missing", "initial-missing", "time-missing", "scan-missing",
        "operator-missing", "coeff-pair-short", "expression-number",
        "initial-empty", "operator-empty", "symbol-grid-list", "initial-expression-number",
        "initial-coeff-null"])
def test_malformed_field_types_exit_one_at_parse(tmp_path, capsys, command, path, value,
                                                  message):
    """A null number, a list where an object belongs or a fractional integer
    is refused with an error line: no traceback, no truncation, no files."""
    base = {"evolve": _evolve_config(), "compare": _evolve_config(),
            "limit-scan": json.loads(json.dumps(_SCAN_CONFIG)),
            "symbol": {"spin": {"twice_s": 2}, "operator": {"expression": [[1.0, [1]]]}}}[command]
    cfg = _with(base, path, value)
    out = tmp_path / "o"
    assert cli.main([command, "--config", _write(tmp_path, "bad.json", cfg),
                     "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


@pytest.mark.parametrize("name", ["absolute", "../x.csv", "sub/t.csv", ""])
def test_output_names_must_be_plain_file_names(tmp_path, capsys, name):
    """An output name with a directory part, or none at all, exits 1 before
    anything is written, inside --out or outside it."""
    if name == "absolute":
        name = str(tmp_path / "elsewhere.csv")
    cfg_path = _write(tmp_path, "bad.json", _evolve_config(outputs={"trajectory": name}))
    assert cli.main(["evolve", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    assert 'error: "outputs" file names must be plain names' in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad.json"]


# a bilinear scan at gamma = 0, where both generators are the drift i b.L: its
# deviations are rounding, so it exits 0 whatever slope a test expects
_SCAN_BASE = {"scan": {"mode": "bilinear", "twice_s_values": [6, 10]},
              "hamiltonian": {"expression": [[-1.0, [3]]]},
              "bath": {"coupling": [[1.0, [1]]], "gamma": 0.0, "temperature": 1.0}}


@pytest.mark.parametrize("command, outputs", [
    ("evolve", {"trajectory": "resolved_config.json"}),
    ("evolve", {"trajectory": "a.csv", "grid": "a.csv"}),
    ("evolve", {"grid": "trajectory.csv"}),
    ("compare", {"comparison": "resolved_config.json"}),
    ("limit-scan", {"scan": "resolved_config.json"}),
    ("kernel", {"kernel": "resolved_config.json"}),
    ("symbol", {"grid": "resolved_config.json"}),
], ids=["evolve-resolved", "evolve-shared", "evolve-default", "compare-resolved",
        "scan-resolved", "kernel-resolved", "symbol-resolved"])
def test_two_output_files_of_one_name_are_refused(tmp_path, capsys, command, outputs):
    """A file the run writes would overwrite another one of the same name, so
    the run exits 1 before anything is written."""
    base = {"evolve": _evolve_config(), "compare": _evolve_config(),
            "limit-scan": _SCAN_BASE, "kernel": {"spin": {"twice_s": 2}},
            "symbol": {"spin": {"twice_s": 2}, "operator": {"expression": [[1.0, [3]]]}}}[command]
    cfg_path = _write(tmp_path, "bad.json", {**base, "outputs": outputs})
    assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    assert "would overwrite another file of the run" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad.json"]


_FIVE_COMMANDS = {"evolve": ("trajectory.csv", _evolve_config()),
                  "compare": ("compare.csv", _evolve_config()),
                  "limit-scan": ("scan.csv", _SCAN_BASE),
                  "kernel": ("kernel.csv", {"spin": {"twice_s": 2}}),
                  "symbol": ("symbol.csv", {"spin": {"twice_s": 2},
                                            "operator": {"expression": [[1.0, [3]]]}})}


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", list(_FIVE_COMMANDS))
def test_an_out_that_cannot_be_a_directory_exits_one_before_any_computation(
        tmp_path, capsys, monkeypatch, command, under):
    """An --out that names an existing file, or a path under one, exits 1
    with an error: line before the command runs, and nothing is written."""
    def no_run(*args):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli._COMMANDS, command, (no_run, *cli._COMMANDS[command][1:]))
    cfg_path = _write(tmp_path, "run.json", _FIVE_COMMANDS[command][1])
    (tmp_path / "taken").write_text("kept")
    out = tmp_path / "taken" / "sub" if under else tmp_path / "taken"
    assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: --out {out} cannot be a directory: {tmp_path / 'taken'} exists "
                   "and is not one\n")
    assert sorted(os.listdir(tmp_path)) == ["run.json", "taken"]
    assert (tmp_path / "taken").read_text() == "kept"


@pytest.mark.parametrize("command", list(_FIVE_COMMANDS))
def test_an_output_that_cannot_be_written_exits_one_with_an_error_line(tmp_path, capsys,
                                                                        command):
    """A directory where the run's output file goes is found only when the file
    is opened: the OSError becomes an error: line, exit 1, and no resolved
    config."""
    name, cfg = _FIVE_COMMANDS[command]
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    assert cli.main([command, "--config", _write(tmp_path, "run.json", cfg),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: [Errno 21] Is a directory: '{out / name}'" in err
    assert "Traceback" not in err
    assert os.listdir(out) == [name]


def _readme_scan_config(mode):
    """The README's first limit-scan config of the given mode."""
    for block in re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        cfg = json.loads(block)
        if cfg.get("scan", {}).get("mode") == mode:
            return cfg
    raise LookupError(f"the README has no {mode} limit-scan config")


@pytest.mark.parametrize("mode", list(cli.dynamics._SCAN_MODES))
def test_every_scan_mode_has_a_readme_config_that_runs(tmp_path, capsys, mode):
    """Each row of the mode table is documented by a README config that
    passes its own slope gate, so no mode lands undocumented."""
    cfg = _readme_scan_config(mode)
    assert "expected_slope" in cfg["scan"]
    assert cli.main(["limit-scan", "--config", _write(tmp_path, "scan.json", cfg),
                     "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("mode", list(cli.dynamics._SCAN_MODES))
def test_limit_scan_refuses_l_test_zero_where_it_compares_nothing(tmp_path, capsys, mode):
    """Below a mode's least l_test the scan exits 1 before anything is written,
    and at it the scan runs.  bilinear's least is 1: every generator
    annihilates shell 0, so at l_test = 0 the compared block is zero and its
    relative deviation 0/0.  asymptotics' is 0: it compares the l = 0 shell
    tables, which 2S = 1 has too."""
    _, _, cut, least = cli.dynamics._SCAN_MODES[mode]
    cfg = _readme_scan_config(mode)
    cfg.pop("tolerance", None)
    del cfg["scan"]["expected_slope"]
    cfg["scan"].update(twice_s_values=[6, 10], l_test=least - 1)
    assert cli.main(["limit-scan", "--config", _write(tmp_path, "scan.json", cfg),
                     "--out", str(tmp_path / "o")]) == 1
    message = "scan l_test = 0 compares nothing" if least else "l_test must be >= 0"
    assert f"error: {message}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["scan.json"]

    # the least 2S at which l_test = least keeps clear of the row's top cut
    cfg["scan"].update(twice_s_values=[max(1, least + cut), 10], l_test=least)
    assert cli.main(["limit-scan", "--config", _write(tmp_path, "scan.json", cfg),
                     "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "scan.csv", newline="") as fh:
        assert [r[0] for r in csv.reader(fh)] == ["S", f"{max(1, least + cut) / 2:g}", "5"]


@pytest.mark.parametrize("mode", [["bilinear"], {"a": 1}], ids=["list", "object"])
def test_limit_scan_refuses_a_mode_that_is_no_string(tmp_path, capsys, mode):
    """A list or an object as scan.mode is refused with the mode message, exit
    1 and one error: line, where its lookup among the modes raised TypeError
    (unhashable) with a traceback; nothing is written."""
    cfg = _with(json.loads(json.dumps(_SCAN_CONFIG)), "scan.mode", mode)
    assert cli.main(["limit-scan", "--config", _write(tmp_path, "scan.json", cfg),
                     "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ('error: scan mode must be "bilinear" or "asymptotics", '
                                       f"got {mode!r}\n")
    assert os.listdir(tmp_path) == ["scan.json"]


# (hamiltonian, bath, the 2S refused): each overflows in the bilinear row's
# own arithmetic, the first in the classical block at 2S = 12, the second in
# the zero-block bound, the third in Lam = S gamma xi xi^T
_OVERFLOWING_SCANS = [
    ([[1e307, [3]]], {"coupling": [[1.0, [1]]], "gamma": 0.1, "temperature": 1.0}, 12),
    ([[-1.0, [3]]], {"coupling": [[1.0, [1]]], "gamma": 1e154, "temperature": 1e154}, 8),
    ([[-1.0, [3]]], {"coupling": [[1e200, [1]]], "gamma": 1e100, "temperature": 1.0}, 8),
]


@pytest.mark.parametrize("expected_slope", [None, -1.0], ids=["ungated", "gated"])
@pytest.mark.parametrize("expression, bath, twice_s", _OVERFLOWING_SCANS,
                         ids=["block", "bound", "lam"])
def test_limit_scan_overflow_exits_three_naming_its_spin(tmp_path, capfd, expression, bath,
                                                         twice_s, expected_slope):
    """An overflowing point is a numerical failure (exit 3) that names its 2S,
    with or without a slope gate: not a NaN row in scan.csv and exit 0 or 2,
    nor a validation error.  Nothing is written, and the error line is all
    that reaches stdout and stderr: no RuntimeWarning, no LAPACK message."""
    scan = {"mode": "bilinear", "twice_s_values": [8, 12], "l_test": 3}
    if expected_slope is not None:
        scan["expected_slope"] = expected_slope
    cfg = {"scan": scan, "hamiltonian": {"expression": expression}, "bath": bath}
    assert cli.main(["limit-scan", "--config", _write(tmp_path, "scan.json", cfg),
                     "--out", str(tmp_path / "o")]) == 3
    out, err = capfd.readouterr()
    assert out == ""
    assert err == (f"numerical failure: the bilinear scan deviation at 2S = {twice_s} is nan, "
                   "not finite: its arithmetic overflows\n")
    assert os.listdir(tmp_path) == ["scan.json"]


@pytest.mark.parametrize("key, value", [
    ("field", [0.0, 0.0, 1.0]), ("xi", [1.0, 0.0, 0.0]), ("gamma", 0.0), ("temperature", 1.0),
    ("hamiltonian", {"expression": [[-1.0, [3]]]}), ("bath", {"coupling": [[1.0, [1]]]})])
def test_asymptotics_scan_refuses_each_key_it_does_not_read(tmp_path, capsys, key, value):
    """An asymptotics scan compares shell tables, which no Hamiltonian or bath
    enters, so each of those sections exits 1, naming it, before anything is
    written.  The scan keys field, xi, gamma and temperature are gone: a
    bilinear scan reads them from the hamiltonian and bath sections."""
    cfg = {"scan": {"mode": "asymptotics", "twice_s_values": [6, 10]}, key: value}
    cfg_path = _write(tmp_path, "scan.json", cfg)
    assert cli.main(["limit-scan", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    message = {"hamiltonian": "asymptotics mode reads no h",
               "bath": "asymptotics mode reads no bath"}.get(
                   key, f"unknown config keys for limit-scan: {key}")
    assert err.startswith(f"error: {message}")
    assert os.listdir(tmp_path) == ["scan.json"]


@pytest.mark.parametrize("gamma, coupling", [(0.0, [[1.0, [1]]]), (0.5, [[0.0, [1]]])],
                         ids=["gamma-zero", "xi-zero"])
def test_bilinear_scan_with_no_field_and_no_diffusion_exits_one(tmp_path, capsys, gamma,
                                                                coupling):
    """With a constant h and gamma xi = 0 the classical generator is zero, so
    its block has no norm to divide by: exit 1 before anything is written."""
    cfg = {**_SCAN_BASE, "hamiltonian": {"expression": [[0.7, []]]},
           "bath": {"coupling": coupling, "gamma": gamma},
           "scan": {"mode": "bilinear", "twice_s_values": [6, 10], "expected_slope": -1.0}}
    cfg_path = _write(tmp_path, "scan.json", cfg)
    assert cli.main(["limit-scan", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error: a bilinear scan with a constant h and gamma xi = 0 compares nothing" in err
    assert os.listdir(tmp_path) == ["scan.json"]


def test_bilinear_scan_of_an_h_constant_on_the_sphere_exits_one(tmp_path, capsys):
    """h = m1^2 + m2^2 + m3^2 at gamma = 0 passes the up-front refusals (h is
    not constant as written) but its classical block is zero to rounding at
    the first 2S: exit 1, naming that 2S, before anything is written."""
    cfg = {**_SCAN_BASE, "hamiltonian": {"expression": [[1.0, [1, 1]], [1.0, [2, 2]],
                                                        [1.0, [3, 3]]]},
           "scan": {"mode": "bilinear", "twice_s_values": [10, 20], "expected_slope": -1.0}}
    cfg_path = _write(tmp_path, "scan.json", cfg)
    assert cli.main(["limit-scan", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    assert "error: a bilinear scan compares nothing at 2S = 10" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["scan.json"]


@pytest.mark.parametrize("argv", [
    ["evolve", "--out", "{out}"],
    ["symbol", "--config", "c.json", "--seed", "x", "--out", "{out}"],
    ["evolve-all", "--config", "c.json", "--out", "{out}"],
], ids=["config-missing", "seed-not-an-integer", "unknown-subcommand"])
def test_usage_errors_exit_one_with_an_error_line(tmp_path, capsys, argv):
    """argparse would exit 2, the code of a failed tolerance gate; a usage error
    is a validation error like any other: exit 1, an error: line, no files."""
    out = tmp_path / "o"
    assert cli.main([a.format(out=out) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "limit-scan" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["evolve", "kernel"])
def test_spin_too_large_for_memory_exits_one_with_an_error_line(tmp_path, capsys, command):
    """At 2S = 10^6 a (2S+1)^2 array needs terabytes: numpy's MemoryError
    becomes the documented error line quoting numpy's, exit 1, and no file.  evolve
    starts from an expression: a coherent start is refused first, by its range."""
    cfg = {"evolve": _evolve_config(initial={"expression": [[1.0, []]]}),
           "kernel": {}}[command]
    cfg_path = _write(tmp_path, "big.json", {**cfg, "spin": {"twice_s": 10 ** 6}})
    assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory for this run: Unable to allocate")
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["big.json"]


def test_an_out_of_memory_grid_band_is_not_blamed_on_2s(tmp_path, capsys):
    """kernel at 2S = 2 on a grid of band 10^6: the allocation numpy refuses is
    the grid's, and the error line quotes it without naming the small 2S."""
    cfg_path = _write(tmp_path, "big.json",
                      {"spin": {"twice_s": 2}, "grid": {"band_limit": 10 ** 6}})
    assert cli.main(["kernel", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: not enough memory for this run: Unable to allocate .* for an "
                        r"array with shape \(1000001, 1000001\).*\n", err)
    assert "2S = 2" not in err
    assert os.listdir(tmp_path) == ["big.json"]


@pytest.mark.parametrize("command, path, value, where, keys", [
    ("evolve", "bath", {"coupling": [[1.0, [1]]], "gama": 0.5}, "bath", "gama"),
    ("evolve", "time", {"t_end": 2.0, "dt": 0.05, "metod": "expm"}, "time", "metod"),
    ("evolve", "outputs", {"trajectroy": "t.csv", "grd": "g.csv"}, "outputs",
     "grd, trajectroy"),
    ("evolve", "spin", {"twice_s": 2, "twice": 4}, "spin", "twice"),
    ("evolve", "hamiltonian", {"expression": [[-1.0, [3]]], "quadractic": {}},
     "hamiltonian", "quadractic"),
    ("evolve", "hamiltonian", {"quadratic": {"b": [0, 0, 1]}}, "hamiltonian", "quadratic"),
    ("evolve", "initial", {"expression": [[1, []]], "mxied": False}, "initial", "mxied"),
    ("evolve", "initial.coherent", {"theta": 1.1, "phy": 0.4}, "initial.coherent", "phy"),
    ("evolve", "grid", {"band_limit": 2, "bandlimit": 3}, "grid", "bandlimit"),
    ("compare", "outputs", {"trajectory": "t.csv"}, "outputs", "trajectory"),
    ("limit-scan", "scan.ltest", 2, "scan", "ltest"),
    ("limit-scan", "outputs", {"scna": "s.csv"}, "outputs", "scna"),
    ("limit-scan", "bath", {"coupling": [[1.0, [1]]], "gama": 0.5}, "bath", "gama"),
    ("kernel", "grid", {"band_limit": 2, "band": 3}, "grid", "band"),
    ("kernel", "outputs", {"grid": "g.csv"}, "outputs", "grid"),
    ("symbol", "operator", {"expression": [[1.0, [1]]], "expresion": []}, "operator",
     "expresion"),
    ("symbol", "outputs", {"symbol": "s.csv"}, "outputs", "symbol"),
], ids=["bath-gama", "time-metod", "outputs-typos", "spin", "hamiltonian", "quadratic",
        "initial", "coherent", "grid", "compare-outputs", "scan", "scan-outputs", "scan-bath",
        "kernel-grid", "kernel-outputs", "operator", "symbol-outputs"])
def test_unknown_section_keys_exit_one_before_any_file(tmp_path, capsys, command, path,
                                                       value, where, keys):
    """A misspelt key inside a section would otherwise run silently with a
    default (gamma 0, dt 0.01, the default file names); it exits 1, naming the
    section and the key, and writes nothing.  An output key of another
    command is unknown too."""
    base = {"evolve": _evolve_config(), "compare": _evolve_config(),
            "limit-scan": json.loads(json.dumps(_SCAN_CONFIG)),
            "kernel": {"spin": {"twice_s": 2}},
            "symbol": {"spin": {"twice_s": 2}, "operator": {"expression": [[1.0, [1]]]}}}[command]
    cfg_path = _write(tmp_path, "bad.json", _with(base, path, value))
    assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f'error: unknown config keys in "{where}" for {command}: {keys}' in err
    assert os.listdir(tmp_path) == ["bad.json"]


def test_readme_quick_starts_run_as_written(tmp_path, capsys):
    """Every `python` block of the README runs, in order, in one namespace; and
    its `run.json` runs through `evolve` and writes the documented header."""
    text = (ROOT / "README.md").read_text()
    namespace = {}
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        exec(compile(block, "README.md", "exec"), namespace)
    run_json = re.search(r"with `run.json`:\s*```json\n(.*?)```", text, re.S).group(1)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(run_json)
    out = tmp_path / "results"
    assert cli.main(["evolve", "--config", str(cfg_path), "--out", str(out)]) == 0
    with open(out / "trajectory.csv") as fh:
        assert fh.readline() == "t,Sx,Sy,Sz,trace,purity\n"


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
    cfg = {"spin": {"twice_s": 1}, "operator": {"expression": [[1.0, [1]]]}}
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


def _readme_large_s_bilinear_config():
    text = (ROOT / "README.md").read_text()
    return json.loads(re.search(r"example large-S `limit-scan`\s+config\):\s*```json\n(.*?)```",
                                text, re.S).group(1))


@pytest.mark.parametrize("sigma", [None, 0.0, 1.0])
def test_readme_bilinear_scan_fits_minus_one_up_to_large_spin(tmp_path, capsys, sigma):
    """The README's bilinear scan over 2S up to 10^5 fits slope -1 +- 0.01 in
    under a second, as written (sigma = -1) and at two other orderings."""
    cfg = _readme_large_s_bilinear_config()
    assert cfg["scan"]["twice_s_values"] == [1000, 10000, 100000]
    if sigma is not None:
        cfg["sigma"] = sigma
    start = time.monotonic()
    assert cli.main(["limit-scan", "--config", _write(tmp_path, "scan.json", cfg),
                     "--out", str(tmp_path / "o")]) == 0
    assert time.monotonic() - start < 1.0
    assert abs(float(capsys.readouterr().out.split("slope = ")[1]) + 1.0) <= 0.01


@pytest.mark.parametrize("command, path, value, message", [
    ("evolve", "initial", {"coherent": {"theta": 1.1}, "expression": [[1, []]]},
     '"initial" takes one of its keys, got coherent, expression'),
    ("compare", "initial", {"coherent": {"theta": 1.1}, "expression": [[1, []]]},
     '"initial" takes one of its keys, got coherent, expression'),
    # hamiltonian and operator have one key now, and initial two: a removed
    # alternative (quadratic, mixed, matrix_file, random_hermitian) is unknown
    ("evolve", "hamiltonian", {"expression": [[-1.0, [3]]], "quadratic": {"b": [5.0, 0, 0]}},
     'unknown config keys in "hamiltonian" for evolve: quadratic'),
    ("compare", "hamiltonian", {"expression": [[-1.0, [3]]], "quadratic": {}},
     'unknown config keys in "hamiltonian" for compare: quadratic'),
    ("evolve", "initial", {"coherent": {"theta": 1.1}, "mixed": True},
     'unknown config keys in "initial" for evolve: mixed'),
    ("evolve", "initial", {"coherent": {"theta": 1.1}, "mixed": False},
     'unknown config keys in "initial" for evolve: mixed'),
    ("evolve", "initial", {"mixed": True, "matrix_file": "rho.npy"},
     'unknown config keys in "initial" for evolve: matrix_file, mixed'),
    ("compare", "initial", {"coherent": {"theta": 1.1}, "matrix_file": "rho.npy"},
     'unknown config keys in "initial" for compare: matrix_file'),
    ("evolve", "initial", {"coherent": {"theta": 1.1}, "mixed": True,
                           "matrix_file": "rho.npy"},
     'unknown config keys in "initial" for evolve: matrix_file, mixed'),
    ("symbol", "operator", {"expression": [[1.0, [3]]], "random_hermitian": True},
     'unknown config keys in "operator" for symbol: random_hermitian'),
], ids=["coherent-expression", "compare-coherent-expression", "hamiltonian",
        "compare-hamiltonian", "coherent-mixed", "coherent-mixed-false", "mixed-matrix-file",
        "compare-coherent-matrix-file", "all-three", "operator"])
def test_two_alternatives_in_a_section_exit_one_before_any_file(tmp_path, capsys, command,
                                                                path, value, message):
    """A section that names two alternatives would run the first and ignore
    the other without a word; it exits 1, naming the section and the keys,
    and writes nothing."""
    base = {"evolve": _evolve_config(), "compare": _evolve_config(),
            "symbol": {"spin": {"twice_s": 2}, "operator": {"expression": [[1.0, [1]]]}}}[command]
    cfg_path = _write(tmp_path, "bad.json", _with(base, path, value))
    assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad.json"]
