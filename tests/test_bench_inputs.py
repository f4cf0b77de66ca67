"""The inputs the benchmark feeds the package still run.

The benchmark (`bench/`) drives the package through the README's configs, the
CLI `evolve` of its `evolve-expm-s40` workload and the library jobs of its
`sweep-rk4` workload.  These tests run small copies of each, and check the
trajectories with the benchmark's own reference, which does not import the
package.  `bench/` itself is only read.
"""

import importlib
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

import spinphase
from spinphase import cli

ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name):
    """bench/<name>.py loaded under a name of its own, without touching sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _readme_configs():
    text = (ROOT / "README.md").read_text()
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.S)]


@pytest.mark.parametrize("index", range(len(_readme_configs())))
def test_readme_configs_pass_the_key_check_and_run(tmp_path, capsys, index):
    cfg = _readme_configs()[index]
    command = "limit-scan" if "scan" in cfg else "evolve"
    cli._validate_keys(cfg, command)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_evolve_workload_config_runs_at_small_spin(tmp_path, capsys):
    """The evolve-expm-s40 job at 2S=6 and t_end 1 exits 0, and its
    trajectory passes the benchmark's check."""
    workloads = _bench_module("workloads")
    reference = _bench_module("reference")
    job = workloads.evolve_expm_s40(0, 0)[0]
    cfg = job["config"]
    cfg["spin"]["twice_s"] = 6
    cfg["time"]["t_end"] = 1.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert cli.main([job["command"], "--config", str(path), "--out", str(out)]) == 0
    check = dict(job["check"], twice_s=6, t_end=1.0, steps=20)
    result = reference.check_trajectory(reference.read_csv(out / check["file"]), check)
    assert result.ok, result.as_dict()


def test_sweep_library_job_runs_at_small_spin():
    """One sweep-rk4 job at 2S=4 through the benchmark's own job runner."""
    workloads = _bench_module("workloads")
    reference = _bench_module("reference")
    child = _bench_module("child")
    job = workloads.sweep_rk4(0, 0)[0]
    job = dict(job, twice_s=4, check=dict(job["check"], twice_s=4))
    observables = np.array(child.run_library_job(spinphase, job)).T
    result = reference.check_trajectory(observables, job["check"])
    assert result.ok, result.as_dict()


def test_every_name_the_tracer_counts_or_groups_exists():
    """Each module.function in bench/spans.py COUNTED and GROUPS is a function
    of spinphase, apart from five stale names a benchmark change is to mend: a
    name that is not matches nothing, so its metric reads 0.  The stale set is
    pinned exactly, so a newly stale name fails here, and a benchmark change
    that mends the names updates this test."""
    spans = _bench_module("spans")
    names = set(spans.COUNTED).union(*spans.GROUPS.values())
    missing = sorted(name for name in names
                     if not hasattr(importlib.import_module("spinphase." + name.split(".")[0]),
                                    name.split(".")[1]))
    assert missing == ["dynamics.isotropic_bilinear_generator", "dynamics.quadratic_generator",
                       "dynamics.unitary_generator", "sphere_ops.ylm_eval",
                       "su2_algebra.clebsch_gordan"]
