"""Tests of the benchmark's own logic.

    python3 -m pytest bench/test_bench.py
"""

import copy
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_nested_children():
    # root [0, 10] holds a [1, 4] (which holds a' [2, 3]) and b [5, 9]
    sp = [["root", 0.0, 10.0, -1, "j"], ["a", 1.0, 4.0, 0, "j"],
          ["a'", 2.0, 3.0, 1, "j"], ["b", 5.0, 9.0, 0, "j"]]
    assert spans.self_times(sp) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    sp = [["root", 0.0, 10.0, -1, "j"], ["a", 1.0, 6.0, 0, "j"], ["b", 4.0, 12.0, 0, "j"]]
    assert spans.self_times(sp)[0] == pytest.approx(1.0)


def test_layer_metrics_group_and_sum_self_time():
    dump = {"spans": [["dynamics.integrate", 0.0, 5.0, -1, "j"],
                      ["sw_transform.expectation", 1.0, 3.0, 0, "j"],
                      ["sphere_ops.apply_conjugation", 1.5, 2.5, 1, "j"],
                      ["sphere_ops.angular_operators", 3.0, 4.0, 0, "j"]],
            "counts": {"sphere_ops.flat_index": 7}, "values": {"dynamics.integrate.steps": 3}}
    m = spans.layer_metrics([dump, dump])
    assert m["dynamics.integrate.self_s"] == pytest.approx(4.0)
    assert m["sw_transform.expectation.self_s"] == pytest.approx(2.0)
    assert m["sphere_ops.self_s"] == pytest.approx(4.0)
    assert m["sphere_ops.operator_build.calls"] == 2
    assert m["sphere_ops.flat_index.calls"] == 14
    assert m["dynamics.integrate.steps"] == 6


def test_percentile_and_sample_count():
    assert run.percentile([3.0, 1.0, 2.0], 50) == (2.0, 3)
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == (2.5, 4)
    assert run.percentile([5.0], 90) == (5.0, 1)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_best_pass_sums_the_fastest_run_of_each_kind():
    def job(kind, p, wall):
        return {"job": {"kind": kind}, "pass": p, "wall_s": wall}

    jobs = [job("a", 0, 2.0), job("b", 0, 1.0), job("b", 0, 3.0),
            job("a", 1, 1.5), job("b", 1, 4.0), job("b", 1, 0.5)]
    # a pass holds one "a" and two "b": 1.5 + 2 x 0.5
    assert run.best_pass(jobs) == (2.5, 6)
    assert run.best_pass(jobs[:1]) == (2.0, 1)


def test_tail_percentile_leaves_ten_samples_above():
    values = list(range(1, 41))
    tail = run.tail_percentile(values)
    assert tail["percentile"] == 75 and tail["samples"] == 40
    assert sum(v > tail["value"] for v in values) == 10
    assert run.tail_percentile(values[:10]) is None


def _evolve_entry(tmp_path, corrupt):
    job = workloads.evolve_expm_s40(seed=3, pass_index=0)[0]
    spec = dict(job["check"], twice_s=4, steps=20, t_end=1.0)
    job = dict(job, check=spec)
    obs = reference.master_trajectory(*reference._trajectory_args(spec))
    if corrupt:
        obs[7, 3] += 1e-9
    np.savetxt(tmp_path / "trajectory.csv", obs, delimiter=",", fmt="%.17g",
               header="t,Sx,Sy,Sz,trace,purity", comments="")
    return {"job": job, "pass": 0, "wall_s": 1.0, "exit": 0, "out": tmp_path, "log": ""}


@pytest.mark.parametrize("corrupt", [False, True])
def test_wrong_output_counts_as_failed(tmp_path, corrupt):
    entry = _evolve_entry(tmp_path, corrupt)
    assert run.tally([run.judge(entry, run.check(entry))]) == (1 if corrupt else 0)


def test_nonzero_exit_counts_as_failed(tmp_path):
    entry = dict(_evolve_entry(tmp_path, corrupt=False), exit=3, log="numerical failure")
    assert run.tally([run.judge(entry, run.check(entry))]) == 1


def test_rk4_job_is_checked_against_the_same_method():
    spec = dict(workloads.sweep_rk4(seed=3, pass_index=0)[0]["check"], twice_s=4, steps=20)
    obs = reference.master_trajectory(*reference._trajectory_args(spec), rk4_substeps=1)
    assert reference.check_trajectory(obs, spec).ok
    exact = reference.master_trajectory(*reference._trajectory_args(spec))
    assert not reference.check_trajectory(exact, spec).ok  # rk4's own error shows


def test_child_cut_off_at_its_deadline_is_reported_as_timed_out(tmp_path):
    c = run.Child([sys.executable, "-c", "import time; time.sleep(30)"], {},
                  tmp_path / "log", deadline=time.perf_counter() + 0.3)
    assert c.timed_out and c.wall_s < 10
    with pytest.raises(run.TimedOut):
        c.ok("sleeper")


def _namespaces():
    import spinphase
    import spinphase.cli

    mods = [spinphase] + [getattr(spinphase, m) for m in spans.MODULES]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_wrappers_record_and_restore_originals():
    import spinphase
    import spinphase.bopp
    import spinphase.dynamics

    before = _namespaces()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spinphase.dynamics.spin_matrices is not before[("spinphase.dynamics", "spin_matrices")]
        assert spinphase.bopp.spin_matrices is spinphase.dynamics.spin_matrices
        ctx = spinphase.SpinContext(2)
        spinphase.operator_to_symbol(spinphase.spin_matrices(ctx)[2], 0.0, ctx)
    finally:
        tracer.restore()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[0] for s in tracer.spans}
    assert {"su2_algebra.spin_matrices", "sw_transform.operator_to_symbol"} <= names
    assert tracer.dump()["counts"]["su2_algebra.clebsch_gordan"] > 0


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    emitted = set(spans.layer_metrics([])) | {
        "trace.overhead_s", "sw_transform.roundtrip_err",
        "proc.import_s", "proc.cpu_s", "proc.cpu_util"}
    assert spans.BYPASSABLE <= emitted
    assert {m["name"] for m in spec["per_layer"]} == emitted - spans.BYPASSABLE
    assert all(m["unit"] == spans.unit(m["name"]) for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.RESULT_END_TO_END)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_generator_is_seeded():
    for w in workloads.WORKLOADS.values():
        assert w.jobs(5, 1) == w.jobs(5, 1)
    assert workloads.sweep_rk4(5, 0) != workloads.sweep_rk4(6, 0)
    assert workloads.sweep_rk4(5, 0) != workloads.sweep_rk4(5, 1)


def _small(job):
    """A workload job scaled down to small spins and few steps."""
    job = copy.deepcopy(job)
    job["config"]["spin"]["twice_s"] = 4
    job["config"]["time"].update(t_end=0.5, dt=0.1)
    return job


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_result_line_of_traced_run_has_no_zero(tmp_path, workload):
    """Every layer metric the result line carries is nonzero on every
    workload; a metric that reads 0 where a workload bypasses its layer
    belongs in spans.BYPASSABLE."""
    w = workloads.WORKLOADS[workload]
    r = run.Run(workload, seed=3, seconds=10, trace=1)
    r.work = tmp_path
    if w.kind == "cli":
        dumps = []
        for job in w.jobs(3, 0):
            _, out = r.cli_job(_small(job), 0, traced=True)
            dumps.append(json.loads((out.parent / f"{out.name}.trace.json").read_text()))
    else:
        import child
        import spinphase

        jobs = [dict(job, twice_s=min(job["twice_s"], 4), steps=10) for job in w.jobs(3, 0)]
        child.run_library_job(spinphase, jobs[0])  # warm, as after the real set-up
        tracer = spans.Tracer()
        tracer.install()
        try:
            for job in jobs:
                child.run_library_job(spinphase, job)
        finally:
            tracer.restore()
        dumps = [tracer.dump()]
    layers = spans.layer_metrics(dumps)
    zero = [k for k, v in layers.items() if v == 0 and k not in spans.BYPASSABLE]
    assert zero == []

