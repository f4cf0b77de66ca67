"""spinphase benchmark: one seeded workload per run, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/spinphase.  Load model:
a closed loop with one client; jobs run one after another.  CLI workloads
start a fresh interpreter per job (what a CLI user pays), the library
workload runs in one warm process.  BLAS runs one thread (BLAS_THREADS).

--trace 0 prints the end-to-end metrics; --trace 1 also runs one traced pass
and prints the per-layer metrics.  Outputs are checked against
bench/reference.py after the timed part.  The last line of standard output
is the result: {"correct", "attempted", "failed", "metrics"}; the line before
it is the run record.  See bench/RATIONALE.md for why each workload exists.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import reference
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set-up probes per run, half before the timed part and half after it, so
# that they sample the whole run; a library probe also runs the warm-up
SETUP_PROBES = {"cli": 12, "library": 6}
# the timed part and the traced part (with the round-trip) may each take
# PART_FACTOR x --seconds before their children are cut off; a pass that
# starts inside the window can end after it.  Every child also stops by
# EXIT_BY_S after the start, so that a run ends within 180 s.
PART_FACTOR = 3.0
EXIT_BY_S = 170.0
# one client on one core: on a 2-vCPU machine a second BLAS thread made the
# library jobs slower (1.25-1.33 CPU seconds per wall second) and their
# times more variable; it does speed up evolve-expm-s40, see RATIONALE.md
BLAS_THREADS = 1

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_s_p50": "s",
                    "peak_rss_mb": "MB", "error_rate": "ratio"}
# The result line carries the metrics that stay steady from run to run on a
# shared host and never read 0; every one is compared as a share of its
# median.  error_rate is 0 on a clean workload, so the result line carries it
# as attempted/failed.  job_s_p50 follows the host's speed phases (a median
# of job times snaps between a fast and a slow state), so it is printed and
# recorded only.  Layer metrics that read 0 on a workload that bypasses the
# layer are handled the same way, see spans.BYPASSABLE.
RESULT_END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


class TimedOut(Exception):
    """A child was cut off at its deadline: the run reports no result."""


def percentile(values, q):
    """q-th percentile (0..100), linear between order statistics, and the sample count."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), len(xs)


def best_pass(jobs):
    """Wall time of one pass at the host's fastest, and its sample count: for
    each kind of job, its fastest run in the window, times the number of jobs
    of that kind in a pass.  Host interference only ever adds time, so the
    fastest run of a job is its cost with the least of it."""
    fastest = {}
    for j in jobs:
        kind = j["job"]["kind"]
        fastest[kind] = min(fastest.get(kind, math.inf), j["wall_s"])
    per_pass = Counter(j["job"]["kind"] for j in jobs if j["pass"] == 0)
    return sum(n * fastest[kind] for kind, n in per_pass.items()), len(jobs)


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n <= 10:
        return None
    q = math.floor(100.0 * (n - 10) / n)
    value, count = percentile(values, q)
    return {"percentile": q, "value": value, "samples": count}


def check(entry):
    """Verifies one job's output against bench/reference.py; returns a CheckResult."""
    spec = entry["job"]["check"]
    if entry["exit"] != 0:
        return reference.CheckResult(False, detail=f"exit {entry['exit']}: "
                                     f"{entry['log'].strip()[-300:]}")
    if "observables" in entry:  # library job: observables came back in memory
        obs = np.array(entry["observables"], dtype=float).T
        return reference.check_trajectory(obs, spec)
    path = entry["out"] / spec["file"]
    if not path.is_file():
        return reference.CheckResult(False, detail=f"{spec['file']} missing")
    if spec["kind"] == "trajectory":
        return reference.check_trajectory(reference.read_csv(path), spec)
    raise ValueError(f"unknown check kind {spec['kind']!r}")


def judge(entry, result):
    """Status of one checked job."""
    return {"job": entry["job"]["name"], "pass": entry["pass"], "wall_s": entry["wall_s"],
            **result.as_dict()}


def tally(statuses):
    """Number of failed checks."""
    return sum(not s["ok"] for s in statuses)


class Child:
    """One child process: wall time from spawn to exit, exit code and rusage."""

    def __init__(self, argv, env, stdout, deadline):
        self.timed_out = False
        self.start = time.perf_counter()
        with open(stdout, "w") as out:
            proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT,
                                    cwd=ROOT, start_new_session=True)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    os.killpg(proc.pid, signal.SIGKILL)
                    _, status, usage = os.wait4(proc.pid, 0)
                    self.timed_out = True
                    break
                time.sleep(0.005)
        except BaseException:  # interrupted: leave no child behind
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        self.wall_s = time.perf_counter() - self.start
        proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.output = Path(stdout).read_text()

    def last_json(self):
        lines = self.output.strip().splitlines()
        return json.loads(lines[-1]) if lines else None

    def ok(self, what):
        """Raises TimedOut if the child was cut off, RuntimeError if it failed."""
        if self.timed_out:
            raise TimedOut(f"{what} cut off after {self.wall_s:.1f} s")
        if self.exit != 0:
            raise RuntimeError(f"{what} failed with exit {self.exit}:\n{self.output}")
        return self


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.exit_by = time.perf_counter() + EXIT_BY_S
        self.deadline = self.exit_by
        self.work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(min(BLAS_THREADS, self.nproc))
        self.counter = 0

    def child(self, argv):
        self.counter += 1
        log = self.work / f"child-{self.counter}.log"
        return Child([sys.executable, *argv], self.env, log, self.deadline)

    # -- set-up ------------------------------------------------------------

    def start_part(self):
        """Opens a timed or traced part: its children stop by its deadline."""
        self.deadline = min(time.perf_counter() + PART_FACTOR * self.seconds, self.exit_by)

    def measure_setup(self, probes):
        """Adds `probes` set-up samples (fresh interpreter to ready) to self.setup."""
        self.deadline = self.exit_by
        for _ in range(probes):
            c = self.child([str(BENCH / "child.py"), "setup", self.workload.name])
            report = c.ok("set-up probe").last_json()
            self.setup.append(report["ready"] - c.start)
            self.imports.append(report["import_s"])
            self.blas = report["blas"]

    # -- timed passes ------------------------------------------------------

    def cli_job(self, job, pass_index, traced):
        out = self.work / f"{'traced' if traced else 'pass'}-{pass_index}-{job['name']}"
        out.mkdir(parents=True)
        config = out.parent / f"{out.name}.json"
        config.write_text(json.dumps(job["config"]))
        argv = [job["command"], "--config", str(config), "--out", str(out),
                *job.get("args", [])]
        if traced:
            spec = out.parent / f"{out.name}.job.json"
            spec.write_text(json.dumps({"name": job["name"], "argv": argv}))
            c = self.child([str(BENCH / "child.py"), "cli", str(spec),
                            str(out.parent / f"{out.name}.trace.json")])
        else:
            c = self.child(["-m", "spinphase.cli", *argv])
        return c, out

    def cli_passes(self):
        passes, jobs = [], []
        self.start_part()
        start = time.perf_counter()
        pass_index = 0
        while True:
            p0 = time.perf_counter()
            for job in self.workload.jobs(self.seed, pass_index):
                c, out = self.cli_job(job, pass_index, traced=False)
                if c.timed_out:
                    raise TimedOut(f"job {job['name']} cut off after {c.wall_s:.1f} s")
                jobs.append({"job": job, "pass": pass_index, "wall_s": c.wall_s,
                             "exit": c.exit, "peak_rss_mb": c.peak_rss_mb,
                             "cpu_s": c.cpu_s, "out": out, "log": c.output})
            passes.append(time.perf_counter() - p0)
            pass_index += 1
            if not workloads.another_pass_fits(start, passes, self.seconds):
                break
        return passes, jobs

    def library_passes(self, traced=False):
        out = self.work / f"sweep-{'traced' if traced else 'timed'}.json"
        argv = [str(BENCH / "child.py"), "sweep", str(self.seed), str(self.seconds), str(out)]
        if traced:
            argv.append(str(self.work / "sweep.trace.json"))
        c = self.child(argv).ok("library workload")
        report = json.loads(out.read_text())
        generated = {(p, job["name"]): job for p in range(len(report["passes"]))
                     for job in workloads.sweep_rk4(self.seed, p)}
        jobs = [{"job": generated[(j["pass"], j["name"])], "pass": j["pass"],
                 "wall_s": j["wall_s"], "exit": 0 if j["error"] is None else 1,
                 "observables": j["observables"], "log": j["error"] or ""}
                for j in report["jobs"]]
        return report, c, jobs

    # -- the run -----------------------------------------------------------

    def execute(self):
        self.work.mkdir(parents=True)
        self.setup, self.imports, self.blas = [], [], None
        probes = SETUP_PROBES[self.workload.kind]
        self.measure_setup(probes // 2)
        if self.workload.kind == "cli":
            passes, jobs = self.cli_passes()
            peak = (max(j["peak_rss_mb"] for j in jobs), len(jobs))
            cpu = sum(j["cpu_s"] for j in jobs)
        else:
            self.start_part()
            report, c, jobs = self.library_passes()
            passes, peak, cpu = report["passes"], (c.peak_rss_mb, 1), report["cpu_s"]
            self.setup.append(report["ready"] - c.start)  # the timed process's own set-up
        self.measure_setup(probes - probes // 2)

        statuses = [judge(entry, check(entry)) for entry in jobs]
        failed = tally(statuses)

        job_walls = [j["wall_s"] for j in jobs]
        # the machine switches between a fast and a 1.5-2x slower state for
        # seconds to minutes at a time.  setup_s is the mean of the run's
        # set-ups (a median of few samples snaps to one state); wall_s is the
        # best pass, see best_pass and RATIONALE.md
        e2e = {
            "setup_s": (statistics.fmean(self.setup), len(self.setup)),
            "wall_s": best_pass(jobs),
            "job_s_p50": percentile(job_walls, 50),
            "peak_rss_mb": peak,
            "error_rate": (failed / len(statuses), len(statuses)),
        }
        record = {
            "workload": self.workload.name, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "commit": git_commit(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": self.blas, "nproc": self.nproc,
            "passes": len(passes), "pass_s": passes, "jobs": statuses,
            "samples": {k: n for k, (_, n) in e2e.items()},
            "setup_s_samples": self.setup,
            "job_s_tail": tail_percentile(job_walls),
            "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                           for k, (v, _) in e2e.items()},
        }
        metrics = {k: {"value": e2e[k][0], "unit": END_TO_END_UNITS[k]}
                   for k in RESULT_END_TO_END}
        for k, (v, n) in e2e.items():
            print(f"{k} = {v:.6g} {END_TO_END_UNITS[k]} (n={n})")
        if self.trace:
            layers = self.traced_pass(statistics.fmean(passes))
            layers["proc.import_s"] = statistics.median(self.imports)
            layers["proc.cpu_s"] = cpu / len(passes)
            layers["proc.cpu_util"] = cpu / sum(passes)
            record["per_layer"] = {k: {"value": v, "unit": spans.unit(k)}
                                   for k, v in layers.items()}
            metrics = {k: v for k, v in record["per_layer"].items()
                       if k not in spans.BYPASSABLE}
            for k, v in layers.items():
                print(f"{k} = {v:.6g} {spans.unit(k)}")
        for s in statuses:
            print(f"check {s['job']} pass {s['pass']}: {'ok' if s['ok'] else 'FAIL'} "
                  f"err={s['error']:.3g} tol={s['tolerance']:.3g} {s['detail']}".rstrip())
        print(json.dumps({"record": record}, default=float))
        return {"correct": failed == 0, "attempted": len(statuses), "failed": failed,
                "metrics": metrics}

    def traced_pass(self, untraced_wall):
        """One traced pass (pass 0) plus the transform round-trip error."""
        self.start_part()
        t0 = time.perf_counter()
        if self.workload.kind == "cli":
            dumps = []
            for job in self.workload.jobs(self.seed, 0):
                c, out = self.cli_job(job, 0, traced=True)
                c.ok(f"traced job {job['name']}")
                dumps.append(json.loads((out.parent / f"{out.name}.trace.json").read_text()))
            traced_wall = time.perf_counter() - t0
        else:
            report, _, _ = self.library_passes(traced=True)
            traced_wall = report["passes"][0]
            dumps = [json.loads((self.work / "sweep.trace.json").read_text())]
        layers = spans.layer_metrics(dumps)
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        c = self.child([str(BENCH / "child.py"), "roundtrip",
                        str(self.workload.largest_twice_s), str(self.seed)])
        c.ok("round-trip probe")
        layers["sw_transform.roundtrip_err"] = c.last_json()["roundtrip_err"]
        return layers


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinphase" / "__init__.py").is_file():
        print(f"error: no spinphase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run still stops its children and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    try:
        result = run.execute()
    except TimedOut as exc:  # a slow program, not a wrong one: no result line
        print(f"timed out: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
