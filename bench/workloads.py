"""Seeded workload generator.

Every input spinphase receives is made here from the run's seed: the configs
of the CLI jobs and the parameters of the library jobs.  Pass `p` of a run
draws its jobs from `(seed, p)`, so repeated passes use fresh parameters on
the same sizes.  A job is a JSON-ready dict; jobs of one "kind" do the same
work on different parameters, and the "check" entry says how the output is
verified against bench/reference.py.
"""

import math
import time

import numpy as np

# the README's damped precession: H = -S3, F = S1, gamma = 0.1, T = 1
README_H = [[-1.0, [3]]]
README_F = [[1.0, [1]]]
README_BATH = {"coupling": README_F, "gamma": 0.1, "temperature": 1.0}
SWEEP_SIGMAS = (-1.0, 0.0, 0.5, 1.0)
# two thirds of the jobs at 2S=20, so the job-time median sits inside one size
SWEEP_SIZES = (10, 20, 20)
SWEEP_STEPS = 200
SWEEP_T_END = 0.5


def _rng(seed, pass_index):
    return np.random.default_rng([seed, pass_index])


def _direction(rng):
    return float(rng.uniform(0.3, 2.8)), float(rng.uniform(0.0, 2.0 * math.pi))


def _trajectory_check(twice_s, h, bath, theta, phi, t_end, steps, method):
    return {"kind": "trajectory", "twice_s": twice_s, "hamiltonian": h,
            "coupling": bath["coupling"], "gamma": bath["gamma"],
            "temperature": bath["temperature"], "theta": theta, "phi": phi,
            "t_end": t_end, "steps": steps, "method": method}


def evolve_expm_s40(seed, pass_index):
    """One `evolve` at 2S=40, expm, 400 steps, from a seeded coherent state."""
    theta, phi = _direction(_rng(seed, pass_index))
    twice_s, t_end, dt = 40, 20.0, 0.05
    config = {"spin": {"twice_s": twice_s}, "sigma": 0.0,
              "hamiltonian": {"expression": README_H}, "bath": README_BATH,
              "initial": {"coherent": {"theta": theta, "phi": phi}},
              "time": {"t_end": t_end, "dt": dt, "method": "expm"}}
    check = _trajectory_check(twice_s, README_H, README_BATH, theta, phi, t_end,
                              400, "expm")
    check["file"] = "trajectory.csv"
    return [{"name": "evolve", "kind": "evolve", "command": "evolve", "config": config,
             "check": check}]


def sweep_rk4(seed, pass_index):
    """A notebook parameter scan: every (2S, sigma) pair, fresh parameters."""
    rng = _rng(seed, pass_index)
    jobs = []
    for sigma in SWEEP_SIGMAS:
        for twice_s in SWEEP_SIZES:
            d = float(rng.uniform(0.05, 0.25))
            bath = {"coupling": README_F, "gamma": float(rng.uniform(0.05, 0.2)),
                    "temperature": float(rng.uniform(0.5, 2.0))}
            theta, phi = _direction(rng)
            h = [[-1.0, [3]], [d, [1, 1]]]
            kind = f"rk4-s{twice_s}-sigma{sigma:g}"
            jobs.append({
                "name": f"{kind}-{len(jobs)}", "kind": kind,
                "twice_s": twice_s, "sigma": sigma, "hamiltonian": h, "bath": bath,
                "theta": theta, "phi": phi, "t_end": SWEEP_T_END, "steps": SWEEP_STEPS,
                "check": _trajectory_check(twice_s, h, bath, theta, phi, SWEEP_T_END,
                                           SWEEP_STEPS, "rk4")})
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def sweep_warmup():
    """Untimed set-up of the library workload: one job per 2S builds the tables."""
    jobs = sweep_rk4(0, 0)
    return [dict(next(j for j in jobs if j["twice_s"] == twice_s), name=f"warmup-s{twice_s}")
            for twice_s in sorted(set(SWEEP_SIZES))]


def another_pass_fits(start, passes, seconds):
    """True while one more pass as long as the last one still ends inside the
    measuring window that opened at `start` (a perf_counter reading)."""
    return time.perf_counter() - start + passes[-1] <= seconds


class Workload:
    def __init__(self, name, kind, jobs, largest_twice_s):
        self.name = name
        self.kind = kind  # "cli": fresh interpreter per job; "library": one warm process
        self.jobs = jobs
        self.largest_twice_s = largest_twice_s


WORKLOADS = {
    "evolve-expm-s40": Workload("evolve-expm-s40", "cli", evolve_expm_s40, 40),
    "sweep-rk4": Workload("sweep-rk4", "library", sweep_rk4, 20),
}
