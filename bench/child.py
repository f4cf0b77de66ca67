"""Child-process side of the benchmark: every mode starts in a fresh interpreter.

    child.py setup <workload>            import spinphase (+ library warm-up); report readiness
    child.py cli <job.json> <trace.json> one CLI job with tracing installed
    child.py sweep <seed> <seconds> <out.json> [<trace.json>]
                                         the library workload in one warm process
    child.py roundtrip <twice_s> <seed>  max |A - op(sym(A))| for a seeded Hermitian A

Each mode prints one JSON object as its last line of standard output.
"""

import json
import sys
import time


def _ready(t_import):
    import spinphase  # noqa: F401  (the import is what is being timed)

    return time.perf_counter() - t_import


def blas_info():
    """Loaded BLAS libraries with their configuration and thread count."""
    import ctypes
    import re

    with open("/proc/self/maps") as fh:
        paths = sorted(set(re.findall(r"(/\S*(?:openblas|mkl_rt|blis)\S*\.so\S*)", fh.read())))
    out = []
    for path in paths:
        entry = {"library": path.rsplit("/", 1)[-1], "threads": None, "config": None}
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                entry["threads"], entry["config"] = threads(), config().decode()
        out.append(entry)
    return out


def run_library_job(sp, job):
    """One sweep job: generator, initial symbol, rk4 with observables."""
    ctx = sp.SpinContext(job["twice_s"])
    sigma = job["sigma"]
    h = [(c, tuple(w)) for c, w in job["hamiltonian"]]
    bath = sp.BathSpec(tuple((c, tuple(w)) for c, w in job["bath"]["coupling"]),
                       job["bath"]["gamma"], job["bath"]["temperature"])
    gen = sp.qfp_generator(h, bath, sigma, ctx)
    c0 = sp.operator_to_symbol(sp.coherent_state(ctx, job["theta"], job["phi"]), sigma, ctx)
    res = sp.integrate(gen, c0, job["t_end"], job["t_end"] / job["steps"], "rk4",
                       ctx=ctx, sigma=sigma, kind="symbol")
    return [res.times.tolist(), res.s1.tolist(), res.s2.tolist(), res.s3.tolist(),
            res.trace.tolist(), res.purity.tolist()]


def mode_setup(workload):
    t0 = time.perf_counter()
    import_s = _ready(t0)
    if workload == "sweep-rk4":
        import spinphase as sp
        import workloads

        for job in workloads.sweep_warmup():
            run_library_job(sp, job)
    return {"ready": time.perf_counter(), "import_s": import_s, "blas": blas_info()}


def mode_cli(job_path, trace_path):
    import os

    import spans

    job = json.loads(open(job_path).read())
    tracer = spans.Tracer()
    tracer.job = job["name"]
    tracer.install()
    import spinphase.cli

    try:
        code = spinphase.cli.main(job["argv"])
    finally:
        tracer.restore()
    out_dir = job["argv"][job["argv"].index("--out") + 1]
    tracer.values["cli.output_bytes"] += sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
    with open(trace_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return {"exit": code}


def mode_sweep(seed, seconds, out_path, trace_path=None):
    import resource

    import spinphase as sp
    import workloads

    for job in workloads.sweep_warmup():
        run_library_job(sp, job)
    ready = time.perf_counter()
    tracer = None
    if trace_path:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    passes, jobs = [], []
    start = time.perf_counter()
    pass_index = 0
    while True:
        p0 = time.perf_counter()
        for job in workloads.sweep_rk4(seed, pass_index):
            if tracer:
                tracer.job = job["name"]
            j0 = time.perf_counter()
            try:
                observables, error = run_library_job(sp, job), None
            except Exception as exc:  # a failing job is counted, not fatal
                observables, error = None, f"{type(exc).__name__}: {exc}"
            jobs.append({"name": job["name"], "pass": pass_index,
                         "wall_s": time.perf_counter() - j0,
                         "observables": observables, "error": error})
        passes.append(time.perf_counter() - p0)
        pass_index += 1
        if tracer or not workloads.another_pass_fits(start, passes, seconds):
            break
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime)
    if tracer:
        tracer.restore()
        with open(trace_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    with open(out_path, "w") as fh:
        json.dump({"ready": ready, "jobs": jobs, "passes": passes, "cpu_s": cpu}, fh)
    return {"passes": len(passes)}


def mode_roundtrip(twice_s, seed):
    import numpy as np

    import reference
    import spinphase as sp

    a = reference.random_hermitian(twice_s, seed)
    ctx = sp.SpinContext(twice_s)
    back = sp.symbol_to_operator(sp.operator_to_symbol(a, 0.0, ctx), 0.0, ctx)
    return {"roundtrip_err": float(np.max(np.abs(a - back)))}


def main(argv):
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        result = mode_setup(args[0])
    elif mode == "cli":
        result = mode_cli(*args)
    elif mode == "sweep":
        result = mode_sweep(int(args[0]), float(args[1]), *args[2:])
    elif mode == "roundtrip":
        result = mode_roundtrip(int(args[0]), int(args[1]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return result.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
