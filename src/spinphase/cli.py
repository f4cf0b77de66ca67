"""Command-line interface: batch runs driven by a JSON config file.

Subcommands: evolve, compare, limit-scan, kernel, symbol.  A run writes
deterministic CSV files (17 significant digits), so identical configs give
byte-identical outputs, and on exit 0 or 2 echoes its resolved
configuration to <out>/resolved_config.json.  Exit codes: 0 success,
1 validation error, 2 tolerance exceeded, 3 numerical failure.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bopp, dynamics, sphere_ops, sw_transform
from .su2_algebra import SpinContext, spin_matrices

_DEFAULT_TOLERANCE = {
    "evolve": 1e-8,
    "compare": 1e-8,
    "limit-scan": 0.2,
    "kernel": 0.0,
    "symbol": 0.0,
}

_ALLOWED_KEYS = {
    "evolve": {"spin", "sigma", "hamiltonian", "bath", "initial", "time",
               "grid", "outputs", "tolerance", "seed"},
    "compare": {"spin", "sigma", "hamiltonian", "bath", "initial", "time",
                "outputs", "tolerance", "seed"},
    "limit-scan": {"scan", "sigma", "field", "xi", "gamma", "temperature",
                   "outputs", "tolerance", "seed"},
    "kernel": {"spin", "sigma", "grid", "outputs", "tolerance", "seed"},
    "symbol": {"spin", "sigma", "operator", "grid", "outputs", "tolerance", "seed"},
}


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ValueError("config root must be a JSON object")
    return cfg


def _number(value, what):
    """A JSON number as a float; null, strings, booleans and containers are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _integer(value, what):
    """A JSON integer (or integral float) as an int; anything else is refused."""
    if not (type(value) is int or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _flag(value, what):
    """A JSON boolean; anything else is refused."""
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


def _vector(value, what):
    """A JSON list of 3 numbers as a list of floats."""
    if not (isinstance(value, list) and len(value) == 3):
        raise ValueError(f"{what} must be a list of 3 numbers, got {value!r}")
    return [_number(v, what) for v in value]


def _optional(value, parse, what):
    """parse(value, what), or None for an absent or null field."""
    return None if value is None else parse(value, what)


def _validate_keys(cfg, command):
    allowed = _ALLOWED_KEYS[command]
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {', '.join(unknown)}")


def _context(cfg):
    spin = cfg.get("spin")
    if not isinstance(spin, dict) or "twice_s" not in spin:
        raise ValueError('config needs "spin": {"twice_s": <int>}')
    return SpinContext(_integer(spin["twice_s"], "spin twice_s"))


def _sigma(cfg):
    return sw_transform.validate_sigma(_number(cfg.get("sigma", 0.0), "sigma"))


def _parse_coeff(obj):
    if isinstance(obj, list):
        if len(obj) != 2:
            raise ValueError(f"complex coefficient must be [re, im], got {obj!r}")
        return complex(_number(obj[0], "coefficient re"), _number(obj[1], "coefficient im"))
    return complex(_number(obj, "coefficient"))


def _parse_expression(obj):
    if not isinstance(obj, list):
        raise ValueError("expression must be a list of [coeff, word] pairs")
    expr = []
    for item in obj:
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[1], list)):
            raise ValueError(f"expression term {item!r} is not [coeff, word] with a list word")
        expr.append((_parse_coeff(item[0]),
                     tuple(_integer(k, "word component") for k in item[1])))
    return bopp.validate_expression(expr)


def _hamiltonian(cfg):
    """Returns ("expression", expr) or ("quadratic", QuadraticHamiltonian)."""
    h = cfg.get("hamiltonian")
    if not isinstance(h, dict):
        raise ValueError('config needs a "hamiltonian" section')
    if "expression" in h:
        return "expression", _parse_expression(h["expression"])
    if "quadratic" in h:
        q = h["quadratic"]
        if not isinstance(q, dict):
            raise ValueError(f'hamiltonian "quadratic" must be an object, got {q!r}')
        qh = dynamics.QuadraticHamiltonian(
            np.asarray(q.get("d", np.zeros((3, 3))), dtype=float),
            np.asarray(q.get("b", np.zeros(3)), dtype=float),
        )
        return "quadratic", qh
    raise ValueError('hamiltonian needs "expression" or "quadratic"')


def _hamiltonian_expression(cfg):
    kind, payload = _hamiltonian(cfg)
    return payload.to_expression() if kind == "quadratic" else payload


def _bath(cfg):
    b = cfg.get("bath")
    if b is None:
        return None
    if not isinstance(b, dict):
        raise ValueError(f'"bath" must be an object, got {b!r}')
    return dynamics.BathSpec(
        coupling=tuple(_parse_expression(b.get("coupling", []))),
        gamma=_number(b.get("gamma", 0.0), "bath gamma"),
        temperature=_number(b.get("temperature", 1.0), "bath temperature"),
    )


def _initial_density(cfg, ctx):
    init = cfg.get("initial")
    if not isinstance(init, dict):
        raise ValueError('config needs an "initial" section')
    if "coherent" in init:
        c = init["coherent"]
        if not isinstance(c, dict) or "theta" not in c:
            raise ValueError('initial "coherent" needs {"theta": <angle>}')
        return dynamics.coherent_state(ctx, _number(c["theta"], "coherent theta"),
                                       _number(c.get("phi", 0.0), "coherent phi"))
    if _flag(init.get("mixed", False), "initial mixed"):
        return np.eye(ctx.hilbert_dim, dtype=complex) / ctx.hilbert_dim
    if "matrix_file" in init:
        path = init["matrix_file"]
        if not isinstance(path, str):
            raise ValueError(f'initial "matrix_file" must be a path, got {path!r}')
        try:
            rho = np.asarray(np.load(path), dtype=complex)
        except OSError as exc:
            raise ValueError(f"cannot read initial matrix_file: {exc}") from exc
        if rho.shape != (ctx.hilbert_dim, ctx.hilbert_dim):
            raise ValueError(f"initial matrix shape {rho.shape} does not match 2S+1")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
            raise ValueError("initial matrix must be Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-8:
            raise ValueError("initial matrix must have unit trace")
        return rho
    raise ValueError('initial needs "coherent", "mixed" or "matrix_file"')


def _time_block(cfg):
    t = cfg.get("time")
    if not isinstance(t, dict):
        raise ValueError('config needs a "time" section')
    t_end = _number(t.get("t_end", 1.0), "time t_end")
    dt = _number(t.get("dt", 0.01), "time dt")
    method = t.get("method", "rk4")
    if method not in ("rk4", "expm"):
        raise ValueError(f'time method must be "rk4" or "expm", got {method!r}')
    return t_end, dynamics.time_steps(t_end, dt)[1], method  # the step integrate takes


def _grid_band(cfg, ctx, minimum):
    """grid.band_limit (default: the symbol band) as an integer >= minimum."""
    grid = cfg.get("grid", {})
    if not isinstance(grid, dict):
        raise ValueError('"grid" must be an object')
    band = _integer(grid.get("band_limit", ctx.band_limit), "grid band_limit")
    if band < minimum:
        raise ValueError(f"grid band_limit {band} is below {minimum}")
    return band


def _out_path(out_dir, cfg, key, default):
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return Path(out_dir) / cfg.get("outputs", {}).get(key, default)


def _write_csv(path, header, rows):
    """Streams the header, then each row tuple at %.17g (integers print as integers)."""
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(line % row for row in rows)


def _write_grid(path, band, c):
    """Values of coefficients c (of band up to `band`) on the grid of `band`, theta-major."""
    grid, synthesize, _, _ = sphere_ops.grid_synthesis_analysis(band)
    rows = zip(grid.thetas, synthesize(c).tolist())
    _write_csv(path, "theta,phi,value_re,value_im",
               ((th, ph, v.real, v.imag) for th, row in rows for ph, v in zip(grid.phis, row)))


def _check_rk4_step(gen, t_end, dt_used):
    """Reject (exit 1) an rk4 step that amplifies one of the eigenvalues of gen
    of largest magnitude (ARPACK, fixed start vector), naming the largest dt
    on the same time grid that keeps them inside the rk4 stability region."""
    from scipy.sparse.linalg import eigs  # slow import, rk4 runs only

    n = gen.shape[0]
    lam = eigs(gen, k=min(6, n - 2), which="LM", v0=np.ones(n), return_eigenvectors=False)

    def stable(h):  # |R(h lam)| <= 1 up to rounding, R(z) = sum_{k<=4} z^k / k!
        z = h * lam
        return np.max(np.abs(1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4))))) <= 1 + 1e-9

    if stable(dt_used):
        return
    lo, hi = 0.0, dt_used  # bisect for the step limit
    for _ in range(60):
        lo, hi = ((lo + hi) / 2, hi) if stable((lo + hi) / 2) else (lo, (lo + hi) / 2)
    hint = f"use dt <= {t_end / math.ceil(t_end / lo):.6g}" if lo > 0 else "no dt is stable"
    raise ValueError(f"rk4 is unstable at dt = {dt_used:.6g} (generator eigenvalues up to "
                     f"{np.max(np.abs(lam)):.6g} in magnitude); {hint}")


def _cmd_evolve(cfg, out_dir, tolerance, rng):
    ctx = _context(cfg)
    sigma = _sigma(cfg)
    bath = _bath(cfg)
    kind, payload = _hamiltonian(cfg)
    if bath is not None:
        h_expr = payload.to_expression() if kind == "quadratic" else payload
        gen = dynamics.qfp_generator(h_expr, bath, sigma, ctx)
        print(f"validity ratio gamma/(S T) = {bath.validity_ratio(ctx):.6g}",
              file=sys.stderr)
    elif kind == "quadratic":
        gen = dynamics.quadratic_generator(payload, sigma, ctx)
    else:
        gen = dynamics.unitary_generator(payload, sigma, ctx)
    rho0 = _initial_density(cfg, ctx)
    c0 = sw_transform.operator_to_symbol(rho0, sigma, ctx)
    t_end, dt, method = _time_block(cfg)
    band = _grid_band(cfg, ctx, ctx.band_limit)  # reject bad bands up front
    if method == "rk4":
        _check_rk4_step(gen, t_end, dt)
    result = dynamics.integrate(gen, c0, t_end, dt, method, ctx, sigma, "symbol",
                                keep_states=False)
    _write_csv(_out_path(out_dir, cfg, "trajectory", "trajectory.csv"),
               "t,Sx,Sy,Sz,trace,purity",
               zip(result.times, result.s1, result.s2, result.s3, result.trace,
                   result.purity))
    if "grid" in cfg.get("outputs", {}):
        _write_grid(_out_path(out_dir, cfg, "grid", "grid.csv"), band, result.states[-1])
    drift = float(np.max(np.abs(result.trace - result.trace[0])))
    reality = float(np.max(result.reality))
    print(f"trace drift = {drift:.6g}", file=sys.stderr)
    print(f"reality residual = {reality:.6g}", file=sys.stderr)
    # the exact flow preserves both identically at every step, so either one
    # past the tolerance (or NaN) means the integration is not to be trusted
    if not (drift <= tolerance and reality <= tolerance):
        print(f"conservation violated: trace drift {drift:.6g}, reality "
              f"residual {reality:.6g}, tolerance {tolerance:.6g}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_compare(cfg, out_dir, tolerance, rng):
    ctx = _context(cfg)
    if ctx.hilbert_dim > 64:
        raise ValueError("compare oracle is limited to 2S+1 <= 64")
    sigma = _sigma(cfg)
    bath = _bath(cfg)
    if bath is None:
        raise ValueError('compare needs a "bath" section')
    h_expr = _hamiltonian_expression(cfg)
    h_mat = bopp.expression_to_matrix(h_expr, ctx)
    f_mat = bopp.expression_to_matrix(bath.coupling, ctx)
    rho0 = _initial_density(cfg, ctx)
    t_end, dt, method = _time_block(cfg)
    gen = dynamics.qfp_generator(h_expr, bath, sigma, ctx)
    if method == "rk4":  # the oracle's Liouvillian has the same spectrum
        _check_rk4_step(gen, t_end, dt)
    liou = dynamics.master_liouvillian(h_mat, f_mat, bath.gamma, bath.temperature)
    oracle = dynamics.integrate(liou, dynamics.vec_density(rho0), t_end, dt, method)
    c0 = sw_transform.operator_to_symbol(rho0, sigma, ctx)
    phase = dynamics.integrate(gen, c0, t_end, dt, method, ctx, sigma, "symbol")
    devs = np.empty(oracle.times.size)
    for i in range(oracle.times.size):
        c_oracle = sw_transform.operator_to_symbol(
            dynamics.unvec_density(oracle.states[i]), sigma, ctx)
        devs[i] = np.max(np.abs(c_oracle - phase.states[i]))
    _write_csv(_out_path(out_dir, cfg, "comparison", "compare.csv"), "t,deviation",
               zip(oracle.times, devs))
    worst = float(np.max(devs))
    print(f"max deviation = {worst:.6g}")
    if not (worst <= tolerance):
        print(f"deviation {worst:.6g} exceeds tolerance {tolerance:.6g}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_limit_scan(cfg, out_dir, tolerance, rng):
    scan = cfg.get("scan")
    if not isinstance(scan, dict):
        raise ValueError('config needs a "scan" section')
    mode = scan.get("mode", "bilinear")
    if mode not in ("unitary", "bilinear", "asymptotics"):
        raise ValueError(f'scan mode must be "unitary", "bilinear" or "asymptotics", '
                         f'got {mode!r}')
    twice_s_values = scan.get("twice_s_values")
    if not (isinstance(twice_s_values, list) and twice_s_values):
        raise ValueError('scan needs "twice_s_values", a non-empty list of integers')
    twice_s_values = [_integer(t, "scan twice_s_values entry") for t in twice_s_values]
    l_test = _integer(scan.get("l_test", 3), "scan l_test")
    sigma = _sigma(cfg)
    expected = _optional(scan.get("expected_slope"), _number, "scan expected_slope")
    result = dynamics.classical_limit_scan(
        mode, twice_s_values, sigma, l_test,
        b=_optional(cfg.get("field"), _vector, "field"),
        xi=_optional(cfg.get("xi"), _vector, "xi"),
        gamma=_optional(cfg.get("gamma"), _number, "gamma"),
        temperature=_optional(cfg.get("temperature"), _number, "temperature"))
    _write_csv(_out_path(out_dir, cfg, "scan", "scan.csv"), "S,deviation",
               zip(result["s_values"], result["deviations"]))
    slope = result["slope"]
    print(f"slope = {slope:.6f}")
    if expected is not None:
        if math.isnan(slope):
            if not (np.max(result["deviations"]) <= 1e-12):
                print("slope undefined with non-vanishing deviations",
                      file=sys.stderr)
                return 2
        elif not (abs(slope - expected) <= tolerance):
            print(f"slope {slope:.4f} outside {expected} +- {tolerance}",
                  file=sys.stderr)
            return 2
    return 0


def _cmd_kernel(cfg, out_dir, tolerance, rng):
    ctx = _context(cfg)
    sigma = _sigma(cfg)
    grid = sphere_ops.make_grid(_grid_band(cfg, ctx, 0))
    _write_csv(_out_path(out_dir, cfg, "kernel", "kernel.csv"),
               "theta,phi,row,col,value_re,value_im",
               ((th, ph, r, c, v.real, v.imag)
                for th in grid.thetas for ph in grid.phis
                for r, row in enumerate(sw_transform.kernel_eval(ctx, sigma, th, ph).tolist())
                for c, v in enumerate(row)))
    return 0


def _cmd_symbol(cfg, out_dir, tolerance, rng):
    ctx = _context(cfg)
    sigma = _sigma(cfg)
    op_spec = cfg.get("operator")
    if not isinstance(op_spec, dict):
        raise ValueError('config needs an "operator" section')
    if "spin_component" in op_spec:
        k = _integer(op_spec["spin_component"], "spin_component")
        if k not in (1, 2, 3):
            raise ValueError("spin_component must be 1, 2 or 3")
        mat = spin_matrices(ctx)[k - 1]
    elif "expression" in op_spec:
        mat = bopp.expression_to_matrix(_parse_expression(op_spec["expression"]), ctx)
    elif _flag(op_spec.get("random_hermitian", False), "operator random_hermitian"):
        n = ctx.hilbert_dim
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mat = (raw + raw.conj().T) / 2.0
    else:
        raise ValueError(
            'operator needs "spin_component", "expression" or "random_hermitian"')
    c = sw_transform.operator_to_symbol(mat, sigma, ctx)
    # a self-check of the transform, reported only: the default tolerance is 0
    back = sw_transform.symbol_to_operator(c, sigma, ctx)
    print(f"round-trip residual = {np.max(np.abs(back - mat)):.6g}", file=sys.stderr)
    _write_grid(_out_path(out_dir, cfg, "grid", "symbol.csv"),
                _grid_band(cfg, ctx, ctx.band_limit), c)
    return 0


_COMMANDS = {
    "evolve": _cmd_evolve,
    "compare": _cmd_compare,
    "limit-scan": _cmd_limit_scan,
    "kernel": _cmd_kernel,
    "symbol": _cmd_symbol,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinphase",
        description="Phase-space spin dynamics: evolution, oracle comparison, "
                    "classical-limit scans, kernel and symbol dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tolerance", type=float, default=None,
                       help="override the command's tolerance")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for any randomized inputs")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _validate_keys(cfg, args.command)
        outputs = cfg.get("outputs", {})
        if not (isinstance(outputs, dict) and all(isinstance(v, str) for v in outputs.values())):
            raise ValueError(f'"outputs" must map names to file names, got {outputs!r}')
        tolerance = args.tolerance
        if tolerance is None:
            tolerance = _number(cfg.get("tolerance", _DEFAULT_TOLERANCE[args.command]),
                                "tolerance")
        if not (math.isfinite(tolerance) and tolerance >= 0):
            raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
        seed = args.seed
        if seed is None:
            seed = _integer(cfg.get("seed", 0), "seed")
        out_dir = Path(args.out)
        resolved = dict(cfg)
        resolved["command"] = args.command
        resolved["tolerance"] = tolerance
        resolved["seed"] = seed
        rng = np.random.default_rng(seed)
        code = _COMMANDS[args.command](cfg, out_dir, tolerance, rng)
        (out_dir / "resolved_config.json").write_text(
            json.dumps(resolved, indent=2, sort_keys=True) + "\n")
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
