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
from .su2_algebra import SpinContext, is_integer

# the commands that gate on a tolerance, with its default; only symbol draws
# random numbers, so only it reads a seed
_DEFAULT_TOLERANCE = {"evolve": 1e-8, "compare": 1e-8, "limit-scan": 0.2}

_ALLOWED_KEYS = {
    "evolve": {"spin", "sigma", "hamiltonian", "bath", "initial", "time",
               "grid", "outputs", "tolerance"},
    "compare": {"spin", "sigma", "hamiltonian", "bath", "initial", "time",
                "outputs", "tolerance"},
    "limit-scan": {"scan", "sigma", "hamiltonian", "bath", "outputs", "tolerance"},
    "kernel": {"spin", "sigma", "grid", "outputs"},
    "symbol": {"spin", "sigma", "operator", "grid", "outputs", "seed"},
}

# keys of the config sections by dotted path; those of "outputs" by command
_SECTION_KEYS = {
    "spin": {"twice_s"}, "hamiltonian": {"expression"},
    "bath": {"coupling", "gamma", "temperature"},
    "initial": {"coherent", "mixed", "matrix_file"}, "initial.coherent": {"theta", "phi"},
    "time": {"t_end", "dt", "method"}, "grid": {"band_limit"},
    "scan": {"mode", "twice_s_values", "l_test", "expected_slope"},
    "operator": {"expression", "random_hermitian"},
}
_ONE_OF = {"initial", "operator"}  # each key is an alternative to the others
# the keys of "outputs" by command, with each file's default name (None: the
# file is written only when "outputs" names it); every run also writes this one
_OUTPUTS = {"evolve": {"trajectory": "trajectory.csv", "grid": None},
            "compare": {"comparison": "compare.csv"}, "limit-scan": {"scan": "scan.csv"},
            "kernel": {"kernel": "kernel.csv"}, "symbol": {"grid": "symbol.csv"}}
_RESOLVED_CONFIG = "resolved_config.json"


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


def _finite(value, what):
    """A JSON number as a float; JSON's NaN and Infinity are refused too."""
    x = _number(value, what)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x}")
    return x


def _integer(value, what):
    """A JSON integer (or integral float) as an int; anything else is refused."""
    if not is_integer(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _flag(value, what):
    """A JSON boolean; anything else is refused."""
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


def _validate_keys(cfg, command):
    """Refuse unknown keys at the top level and in every section that is an
    object (a section of another type is refused where it is read), and a
    second alternative in a section of _ONE_OF, which would go unread."""
    sections = {"": _ALLOWED_KEYS[command], **_SECTION_KEYS, "outputs": set(_OUTPUTS[command])}
    for path, allowed in sections.items():
        section = cfg
        for name in filter(None, path.split(".")):
            section = section.get(name) if isinstance(section, dict) else None
        unknown = sorted(set(section) - allowed) if isinstance(section, dict) else []
        if unknown:
            where = f' in "{path}"' if path else ""
            raise ValueError(f"unknown config keys{where} for {command}: {', '.join(unknown)}")
        if path in _ONE_OF and isinstance(section, dict) and len(section) > 1:
            raise ValueError(f'"{path}" takes one of its keys, got {", ".join(sorted(section))}')


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
        return complex(_finite(obj[0], "coefficient re"), _finite(obj[1], "coefficient im"))
    return complex(_finite(obj, "coefficient"))


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
    """The Hamiltonian as an expression."""
    h = cfg.get("hamiltonian")
    if not isinstance(h, dict) or "expression" not in h:
        raise ValueError('config needs "hamiltonian": {"expression": [[coeff, word], ...]}')
    return _parse_expression(h["expression"])


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
        return dynamics.coherent_state(ctx, _finite(c["theta"], "coherent theta"),
                                       _finite(c.get("phi", 0.0), "coherent phi"))
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
        if not np.max(np.abs(rho - rho.conj().T)) <= 1e-10:  # NaN-safe
            raise ValueError("initial matrix must be Hermitian")
        if not abs(np.trace(rho).real - 1.0) <= 1e-8:
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


def _output_paths(cfg, command, out_dir):
    """The path of each file the run writes, by its "outputs" key.  Each name
    must be a plain file name, and no two files of the run, the resolved
    config included, may share one: the later would overwrite the earlier."""
    outputs = cfg.get("outputs", {})
    if not (isinstance(outputs, dict) and all(isinstance(v, str) for v in outputs.values())):
        raise ValueError(f'"outputs" must map names to file names, got {outputs!r}')
    for name in outputs.values():  # each lands directly in --out
        if name in ("", ".", "..") or Path(name).name != name:
            raise ValueError(f'"outputs" file names must be plain names with no '
                             f'directory part, got {name!r}')
    names = {key: outputs.get(key, default) for key, default in _OUTPUTS[command].items()}
    names = {key: name for key, name in names.items() if name is not None}
    for key, name in names.items():
        if name == _RESOLVED_CONFIG or list(names.values()).count(name) > 1:
            raise ValueError(f'"outputs" {key} file {name!r} would overwrite another '
                             f"file of the run")
    return {key: Path(out_dir) / name for key, name in names.items()}


def _write_csv(path, header, rows):
    """Streams the header, then each row tuple at %.17g (integers print as integers)."""
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(line % row for row in rows)


def _write_grid(path, band, c):
    """Values of coefficients c (of band up to `band`) on the grid of `band`, theta-major."""
    thetas, phis = sphere_ops.grid_points(band)
    rows = zip(thetas, sphere_ops.grid_values(band, c).tolist())
    _write_csv(path, "theta,phi,value_re,value_im",
               ((th, ph, v.real, v.imag) for th, row in rows for ph, v in zip(phis, row)))


def _check_rk4_step(gen, t_end, dt_used):
    """Reject (exit 1) an rk4 step that amplifies one of the eigenvalues of gen
    of largest magnitude (ARPACK, fixed start vector), naming the largest dt
    on the same time grid that keeps them inside the rk4 stability region."""
    if not np.any(gen.data):  # G = 0 amplifies nothing, and ARPACK's start
        return                # vector would map to zero
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


def _cmd_evolve(cfg, paths, tolerance):
    ctx = _context(cfg)
    sigma = _sigma(cfg)
    bath = _bath(cfg)
    gen = dynamics.qfp_generator(_hamiltonian(cfg), bath, sigma, ctx)
    if bath is not None:
        print(f"validity ratio gamma/(S T) = {bath.validity_ratio(ctx):.6g}",
              file=sys.stderr)
    rho0 = _initial_density(cfg, ctx)
    c0 = sw_transform.operator_to_symbol(rho0, sigma, ctx)
    t_end, dt, method = _time_block(cfg)
    band = _grid_band(cfg, ctx, ctx.band_limit)  # reject bad bands up front
    if method == "rk4":
        _check_rk4_step(gen, t_end, dt)
    result = dynamics.integrate(gen, c0, t_end, dt, method, ctx, sigma, "symbol",
                                keep_states=False)
    _write_csv(paths["trajectory"], "t,Sx,Sy,Sz,trace,purity",
               zip(result.times, result.s1, result.s2, result.s3, result.trace,
                   result.purity))
    if "grid" in paths:
        _write_grid(paths["grid"], band, result.states[-1])
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


def _cmd_compare(cfg, paths, tolerance):
    ctx = _context(cfg)
    sigma = _sigma(cfg)
    bath = _bath(cfg)
    if bath is None:
        raise ValueError('compare needs a "bath" section')
    h_expr = _hamiltonian(cfg)
    h_mat = bopp.expression_to_matrix(h_expr, ctx)
    f_mat = bopp.expression_to_matrix(bath.coupling, ctx)
    rho0 = _initial_density(cfg, ctx)
    t_end, dt, method = _time_block(cfg)
    gen = dynamics.qfp_generator(h_expr, bath, sigma, ctx)
    if method == "rk4":  # the oracle's Liouvillian has the same spectrum
        _check_rk4_step(gen, t_end, dt)
    liou = dynamics.master_liouvillian(h_mat, f_mat, bath.gamma, bath.temperature)
    c0 = sw_transform.operator_to_symbol(rho0, sigma, ctx)
    # the gap is read on sigma = 0 coefficients, where it is an operator error
    # in the orthonormal T_lm basis (see dynamics._symbol_observables); the
    # factors are exactly 1 at sigma = 0, so that gap is the one read at sigma
    to_symmetric = sw_transform.switch_ordering(np.ones(ctx.symbol_dim), sigma, 0.0, ctx).real
    times, blocks = dynamics.lockstep([liou, gen], [dynamics.vec_density(rho0), c0],
                                      t_end, dt, method)
    devs = np.empty(times.size)
    for first, (rhos, cs) in blocks:  # the two routes step by step, block by block
        for i, (rho, c) in enumerate(zip(rhos, cs), first):
            c_oracle = sw_transform.operator_to_symbol(dynamics.unvec_density(rho), 0.0, ctx)
            devs[i] = np.max(np.abs(c_oracle - to_symmetric * c))
    _write_csv(paths["comparison"], "t,deviation", zip(times, devs))
    worst = float(np.max(devs))
    print(f"max deviation = {worst:.6g}")
    if not (worst <= tolerance):
        print(f"deviation {worst:.6g} exceeds tolerance {tolerance:.6g}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_limit_scan(cfg, paths, tolerance):
    scan = cfg.get("scan")
    if not isinstance(scan, dict):
        raise ValueError('config needs a "scan" section')
    twice_s_values = scan.get("twice_s_values")
    if not (isinstance(twice_s_values, list) and twice_s_values):
        raise ValueError('scan needs "twice_s_values", a non-empty list of integers')
    twice_s_values = [_integer(t, "scan twice_s_values entry") for t in twice_s_values]
    l_test = _integer(scan.get("l_test", 3), "scan l_test")
    sigma = _sigma(cfg)
    expected = scan.get("expected_slope")
    if expected is not None:
        expected = _finite(expected, "scan expected_slope")
    h = _hamiltonian(cfg) if "hamiltonian" in cfg else None
    result = dynamics.classical_limit_scan(scan.get("mode", "bilinear"), twice_s_values, sigma,
                                           l_test, h=h, bath=_bath(cfg))
    _write_csv(paths["scan"], "S,deviation", zip(result["s_values"], result["deviations"]))
    slope = result["slope"]
    print(f"slope = {slope:.6f}")
    if expected is not None:
        if math.isnan(slope):  # a deviation at rounding level: there is no law to fit
            if not (np.max(result["deviations"]) <= dynamics._ROUNDING):
                print("slope undefined with non-vanishing deviations",
                      file=sys.stderr)
                return 2
        elif not (abs(slope - expected) <= tolerance):
            print(f"slope {slope:.4f} outside {expected} +- {tolerance}",
                  file=sys.stderr)
            return 2
    return 0


def _cmd_kernel(cfg, paths):
    ctx = _context(cfg)
    sigma = _sigma(cfg)
    thetas, phis = sphere_ops.grid_points(_grid_band(cfg, ctx, 0))
    _write_csv(paths["kernel"], "theta,phi,row,col,value_re,value_im",
               ((th, ph, r, c, v.real, v.imag)
                for th in thetas for ph in phis
                for r, row in enumerate(sw_transform.kernel_eval(ctx, sigma, th, ph).tolist())
                for c, v in enumerate(row)))
    return 0


def _cmd_symbol(cfg, paths, rng):
    ctx = _context(cfg)
    sigma = _sigma(cfg)
    op_spec = cfg.get("operator")
    if not isinstance(op_spec, dict):
        raise ValueError('config needs an "operator" section')
    if "expression" in op_spec:
        mat = bopp.expression_to_matrix(_parse_expression(op_spec["expression"]), ctx)
    elif _flag(op_spec.get("random_hermitian", False), "operator random_hermitian"):
        n = ctx.hilbert_dim
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mat = (raw + raw.conj().T) / 2.0
    else:
        raise ValueError(
            'operator needs "expression" or "random_hermitian"')
    c = sw_transform.operator_to_symbol(mat, sigma, ctx)
    # a self-check of the transform, reported only: symbol gates on no tolerance
    back = sw_transform.symbol_to_operator(c, sigma, ctx)
    print(f"round-trip residual = {np.max(np.abs(back - mat)):.6g}", file=sys.stderr)
    _write_grid(paths["grid"], _grid_band(cfg, ctx, ctx.band_limit), c)
    return 0


_COMMANDS = {
    "evolve": _cmd_evolve,
    "compare": _cmd_compare,
    "limit-scan": _cmd_limit_scan,
    "kernel": _cmd_kernel,
    "symbol": _cmd_symbol,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError: exit 1 with an error: line, not argparse's 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="spinphase",
        description="Phase-space spin dynamics: evolution, oracle comparison, "
                    "classical-limit scans, kernel and symbol dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        if name in _DEFAULT_TOLERANCE:
            p.add_argument("--tolerance", type=float, default=None,
                           help="override the command's tolerance")
        if name == "symbol":
            p.add_argument("--seed", type=int, default=None,
                           help="seed for a random_hermitian operator")
    return parser


def _twice_s_asked(cfg):
    """The 2S a config asks for, as written: "spin" twice_s or a scan's values."""
    for section, key in (("spin", "twice_s"), ("scan", "twice_s_values")):
        part = cfg.get(section)
        if isinstance(part, dict) and key in part:
            return part[key]
    return None


def main(argv=None):
    cfg = {}
    try:
        args, unread = build_parser().parse_known_args(argv)
        if unread:  # such as --seed to a command that draws no random numbers
            raise ValueError(f"{args.command} does not take {' '.join(unread)}")
        cfg = _load_config(args.config)
        _validate_keys(cfg, args.command)
        paths = _output_paths(cfg, args.command, args.out)
        resolved = dict(cfg, command=args.command)
        options = {}  # the tolerance or the random generator the command reads
        if args.command in _DEFAULT_TOLERANCE:
            tolerance = args.tolerance
            if tolerance is None:
                tolerance = _number(cfg.get("tolerance", _DEFAULT_TOLERANCE[args.command]),
                                    "tolerance")
            if not (math.isfinite(tolerance) and tolerance >= 0):
                raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
            resolved["tolerance"] = options["tolerance"] = tolerance
        if args.command == "symbol":
            seed = args.seed
            if seed is None:
                seed = _integer(cfg.get("seed", 0), "seed")
            resolved["seed"] = seed
            options["rng"] = np.random.default_rng(seed)
        code = _COMMANDS[args.command](cfg, paths, **options)
        (Path(args.out) / _RESOLVED_CONFIG).write_text(
            json.dumps(resolved, indent=2, sort_keys=True) + "\n")
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"error: 2S = {_twice_s_asked(cfg)} needs more memory than is available: {exc}",
              file=sys.stderr)
        return 1
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
