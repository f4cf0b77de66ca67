"""Command-line interface: batch runs driven by a JSON config file.

Subcommands: evolve, compare, limit-scan, kernel, symbol.  evolve and compare
propagate with the exact expm step; time.method may only name it.  A run writes
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

# keys of the config sections by dotted path; the top level's and those of
# "outputs" are a command's, in _COMMANDS
_SECTION_KEYS = {
    "spin": {"twice_s"}, "hamiltonian": {"expression"},
    "bath": {"coupling", "gamma", "temperature"},
    "initial": {"coherent", "expression"}, "initial.coherent": {"theta", "phi"},
    "time": {"t_end", "dt", "method"}, "grid": {"band_limit"},
    "scan": {"mode", "twice_s_values", "l_test", "expected_slope"},
    "operator": {"expression"},
}
_ONE_OF = {"initial"}  # each key is an alternative to the others
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


def _validate_keys(cfg, command):
    """Refuse unknown keys at the top level and in every section that is an
    object (a section of another type is refused where it is read), and a
    second alternative in a section of _ONE_OF, which would go unread."""
    _, keys, outputs, _ = _COMMANDS[command]
    sections = {"": {*keys, "outputs"}, **_SECTION_KEYS, "outputs": set(outputs)}
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


def _expression(cfg, section):
    """The expression of a section whose only key is "expression"."""
    part = cfg.get(section)
    if not isinstance(part, dict) or "expression" not in part:
        raise ValueError(f'config needs "{section}": {{"expression": [[coeff, word], ...]}}')
    return _parse_expression(part["expression"])


def _bath(cfg):
    b = cfg.get("bath", {})  # none: the unitary model, a bath of rate 0
    if not isinstance(b, dict):
        raise ValueError(f'"bath" must be an object, got {b!r}')
    return dynamics.BathSpec(
        coupling=tuple(_parse_expression(b.get("coupling", []))),
        gamma=_number(b.get("gamma", 0.0), "bath gamma"),
        temperature=_number(b.get("temperature", 1.0), "bath temperature"),
    )


def _initial_state(cfg, ctx, sigma):
    """(rho0, its symbol at sigma), exact at every sigma.  An expression is divided
    by its trace, and its symbol is its Bopp words'.  A coherent state is the
    kernel Delta^(-1), whose sigma = 1 symbol is the band-limited delta."""
    init = cfg.get("initial")
    if not isinstance(init, dict):
        raise ValueError('config needs an "initial" section')
    if "coherent" in init:
        c = init["coherent"]
        if not isinstance(c, dict) or "theta" not in c:
            raise ValueError('initial "coherent" needs {"theta": <angle>}')
        theta = _finite(c["theta"], "coherent theta")
        phi = _finite(c.get("phi", 0.0), "coherent phi")
        rho = dynamics.coherent_state(ctx, theta, phi)
        y = sphere_ops.ylm_point(ctx.band_limit, theta, phi)
        delta = np.conj(y) / sw_transform.measure_constant(ctx)  # its sigma = 1 symbol
        return rho, sw_transform.switch_ordering(delta, 1.0, sigma, ctx)
    if "expression" not in init:
        raise ValueError('initial needs "coherent" or "expression"')
    expr = _parse_expression(init["expression"])
    dynamics._refuse_non_hermitian(expr, sigma, ctx, "initial expression")
    with np.errstate(all="ignore"):  # refused just below
        mat = bopp.expression_to_matrix(expr, ctx)
        trace = np.trace(mat).real
        rho = mat / trace
    if math.isfinite(trace) and not trace > 0:
        raise ValueError(f"initial expression must have a positive trace, got {trace:.6g}")
    if not (math.isfinite(trace) and np.all(np.isfinite(rho))):
        raise RuntimeError("the matrix of the initial expression overflows")
    lowest = np.linalg.eigvalsh(rho)[0]
    if not lowest >= -1e-12:  # rounding of a unit-trace spectrum
        raise ValueError(f"initial expression must be positive semidefinite: divided by "
                         f"its trace, its lowest eigenvalue is {lowest:.6g}")
    c0 = bopp.expression_symbol([(coeff / trace, word) for coeff, word in expr], sigma, ctx)
    return rho, np.pad(c0, (0, ctx.symbol_dim - c0.size))


def _time_block(cfg):
    t = cfg.get("time")
    if not isinstance(t, dict):
        raise ValueError('config needs a "time" section')
    t_end = _number(t.get("t_end", 1.0), "time t_end")
    dt = _number(t.get("dt", 0.01), "time dt")
    method = t.get("method", "expm")
    if method != "expm":
        raise ValueError(f'time method must be "expm", the only one the CLI runs, got {method!r}')
    return t_end, dynamics.time_steps(t_end, dt)[1]  # the step integrate takes


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
    config included, may share one: the later would overwrite the earlier.
    An out_dir that is, or lies under, an existing non-directory is refused."""
    nearest = next(path for path in (Path(out_dir), *Path(out_dir).parents) if path.exists())
    if not nearest.is_dir():
        raise ValueError(f"--out {out_dir} cannot be a directory: {nearest} exists and is not one")
    outputs = cfg.get("outputs", {})
    if not (isinstance(outputs, dict) and all(isinstance(v, str) for v in outputs.values())):
        raise ValueError(f'"outputs" must map names to file names, got {outputs!r}')
    for name in outputs.values():  # each lands directly in --out
        if name in ("", ".", "..") or Path(name).name != name:
            raise ValueError(f'"outputs" file names must be plain names with no '
                             f'directory part, got {name!r}')
    names = {key: outputs.get(key, default) for key, default in _COMMANDS[command][2].items()}
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
    with np.errstate(over="ignore", invalid="ignore"):  # refused before the file is opened
        values = sphere_ops.grid_values(band, c)
    if not np.all(np.isfinite(values)):
        raise RuntimeError(f"{np.sum(~np.isfinite(values))} grid values are not finite")
    rows = zip(thetas, values.tolist())
    _write_csv(path, "theta,phi,value_re,value_im",
               ((th, ph, v.real, v.imag) for th, row in rows for ph, v in zip(phis, row)))


def _cmd_evolve(cfg, paths, tolerance):
    if "grid" in cfg and "grid" not in paths:
        raise ValueError('"grid" is read only with "outputs": {"grid": <file name>}')
    ctx = _context(cfg)
    sigma = _sigma(cfg)
    bath = _bath(cfg)
    h_expr = _expression(cfg, "hamiltonian")
    rho0, c0 = _initial_state(cfg, ctx, sigma)
    t_end, dt = _time_block(cfg)
    band = _grid_band(cfg, ctx, ctx.band_limit)
    gen = dynamics.qfp_generator(h_expr, bath, sigma, ctx)  # the costly build, once all is read
    print(f"validity ratio gamma/(S T) = {bath.validity_ratio(ctx):.6g}", file=sys.stderr)
    if "coherent" in cfg["initial"]:  # the transform against the closed form, reported only
        check = np.max(np.abs(sw_transform.operator_to_symbol(rho0, 0.0, ctx)
                              - sw_transform.switch_ordering(c0, sigma, 0.0, ctx)))
        print(f"transform self-check = {check:.6g}", file=sys.stderr)
    result = dynamics.integrate(gen, c0, t_end, dt, "expm", ctx, sigma, "symbol")
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
    h_expr = _expression(cfg, "hamiltonian")
    rho0, c0 = _initial_state(cfg, ctx, sigma)
    t_end, dt = _time_block(cfg)
    gen = dynamics.qfp_generator(h_expr, bath, sigma, ctx)  # refuses H before any matrix
    liou = dynamics.master_liouvillian(bopp.expression_to_matrix(h_expr, ctx),
                                       bopp.expression_to_matrix(bath.coupling, ctx),
                                       bath.gamma, bath.temperature)
    times, rhos = dynamics.lockstep(liou, dynamics.vec_density(rho0), t_end, dt, "expm")
    _, cs = dynamics.lockstep(gen, c0, t_end, dt, "expm")
    devs = np.empty(times.size)
    for k, (rho, c) in enumerate(zip(rhos, cs)):  # the two routes, step by step
        # read at sigma = 0, an operator error in the orthonormal T_lm basis
        # (see dynamics._symbol_observables)
        devs[k] = np.max(np.abs(
            sw_transform.operator_to_symbol(dynamics.unvec_density(rho), 0.0, ctx)
            - sw_transform.switch_ordering(c, sigma, 0.0, ctx)))
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
    elif "tolerance" in cfg:
        raise ValueError('"tolerance" is read only with "scan": {"expected_slope": <slope>}')
    h = _expression(cfg, "hamiltonian") if "hamiltonian" in cfg else None
    bath = _bath(cfg) if "bath" in cfg else None
    result = dynamics.classical_limit_scan(scan.get("mode", "bilinear"), twice_s_values, sigma,
                                           l_test, h=h, bath=bath)
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


def _cmd_symbol(cfg, paths):
    ctx = _context(cfg)
    sigma = _sigma(cfg)
    expr = _expression(cfg, "operator")
    with np.errstate(over="ignore", invalid="ignore"):  # _write_grid refuses a non-finite c
        mat = bopp.expression_to_matrix(expr, ctx)
        c = bopp.expression_symbol(expr, sigma, ctx)  # by the Bopp route, exact at every sigma
        c = np.pad(c, (0, ctx.symbol_dim - c.size))
        # a self-check against the matrix, reported only: symbol gates on no tolerance
        residual = np.max(np.abs(sw_transform.symbol_to_operator(c, sigma, ctx) - mat))
    print(f"round-trip residual = {residual:.6g}", file=sys.stderr)
    _write_grid(paths["grid"], _grid_band(cfg, ctx, ctx.band_limit), c)
    return 0


# per command: its function, the top-level keys it reads besides "outputs", its
# files by "outputs" key with their default names (None: written only when
# "outputs" names it; every run also writes _RESOLVED_CONFIG) and its gate's
# default tolerance (None: no gate)
_COMMANDS = {
    "evolve": (_cmd_evolve, {"spin", "sigma", "hamiltonian", "bath", "initial", "time", "grid",
                             "tolerance"}, {"trajectory": "trajectory.csv", "grid": None}, 1e-8),
    "compare": (_cmd_compare, {"spin", "sigma", "hamiltonian", "bath", "initial", "time",
                               "tolerance"}, {"comparison": "compare.csv"}, 1e-8),
    "limit-scan": (_cmd_limit_scan, {"scan", "sigma", "hamiltonian", "bath", "tolerance"},
                   {"scan": "scan.csv"}, 0.2),
    "kernel": (_cmd_kernel, {"spin", "sigma", "grid"}, {"kernel": "kernel.csv"}, None),
    "symbol": (_cmd_symbol, {"spin", "sigma", "operator", "grid"},
               {"grid": "symbol.csv"}, None),
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
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args.config)
        _validate_keys(cfg, args.command)
        paths = _output_paths(cfg, args.command, args.out)
        resolved = dict(cfg, command=args.command)
        run, _, _, default = _COMMANDS[args.command]
        gate = ()  # the tolerance of a command that gates on one
        if default is not None:
            tolerance = _number(cfg.get("tolerance", default), "tolerance")
            if not (math.isfinite(tolerance) and tolerance >= 0):
                raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
            resolved["tolerance"] = tolerance
            gate = (tolerance,)
        code = run(cfg, paths, *gate)
        (Path(args.out) / _RESOLVED_CONFIG).write_text(
            json.dumps(resolved, indent=2, sort_keys=True) + "\n")
        return code
    except (ValueError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"error: not enough memory for this run: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
