"""Time evolution generators on symbol coefficients, their Hilbert-space
oracle, classical (large-S) generators, integrators, and observables.

Sign conventions are anchored to d(rho)/dt = -i[H, rho]: the unitary
generator on coefficients is 2 Im(H_hat) with Im(O) = (O - C O C)/(2i),
which for H = -B3 S3 gives <S1> + i<S2> proportional to exp(-i B3 t).
Dissipation follows the weak-coupling form with coupling operator F,
rate gamma and temperature T; the small parameter gamma/(S T) is
reported, never enforced.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import bopp, sphere_ops, sw_transform
# spin_matrices is unused here but stays bound: bench/test_bench.py traces it through dynamics
from .su2_algebra import SpinContext, is_integer, spin_matrices  # noqa: F401

_EPS = [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
        (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0)]


@dataclass(frozen=True)
class BathSpec:
    """Coupling operator F (polynomial expression), rate gamma, temperature."""

    coupling: tuple
    gamma: float
    temperature: float

    def __post_init__(self):
        object.__setattr__(self, "coupling", tuple(bopp.validate_expression(self.coupling)))
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError("gamma must be finite and >= 0")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be finite and > 0")

    def validity_ratio(self, ctx):
        """gamma/(S T): weak-coupling diagnostic, reported but never blocking."""
        return self.gamma / (ctx.s * self.temperature)


def _refuse_non_hermitian(expr, sigma, ctx, what):
    """Refuse expr unless its symbol c = bopp.expression_symbol(expr, sigma, ctx) is
    real, P conj(c) = c, to 1e-12 sum |coeff| S^k on c/sqrt(4pi): a bound on each
    term, so cancelling terms such as i(S1 S2 - S2 S1) pass at any S.  A symbol
    that is not finite is a RuntimeError: an overflow, not a non-Hermitian expr."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        c = bopp.expression_symbol(expr, sigma, ctx)  # validates expr
    if not np.all(np.isfinite(c)):
        raise RuntimeError(f"the symbol of the {what} overflows")
    residual = np.max(np.abs(sphere_ops.conjugation_matrix(
        sphere_ops.band_limit_of(c.size)) @ c.conj() - c))
    scale = max(1.0, sum(abs(coeff) * ctx.s ** len(word) for coeff, word in expr))
    if not residual <= 1e-12 * math.sqrt(4.0 * math.pi) * scale:  # NaN-safe
        raise ValueError(f"{what} must be Hermitian")


def qfp_generator(h_expr, bath, sigma, ctx, band=None):
    """Generator 2 Im(H) + 4 gamma T Im(F)^2 - 2 gamma Im(F) Im([H,F]) of the
    weak-coupling master equation at band limit band (None: 2S), from one Bopp
    set and one conjugation P: Im(O) = (O - P conj(O) P)/(2i).  With bath None
    it is the unitary 2 Im(H) of d(rho)/dt = -i[H, rho].  A non-Hermitian H or F
    is refused.  Its l <= l_test block equals the band-2S one from band _block_band on."""
    _refuse_non_hermitian(h_expr, sigma, ctx, "Hamiltonian")
    if bath is not None:
        _refuse_non_hermitian(bath.coupling, sigma, ctx, "coupling operator")
    mats = bopp.bopp_matrices(ctx, sigma, band)
    p = sphere_ops.conjugation_matrix(sphere_ops.band_limit_of(mats[0].shape[0]))

    def imag(op):
        return (op - p @ op.conj() @ p) / 2j

    with np.errstate(over="ignore", invalid="ignore"):  # integrate refuses a non-finite G
        h_hat = bopp.evaluate_expression(h_expr, mats)
        gen = 2.0 * imag(h_hat)
        if bath is not None:
            f_hat = bopp.evaluate_expression(bath.coupling, mats)
            im_f = imag(f_hat)
            gen = gen + 4.0 * bath.gamma * bath.temperature * (im_f @ im_f)
            gen = gen - 2.0 * bath.gamma * (im_f @ imag(h_hat @ f_hat - f_hat @ h_hat))
    return gen.tocsr()


def _block_band(h_expr, coupling, l_test, ctx):
    """Least band at which qfp_generator's l <= l_test block is the band-2S one:
    its longest product, Im(F) Im([H, F]), has deg H + 2 deg F Bopp factors,
    each moving one shell at most, so a path from the block back into it
    strays at most half of them above it."""
    degree = bopp.degree(bopp.validate_expression(h_expr)) + 2 * bopp.degree(coupling)
    return min(ctx.band_limit, l_test + degree // 2)


# --- Hilbert-space oracle -------------------------------------------------

def vec_density(rho):
    """Column-stacked vectorization."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec_density(v):
    n = math.isqrt(v.size)
    if n * n != v.size:
        raise ValueError("vector length is not a perfect square")
    return np.asarray(v, dtype=complex).reshape((n, n), order="F")


def master_liouvillian(h, f, gamma, temperature):
    """CSR matrix, on column-stacked rho, of the weak-coupling master equation
    d(rho)/dt = -i[H,rho] - gamma T ([F, F rho] + h.c.) + (gamma/2)([F, [H,F] rho] + h.c.),
    as sparse Kronecker products of dense n x n products: vec(A X B) = (B^T k A) vec(X)."""
    h = np.asarray(h, dtype=complex)
    f = np.asarray(f, dtype=complex)
    eye = sp.identity(h.shape[0], format="csr")
    g = h @ f - f @ h
    ff = f @ f
    out = -1j * (sp.kron(eye, h) - sp.kron(h.T, eye))
    out -= gamma * temperature * (
        sp.kron(eye, ff) + sp.kron(ff.T, eye) - 2.0 * sp.kron(f.T, f)
    )
    out += 0.5 * gamma * (
        sp.kron(eye, f @ g) - sp.kron(f.T, g)
        - sp.kron((g @ f).T, eye) + sp.kron(g.T, f)
    )
    return out.tocsr()


# --- classical generators -------------------------------------------------

def classical_generators(h_expr, lam, temperature, band_limit, s):
    """The Fokker-Planck generator of classical spin dynamics at band limit L.

    The classical Hamiltonian h(m) is a word expression, as bopp.validate_expression
    takes it, in the sphere's position operators m_1, m_2, m_3 (lossy top
    shells); B_eff = -grad h, where d/dm_a drops the first a of each word and
    multiplies its coefficient by the number of a's in it.  It is the
    effective-field form with the position operators m: the Liouville drift
    (i/S) sum_k L_k B_eff,k plus -(i/S) sum_kj L_k Lam_kj [(m x B_eff)_j - i T L_j],
    so at Lam = 0 it is the drift itself.  exp(-h/T) is
    stationary under it on the shells the band truncation leaves
    intact.  qfp_generator for H = -b.S and F = xi.S is this form with B = S b,
    Lam = S gamma xi xi^T and m_i replaced by the Bopp position operator
    (up M_i(up) + down M_i(down))/(2S) = m_i + O(1/S) of bopp_matrices.  A band_limit
    not an integer >= 0 is refused; a -grad h that overflows is a RuntimeError.
    """
    h_expr = bopp.validate_expression(h_expr)
    if any(coeff.imag for coeff, _ in h_expr):
        raise ValueError("the classical Hamiltonian h(m) takes real coefficients only")
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (3, 3) or not np.all(np.isfinite(lam)):
        raise ValueError("lam must be a finite 3x3 matrix")
    if not (math.isfinite(s) and s > 0):
        raise ValueError("s must be finite and > 0")
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError("temperature must be finite and > 0")
    grad = ([], [], [])  # -dh/dm_a, word by word
    for coeff, word in h_expr:
        for a in (1, 2, 3):
            if a in word:
                i = word.index(a)
                grad[a - 1].append((-coeff * word.count(a), word[:i] + word[i + 1:]))
    if not all(np.isfinite(coeff) for g in grad for coeff, _ in g):
        raise RuntimeError("the gradient -grad h of the classical Hamiltonian overflows")
    l_ops = sphere_ops.angular_operators(band_limit)
    m_ops = sphere_ops.position_operators(band_limit)
    zero = sp.csr_matrix(l_ops[0].shape, dtype=complex)
    b_ops = [bopp.evaluate_expression(g, m_ops) for g in grad]
    cross = [zero] * 3  # m x B_eff
    for a, b, c, sign in _EPS:
        cross[a] = cross[a] + sign * (m_ops[b] @ b_ops[c])
    gen = sum(((1j / s) * (l_ops[k] @ b_ops[k]) for k in range(3)), zero)  # the drift
    for k, j in zip(*np.nonzero(lam)):
        gen = gen - (1j / s) * lam[k, j] * (l_ops[k] @ (cross[j] - 1j * temperature * l_ops[j]))
    return gen.tocsr()


# --- states, integration, observables -------------------------------------

def coherent_state(ctx, theta0, phi0):
    """Density matrix of the spin coherent state along n(theta0, phi0), for any
    finite angles: the kernel Delta^(-1) there, the operator whose sigma = 1
    symbol is the band-limited delta.  Non-finite angles are refused, and so
    is a 2S whose sigma = 1 factors leave the normal double range (2S >= 1030)."""
    try:
        sw_transform._factors(ctx, 1.0)  # refuses the range before any table is built
    except ValueError as exc:
        raise ValueError(f"a coherent state at 2S = {ctx.twice_s} is out of range: its "
                         "kernel's factors w_l^-1 leave the normal double range") from exc
    return sw_transform.kernel_eval(ctx, -1.0, theta0, phi0)


@dataclass
class EvolutionResult:
    times: np.ndarray
    states: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    trace: np.ndarray
    purity: np.ndarray
    reality: np.ndarray


# the most steps one time grid, or Taylor substeps one step, may have: a larger
# count is a typo or an overflow, not a run
MAX_STEPS = 10 ** 7
# theta_m for double precision (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
# 488 (2011), Table 3.1): the degree-m Taylor series of exp(A) meets unit
# roundoff in backward error while ||A||_1 <= theta_m
_THETA = {5: 2.4e-3, 10: 1.4e-1, 15: 6.4e-1, 20: 1.4, 25: 2.4, 30: 3.5,
          35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}


def time_steps(t_end, dt):
    """(n_steps, dt_used): the uniform grid on [0, t_end] with step nearest dt."""
    if not (0 < t_end < math.inf and 0 < dt < math.inf):
        raise ValueError(f"t_end and dt must be finite and positive, got {t_end}, {dt}")
    if not t_end / dt < MAX_STEPS + 0.5:  # an overflowing ratio is inf
        raise ValueError(f"t_end / dt = {t_end / dt:.6g} steps exceeds the ceiling "
                         f"of MAX_STEPS = {MAX_STEPS} steps")
    n_steps = max(1, int(round(t_end / dt)))
    return n_steps, t_end / n_steps


def integrate(gen, y0, t_end, dt, method, ctx, sigma, kind="symbol"):
    """Propagate the symbol state c of ctx under dy/dt = G y on the uniform grid
    of time_steps(t_end, dt), observing at every step its spin observables,
    trace, purity Tr(rho^dag rho) = (2S+1)/(4pi) sum |c0|^2 (Tr(rho^2) for the
    Hermitian rho the flow keeps) and reality residual max|P conj(c0) - c0|, with
    c0 = switch_ordering(c, sigma, 0).  dt is adjusted to divide t_end evenly.

    `states` holds two rows, y0 and the final state, so memory does not grow
    with the step count; lockstep hands out every state.  "expm", the CLI's
    only method, applies exp(G dt) as the truncated Taylor series of
    _taylor_step on the sparse G, with no dense n x n matrix, no random
    numbers and no size limit.  "rk4" is classical Runge-Kutta, inexact at
    any dt; it stays for the benchmark's rk4 sweep and goes with ROADMAP
    direction 11.  kind takes only "symbol", the keyword the benchmark
    passes, until ROADMAP direction 1b.  A ctx or sigma of None, and a y0 not
    finite or not of length ctx.symbol_dim, are refused before the first step;
    a non-finite state aborts, naming its step.
    """
    if ctx is None or sigma is None:
        raise TypeError(f"integrate needs a ctx and a sigma, got ctx={ctx}, sigma={sigma}")
    if kind != "symbol":
        raise ValueError(f'unknown kind {kind!r}: integrate takes only "symbol"')
    if np.size(y0) != ctx.symbol_dim:
        raise ValueError(f"y0 has {np.size(y0)} coefficients, but ctx (2S = {ctx.twice_s}) "
                         f"has symbol_dim {ctx.symbol_dim}")
    times, states = lockstep(gen, y0, t_end, dt, method)
    observe, obs = _symbol_observables(ctx, sigma), np.empty((times.size, 6))
    for y, row in zip(states, obs):
        observe(y, row)
    return EvolutionResult(times, np.array([y0, y], dtype=complex), *obs.T)


def lockstep(gen, y0, t_end, dt, method="expm"):
    """(times, states): y0, refused unless finite, propagated under gen with
    method ("expm", the default, or "rk4") as in integrate on the grid of
    time_steps(t_end, dt), states yielding the state at times[k] at each step
    k = 0..n_steps and holding only the current one.  A gen not of shape
    (y0.size, y0.size) is refused.  Streams zipped together step in lockstep."""
    n_steps, dt_used = time_steps(t_end, dt)
    if method not in ("rk4", "expm"):
        raise ValueError(f"unknown method {method!r}")
    y = np.asarray(y0, dtype=complex)
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite initial state y0 at t = 0, before the first step")
    if np.shape(gen) != (y.size, y.size):
        raise ValueError(f"gen has shape {np.shape(gen)}, but y0 has {y.size} coefficients")
    step = (_rk4_step if method == "rk4" else _taylor_step)(gen, dt_used)

    def states(y):
        yield y
        for k in range(1, n_steps + 1):
            with np.errstate(over="ignore", invalid="ignore"):  # caught just below
                y = step(y)
            if not np.all(np.isfinite(y.view(float))):
                raise RuntimeError(f"non-finite state at t = {k * dt_used:.6g} "
                                   f"(step {k}/{n_steps}, dt = {dt_used:.6g})")
            yield y

    return dt_used * np.arange(n_steps + 1), states(y)


def _rk4_step(gen, dt_used):
    """y -> y after one classical Runge-Kutta step of dy/dt = G y."""

    def step(y):
        k1 = gen @ y
        k2 = gen @ (y + 0.5 * dt_used * k1)
        k3 = gen @ (y + 0.5 * dt_used * k2)
        k4 = gen @ (y + dt_used * k3)
        return y + (dt_used / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return step


def _taylor_parameters(norm):
    """(m, s) of least cost m*s over _THETA with s substeps of ||A||_1 / s <= theta_m."""
    return min(((m, max(1, math.ceil(norm / theta))) for m, theta in _THETA.items()),
               key=lambda ms: ms[0] * ms[1])


def _taylor_step(gen, dt_used):
    """y -> exp(G dt_used) y: s substeps of exp(mu dt/s) T_m(A/s), A = (G - mu I) dt,
    mu = trace(G)/n, each cut once its last two terms sum below tol max|partial sum|.
    An s above MAX_STEPS, or none at all for a non-finite ||A||_1, is refused."""
    gen = sp.csr_matrix(gen)
    n = gen.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        mu = gen.diagonal().sum() / n
        a = (gen - mu * sp.identity(n, format="csr")) * dt_used
        norm = float(abs(a).sum(axis=0).max())  # exact 1-norm: column sums
    m, s = (_taylor_parameters(norm) if math.isfinite(norm / min(_THETA.values()))
            else (0, math.inf))  # each s = ceil(||A||_1 / theta_m)
    if not s <= MAX_STEPS:
        raise RuntimeError(f"||A||_1 = {norm:.6g} of A = (G - mu I) dt at dt = {dt_used:.6g} "
                           f"needs s = {s:.6g} Taylor substeps, above MAX_STEPS = {MAX_STEPS}")
    a = a / s
    eta = np.exp(mu * dt_used / s)
    tol = 2.0 ** -53  # unit roundoff

    def step(y):
        for _ in range(s):
            f, term = y.copy(), y
            c1 = bound = np.max(np.abs(term))
            for j in range(1, m + 1):
                term = a @ term
                term /= j
                c2 = np.max(np.abs(term))
                f += term
                bound += c2  # >= max|f| to rounding: read max|f| only when it may stop
                if c1 + c2 <= tol * bound and c1 + c2 <= tol * np.max(np.abs(f)):
                    break
                c1 = c2
            y = eta * f
        return y

    return step


def _symbol_observables(ctx, sigma):
    """observe(c, row) fills row with S1, S2, S3, trace, purity Tr(rho^dag rho) =
    (2S+1)/(4pi) sum |c0_lm|^2 and the reality residual of the symbol state c, both
    read on its sigma = 0 coefficients c0, the operator in the orthonormal T_lm
    basis: at sigma > 0 the factors w_l^-sigma magnify rounding in the top shell
    by about 2^(2S sigma), which is no error of the operator."""
    sigma = sw_transform.validate_sigma(sigma)
    # S1, S2, S3 at -sigma as bopp.expression_symbol has them: B_k on sqrt(4pi) Y_00
    duals = [np.pad(math.sqrt(4.0 * math.pi) * b[:, [0]].toarray()[:, 0],
                    (0, ctx.symbol_dim - 4)) for b in bopp.bopp_matrices(ctx, -sigma, 1)]
    conj = sphere_ops.conjugation_matrix(ctx.band_limit)
    to_symmetric = sw_transform.switch_ordering(np.ones(ctx.symbol_dim), sigma, 0.0, ctx).real

    def observe(c, row):
        for k in range(3):
            row[k] = sw_transform.expectation(duals[k], c, ctx).real
        row[3] = sw_transform.symbol_trace(c, ctx).real
        c0 = to_symmetric * c
        row[4] = sw_transform.measure_constant(ctx) * np.vdot(c0, c0).real
        row[5] = np.max(np.abs(conj @ c0.conj() - c0))

    return observe


# --- classical-limit scans -------------------------------------------------

_ROUNDING = 1e-13  # a scan deviation at or below it is rounding: no slope is fitted


def _submatrix(gen, l_test):
    """The l <= l_test corner of a CSR generator, sliced before it is made dense."""
    n = (l_test + 1) ** 2
    return gen[:n, :n].toarray()


def _read_bilinear(h, bath):
    wrong = [name for name, v in (("h", h), ("bath", bath)) if v is None]
    if wrong:
        raise ValueError(f"bilinear mode needs {', '.join(wrong)}")
    h = bopp.validate_expression(h)
    if any(coeff.imag for coeff, _ in h):
        raise ValueError("the scan's h takes real coefficients only")
    xi = np.zeros(3)
    for coeff, word in bath.coupling:
        if len(word) != 1 or coeff.imag:
            raise ValueError(f"the scan's coupling must be xi.S with real xi, got the "
                             f"term {coeff:g} on the word {word}")
        xi[word[0] - 1] += coeff.real
    if not any(coeff and word for coeff, word in h) and not (bath.gamma and np.any(xi)):
        raise ValueError("a bilinear scan with a constant h and gamma xi = 0 compares "
                         "nothing: the classical generator is zero, so the deviation is 0/0")
    return h, bath, xi


def _bilinear_point(ctx, sigma, l_test, model):
    h, bath, xi = model
    band = _block_band(h, bath.coupling, l_test, ctx)  # scaling h keeps its degree
    # a bound on each term of c_sub, from |L_k| <= band, |m_a| <= 1 and the
    # |coefficients| of -grad h and Lam, as _refuse_non_hermitian bounds its terms
    grad = sum(abs(c) * len(w) for c, w in h)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a NaN point
        h_quantum = [(c * ctx.s ** (1 - len(w)), w) for c, w in h]
        h_classical = [(ctx.s * c, w) for c, w in h]  # at least as large as h_quantum
        lam = ctx.s * bath.gamma * np.outer(xi, xi)
        scale = band * (grad + bath.gamma * np.sum(np.abs(xi)) ** 2
                        * (2 * ctx.s * grad + bath.temperature * band))
        if not np.all(np.isfinite([scale, *lam.flat, *(c for c, _ in h_classical)])):
            return math.nan
        q_sub = _submatrix(qfp_generator(h_quantum, bath, sigma, ctx, band), l_test)
        c_sub = _submatrix(classical_generators(h_classical, lam, bath.temperature, band,
                                                ctx.s), l_test)
        diff = q_sub - c_sub  # not finite wherever c_sub is not
        if not np.all(np.isfinite(diff)):
            return math.nan  # before LAPACK is handed an inf
        if np.max(np.abs(c_sub)) <= 1e-12 * scale:
            raise ValueError(f"a bilinear scan compares nothing at 2S = {ctx.twice_s}: the "
                             f"classical l <= {l_test} block is zero to rounding (as for an h "
                             "constant on the sphere at gamma xi = 0), so the deviation is 0/0")
        return np.linalg.norm(diff, 2) / np.linalg.norm(c_sub, 2)


def _read_asymptotics(h, bath):
    wrong = [name for name, v in (("h", h), ("bath", bath)) if v is not None]
    if wrong:
        raise ValueError(f"asymptotics mode reads no {', '.join(wrong)}")


def _asymptotics_point(ctx, sigma, l_test, model):
    l = np.arange(l_test + 1)
    exact = np.stack(bopp.bopp_coefficients(ctx, sigma))[:, l]
    approx = np.stack(bopp.asymptotic_coefficients(ctx, sigma, l))
    return np.max(np.abs(exact - approx) / np.maximum(np.abs(exact), 1e-300))


# per scan mode: its reader (h, bath) -> model, its point (ctx, sigma, l_test,
# model) -> deviation, the top shells its block keeps clear of, its least l_test
_SCAN_MODES = {"bilinear": (_read_bilinear, _bilinear_point, 2, 1),
               "asymptotics": (_read_asymptotics, _asymptotics_point, 0, 0)}


def classical_limit_scan(mode, twice_s_values, sigma, l_test, h=None, bath=None):
    """Deviation-vs-S scan for the classical limit; returns dict with
    s_values, deviations and the fitted log-log slope, NaN once a deviation is
    at rounding level (_ROUNDING).  mode names a row of _SCAN_MODES; every row
    takes at least two distinct 2S and an integer l_test in its range, and a
    point that is not finite is refused as an overflow (RuntimeError).

      "bilinear" (l_test 1 to min(2S) - 2, clear of the truncated top shells):
        the relative operator-norm deviation, on the l <= l_test block at the
        band of _block_band, of qfp_generator for H = S h(S/S) and the bath's
        F = xi.S from classical_generators for S h(m) and Lam = S gamma xi xi^T.
        h(m) is a word expression with real coefficients, whose word w with
        coefficient c is c S^(1 - len w) S_w and S c m_w, and xi is real.  The
        deviation decays like 1/S, and is rounding for a linear h at gamma = 0.
        A scan whose classical block is zero compares nothing and is refused.
      "asymptotics" (l_test 0 to min(2S); reads no h or bath): the relative
        sup deviation of the large-S shell tables (f1, f2) from the exact ones
        over l <= l_test, which decays like 1/S^2 (f2 itself is O(1/S)).
    """
    if mode not in _SCAN_MODES:
        names = " or ".join(f'"{name}"' for name in _SCAN_MODES)
        raise ValueError(f"scan mode must be {names}, got {mode!r}")
    read, point, cut, least = _SCAN_MODES[mode]
    model = read(h, bath)
    sigma = sw_transform.validate_sigma(sigma)
    contexts = [SpinContext(t) for t in twice_s_values]
    if len({ctx.twice_s for ctx in contexts}) < 2:  # one S fits no slope
        raise ValueError(f"twice_s_values needs at least two distinct values, "
                         f"got {list(twice_s_values)}")
    if not is_integer(l_test):
        raise ValueError(f"l_test must be an integer, got {l_test!r}")
    l_test = int(l_test)  # numpy indexes with 3, not with 3.0
    if l_test < 0:
        raise ValueError(f"l_test must be >= 0, got {l_test}")
    if l_test < least:
        raise ValueError(f"scan l_test = {l_test} compares nothing in {mode} mode: every "
                         "generator annihilates shell 0, so the deviation is 0/0; "
                         f"use l_test >= {least}")
    top = min(ctx.band_limit for ctx in contexts) - cut
    if l_test > top:
        raise ValueError(f"l_test = {l_test} exceeds min(2S)" + (
            f" - {cut} = {top}; the truncated top shells would contaminate the compared block"
            if cut else f" = {top}, the last shell of the tables"))
    deviations = np.empty(len(contexts))
    for k, ctx in enumerate(contexts):
        deviations[k] = point(ctx, sigma, l_test, model)
        if not math.isfinite(deviations[k]):
            raise RuntimeError(f"the {mode} scan deviation at 2S = {ctx.twice_s} is "
                               f"{deviations[k]}, not finite: its arithmetic overflows")
    s_values = np.array([ctx.s for ctx in contexts])
    if np.all(deviations > _ROUNDING):
        slope = float(np.polyfit(np.log(s_values), np.log(deviations), 1)[0])
    else:
        slope = float("nan")  # deviations at rounding level: no scaling law
    return {"s_values": s_values, "deviations": deviations, "slope": slope}
