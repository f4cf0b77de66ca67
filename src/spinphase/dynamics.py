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
from .su2_algebra import rotation_z, spin_matrices

_EPS = [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
        (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0)]


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H = -sum_jk d_jk S_j S_k - sum_j b_j S_j with real symmetric d."""

    d: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if d.shape != (3, 3) or b.shape != (3,):
            raise ValueError("d must be 3x3 and b length 3")
        if np.max(np.abs(d - d.T)) > 1e-14:
            raise ValueError("d must be symmetric to 1e-14")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "b", b)

    def to_expression(self):
        expr = [(-self.d[j, k], (j + 1, k + 1))
                for j in range(3) for k in range(3) if self.d[j, k] != 0]
        expr += [(-self.b[j], (j + 1,)) for j in range(3) if self.b[j] != 0]
        return expr


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


def _require_hermitian_expression(expr, ctx, what):
    a = bopp.expression_to_matrix(expr, ctx)
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.conj().T)) > 1e-12 * scale:
        raise ValueError(f"{what} must be Hermitian")
    return a


def unitary_generator(h_expr, sigma, ctx):
    """Generator 2 Im(H_hat) of d(rho)/dt = -i[H, rho] on symbol coefficients."""
    _require_hermitian_expression(h_expr, ctx, "Hamiltonian")
    h_hat = bopp.evaluate_expression(h_expr, sigma, ctx)
    return (2.0 * sphere_ops.operator_imag(h_hat, ctx.band_limit)).tocsr()


def quadratic_generator(qh, sigma, ctx):
    """Generator for H = -d_jk S_j S_k - b_j S_j assembled termwise.

    i sum_j b_j L_j + 2i sum_jk d_jk L_j (M_k F1 + K_k F2); agrees with the
    unitary_generator route to rounding because shell truncation commutes
    with every L_j commutator.
    """
    if not isinstance(qh, QuadraticHamiltonian):
        qh = QuadraticHamiltonian(*qh)
    l_ops, m_ops, k_ops, f1d, f2d, _ = bopp.bopp_operators(ctx, sigma)
    r_ops = [m_ops[k] @ f1d + k_ops[k] @ f2d for k in range(3)]
    n = ctx.symbol_dim
    gen = sp.csr_matrix((n, n), dtype=complex)
    for j in range(3):
        if qh.b[j] != 0:
            gen = gen + 1j * qh.b[j] * l_ops[j]
        for k in range(3):
            if qh.d[j, k] != 0:
                gen = gen + 2j * qh.d[j, k] * (l_ops[j] @ r_ops[k])
    return gen.tocsr()


def qfp_generator(h_expr, bath, sigma, ctx):
    """Dissipative generator: 2 Im(H) + 4 gamma T Im(F)^2 - 2 gamma Im(F) Im([H,F])."""
    _require_hermitian_expression(h_expr, ctx, "Hamiltonian")
    _require_hermitian_expression(bath.coupling, ctx, "coupling operator")
    L = ctx.band_limit
    h_hat = bopp.evaluate_expression(h_expr, sigma, ctx)
    f_hat = bopp.evaluate_expression(bath.coupling, sigma, ctx)
    im_h = sphere_ops.operator_imag(h_hat, L)
    im_f = sphere_ops.operator_imag(f_hat, L)
    im_g = sphere_ops.operator_imag(h_hat @ f_hat - f_hat @ h_hat, L)
    gen = 2.0 * im_h
    gen = gen + 4.0 * bath.gamma * bath.temperature * (im_f @ im_f)
    gen = gen - 2.0 * bath.gamma * (im_f @ im_g)
    return gen.tocsr()


def bilinear_lambda(ctx, gamma, xi):
    """Diffusion matrix S gamma xi_j xi_k of the isotropic bilinear coupling."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (3,):
        raise ValueError("xi must be a real 3-vector")
    return ctx.s * gamma * np.outer(xi, xi)


def _cross_multiplication(vec_ops, const):
    """Operators for the components of (v x const), v given componentwise."""
    n = vec_ops[0].shape[0]
    out = [sp.csr_matrix((n, n), dtype=complex) for _ in range(3)]
    for a, b, c, sign in _EPS:
        if const[c] != 0:
            out[a] = out[a] + sign * const[c] * vec_ops[b]
    return out


def isotropic_bilinear_generator(b, xi, gamma, temperature, sigma, ctx):
    """Bilinear-coupling generator written in effective-field form.

    (i/S) sum_k L_k B_eff,k
    - (i/S) sum_kj L_k Lam_kj [ (m x B_eff)_j + (M x B_eff)_j - i T L_j ]
    with B_eff = S b, Lam = S gamma xi xi^T and the vector operator
    M_a = (1/S)(M_a (F1 - S) + K_a F2), which is O(1/S).  Equals
    qfp_generator for H = -b.S, F = xi.S up to rounding.
    """
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError("gamma must be finite and >= 0")
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError("temperature must be finite and > 0")
    b = np.asarray(b, dtype=float)
    s = ctx.s
    n = ctx.symbol_dim
    l_ops, m_mult, k_mult, f1d, f2d, _ = bopp.bopp_operators(ctx, sigma)
    eye = sp.identity(n, dtype=complex, format="csr")
    m_vec = [(m_mult[a] @ (f1d - s * eye) + k_mult[a] @ f2d) / s for a in range(3)]
    b_eff = s * b
    lam = bilinear_lambda(ctx, gamma, xi)
    cross_m = _cross_multiplication(m_mult, b_eff)
    cross_v = _cross_multiplication(m_vec, b_eff)
    gen = sp.csr_matrix((n, n), dtype=complex)
    for k in range(3):
        if b_eff[k] != 0:
            gen = gen + (1j / s) * b_eff[k] * l_ops[k]
        for j in range(3):
            if lam[k, j] == 0:
                continue
            inner = cross_m[j] + cross_v[j] - 1j * temperature * l_ops[j]
            gen = gen - (1j / s) * lam[k, j] * (l_ops[k] @ inner)
    return gen.tocsr()


# --- Hilbert-space oracle -------------------------------------------------

def master_rhs(rho, h, f, gamma, temperature):
    """d(rho)/dt of the weak-coupling master equation (matrix in, matrix out).

    -i[H,rho] - gamma T ([F, F rho] + h.c.) + (gamma/2)([F, [H,F] rho] + h.c.)
    written out term by term; the trace of the result vanishes identically
    and Hermiticity of rho is preserved.
    """
    comm = h @ rho - rho @ h
    anti = f @ f @ rho + rho @ f @ f - 2.0 * (f @ rho @ f)
    g = h @ f - f @ h
    drift = f @ g @ rho - g @ rho @ f - rho @ g @ f + f @ rho @ g
    return -1j * comm - gamma * temperature * anti + 0.5 * gamma * drift


def vec_density(rho):
    """Column-stacked vectorization."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec_density(v):
    n = math.isqrt(v.size)
    if n * n != v.size:
        raise ValueError("vector length is not a perfect square")
    return np.asarray(v, dtype=complex).reshape((n, n), order="F")


def master_liouvillian(h, f, gamma, temperature):
    """Matrix of master_rhs on column-stacked rho: vec(A X B) = (B^T k A) vec(X)."""
    h = np.asarray(h, dtype=complex)
    f = np.asarray(f, dtype=complex)
    n = h.shape[0]
    eye = np.eye(n)
    g = h @ f - f @ h
    ff = f @ f
    out = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    out -= gamma * temperature * (
        np.kron(eye, ff) + np.kron(ff.T, eye) - 2.0 * np.kron(f.T, f)
    )
    out += 0.5 * gamma * (
        np.kron(eye, f @ g) - np.kron(f.T, g)
        - np.kron((g @ f).T, eye) + np.kron(g.T, f)
    )
    return out


def master_stationary_state(h, f, gamma, temperature):
    """Null vector of the master generator as a unit-trace Hermitian matrix."""
    liou = master_liouvillian(h, f, gamma, temperature)
    w, v = np.linalg.eig(liou)
    rho = unvec_density(v[:, np.argmin(np.abs(w))])
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


# --- classical generators -------------------------------------------------

def _validate_poly(poly):
    out = []
    for item in poly:
        coeff, expo = item
        expo = tuple(int(e) for e in expo)
        if len(expo) != 3 or any(e < 0 for e in expo):
            raise ValueError(f"monomial exponents {expo!r} invalid")
        out.append((float(coeff), expo))
    return out


def poly_gradient(poly):
    """Componentwise gradient of a polynomial in (m1, m2, m3)."""
    poly = _validate_poly(poly)
    grads = ([], [], [])
    for coeff, expo in poly:
        for a in range(3):
            if expo[a] > 0:
                lowered = tuple(e - (1 if i == a else 0) for i, e in enumerate(expo))
                grads[a].append((coeff * expo[a], lowered))
    return grads


def poly_multiplication_operator(poly, band_limit):
    """Band-limited multiplication operator for a polynomial in m (lossy top shells)."""
    poly = _validate_poly(poly)
    n = sphere_ops.num_coefficients(band_limit)
    m1, m2, m3, _, _, _ = sphere_ops.position_operators(band_limit)
    out = sp.csr_matrix((n, n), dtype=complex)
    eye = sp.identity(n, dtype=complex, format="csr")
    for coeff, expo in poly:
        term = eye
        for op, e in zip((m1, m2, m3), expo):
            for _ in range(e):
                term = term @ op
        out = out + coeff * term
    return out


def classical_generators(h_poly, lam, temperature, band_limit, s):
    """(liouville, fokker_planck) for classical spin dynamics at band limit L.

    The classical Hamiltonian is a polynomial in m; B_eff = -grad H.
    liouville = (i/S) sum_k L_k B_eff,k
    fokker_planck adds -(i/S) sum_kj L_k Lam_kj [(m x B_eff)_j - i T L_j].
    exp(-H/T) is stationary under fokker_planck for linear H.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (3, 3):
        raise ValueError("lam must be 3x3")
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError("temperature must be finite and > 0")
    if not (math.isfinite(s) and s > 0):
        raise ValueError("s must be finite and > 0")
    grads = poly_gradient(h_poly)
    b_ops = [poly_multiplication_operator([(-c, e) for c, e in g], band_limit)
             for g in grads]
    l_ops = sphere_ops.angular_operators(band_limit)[:3]
    m_ops = sphere_ops.position_operators(band_limit)[:3]
    n = sphere_ops.num_coefficients(band_limit)
    liou = sp.csr_matrix((n, n), dtype=complex)
    for k in range(3):
        liou = liou + (1j / s) * (l_ops[k] @ b_ops[k])
    cross = [sp.csr_matrix((n, n), dtype=complex) for _ in range(3)]
    for a, b, c, sign in _EPS:
        cross[a] = cross[a] + sign * (m_ops[b] @ b_ops[c])
    fp = liou
    for k in range(3):
        for j in range(3):
            if lam[k, j] == 0:
                continue
            inner = cross[j] - 1j * temperature * l_ops[j]
            fp = fp - (1j / s) * lam[k, j] * (l_ops[k] @ inner)
    return liou.tocsr(), fp.tocsr()


# --- states, integration, observables -------------------------------------

def coherent_state(ctx, theta0, phi0):
    """Density matrix of the spin coherent state at (theta0, phi0)."""
    _, s2, _ = spin_matrices(ctx)
    w, v = np.linalg.eigh(s2)
    # rotated highest-weight state: column 0 of Rz(phi0) exp(-i theta0 S2)
    ket = rotation_z(ctx, phi0) @ (v @ (np.exp(-1j * theta0 * w) * v[0].conj()))
    return np.outer(ket, ket.conj())


@dataclass
class EvolutionResult:
    times: np.ndarray
    states: np.ndarray
    s1: np.ndarray = None
    s2: np.ndarray = None
    s3: np.ndarray = None
    trace: np.ndarray = None
    purity: np.ndarray = None
    reality: np.ndarray = None


# bytes of the state buffer that integrate reuses when it keeps no states: 77
# rows at 2S=40, and the 201 rows of a 200-step run at 2S=20 still fit in one
_BLOCK_BYTES = 2 << 20
# the most steps one time grid may have: a larger count is a typo, not a run
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


def integrate(gen, y0, t_end, dt, method="rk4", ctx=None, sigma=None, kind=None,
              keep_states=True):
    """Propagate dy/dt = G y on the uniform grid of time_steps(t_end, dt).

    dt is adjusted to divide t_end evenly.  The states go into one buffer:
    every state with keep_states=True; otherwise at most _BLOCK_BYTES of rows
    that each block reuses, so `states` holds only the initial and final
    states and memory does not grow with the step count.  "rk4" is classical
    Runge-Kutta; "expm" applies exp(G dt) as the truncated Taylor series of
    _taylor_step on the sparse G, with no dense n x n matrix, no random
    numbers and no size limit.  kind "symbol" or "density" attaches spin
    observables, trace and purity at every step (needs ctx, and sigma for
    symbols); "symbol" also attaches the reality residual max|P conj(c) - c|.
    A non-finite state aborts, naming its step.
    """
    n_steps, dt_used = time_steps(t_end, dt)
    y0 = np.asarray(y0, dtype=complex)
    if method not in ("rk4", "expm"):
        raise ValueError(f"unknown method {method!r}")
    step = (_rk4_step if method == "rk4" else _taylor_step)(gen, dt_used)
    if kind not in (None, "symbol", "density"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind and (ctx is None or kind == "symbol" and sigma is None):
        raise ValueError(f"{kind} observables need ctx" + " and sigma" * (kind == "symbol"))
    observe = kind and (_symbol_observables(ctx, sigma) if kind == "symbol"
                        else _density_observables(ctx))

    rows = n_steps + 1
    if not keep_states:
        rows = min(rows, max(1, _BLOCK_BYTES // max(1, y0.nbytes)))
    buf = np.empty((rows,) + y0.shape, dtype=complex)
    obs = np.empty((n_steps + 1, 6 if kind == "symbol" else 5)) if observe else None
    for first, block in _blocks(step, y0, n_steps, dt_used, buf):
        if observe:
            observe(block, obs[first:first + len(block)])
    states = buf if keep_states else np.stack((y0, block[-1]))

    result = EvolutionResult(times=dt_used * np.arange(n_steps + 1), states=states)
    if observe:
        result.s1, result.s2, result.s3, result.trace, result.purity = obs.T[:5]
        if kind == "symbol":
            result.reality = obs[:, 5]
    return result


def _blocks(step, y, n_steps, dt_used, buf):
    """Fill buf with the states of the grid from y on, yielding (k, rows of buf)
    for each filled stretch starting at step k; a full buf is reused from row 0."""
    rows = len(buf)
    buf[0] = y
    for k in range(1, n_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # caught just below
            y = step(y)
        if not np.all(np.isfinite(y.view(float))):
            raise RuntimeError(f"non-finite state at t = {k * dt_used:.6g} "
                               f"(step {k}/{n_steps}, dt = {dt_used:.6g})")
        if k % rows == 0:
            yield k - rows, buf
        buf[k % rows] = y
    yield n_steps - n_steps % rows, buf[:n_steps % rows + 1]


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
    mu = trace(G)/n, each cut once its last two terms sum below tol max|partial sum|."""
    gen = sp.csr_matrix(gen)
    n = gen.shape[0]
    mu = gen.diagonal().sum() / n
    a = (gen - mu * sp.identity(n, format="csr")) * dt_used
    m, s = _taylor_parameters(abs(a).sum(axis=0).max())  # exact 1-norm: column sums
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
    """Fills obs from a block of symbol states: S1, S2, S3, trace, purity and
    the reality residual, one row per state."""
    sigma = sw_transform.validate_sigma(sigma)
    duals = [sw_transform.operator_to_symbol(sm, -sigma, ctx) for sm in spin_matrices(ctx)]
    conj = sphere_ops.conjugation_matrix(ctx.band_limit)

    def observe(block, obs):
        for i, c in enumerate(block):
            for k in range(3):
                obs[i, k] = sw_transform.expectation(duals[k], c, ctx).real
            obs[i, 3] = sw_transform.symbol_trace(c, ctx).real
            dual_c = sw_transform.switch_ordering(c, sigma, -sigma, ctx)
            obs[i, 4] = sw_transform.expectation(c, dual_c, ctx).real
            obs[i, 5] = np.max(np.abs(conj @ c.conj() - c))

    return observe


def _density_observables(ctx):
    """Fills obs from a block of density states: S1, S2, S3, trace and purity."""
    smats = spin_matrices(ctx)

    def observe(block, obs):
        for i, state in enumerate(block):
            rho = unvec_density(state)
            for k in range(3):
                obs[i, k] = np.trace(smats[k] @ rho).real
            obs[i, 3] = np.trace(rho).real
            obs[i, 4] = np.trace(rho @ rho).real

    return observe


# --- classical-limit scans -------------------------------------------------

def _submatrix(gen, l_test):
    n = sphere_ops.num_coefficients(l_test)
    sub = gen[:n, :n]  # sliced first: a dense generator has (2S+1)^4 entries
    return sub.toarray() if sp.issparse(sub) else np.asarray(sub)


def classical_limit_scan(mode, twice_s_values, sigma, l_test,
                         b=None, xi=None, gamma=None, temperature=None):
    """Deviation-vs-S scan for the classical limit; returns dict with
    s_values, deviations and the fitted log-log slope.

    Modes:
      "unitary": quadratic generator (d = 0) against the classical
        Liouville generator for B_eff = S b; deviation vanishes identically.
      "bilinear": bilinear-coupling generator against the classical
        Fokker-Planck generator, relative operator-norm deviation on the
        l <= l_test block; decays like 1/S.
      "asymptotics": relative sup deviation between the exact shell tables
        (f1, f2) and their large-S approximations over l <= l_test.  The
        deviation is measured relative to the exact values (f2 itself is
        O(1/S), so its relative error is the O(1/S^2) quantity of interest).
    """
    from .su2_algebra import SpinContext

    sigma = sw_transform.validate_sigma(sigma)
    if not twice_s_values:
        raise ValueError("twice_s_values must be non-empty")
    if l_test > min(int(t) for t in twice_s_values) - 2:
        raise ValueError(
            f"l_test = {l_test} exceeds min(2S) - 2 = "
            f"{min(int(t) for t in twice_s_values) - 2}; the truncated top "
            "shells would contaminate the compared block")
    s_values = []
    deviations = []
    for twice_s in twice_s_values:
        ctx = SpinContext(twice_s)
        s_values.append(ctx.s)
        if mode == "asymptotics":
            coeffs = bopp.bopp_coefficients(ctx, sigma)
            worst = 0.0
            for l in range(min(l_test, ctx.band_limit) + 1):
                a1, a2 = bopp.asymptotic_coefficients(ctx, sigma, l)
                for exact, approx in ((coeffs.f1[l], a1), (coeffs.f2[l], a2)):
                    denom = max(abs(exact), 1e-300)
                    worst = max(worst, abs(exact - approx) / denom)
            deviations.append(worst)
            continue
        if b is None:
            raise ValueError(f"mode {mode!r} needs a field vector b")
        h_poly = [(-ctx.s * float(b[k]), tuple(1 if i == k else 0 for i in range(3)))
                  for k in range(3) if b[k] != 0]
        if mode == "unitary":
            quantum = quadratic_generator(
                QuadraticHamiltonian(np.zeros((3, 3)), np.asarray(b, float)), sigma, ctx)
            classical = classical_generators(
                h_poly, np.zeros((3, 3)), 1.0, ctx.band_limit, ctx.s)[0]
        elif mode == "bilinear":
            if xi is None or gamma is None or temperature is None:
                raise ValueError("bilinear mode needs xi, gamma, temperature")
            quantum = isotropic_bilinear_generator(b, xi, gamma, temperature, sigma, ctx)
            lam = bilinear_lambda(ctx, gamma, xi)
            classical = classical_generators(
                h_poly, lam, temperature, ctx.band_limit, ctx.s)[1]
        else:
            raise ValueError(f"unknown scan mode {mode!r}")
        q_sub = _submatrix(quantum, l_test)
        c_sub = _submatrix(classical, l_test)
        deviations.append(
            np.linalg.norm(q_sub - c_sub, 2) / np.linalg.norm(c_sub, 2))
    s_values = np.asarray(s_values, dtype=float)
    deviations = np.asarray(deviations, dtype=float)
    if np.all(deviations > 1e-13):
        slope = float(np.polyfit(np.log(s_values), np.log(deviations), 1)[0])
    else:
        slope = float("nan")  # deviations at rounding level: no scaling law
    return {"s_values": s_values, "deviations": deviations, "slope": slope}
