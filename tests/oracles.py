"""Reference helpers of the tests: oracles, predicates and small builders that
no library path calls.

They live here so the library cannot reuse the code that checks it.  Each
one either computes a quantity by a route independent of the library's own
(the Clebsch-Gordan coefficients from the Racah sum, the harmonics from
scipy and the sphere's synthesis and quadrature on them, the Bopp matrices
and the star product from the transform pair, S3 star Y_lm from the
kernel-product expansion, the master equation term by term, the K
operators i(m x L)_i from their sin(theta) d/dtheta couplings, the Bopp
position operators M F1 + K F2 and the termwise generators built on them
from the sphere operators and shell tables, the symmetric tables
from their closed form, the stationary state from a dense eigen-solve) or
exposes a library quantity for a test to read.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.special import sph_harm_y

from spinphase import bopp, dynamics, sphere_ops, su2_algebra, sw_transform

# ln(n!) table, grown on demand; entries are exact sums of math.log terms
# and stay well above 14 significant digits for any n reachable here.
_LOG_FACT = [0.0, 0.0]


def log_factorial(n):
    """ln(n!) for integer n >= 0."""
    if n != int(n) or n < 0:
        raise ValueError(f"log_factorial needs a non-negative integer, got {n!r}")
    n = int(n)
    while len(_LOG_FACT) <= n:
        _LOG_FACT.append(_LOG_FACT[-1] + math.log(len(_LOG_FACT)))
    return _LOG_FACT[n]


def _check_jm(two_j, two_m, label):
    if two_j != int(two_j) or two_m != int(two_m):
        raise ValueError(f"{label}: doubled quantum numbers must be integers")
    two_j, two_m = int(two_j), int(two_m)
    if two_j < 0:
        raise ValueError(f"{label}: negative j")
    if (two_j + two_m) % 2:
        raise ValueError(f"{label}: j and m differ by a non-integer")
    if abs(two_m) > two_j:
        raise ValueError(f"{label}: |m| exceeds j")
    return two_j, two_m


def clebsch_gordan(two_j1, two_m1, two_j2, two_m2, two_j, two_m):
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>, Condon-Shortley phase.

    Arguments are doubled (two_j1 = 2*j1, ...).  Returns 0.0 when M != m1+m2
    or the triangle condition fails; raises ValueError for invalid (j, m)
    pairs.  Evaluated by the Racah sum with log-domain factorials, the
    reference for the library's Jacobi-eigenvector tables.
    """
    two_j1, two_m1 = _check_jm(two_j1, two_m1, "j1")
    two_j2, two_m2 = _check_jm(two_j2, two_m2, "j2")
    two_j, two_m = _check_jm(two_j, two_m, "J")

    if two_m != two_m1 + two_m2:
        return 0.0
    if not (abs(two_j1 - two_j2) <= two_j <= two_j1 + two_j2):
        return 0.0
    if (two_j1 + two_j2 + two_j) % 2:
        return 0.0

    def hf(x):  # halve a doubled value that is known to be even
        return x // 2

    # all factorial arguments below are integers once the parity checks pass
    jjj = hf(two_j1 + two_j2 - two_j)
    j1mj2 = hf(two_j1 - two_j2 + two_j)
    j2mj1 = hf(-two_j1 + two_j2 + two_j)
    jsum = hf(two_j1 + two_j2 + two_j)

    log_pref = 0.5 * (
        math.log(two_j + 1)
        + log_factorial(jjj) + log_factorial(j1mj2) + log_factorial(j2mj1)
        - log_factorial(jsum + 1)
        + log_factorial(hf(two_j1 + two_m1)) + log_factorial(hf(two_j1 - two_m1))
        + log_factorial(hf(two_j2 + two_m2)) + log_factorial(hf(two_j2 - two_m2))
        + log_factorial(hf(two_j + two_m)) + log_factorial(hf(two_j - two_m))
    )

    k_min = max(0, hf(two_j2 - two_j - two_m1), hf(two_j1 + two_m2 - two_j))
    k_max = min(jjj, hf(two_j1 - two_m1), hf(two_j2 + two_m2))
    terms = []
    for k in range(k_min, k_max + 1):
        log_t = -(
            log_factorial(k)
            + log_factorial(jjj - k)
            + log_factorial(hf(two_j1 - two_m1) - k)
            + log_factorial(hf(two_j2 + two_m2) - k)
            + log_factorial(hf(two_j - two_j2 + two_m1) + k)
            + log_factorial(hf(two_j - two_j1 - two_m2) + k)
        )
        terms.append((-1.0) ** k * math.exp(log_pref + log_t))
    return math.fsum(terms)


def tensor_operator(ctx, l, m):
    """Orthonormal irreducible tensor operator T_lm, Tr(T_l'm'^dag T_lm) = delta delta.

    T_lm = sqrt((2l+1)/(2S+1)) sum_m' <S,m'; l,m | S,m'+m> |S,m'+m><S,m'|.
    Nonzero entries sit on the single diagonal row = col - m; they are read
    from su2_algebra.tensor_blocks, so the tests can check those tables as
    matrices.
    """
    if l != int(l) or not 0 <= l <= ctx.twice_s:
        raise ValueError(f"l must be an integer in [0, 2S], got {l!r}")
    if m != int(m) or abs(m) > l:
        raise ValueError(f"m must be an integer with |m| <= l, got {m!r}")
    l, m = int(l), int(m)
    block = su2_algebra.tensor_blocks(ctx.twice_s)[ctx.twice_s + m]
    return np.diag(block[l - abs(m)], m).astype(complex)


def ylm_eval(l, m, theta, phi):
    """Y_lm(theta, phi), orthonormal with Condon-Shortley phase, from scipy.

    Broadcasts over array-valued theta/phi; the library's own harmonics come
    from its Legendre recurrence, which this does not share.
    """
    return sph_harm_y(l, m, theta, phi)


def quadrature(band_limit):
    """(thetas, phis, weights) of the product rule that integrates over the
    solid angle exactly up to spherical-harmonic degree 2L: L+1 ascending
    thetas at the Gauss-Legendre nodes in cos(theta), 2L+2 uniform phis from
    0, and weights[i], the weight of each point of theta row i."""
    x, w = np.polynomial.legendre.leggauss(band_limit + 1)
    n_phi = 2 * band_limit + 2
    return (np.arccos(x[::-1]), 2.0 * math.pi * np.arange(n_phi) / n_phi,
            w[::-1] * (2.0 * math.pi / n_phi))


def _harmonic_rows(band_limit, thetas):
    """(Y_lm(theta, 0) with rows over the flat index l*l + l + m, the m of each row)."""
    l = np.repeat(np.arange(band_limit + 1), 2 * np.arange(band_limit + 1) + 1)
    m = np.arange(l.size) - l * (l + 1)
    return ylm_eval(l[:, None], m[:, None], thetas[None, :], 0.0), m


def synthesize(band_limit, c):
    """Values of coefficients c (of band up to band_limit) at the points of
    quadrature(band_limit), theta-major: sum_lm c_lm Y_lm(theta, 0) e^{i m phi}."""
    thetas, phis, _ = quadrature(band_limit)
    c = np.asarray(c, dtype=complex)
    rows, m = _harmonic_rows(math.isqrt(c.size) - 1, thetas)
    return (c[:, None] * rows).T @ np.exp(1j * np.outer(m, phis))


def analyze(band_limit, values):
    """Coefficients, over the flat index, of values at the points of
    quadrature(band_limit): the integral of conj(Y_lm) values, exact when
    values has band <= band_limit."""
    thetas, phis, weights = quadrature(band_limit)
    rows, m = _harmonic_rows(band_limit, thetas)
    by_m = np.asarray(values) @ np.exp(-1j * np.outer(m, phis)).T  # the phi sums
    return np.einsum("kt,t,tk->k", rows.conj(), weights, by_m)


def sphere_integral(band_limit, values):
    """Integral over the solid angle of values at the points of quadrature(band_limit)."""
    return quadrature(band_limit)[2] @ np.asarray(values).sum(axis=1)


def conjugated_operator(op, band_limit):
    """The conjugated operator C O C (linear part: P conj(O) P), as op: CSR or array."""
    p = sphere_ops.conjugation_matrix(band_limit)
    return p @ op.conj() @ p


def operator_real(op, band_limit):
    """Re(O) = (O + C O C)/2."""
    return (op + conjugated_operator(op, band_limit)) / 2.0


def operator_imag(op, band_limit):
    """Im(O) = (O - C O C)/(2i)."""
    return (op - conjugated_operator(op, band_limit)) / 2j


def is_real_symbol(c, tol=1e-12):
    c = np.asarray(c, dtype=complex)
    return bool(np.max(np.abs(sphere_ops.apply_conjugation(c) - c)) <= tol)


def is_hermitian(a, tol=1e-12):
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def is_hermitian_expression(expr, ctx, tol=1e-12):
    return is_hermitian(bopp.expression_to_matrix(expr, ctx), tol)


def expression_adjoint(expr):
    """Adjoint: conjugate coefficients, reverse each word."""
    return [(np.conj(coeff), word[::-1]) for coeff, word in bopp.validate_expression(expr)]


def linear_expression(vec):
    """Expression for vec . S, skipping zero components."""
    return [(complex(v), (k + 1,)) for k, v in enumerate(vec) if v != 0]


def symmetric_coefficients_closed_form(ctx, l):
    """(f1, f2) at sigma = 0 in closed form, for cross-checking the tables.

    With n = 2S+1: f1 = [(l+1) sqrt(n^2-(l+1)^2) + l sqrt(n^2-l^2)] / (2(2l+1)),
    f2 = [sqrt(n^2-(l+1)^2) - sqrt(n^2-l^2)] / (2(2l+1)) = -1 / (2(up + down)),
    with up, down the two roots: up^2 - down^2 = -(2l+1), so no difference is formed.
    """
    if l != int(l) or not 0 <= l <= ctx.twice_s:
        raise ValueError(f"l must be an integer in [0, 2S], got {l!r}")
    n = ctx.twice_s + 1
    up = math.sqrt(max(n * n - (l + 1) ** 2, 0))
    down = math.sqrt(n * n - l * l)
    f1 = ((l + 1) * up + l * down) / (2.0 * (2 * l + 1))
    f2 = -1.0 / (2.0 * (up + down))
    return f1, f2


def left_mult_superoperator(a, sigma, ctx):
    """Matrix of c -> symbol(a @ operator(c)), built column by column.

    Independent of the Bopp construction; serves as its oracle.
    """
    sigma = sw_transform.validate_sigma(sigma)
    n = ctx.symbol_dim
    out = np.empty((n, n), dtype=complex)
    basis = np.zeros(n, dtype=complex)
    for idx in range(n):
        basis[idx] = 1.0
        op = sw_transform.symbol_to_operator(basis, sigma, ctx)
        out[:, idx] = sw_transform.operator_to_symbol(a @ op, sigma, ctx)
        basis[idx] = 0.0
    return out


def cg_weight(ctx, l):
    """Stretched coefficient <S,S; l,0 | S,S> as the transform uses it.

    Closed form (2S)! sqrt(2S+1) / F(l) with F(l) = sqrt((2S+l+1)!(2S-l)!),
    read from the transform's log-domain table; strictly positive for l <= 2S.
    """
    if l != int(l) or not 0 <= l <= ctx.twice_s:
        raise ValueError(f"l must be an integer in [0, 2S], got {l!r}")
    w = math.exp(sw_transform._log_weights(ctx.twice_s)[int(l)])
    if w <= 0.0:
        raise RuntimeError(f"stretched CG weight not positive at l={l}: {w}")
    return w


def master_stationary_state(h, f, gamma, temperature):
    """Null vector of the master generator as a unit-trace Hermitian matrix."""
    liou = dynamics.master_liouvillian(h, f, gamma, temperature)
    w, v = np.linalg.eig(liou.toarray())
    rho = dynamics.unvec_density(v[:, np.argmin(np.abs(w))])
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def k_operators(band):
    """(K1, K2, K3), multiplication by i(m x L)_i, band-limited, with the
    couplings written out here.  K3 = sin(theta) d/dtheta takes Y_lm to
    l alpha1 Y_{l+1,m} - (l+1) alpha2 Y_{l-1,m}, where alpha1, alpha2 are the
    cos(theta) couplings; K1 = i[K3, L2] and K2 = -i[K3, L1].  Transitions to
    shell band + 1 are dropped, as for M."""
    n = (band + 1) ** 2
    rows, cols, vals = [], [], []
    for l in range(band + 1):
        for m in range(-l, l + 1):
            if l < band:
                alpha1 = math.sqrt((l - m + 1) * (l + m + 1) / ((2 * l + 1) * (2 * l + 3)))
                rows.append((l + 1) ** 2 + l + 1 + m)
                cols.append(l * l + l + m)
                vals.append(l * alpha1)
            if abs(m) < l:
                alpha2 = math.sqrt((l - m) * (l + m) / ((2 * l - 1) * (2 * l + 1)))
                rows.append((l - 1) ** 2 + l - 1 + m)
                cols.append(l * l + l + m)
                vals.append(-(l + 1) * alpha2)
    k3 = sp.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=complex)
    l1, l2, _ = sphere_ops.angular_operators(band)
    return ((1j * (k3 @ l2 - l2 @ k3)).tocsr(), (-1j * (k3 @ l1 - l1 @ k3)).tocsr(), k3)


def _angular_and_bopp_positions(ctx, sigma):
    """(L_k, M_k F1 + K_k F2) at band 2S, the paper's termwise form: F1 and F2
    scale the column of shell l by the tables' f1(l) and f2(l), and K_k comes
    from k_operators, apart from the shell-step weights of bopp_matrices."""
    band = ctx.band_limit
    l_of, _ = sphere_ops.lm_arrays(band)
    f1d, f2d = (sp.diags(f[l_of]) for f in bopp.bopp_coefficients(ctx, sigma))
    m_ops, k_ops = sphere_ops.position_operators(band), k_operators(band)
    return (sphere_ops.angular_operators(band),
            [m_ops[k] @ f1d + k_ops[k] @ f2d for k in range(3)])


def quadratic_generator(d, b, sigma, ctx):
    """The generator of H = -d_jk S_j S_k - b_j S_j in the paper's termwise
    form i sum_j b_j L_j + 2i sum_jk d_jk L_j (M_k F1 + K_k F2), apart from
    qfp_generator's imaginary part of H_hat."""
    l_ops, r_ops = _angular_and_bopp_positions(ctx, sigma)
    gen = sum(1j * b[j] * l_ops[j] for j in range(3))
    for j in range(3):
        for k in range(3):
            gen = gen + 2j * d[j, k] * (l_ops[j] @ r_ops[k])
    return gen.tocsr()


def bilinear_effective_field_generator(b, xi, gamma, temperature, sigma, ctx):
    """The quantum bilinear-coupling generator in the paper's effective-field
    form: (i/S) sum_k L_k B_k - (i/S) sum_kj L_k Lam_kj [(r x B)_j - i T L_j]
    with the field B = S b, Lam = S gamma xi xi^T and the Bopp position
    operators r_a = (M_a F1 + K_a F2)/S, which are the sphere's m_a plus O(1/S).
    Written out term by term, apart from qfp_generator."""
    l_ops, r_ops = _angular_and_bopp_positions(ctx, sigma)
    s = ctx.s
    r_ops = [r / s for r in r_ops]
    field = [s * bk for bk in b]
    lam = s * gamma * np.outer(xi, xi)
    gen = sum((1j / s) * field[k] * l_ops[k] for k in range(3))
    for j in range(3):
        a, c = (j + 1) % 3, (j + 2) % 3
        cross = r_ops[a] * field[c] - r_ops[c] * field[a]  # (r x B)_j
        for k in range(3):
            gen = gen - (1j / s) * lam[k, j] * (l_ops[k] @ (cross - 1j * temperature * l_ops[j]))
    return gen.tocsr()


def two_set_qfp_generator(h_expr, bath, sigma, ctx, band=None):
    """qfp_generator assembled with a Bopp set for H and another for F, and a
    conjugation P built anew for each imaginary part; no Hermiticity check."""
    def hat(expr):
        return bopp.evaluate_expression(expr, bopp.bopp_matrices(ctx, sigma, band))

    h_hat = hat(h_expr)
    L = sphere_ops.band_limit_of(h_hat.shape[0])
    im_h = operator_imag(h_hat, L)
    if bath is None:
        return (2.0 * im_h).tocsr()
    f_hat = hat(bath.coupling)
    im_f = operator_imag(f_hat, L)
    im_g = operator_imag(h_hat @ f_hat - f_hat @ h_hat, L)
    gen = 2.0 * im_h
    gen = gen + 4.0 * bath.gamma * bath.temperature * (im_f @ im_f)
    gen = gen - 2.0 * bath.gamma * (im_f @ im_g)
    return gen.tocsr()


def star_product(c_a, c_b, sigma, ctx):
    """Coefficients of W_A star W_B via the exact operator route."""
    op_a = sw_transform.symbol_to_operator(c_a, sigma, ctx)
    op_b = sw_transform.symbol_to_operator(c_b, sigma, ctx)
    return sw_transform.operator_to_symbol(op_a @ op_b, sigma, ctx)


def s3_star_ylm(ctx, sigma, l, m):
    """Coefficients of (symbol of S3) star Y_lm by the analytic route.

    Assembled literally from the kernel-product expansion: normalization
    N_S = sqrt(2S+1) F^sigma(0), series weights a_0 = 1/(2S+1)!,
    a_1 = -a_0/(2S+2), the S3 symbol amplitude
    kappa = (S/(S+1))^{-sigma/2} sqrt(S(S+1)), and first-order ladder
    operators acting on cos(theta).  The scalar prefactor
    N_S a_0 kappa F^{1-sigma}(1) collapses to S+1 for every sigma; it is
    evaluated in the log domain here rather than substituted.  The ladder
    couplings are written in closed form,
      cos(theta) Y_lm = alpha1 Y_{l+1,m} + alpha2 Y_{l-1,m},
      sin(theta) dY_lm/dtheta = l alpha1 Y_{l+1,m} - (l+1) alpha2 Y_{l-1,m},
    and the flat index l*l + l + m is formed inline, so nothing is shared
    with the sphere operators that bopp_matrices is built from.
    """
    sigma = sw_transform.validate_sigma(sigma)
    if l != int(l) or not 0 <= l <= ctx.twice_s:
        raise ValueError(f"l must be an integer in [0, 2S], got {l!r}")
    if m != int(m) or abs(m) > l:
        raise ValueError(f"m must be an integer with |m| <= l, got {m!r}")
    l, m = int(l), int(m)
    n2 = ctx.twice_s
    s = ctx.s

    def log_f(k):
        return 0.5 * (log_factorial(n2 + k + 1) + log_factorial(n2 - k))

    log_kappa = -0.5 * sigma * (math.log(s) - math.log(s + 1)) + 0.5 * (
        math.log(s) + math.log(s + 1)
    )
    log_pref = (
        0.5 * math.log(n2 + 1)          # sqrt(2S+1)
        + sigma * log_f(0)              # F^sigma(0)
        - log_factorial(n2 + 1)         # a_0 = 1/(2S+1)!
        + log_kappa
        + (1.0 - sigma) * log_f(1)      # F^{1-sigma}(1) from the S3 factor
    )
    pref = math.exp(log_pref)
    series_ratio = 1.0 / (n2 + 2.0)     # -a_1/a_0

    out = np.zeros(ctx.symbol_dim, dtype=complex)
    # j = 1 term contributes -series_ratio * (i d/dphi) on the l shell
    out[l * l + l + m] = pref * series_ratio * m
    # F(l)/F(l+1) and F(l)/F(l-1), each to the power 1 - sigma
    if l + 1 <= n2:
        alpha1 = math.sqrt((l - m + 1) * (l + m + 1) / ((2 * l + 1) * (2 * l + 3)))
        rp_pow = ((n2 - l) / (n2 + l + 2)) ** (0.5 * (1.0 - sigma))
        out[(l + 1) * (l + 2) + m] = pref * rp_pow * (alpha1 + series_ratio * l * alpha1)
    if abs(m) <= l - 1:  # at |m| = l (and so at l = 0) the l - 1 couplings vanish
        alpha2 = math.sqrt((l - m) * (l + m) / ((2 * l - 1) * (2 * l + 1)))
        rm_pow = ((n2 + l + 1) / (n2 - l + 1)) ** (0.5 * (1.0 - sigma))
        out[(l - 1) * l + m] = pref * rm_pow * (alpha2 - series_ratio * (l + 1) * alpha2)
    return out


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
