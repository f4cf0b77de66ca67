"""Differential-operator representation of spin components on symbols.

Left multiplication by S_i on the operator side becomes a band-limited
matrix B_i on symbol coefficients: B_i = M_i F1 + K_i F2 + L_i/2, with
shell-diagonal tables f1(l), f2(l) built from ratios of
F(l) = sqrt((2S+l+1)!(2S-l)!).  Products of the B_i realize star products
of symbols without ever leaving coefficient space; an independent oracle
(conjugating actual left multiplication with the transform pair) pins the
construction.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import sphere_ops, sw_transform
from .su2_algebra import log_factorial, spin_matrices


def f_ratio(ctx, l, direction):
    """Closed-form ratio F(l)/F(l + direction) with F(l) = sqrt((2S+l+1)!(2S-l)!).

    direction +1: sqrt((2S-l)/(2S+l+2)), zero at the band edge l = 2S.
    direction -1: sqrt((2S+l+1)/(2S-l+1)), defined for l >= 1.
    """
    if l != int(l) or not 0 <= l <= ctx.twice_s:
        raise ValueError(f"l must be an integer in [0, 2S], got {l!r}")
    l = int(l)
    n2 = ctx.twice_s
    if direction == 1:
        return math.sqrt((n2 - l) / (n2 + l + 2))
    if direction == -1:
        if l == 0:
            raise ValueError("f_ratio direction -1 requires l >= 1")
        return math.sqrt((n2 + l + 1) / (n2 - l + 1))
    raise ValueError(f"direction must be +1 or -1, got {direction!r}")


def _power(ratio, exponent):
    # ratio^exponent with the 0^0 = 1 convention used at the band edge
    if exponent == 0.0:
        return 1.0
    if ratio == 0.0:
        return 0.0
    return math.exp(exponent * math.log(ratio))


@dataclass(frozen=True)
class BoppCoefficients:
    """Shell tables f1(l), f2(l) for l = 0..2S at a fixed ordering."""

    twice_s: int
    sigma: float
    f1: np.ndarray
    f2: np.ndarray


def bopp_coefficients(ctx, sigma):
    """Tables f1(l), f2(l); ratio powers are taken in the log domain.

    f1(l) = [r+^{1-sigma} (2S+l+2)(l+1) + r-^{1-sigma} (2S+1-l) l] / (2(2l+1))
    f2(l) = [r+^{1-sigma} (2S+l+2)   -   r-^{1-sigma} (2S+1-l)  ] / (2(2l+1))
    with r+ = F(l)/F(l+1), r- = F(l)/F(l-1); F(-1) = F(0) regularizes l = 0.
    """
    sigma = sw_transform.validate_sigma(sigma)
    n2 = ctx.twice_s
    expo = 1.0 - sigma
    f1 = np.empty(n2 + 1)
    f2 = np.empty(n2 + 1)
    for l in range(n2 + 1):
        rp_pow = _power(f_ratio(ctx, l, +1), expo)
        rm_pow = _power(1.0 if l == 0 else f_ratio(ctx, l, -1), expo)
        up = rp_pow * (n2 + l + 2)
        down = rm_pow * (n2 + 1 - l)
        f1[l] = (up * (l + 1) + down * l) / (2.0 * (2 * l + 1))
        f2[l] = (up - down) / (2.0 * (2 * l + 1))
    return BoppCoefficients(n2, sigma, f1, f2)


def symmetric_coefficients_closed_form(ctx, l):
    """(f1, f2) at sigma = 0 in closed form, for cross-checking the tables.

    With n = 2S+1: f1 = [(l+1) sqrt(n^2-(l+1)^2) + l sqrt(n^2-l^2)] / (2(2l+1)),
    f2 = [sqrt(n^2-(l+1)^2) - sqrt(n^2-l^2)] / (2(2l+1)).
    """
    if l != int(l) or not 0 <= l <= ctx.twice_s:
        raise ValueError(f"l must be an integer in [0, 2S], got {l!r}")
    n = ctx.twice_s + 1
    up = math.sqrt(max(n * n - (l + 1) ** 2, 0))
    down = math.sqrt(n * n - l * l)
    f1 = ((l + 1) * up + l * down) / (2.0 * (2 * l + 1))
    f2 = (up - down) / (2.0 * (2 * l + 1))
    return f1, f2


def asymptotic_coefficients(ctx, sigma, l):
    """Large-S approximations of (f1, f2) at fixed shell l.

    f1 ~ (2S+1+sigma)/2 + (l(l+1)+1)(sigma^2-1)/(4(2S+1))
    f2 ~ sigma/2 + (sigma^2-1)/(4(2S+1))
    """
    sigma = sw_transform.validate_sigma(sigma)
    n = ctx.twice_s + 1
    f1 = (n + sigma) / 2.0 + (l * (l + 1) + 1) * (sigma * sigma - 1.0) / (4.0 * n)
    f2 = sigma / 2.0 + (sigma * sigma - 1.0) / (4.0 * n)
    return f1, f2


def shell_diagonal(band_limit, table):
    """Sparse diagonal applying a per-shell table over the flat index."""
    table = np.asarray(table, dtype=complex)
    if table.size != band_limit + 1:
        raise ValueError("table length must be band_limit + 1")
    l_of, _ = sphere_ops.lm_arrays(band_limit)
    return sp.diags(table[l_of]).tocsr()


def bopp_operators(ctx, sigma):
    """(L, M, K, F1, F2, B) at band limit 2S, CSR, built anew on every call:
    triples over the components, and the shell diagonals F1, F2 of the tables.
    B_i = M_i F1 + K_i F2 + L_i/2; the shell tables act first."""
    coeffs = bopp_coefficients(ctx, sigma)
    L = ctx.band_limit
    f1d = shell_diagonal(L, coeffs.f1)
    f2d = shell_diagonal(L, coeffs.f2)
    l_ops = sphere_ops.angular_operators(L)[:3]
    mk_ops = sphere_ops.position_operators(L)
    m_ops, k_ops = mk_ops[:3], mk_ops[3:]
    b_ops = tuple((m_ops[i] @ f1d + k_ops[i] @ f2d + 0.5 * l_ops[i]).tocsr()
                  for i in range(3))
    return l_ops, m_ops, k_ops, f1d, f2d, b_ops


def bopp_matrices(ctx, sigma):
    """(B1, B2, B3) on symbol coefficients at band limit 2S, CSR.

    On the complete band-2S space these reproduce left multiplication by
    S_i exactly for every ordering.
    """
    return bopp_operators(ctx, sigma)[5]


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


def star_product(c_a, c_b, sigma, ctx):
    """Coefficients of W_A star W_B via the exact operator route."""
    op_a = sw_transform.symbol_to_operator(c_a, sigma, ctx)
    op_b = sw_transform.symbol_to_operator(c_b, sigma, ctx)
    return sw_transform.operator_to_symbol(op_a @ op_b, sigma, ctx)


def validate_expression(expr):
    """Normalize a polynomial spin expression: list of (coeff, word).

    A word is a tuple over components {1, 2, 3}; the empty word is the
    identity.  Words are ordered products, no symmetrization is applied.
    """
    out = []
    for item in expr:
        try:
            coeff, word = item
        except (TypeError, ValueError) as exc:
            raise ValueError(f"expression term {item!r} is not (coeff, word)") from exc
        if isinstance(word, str):
            raise ValueError(f"word must be a tuple of components, got {word!r}")
        word = tuple(int(k) for k in word)
        if any(k not in (1, 2, 3) for k in word):
            raise ValueError(f"word {word!r} has components outside {{1,2,3}}")
        out.append((complex(coeff), word))
    return out


def expression_adjoint(expr):
    """Adjoint: conjugate coefficients, reverse each word."""
    return [(np.conj(coeff), word[::-1]) for coeff, word in validate_expression(expr)]


def expression_to_matrix(expr, ctx):
    """Hilbert-space matrix of an ordered polynomial in the spin components."""
    expr = validate_expression(expr)
    smats = spin_matrices(ctx)
    n = ctx.hilbert_dim
    out = np.zeros((n, n), dtype=complex)
    for coeff, word in expr:
        term = np.eye(n, dtype=complex)
        for k in word:
            term = term @ smats[k - 1]
        out += coeff * term
    return out


def is_hermitian_expression(expr, ctx, tol=1e-12):
    a = expression_to_matrix(expr, ctx)
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def evaluate_expression(expr, sigma, ctx):
    """Symbol-space matrix of an ordered polynomial: words become products
    of Bopp matrices in the same order."""
    expr = validate_expression(expr)
    bmats = bopp_matrices(ctx, sigma)
    n = ctx.symbol_dim
    out = sp.csr_matrix((n, n), dtype=complex)
    eye = sp.identity(n, dtype=complex, format="csr")
    for coeff, word in expr:
        term = eye
        for k in word:
            term = term @ bmats[k - 1]
        out = out + coeff * term
    return out.tocsr()


def linear_expression(vec):
    """Expression for vec . S, skipping zero components."""
    return [(complex(v), (k + 1,)) for k, v in enumerate(vec) if v != 0]


def s3_star_ylm(ctx, sigma, l, m):
    """Coefficients of (symbol of S3) star Y_lm by the analytic route.

    Assembled literally from the kernel-product expansion: normalization
    N_S = sqrt(2S+1) F^sigma(0), series weights a_0 = 1/(2S+1)!,
    a_1 = -a_0/(2S+2), the S3 symbol amplitude
    kappa = (S/(S+1))^{-sigma/2} sqrt(S(S+1)), and first-order ladder
    operators acting on cos(theta).  The scalar prefactor
    N_S a_0 kappa F^{1-sigma}(1) collapses to S+1 for every sigma; it is
    evaluated in the log domain here rather than substituted.
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

    a1, a2, b1, b2 = sphere_ops.alpha_beta(l, m)
    out = np.zeros(ctx.symbol_dim, dtype=complex)
    # j = 1 term contributes -series_ratio * (i d/dphi) on the l shell
    out[sphere_ops.flat_index(l, m)] = pref * series_ratio * m
    rp_pow = _power(f_ratio(ctx, l, +1), 1.0 - sigma)
    if l + 1 <= n2:
        out[sphere_ops.flat_index(l + 1, m)] = pref * rp_pow * (a1 + series_ratio * b1)
    if l >= 1 and abs(m) <= l - 1:  # at |m| = l the couplings a2, b2 vanish
        rm_pow = _power(f_ratio(ctx, l, -1), 1.0 - sigma)
        out[sphere_ops.flat_index(l - 1, m)] = pref * rm_pow * (a2 + series_ratio * b2)
    return out
