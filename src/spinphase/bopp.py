"""Differential-operator representation of spin components on symbols.

Left multiplication by S_i on the operator side becomes a band-limited
matrix B_i on symbol coefficients: B_i = M_i F1 + K_i F2 + L_i/2, with
shell-diagonal tables f1(l), f2(l) built from ratios of
F(l) = sqrt((2S+l+1)!(2S-l)!).  Products of the B_i realize star products
of symbols without ever leaving coefficient space; an independent oracle
in the tests (conjugating actual left multiplication with the transform
pair) pins the construction.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import sphere_ops, sw_transform
from .su2_algebra import log_factorial, spin_matrices


@dataclass(frozen=True)
class BoppCoefficients:
    """Shell tables f1(l), f2(l) for l = 0..2S at a fixed ordering."""

    twice_s: int
    sigma: float
    f1: np.ndarray
    f2: np.ndarray


def bopp_coefficients(ctx, sigma):
    """Tables f1(l), f2(l) for l = 0..2S, exact to rounding at every S.

    With N = 2S, e = 1 - sigma and F(l) = sqrt((N+l+1)!(N-l)!),
      up   = (F(l)/F(l+1))^e (N+l+2) = (N-l)^(e/2) (N+l+2)^(1-e/2),
      down = (F(l)/F(l-1))^e (N+1-l) = (N+l+1)^(e/2) (N+1-l)^(1-e/2),
      f1 = (up (l+1) + down l) / (2(2l+1)),  f2 = (up - down) / (2(2l+1)).
    f2 is O(1/S) while up and down are O(S), so it is formed from
    q = ln(up/down) = (e/2) log1p(-(2l+1)/((N+1)^2-l^2)) + (1-e) log1p((2l+1)/(N+1-l)),
    whose log1p arguments are exact integer ratios: f2 = down expm1(q) / (2(2l+1)).
    The factor 1 - e is sigma itself, so it carries no rounding.
    """
    sigma = sw_transform.validate_sigma(sigma)
    n2 = ctx.twice_s
    half_e = 0.5 * (1.0 - sigma)
    l = np.arange(n2 + 1)
    two_l1 = 2 * l + 1
    down = (n2 + l + 1.0) ** half_e * (n2 + 1.0 - l) ** (1.0 - half_e)
    q = sigma * np.log1p(two_l1 / (n2 + 1 - l))
    if half_e:  # at sigma = 1 the term is 0, not 0 * log1p(-1) = nan at l = 2S
        with np.errstate(divide="ignore"):
            q = q + half_e * np.log1p(-two_l1 / ((n2 + 1) ** 2 - l * l))
    f1 = down * ((l + 1) * np.exp(q) + l) / (2.0 * two_l1)
    f2 = down * np.expm1(q) / (2.0 * two_l1)
    return BoppCoefficients(n2, sigma, f1, f2)


def asymptotic_coefficients(ctx, sigma, l):
    """Large-S approximations of (f1, f2) at shell(s) l, broadcast over l.

    f1 ~ (2S+1+sigma)/2 + (l(l+1)+1)(sigma^2-1)/(4(2S+1))
    f2 ~ sigma/2 + (sigma^2-1)/(4(2S+1))
    """
    sigma = sw_transform.validate_sigma(sigma)
    n = ctx.twice_s + 1
    l = np.asarray(l, dtype=float)
    f1 = (n + sigma) / 2.0 + (l * (l + 1) + 1) * (sigma * sigma - 1.0) / (4.0 * n)
    f2 = np.full_like(l, sigma / 2.0 + (sigma * sigma - 1.0) / (4.0 * n))
    return f1, f2


def shell_diagonal(band_limit, table):
    """Sparse diagonal applying a per-shell table over the flat index."""
    table = np.asarray(table, dtype=complex)
    if table.size != band_limit + 1:
        raise ValueError("table length must be band_limit + 1")
    l_of, _ = sphere_ops.lm_arrays(band_limit)
    return sp.diags(table[l_of]).tocsr()


def bopp_matrices(ctx, sigma, band=None):
    """(B1, B2, B3) on symbol coefficients at band limit band (None: 2S), CSR,
    built anew on every call: B_i = M_i F1 + K_i F2 + L_i/2, with F1, F2 the
    shell diagonals of the tables' first band + 1 entries, which act first.
    On the complete band-2S space these reproduce left multiplication by S_i
    exactly for every ordering; below 2S only transitions to shell band + 1
    are dropped, so each is the l <= band block of its band-2S self.
    """
    L = ctx.band_limit if band is None else band
    if L != int(L) or not 0 <= L <= ctx.band_limit:
        raise ValueError(f"band must be an integer in [0, 2S = {ctx.band_limit}], got {band!r}")
    L = int(L)
    coeffs = bopp_coefficients(ctx, sigma)
    f1d = shell_diagonal(L, coeffs.f1[:L + 1])
    f2d = shell_diagonal(L, coeffs.f2[:L + 1])
    l_ops = sphere_ops.angular_operators(L)[:3]
    mk_ops = sphere_ops.position_operators(L)
    m_ops, k_ops = mk_ops[:3], mk_ops[3:]
    return tuple((m_ops[i] @ f1d + k_ops[i] @ f2d + 0.5 * l_ops[i]).tocsr()
                 for i in range(3))


def star_product(c_a, c_b, sigma, ctx):
    """Coefficients of W_A star W_B via the exact operator route."""
    op_a = sw_transform.symbol_to_operator(c_a, sigma, ctx)
    op_b = sw_transform.symbol_to_operator(c_b, sigma, ctx)
    return sw_transform.operator_to_symbol(op_a @ op_b, sigma, ctx)


def validate_expression(expr):
    """Normalize a polynomial spin expression: list of (coeff, word).

    A word is a tuple over components {1, 2, 3}; the empty word is the
    identity.  Words are ordered products, no symmetrization is applied.  A
    NaN or infinite coefficient is refused, naming its term.
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
        coeff = complex(coeff)
        if not np.isfinite(coeff):
            raise ValueError(f"expression term {item!r} has a non-finite coefficient")
        out.append((coeff, word))
    return out


def _ordered_sum(expr, mats, zero, eye):
    """zero + sum of coeff * mats[w1-1] @ mats[w2-1] @ ... over the (coeff, word)
    terms of a validated expression; the empty word is eye."""
    out = zero
    for coeff, word in expr:
        term = eye
        for k in word:
            term = term @ mats[k - 1]
        out = out + coeff * term
    return out


def expression_to_matrix(expr, ctx):
    """Hilbert-space matrix of an ordered polynomial in the spin components."""
    n = ctx.hilbert_dim
    return _ordered_sum(validate_expression(expr), spin_matrices(ctx),
                       np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex))


def degree(expr):
    """Length of the longest word of a validated expression (0 if none)."""
    return max((len(word) for _, word in expr), default=0)


def evaluate_expression(expr, sigma, ctx, band=None):
    """Symbol-space matrix of an ordered polynomial at band limit band (None:
    2S): words become products of Bopp matrices in the same order."""
    mats = bopp_matrices(ctx, sigma, band)
    n = mats[0].shape[0]
    return _ordered_sum(validate_expression(expr), mats, sp.csr_matrix((n, n), dtype=complex),
                       sp.identity(n, dtype=complex, format="csr")).tocsr()


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
    # F(l)/F(l+1) and F(l)/F(l-1), each to the power 1 - sigma
    if l + 1 <= n2:
        rp_pow = ((n2 - l) / (n2 + l + 2)) ** (0.5 * (1.0 - sigma))
        out[sphere_ops.flat_index(l + 1, m)] = pref * rp_pow * (a1 + series_ratio * b1)
    if l >= 1 and abs(m) <= l - 1:  # at |m| = l the couplings a2, b2 vanish
        rm_pow = ((n2 + l + 1) / (n2 - l + 1)) ** (0.5 * (1.0 - sigma))
        out[sphere_ops.flat_index(l - 1, m)] = pref * rm_pow * (a2 + series_ratio * b2)
    return out
