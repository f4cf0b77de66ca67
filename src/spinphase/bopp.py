"""Differential-operator representation of spin components on symbols.

Left multiplication by S_i on the operator side becomes a band-limited
matrix B_i on symbol coefficients: B_i = (up M_i(up) + down M_i(down) + L_i)/2,
the steps l -> l+-1 of multiplication by m_i weighted at the shell l they
leave by ratios of F(l) = sqrt((2S+l+1)!(2S-l)!).  It is the paper's
M_i F1 + K_i F2 + L_i/2, as K_i = i(m x L)_i = [L^2, M_i]/2 - M_i.
Products of the B_i realize star products of symbols without ever leaving
coefficient space.  Oracles in tests/oracles.py pin the construction apart
from it: left multiplication conjugated with the transform pair, the
termwise form, the star product by the operator route and the analytic S3
star Y_lm.
"""

import numpy as np
import scipy.sparse as sp

from . import sphere_ops, sw_transform
from .su2_algebra import is_integer, spin_matrices


def bopp_coefficients(ctx, sigma):
    """Tables (f1, f2) over l = 0..2S, exact to rounding at every S.

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
    return f1, f2


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


def bopp_matrices(ctx, sigma, band=None):
    """(B1, B2, B3) on symbol coefficients at band limit band (None: 2S), CSR,
    built anew on every call: B_i = (up M_i(up) + down M_i(down) + L_i)/2, the
    steps l -> l+-1 of M_i weighted at the column's shell by up/2 = f1 + l f2
    and down/2 = f1 - (l+1) f2 from the tables of bopp_coefficients.
    On the complete band-2S space these reproduce left multiplication by S_i
    exactly for every ordering; below 2S only transitions to shell band + 1
    are dropped, so each is the l <= band block of its band-2S self.
    """
    L = ctx.band_limit if band is None else band
    if not (is_integer(L) and 0 <= L <= ctx.band_limit):
        raise ValueError(f"band must be an integer in [0, 2S = {ctx.band_limit}], got {band!r}")
    L = int(L)
    l_of, _ = sphere_ops.lm_arrays(L)
    f1, f2 = (f[l_of] for f in bopp_coefficients(ctx, sigma))
    half_up, half_down = f1 + l_of * f2, f1 - (l_of + 1) * f2
    out = []
    for m_op, l_op in zip(sphere_ops.position_operators(L), sphere_ops.angular_operators(L)):
        # an entry below the diagonal (row > column) is a step l -> l+1
        rows = np.repeat(np.arange(m_op.shape[0]), np.diff(m_op.indptr))
        cols = m_op.indices
        m_op.data *= np.where(rows > cols, half_up[cols], half_down[cols])
        out.append(m_op + 0.5 * l_op)
    return tuple(out)


def validate_expression(expr):
    """Normalize a polynomial spin expression: list of (coeff, word).

    A word is a tuple over components {1, 2, 3}; the empty word is the
    identity.  Words are ordered products, no symmetrization is applied.  A
    component that is not an integer in {1, 2, 3}, and a coefficient that is a
    bool, a string, anything else complex() refuses, NaN or infinite, are
    refused, naming the word or the term.
    """
    out = []
    for item in expr:
        try:
            coeff, word = item
            word = tuple(word)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"expression term {item!r} is not (coeff, word)") from exc
        if not all(is_integer(k) and k in (1, 2, 3) for k in word):
            raise ValueError(f"word {word!r} has components outside {{1,2,3}}")
        try:
            if isinstance(coeff, (bool, np.bool_, str)):
                raise TypeError(f"a {type(coeff).__name__} is not a number")
            coeff = complex(coeff)
        except TypeError as exc:
            raise ValueError(
                f"expression term {item!r} has a coefficient that is not a number") from exc
        if not np.isfinite(coeff):
            raise ValueError(f"expression term {item!r} has a non-finite coefficient")
        out.append((coeff, tuple(int(k) for k in word)))
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


def evaluate_expression(expr, mats):
    """Matrix of an ordered polynomial over a triple of matrices, such as the Bopp
    set of bopp_matrices: words become products of mats in the same order."""
    n = mats[0].shape[0]
    return _ordered_sum(validate_expression(expr), mats, sp.csr_matrix((n, n), dtype=complex),
                       sp.identity(n, dtype=complex, format="csr")).tocsr()


def expression_symbol(expr, sigma, ctx):
    """Symbol coefficients at ordering sigma of an ordered polynomial in the spin
    components on shells l <= min(2S, degree), exact at every sigma: its words of
    Bopp matrices applied to the identity's symbol sqrt(4pi) Y_00 (column 0)."""
    expr = validate_expression(expr)
    mats = bopp_matrices(ctx, sigma, min(ctx.band_limit, degree(expr)))
    return np.sqrt(4.0 * np.pi) * evaluate_expression(expr, mats)[:, [0]].toarray()[:, 0]
