"""Operator <-> phase-space symbol maps for a spin on the sphere.

A (2S+1)x(2S+1) operator A maps to coefficients of its symbol
W_A = sum c_lm Y_lm via c_lm = sqrt(4pi/(2S+1)) w_l^{-sigma} Tr(T_lm^dag A),
where w_l is the (positive) stretched Clebsch-Gordan weight and sigma in
[-1, 1] labels the operator ordering (0 symmetric, +1 normal, -1
antinormal).  The inverse multiplies by w_l^{+sigma}.  Pairing a symbol at
sigma with one at -sigma under the normalized measure (2S+1)/(4pi) dOmega
reproduces Hilbert-space traces exactly.
"""

import functools
import math

import numpy as np

from . import sphere_ops, su2_algebra

SYMMETRIC = 0.0
NORMAL = 1.0
ANTINORMAL = -1.0
_LOG_TINY, _LOG_MAX = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)


def validate_sigma(sigma):
    sigma = float(sigma)
    if not -1.0 <= sigma <= 1.0 or not math.isfinite(sigma):
        raise ValueError(f"ordering parameter must lie in [-1, 1], got {sigma}")
    return sigma


def measure_constant(ctx):
    """Normalization (2S+1)/(4pi) of the phase-space measure."""
    return (ctx.twice_s + 1) / (4.0 * math.pi)


@functools.lru_cache(maxsize=64)
def _log_weights(twice_s):
    # ln w_l, w_l = <S,S; l,0 | S,S> = (2S)! sqrt(2S+1) / sqrt((2S+l+1)!(2S-l)!):
    # w_0 = 1 and w_{l+1}/w_l = sqrt((2S-l)/(2S+l+2)), so ln w_l is a cumulative
    # sum of log1p terms whose arguments are exact integer ratios
    l = np.arange(twice_s)
    return np.concatenate(([0.0], np.cumsum(0.5 * np.log1p(-(2 * l + 2) / (twice_s + l + 2)))))


def _factors(ctx, sigma):
    # c_lm / Tr(T_lm^dag A) = sqrt(4pi/(2S+1)) w_l^-sigma over the flat index,
    # through logs: the weights span many decades.  ln w_l falls from 0, so the
    # factors at l = 0 and 2S bound the rest, and both must be normal doubles
    log_scale = 0.5 * math.log(4.0 * math.pi / (ctx.twice_s + 1))
    lo, hi = sorted((log_scale, log_scale - sigma * _log_weights(ctx.twice_s)[-1]))
    if not _LOG_TINY <= lo <= hi <= _LOG_MAX:  # NaN-safe
        raise ValueError(f"the ordering factors w_l^-sigma at 2S = {ctx.twice_s}, "
                         f"sigma = {sigma} leave the normal double range")
    l_of, _ = sphere_ops.lm_arrays(ctx.band_limit)
    return np.exp(log_scale - sigma * _log_weights(ctx.twice_s))[l_of]


@functools.lru_cache(maxsize=8)
def _diagonals(twice_s):
    # per m: m, the flat indices of (l, m) for l = |m|..2S, the positions of
    # np.diagonal(a, m) in a, and the T_lm diagonals over those l
    n = twice_s + 1
    out = []
    for m, block in zip(range(-twice_s, n), su2_algebra.tensor_blocks(twice_s)):
        l, j = np.arange(abs(m), n), np.arange(n - abs(m))
        out.append((m, l * l + l + m, (j + max(0, -m), j + max(0, m)), block))
    return tuple(out)


def operator_to_symbol(a, sigma, ctx):
    """Symbol coefficients of operator a at ordering sigma."""
    sigma = validate_sigma(sigma)
    a = np.asarray(a, dtype=complex)
    if a.shape != (ctx.hilbert_dim, ctx.hilbert_dim):
        raise ValueError(f"operator shape {a.shape} does not match 2S+1 = {ctx.hilbert_dim}")
    factors = _factors(ctx, sigma)  # refuses before the tables are built
    c = np.empty(ctx.symbol_dim, dtype=complex)
    for m, idx, _, block in _diagonals(ctx.twice_s):
        c[idx] = block @ np.diagonal(a, m)  # Tr(T_lm^dag a), T_lm real
    return factors * c


def symbol_to_operator(c, sigma, ctx):
    """Operator with symbol coefficients c at ordering sigma (exact inverse)."""
    sigma = validate_sigma(sigma)
    c = np.asarray(c, dtype=complex)
    if c.size != ctx.symbol_dim:
        raise ValueError(
            f"coefficient length {c.size} does not match (2S+1)^2 = {ctx.symbol_dim}"
        )
    b = c / _factors(ctx, sigma)
    a = np.zeros((ctx.hilbert_dim, ctx.hilbert_dim), dtype=complex)
    for _, idx, pos, block in _diagonals(ctx.twice_s):
        a[pos] = b[idx] @ block  # sum_l b_lm T_lm on the diagonal m
    return a


def switch_ordering(c, sigma_from, sigma_to, ctx):
    """Re-express coefficients at a different ordering: factor w_l^{from-to}.

    The factor is formed first, so equal orderings return c unchanged."""
    sigma_from = validate_sigma(sigma_from)
    sigma_to = validate_sigma(sigma_to)
    c = np.asarray(c, dtype=complex)
    if c.size != ctx.symbol_dim:
        raise ValueError("coefficient length does not match context")
    return c * (_factors(ctx, sigma_to) / _factors(ctx, sigma_from))


def kernel_eval(ctx, sigma, theta, phi):
    """Phase-space kernel Delta^(sigma)(theta, phi) as a Hermitian matrix.

    Tr(A Delta^(sigma)(x)) reproduces the symbol of A at x.  Non-finite angles
    are refused.
    """
    sigma = validate_sigma(sigma)
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"kernel angles must be finite, got {theta}, {phi}")
    y = sphere_ops.ylm_point(ctx.band_limit, theta, phi)
    # the operator whose symbol at ordering -sigma is the delta function at x
    return symbol_to_operator(np.conj(y) / measure_constant(ctx), -sigma, ctx)


def expectation(c_a, c_rho, ctx):
    """Tr(A rho) from the symbol of A at sigma and of rho at -sigma.

    (2S+1)/(4pi) sum_lm (-1)^m c_A,lm c_rho,l,-m; exact for dual orderings.
    """
    c_a = np.asarray(c_a, dtype=complex)
    c_rho = np.asarray(c_rho, dtype=complex)
    if c_a.size != ctx.symbol_dim or c_rho.size != ctx.symbol_dim:
        raise ValueError("coefficient length does not match context")
    return measure_constant(ctx) * np.vdot(sphere_ops.apply_conjugation(c_rho), c_a)


def symbol_trace(c, ctx):
    """Tr(A) from any-ordering coefficients: (2S+1) c_00 / sqrt(4pi)."""
    c = np.asarray(c, dtype=complex)
    if c.size != ctx.symbol_dim:
        raise ValueError("coefficient length does not match context")
    return (ctx.twice_s + 1) * c[0] / math.sqrt(4.0 * math.pi)
