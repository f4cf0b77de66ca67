"""Reference helpers of the tests: oracles, predicates and small builders that
no library path calls.

They live here so the library cannot reuse the code that checks it.  Each
one either computes a quantity by a route independent of the library's own
(the harmonics from scipy, the Bopp matrices from the transform pair, the
termwise generators from the sphere operators and shell tables, the
symmetric tables from their closed form, the stationary state from a dense
eigen-solve) or exposes a library quantity for a test to read.
"""

import math

import numpy as np
from scipy.special import sph_harm_y

from spinphase import bopp, dynamics, sphere_ops, sw_transform


def ylm_eval(l, m, theta, phi):
    """Y_lm(theta, phi), orthonormal with Condon-Shortley phase, from scipy.

    Broadcasts over array-valued theta/phi; the library's own harmonics come
    from its Legendre recurrence, which this does not share.
    """
    return sph_harm_y(l, m, theta, phi)


def operator_real(op, band_limit):
    """Re(O) = (O + C O C)/2."""
    return (op + sphere_ops.conjugated_operator(op, band_limit)) / 2.0


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


def _angular_and_bopp_positions(ctx, sigma):
    """(L_k, M_k F1 + K_k F2) at band 2S, from the sphere operators and the
    shell tables, apart from the assembly in bopp_matrices."""
    band = ctx.band_limit
    coeffs = bopp.bopp_coefficients(ctx, sigma)
    f1d = bopp.shell_diagonal(band, coeffs.f1)
    f2d = bopp.shell_diagonal(band, coeffs.f2)
    mk_ops = sphere_ops.position_operators(band)
    return (sphere_ops.angular_operators(band)[:3],
            [mk_ops[k] @ f1d + mk_ops[3 + k] @ f2d for k in range(3)])


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
