"""Spherical-harmonic coefficient space: band-limited operators, and the grid
on which the CLI writes a symbol.

A function W(theta, phi) = sum_{l<=L,|m|<=l} c_lm Y_lm is a flat complex
vector with index l*l + l + m.  Evolution happens on these vectors; the grid
(Gauss-Legendre nodes in cos(theta), L+1 of them, times 2L+2 uniform phis)
only prints them.

Multiplication by the direction components m_i and the combinations
i(m x L)_i are genuinely band-limited here: products that would leave
shell L are dropped (documented lossy top shell).
"""

import functools
import math

import numpy as np
import scipy.sparse as sp


def num_coefficients(band_limit):
    return (band_limit + 1) ** 2


def flat_index(l, m):
    """Flat coefficient index l*l + l + m."""
    if l < 0 or abs(m) > l:
        raise ValueError(f"invalid (l, m) = ({l}, {m})")
    return l * l + l + m


def band_limit_of(n):
    """Band limit L with (L+1)^2 == n; rejects non-square lengths."""
    band = math.isqrt(n) - 1
    if n < 1 or (band + 1) ** 2 != n:
        raise ValueError(f"coefficient length {n} is not a square")
    return band


@functools.lru_cache(maxsize=64)
def lm_arrays(band_limit):
    """Arrays l_of[idx], m_of[idx] over the flat index; read-only and shared."""
    l_of = np.repeat(np.arange(band_limit + 1), 2 * np.arange(band_limit + 1) + 1)
    m_of = np.arange(l_of.size) - l_of * (l_of + 1)
    l_of.flags.writeable = m_of.flags.writeable = False
    return l_of, m_of


def _half_index(l, m):
    # packed index over 0 <= m <= l
    return l * (l + 1) // 2 + m


def _legendre_table(band_limit, x):
    """Fully normalized associated Legendre values P_lm(x) for 0 <= m <= l <= L.

    Normalization (including 1/sqrt(4pi) and the Condon-Shortley phase) is
    such that Y_lm = P_l|m| * e^{i m phi} for m >= 0.  Standard stable
    recurrences: diagonal, first off-diagonal, then upward in l at fixed m.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    L = band_limit
    table = np.zeros((_half_index(L, L) + 1, x.size))
    sx = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    table[0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, L + 1):
        table[_half_index(m, m)] = (
            -math.sqrt((2 * m + 1) / (2.0 * m)) * sx * table[_half_index(m - 1, m - 1)]
        )
    for m in range(L):
        table[_half_index(m + 1, m)] = math.sqrt(2 * m + 3) * x * table[_half_index(m, m)]
    for m in range(L + 1):
        for l in range(m + 2, L + 1):
            a = math.sqrt((4 * l * l - 1) / (l * l - m * m))
            b = math.sqrt(((l - 1) ** 2 - m * m) / (4.0 * (l - 1) ** 2 - 1))
            table[_half_index(l, m)] = a * (
                x * table[_half_index(l - 1, m)] - b * table[_half_index(l - 2, m)]
            )
    return table


def _ylm_rows(band_limit, x):
    # Y_lm(theta, phi = 0) over the flat index (rows) at x = cos(theta) (columns)
    l_of, m_of = lm_arrays(band_limit)
    sign = (-1.0) ** np.minimum(m_of, 0)
    return sign[:, None] * _legendre_table(band_limit, x)[_half_index(l_of, np.abs(m_of))]


def ylm_point(band_limit, theta, phi):
    """Y_lm(theta, phi) at one point for every l <= band_limit, over the flat index."""
    _, m_of = lm_arrays(band_limit)
    return _ylm_rows(band_limit, math.cos(theta))[:, 0] * np.exp(1j * m_of * phi)


def _nodes(band_limit):
    # Gauss-Legendre nodes x = cos(theta) in descending order, so theta ascends,
    # and the uniform phis.  x is a contiguous copy: numpy's vectorised arccos
    # rounds a reversed view differently in the last digit.
    if band_limit < 0:
        raise ValueError("band_limit must be >= 0")
    n_phi = 2 * band_limit + 2
    return (np.polynomial.legendre.leggauss(band_limit + 1)[0][::-1].copy(),
            2.0 * math.pi * np.arange(n_phi) / n_phi)


def grid_points(band_limit):
    """(thetas, phis) of the grid the CLI writes: L+1 ascending thetas at the
    Gauss-Legendre nodes in cos(theta), and 2L+2 uniform phis from 0."""
    x, phis = _nodes(band_limit)
    return np.arccos(x), phis


def grid_values(band_limit, c):
    """Values of coefficients c (of band up to band_limit) at grid_points(band_limit),
    theta-major: shape (L+1, 2L+2).  The harmonics are evaluated at the nodes x
    themselves, not at cos(arccos(x))."""
    L = band_limit
    x, phis = _nodes(L)
    c = np.asarray(c, dtype=complex)
    band = band_limit_of(c.size)
    if band > L:
        raise ValueError(f"coefficient band {band} exceeds grid band {L}")
    rows = _ylm_rows(L, x)  # (flat lm, n_theta)
    _, m_of = lm_arrays(L)
    g = np.zeros((2 * L + 1, x.size), dtype=complex)
    np.add.at(g, L + m_of[: c.size], c[:, None] * rows[: c.size])  # in order of l
    return g.T @ np.exp(1j * np.outer(np.arange(-L, L + 1), phis))


def alpha_beta(l, m):
    """Couplings (alpha1, alpha2, beta1, beta2) for shell transitions l -> l+-1.

    cos(theta) Y_lm = alpha1 Y_{l+1,m} + alpha2 Y_{l-1,m}
    sin(theta) dY_lm/dtheta = beta1 Y_{l+1,m} + beta2 Y_{l-1,m}
    with beta1 = l*alpha1 and beta2 = -(l+1)*alpha2.  Broadcasts over
    integer arrays l, m; alpha2 = 0 at l = 0.
    """
    l, m = np.asarray(l), np.asarray(m)
    if np.any((l < 0) | (np.abs(m) > l)):
        raise ValueError(f"invalid (l, m) = ({l}, {m})")
    alpha1 = np.sqrt((l - m + 1) * (l + m + 1) / ((2 * l + 1) * (2 * l + 3)))
    alpha2 = np.where(l == 0, 0.0,
                      np.sqrt((l - m) * (l + m) / ((2 * l - 1) * (2 * l + 1))))
    return alpha1, alpha2, l * alpha1, -(l + 1) * alpha2


def _csr(data, rows, cols, n):
    # n x n CSR matrix with sorted indices; zero entries are not stored
    keep = data != 0
    return sp.csr_matrix((data[keep], (rows[keep], cols[keep])), shape=(n, n))


def angular_operators(band_limit):
    """Angular-momentum differential operators (L1, L2, L3) on shells l <= L.

    Shell-diagonal, hence exact (no truncation loss).  CSR matrices.
    """
    n = num_coefficients(band_limit)
    l_of, m_of = lm_arrays(band_limit)
    idx = np.arange(n)
    # L+ maps (l, m - 1) -> (l, m) with sqrt(l(l+1) - (m-1)m), which is 0 at m = -l
    lp = _csr(np.sqrt(l_of * (l_of + 1) - (m_of - 1) * m_of), idx, idx - 1, n)
    lm = lp.T.tocsr()
    l1 = ((lp + lm) / 2.0).astype(complex)
    l2 = ((lp - lm) / 2j).tocsr()
    l3 = sp.diags(m_of.astype(complex)).tocsr()
    return l1.tocsr(), l2, l3


def position_operators(band_limit):
    """Multiplication operators M_i (by m_i) and K_i (by i(m x L)_i), band-limited.

    M3/K3 couple (l, m) -> (l+-1, m), flat index idx + 2l + 2 and idx - 2l;
    components 1 and 2 follow from the commutators M1 = i[M3, L2],
    M2 = -i[M3, L1] (same for K).  Transitions to shell L+1 are dropped:
    products of top-shell content are lossy.
    """
    L = band_limit
    n = num_coefficients(L)
    l1, l2, _ = angular_operators(L)
    l_of, m_of = lm_arrays(L)
    idx = np.arange(n)
    a1, a2, b1, b2 = alpha_beta(l_of, m_of)
    up = l_of < L
    down = np.abs(m_of) < l_of
    rows = np.concatenate([idx[up] + 2 * l_of[up] + 2, idx[down] - 2 * l_of[down]])
    cols = np.concatenate([idx[up], idx[down]])
    m3 = _csr(np.concatenate([a1[up], a2[down]]), rows, cols, n).astype(complex)
    k3 = _csr(np.concatenate([b1[up], b2[down]]), rows, cols, n).astype(complex)
    m1 = (1j * (m3 @ l2 - l2 @ m3)).tocsr()
    m2 = (-1j * (m3 @ l1 - l1 @ m3)).tocsr()
    k1 = (1j * (k3 @ l2 - l2 @ k3)).tocsr()
    k2 = (-1j * (k3 @ l1 - l1 @ k3)).tocsr()
    return m1, m2, m3, k1, k2, k3


def conjugation_matrix(band_limit):
    """Signed permutation P with (P c)_lm = (-1)^m c_{l,-m}; P^2 = identity.

    Complex conjugation of a symbol acts on coefficients as P composed with
    entrywise conjugation.
    """
    _, m_of = lm_arrays(band_limit)
    idx = np.arange(m_of.size)
    return _csr((-1.0) ** m_of, idx, idx - 2 * m_of, m_of.size).astype(complex)


def apply_conjugation(c):
    """Coefficients of conj(W) given coefficients of W (antilinear)."""
    c = np.asarray(c, dtype=complex)
    band = band_limit_of(c.size)
    out = np.empty_like(c)
    for l in range(band + 1):
        for m in range(-l, l + 1):
            out[flat_index(l, m)] = (-1.0) ** m * np.conj(c[flat_index(l, -m)])
    return out

