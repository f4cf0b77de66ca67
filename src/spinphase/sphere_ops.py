"""Spherical-harmonic coefficient space: band-limited operators, and the grid
on which the CLI writes a symbol.

A function W(theta, phi) = sum_{l<=L,|m|<=l} c_lm Y_lm is a flat complex
vector with index l*l + l + m.  Evolution happens on these vectors; the grid
(Gauss-Legendre nodes in cos(theta), L+1 of them, times 2L+2 uniform phis)
only prints them.

Multiplication by the direction components m_i is genuinely band-limited
here: products that would leave shell L are dropped (documented lossy top
shell).
"""

import math

import numpy as np
import scipy.sparse as sp

from .su2_algebra import is_integer


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


def _band(band_limit):
    """band_limit as an int (3.0 is 3); one that is not an integer >= 0 is refused."""
    if not (is_integer(band_limit) and band_limit >= 0):
        raise ValueError(f"band_limit must be an integer >= 0, got {band_limit!r}")
    return int(band_limit)


def lm_arrays(band_limit):
    """Arrays l_of[idx], m_of[idx] over the flat index, built afresh at each call.
    A band_limit that is not an integer >= 0 is refused."""
    band_limit = _band(band_limit)
    l_of = np.repeat(np.arange(band_limit + 1), 2 * np.arange(band_limit + 1) + 1)
    m_of = np.arange(l_of.size) - l_of * (l_of + 1)
    return l_of, m_of


def _ylm_shells(band_limit, x):
    """Y_lm(theta, phi = 0) at x = cos(theta), one shell at a time: for l = 0..L,
    rows m = -l..l by columns x.

    Fully normalized associated Legendre values P_l|m|(x), with 1/sqrt(4pi), the
    Condon-Shortley phase and (-1)^m for m < 0, by the standard stable
    recurrences: the diagonal |m| = l from the one before it, and every |m| < l
    from the two shells before, P_lm = a (x P_(l-1)m - b P_(l-2)m), where b = 0 at
    l = |m| + 1.  The recurrence keeps the sign of m < 0 that the diagonal sets.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sx = np.sqrt(1.0 - x * x)
    diag = np.full(x.size, 1.0 / math.sqrt(4.0 * math.pi))
    prev = np.empty((0, x.size))  # no shell below l = 0: at l = 1 the l - 2 term is empty
    for l in range(_band(band_limit) + 1):
        shell = np.empty((2 * l + 1, x.size))
        if l:
            diag = -math.sqrt((2 * l + 1) / (2.0 * l)) * sx * diag
            m2 = (np.arange(1 - l, l) ** 2)[:, None]  # |m| < l
            inner = x * prev
            inner[1:-1] -= np.sqrt(((l - 1) ** 2 - m2[1:-1]) / (4.0 * (l - 1) ** 2 - 1)) * prev2
            shell[1:-1] = np.sqrt((4 * l * l - 1) / (l * l - m2)) * inner
        shell[0], shell[-1] = (-1) ** l * diag, diag
        yield shell
        prev2, prev = prev, shell


def ylm_point(band_limit, theta, phi):
    """Y_lm(theta, phi) at one point for every l <= band_limit, over the flat index.
    Any theta names the direction (sin theta cos phi, sin theta sin phi, cos theta):
    the rows read only cos theta, so a negative sin theta turns phi by pi."""
    _, m_of = lm_arrays(band_limit)
    if math.sin(theta) < 0:
        phi = phi + math.pi
    rows = np.concatenate(list(_ylm_shells(band_limit, math.cos(theta))))
    return rows[:, 0] * np.exp(1j * m_of * phi)


def _nodes(band_limit):
    # Gauss-Legendre nodes x = cos(theta) in descending order, so theta ascends,
    # and the uniform phis.  x is a contiguous copy: numpy's vectorised arccos
    # rounds a reversed view differently in the last digit.
    band_limit = _band(band_limit)
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
    L = _band(band_limit)
    x, phis = _nodes(L)
    c = np.asarray(c, dtype=complex)
    band = band_limit_of(c.size)
    if band > L:
        raise ValueError(f"coefficient band {band} exceeds grid band {L}")
    g = np.zeros((2 * L + 1, x.size), dtype=complex)
    for l, shell in enumerate(_ylm_shells(band, x)):  # (m = -l..l, n_theta)
        g[L - l: L + l + 1] += c[l * l: (l + 1) ** 2, None] * shell
    return g.T @ np.exp(1j * np.outer(np.arange(-L, L + 1), phis))


def _csr(data, rows, cols, n):
    # n x n CSR matrix with sorted indices; zero entries are not stored
    keep = data != 0
    return sp.csr_matrix((data[keep], (rows[keep], cols[keep])), shape=(n, n))


def angular_operators(band_limit):
    """Angular-momentum differential operators (L1, L2, L3) on shells l <= L.

    Shell-diagonal, hence exact (no truncation loss).  CSR matrices.
    """
    l_of, m_of = lm_arrays(band_limit)
    n = l_of.size
    idx = np.arange(n)
    # L+ maps (l, m - 1) -> (l, m) with sqrt(l(l+1) - (m-1)m), which is 0 at m = -l
    lp = _csr(np.sqrt(l_of * (l_of + 1) - (m_of - 1) * m_of), idx, idx - 1, n)
    lm = lp.T.tocsr()
    l1 = ((lp + lm) / 2.0).astype(complex)
    l2 = ((lp - lm) / 2j).tocsr()
    l3 = sp.diags(m_of.astype(complex)).tocsr()
    return l1.tocsr(), l2, l3


def position_operators(band_limit):
    """Multiplication operators (M1, M2, M3) by m_i, band-limited.

    M3 couples (l, m) -> (l+-1, m), flat index idx + 2l + 2 and idx - 2l, by
    cos(theta) Y_lm = alpha1 Y_{l+1,m} + alpha2 Y_{l-1,m}; M1 = i[M3, L2] and
    M2 = -i[M3, L1], so entries below the diagonal are the steps l -> l+1.
    Transitions to shell L+1 are dropped: products of top-shell content are
    lossy.
    """
    L = band_limit
    l1, l2, _ = angular_operators(L)
    l_of, m_of = lm_arrays(L)
    n = l_of.size
    idx = np.arange(n)
    up = l_of < L
    down = np.abs(m_of) < l_of
    lu, mu, ld, md = l_of[up], m_of[up], l_of[down], m_of[down]
    alpha1 = np.sqrt((lu - mu + 1) * (lu + mu + 1) / ((2 * lu + 1) * (2 * lu + 3)))
    alpha2 = np.sqrt((ld - md) * (ld + md) / ((2 * ld - 1) * (2 * ld + 1)))
    rows = np.concatenate([idx[up] + 2 * lu + 2, idx[down] - 2 * ld])
    cols = np.concatenate([idx[up], idx[down]])
    m3 = _csr(np.concatenate([alpha1, alpha2]), rows, cols, n).astype(complex)
    m1 = (1j * (m3 @ l2 - l2 @ m3)).tocsr()
    m2 = (-1j * (m3 @ l1 - l1 @ m3)).tocsr()
    return m1, m2, m3


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

