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


def _ylm_rows(band_limit, x):
    """Y_lm(theta, phi = 0) over the flat index (rows) at x = cos(theta) (columns).

    Fully normalized associated Legendre values P_l|m|(x), with 1/sqrt(4pi), the
    Condon-Shortley phase and (-1)^m for m < 0, by the standard stable
    recurrences: the diagonal l = |m|, the first off-diagonal l = |m| + 1, then
    upward in l at every m of shell l from rows idx - 2l (shell l - 1) and
    idx - 4l + 2 (shell l - 2).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    band_limit = _band(band_limit)
    _, m_of = lm_arrays(band_limit)
    rows = np.empty((m_of.size, x.size))
    m = np.arange(band_limit + 1)
    sx = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    diag = np.cumprod(np.vstack([np.full((1, x.size), 1.0 / math.sqrt(4.0 * math.pi)),
                                 -np.sqrt((2 * m[1:] + 1) / (2.0 * m[1:]))[:, None] * sx]),
                      axis=0)
    rows[m * m] = rows[m * m + 2 * m] = diag  # (m, -m) and (m, m)
    m = m[:-1]
    rows[m * m + 2 * m + 2] = rows[m * m + 4 * m + 2] = (  # (m + 1, -m) and (m + 1, m)
        np.sqrt(2 * m + 3)[:, None] * x * diag[:-1])
    for l in range(2, band_limit + 1):
        idx = np.arange(l * l + 2, l * l + 2 * l - 1)  # m = 2 - l .. l - 2
        m2 = ((idx - l * l - l) ** 2)[:, None]
        a = np.sqrt((4 * l * l - 1) / (l * l - m2))
        b = np.sqrt(((l - 1) ** 2 - m2) / (4.0 * (l - 1) ** 2 - 1))
        rows[idx] = a * (x * rows[idx - 2 * l] - b * rows[idx - 4 * l + 2])
    return (-1.0) ** np.minimum(m_of, 0)[:, None] * rows


def ylm_point(band_limit, theta, phi):
    """Y_lm(theta, phi) at one point for every l <= band_limit, over the flat index.
    Any theta names the direction (sin theta cos phi, sin theta sin phi, cos theta):
    the rows read only cos theta, so a negative sin theta turns phi by pi."""
    _, m_of = lm_arrays(band_limit)
    if math.sin(theta) < 0:
        phi = phi + math.pi
    return _ylm_rows(band_limit, math.cos(theta))[:, 0] * np.exp(1j * m_of * phi)


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
    rows = _ylm_rows(L, x)  # (flat lm, n_theta)
    _, m_of = lm_arrays(L)
    g = np.zeros((2 * L + 1, x.size), dtype=complex)
    np.add.at(g, L + m_of[: c.size], c[:, None] * rows[: c.size])  # in order of l
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

