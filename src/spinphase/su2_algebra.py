"""Exact SU(2) representation machinery.

Spin matrices and the diagonals of the orthonormal irreducible tensor
operators (Jacobi eigenvectors, no Clebsch-Gordan sum).  Spin labels are
carried as doubled integers (twice_s = 2S) so half-integer spins never touch
floating point.  The Racah-sum Clebsch-Gordan coefficients that
the tables are checked against live in tests/oracles.py.
"""

import functools
from dataclasses import dataclass

import numpy as np


def is_integer(value):
    """True for an integral number such as 3 or 3.0; False for a bool, NaN, an
    infinity, a string or anything else int() refuses or changes."""
    try:
        return not isinstance(value, (bool, np.bool_)) and value == int(value)
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class SpinContext:
    """Spin S stored as twice_s = 2S; everything downstream derives from it.

    hilbert_dim = 2S+1, band_limit = 2S (largest l carried by any symbol),
    symbol_dim = (2S+1)^2 (flat spherical-harmonic coefficient count).
    """

    twice_s: int

    def __post_init__(self):
        if not is_integer(self.twice_s):
            raise ValueError(f"twice_s must be an integer, got {self.twice_s!r}")
        object.__setattr__(self, "twice_s", int(self.twice_s))
        if self.twice_s < 1:
            raise ValueError("twice_s must be >= 1")

    @property
    def s(self):
        return self.twice_s / 2.0

    @property
    def hilbert_dim(self):
        return self.twice_s + 1

    @property
    def band_limit(self):
        return self.twice_s

    @property
    def symbol_dim(self):
        return (self.twice_s + 1) ** 2


def spin_matrices(ctx):
    """Spin matrices (S1, S2, S3) in the basis m = S, S-1, ..., -S."""
    n = ctx.hilbert_dim
    m = ctx.s - np.arange(n)
    s3 = np.diag(m).astype(complex)
    # S+|S,m> = sqrt(S(S+1) - m(m+1)) |S,m+1>; raising moves one row up
    up = np.sqrt(ctx.s * (ctx.s + 1) - m[1:] * (m[1:] + 1))
    sp = np.zeros((n, n), dtype=complex)
    sp[np.arange(n - 1), np.arange(1, n)] = up
    s1 = (sp + sp.conj().T) / 2
    s2 = (sp - sp.conj().T) / 2j
    return s1, s2, s3


@functools.lru_cache(maxsize=8)
def tensor_blocks(twice_s):
    """Diagonals of the orthonormal T_lm at 2S = twice_s: one read-only block per m.

    Block m + 2S holds np.diagonal(T_lm, m) in rows l = |m|..2S.  At fixed m
    (2m'+m) d_l(m') = A_{l+1} d_{l+1} + A_l d_{l-1}, A_l^2 = (l^2-m^2)
    ((2S+1)^2-l^2)/(4l^2-1): the block is the eigenvector matrix of that
    Jacobi matrix (Schulten & Gordon, J. Math. Phys. 16, 1961 (1975)),
    stable where the recursion is not.  Condon-Shortley: d_m has sign (-1)^m
    at m >= 0; a column's largest entry, at l = m + k, gets the sign of
    d_m prod_{i<k} e_i over the backward-stable Sturm sequence e_0 = 2m'+m,
    e_i = e_0 - A^2 / e_{i-1}, as computed entries near d_m can be too small
    to carry a sign.  At m < 0, d_l(-m') = (-1)^l d_l(m') at -m.
    """
    n = twice_s + 1
    blocks = {}
    for m in range(n):
        l = np.arange(m, n)
        a2 = (l[1:] ** 2 - m * m) * (n * n - l[1:] ** 2) / (4.0 * l[1:] ** 2 - 1)
        lam = twice_s + m - 2.0 * l  # 2m'+m at columns c = m..2S (m' = S - c)
        vec = np.linalg.eigh(np.diag(np.sqrt(a2), -1))[1][:, ::-1]  # reads the lower triangle
        k = np.argmax(np.abs(vec), axis=0)
        sign, e = (-1.0) ** m * np.sign(vec[k, np.arange(n - m)]), lam
        for i in range(k.max()):
            e = np.where(np.abs(e) < 1e-16, 1e-16, e)  # e_i and e_i+1 flip together
            sign = np.where(i < k, sign * np.sign(e), sign)
            e = lam - a2[i] / e
        blocks[m] = vec = vec * sign
        blocks[-m] = ((-1.0) ** l)[:, None] * vec[:, ::-1] if m else vec
        vec.flags.writeable = blocks[-m].flags.writeable = False
    return tuple(blocks[m] for m in range(-twice_s, n))
