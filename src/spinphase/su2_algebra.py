"""Exact SU(2) representation machinery.

Log-domain factorials, Clebsch-Gordan coefficients (Condon-Shortley; the
Racah sum, kept as the reference for the tables), spin matrices, the
diagonals of the orthonormal irreducible tensor operators, and z-axis
rotations.  Spin labels are carried as doubled integers (twice_s = 2S)
so half-integer spins never touch floating point.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class SpinContext:
    """Spin S stored as twice_s = 2S; everything downstream derives from it.

    hilbert_dim = 2S+1, band_limit = 2S (largest l carried by any symbol),
    symbol_dim = (2S+1)^2 (flat spherical-harmonic coefficient count).
    """

    twice_s: int

    def __post_init__(self):
        if isinstance(self.twice_s, bool) or self.twice_s != int(self.twice_s):
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
    pairs.  Evaluated by the Racah sum with log-domain factorials.
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


def tensor_operator(ctx, l, m):
    """Orthonormal irreducible tensor operator T_lm, Tr(T_l'm'^dag T_lm) = delta delta.

    T_lm = sqrt((2l+1)/(2S+1)) sum_m' <S,m'; l,m | S,m'+m> |S,m'+m><S,m'|.
    Nonzero entries sit on the single diagonal row = col - m; they are read
    from tensor_blocks.
    """
    if l != int(l) or not 0 <= l <= ctx.twice_s:
        raise ValueError(f"l must be an integer in [0, 2S], got {l!r}")
    if m != int(m) or abs(m) > l:
        raise ValueError(f"m must be an integer with |m| <= l, got {m!r}")
    l, m = int(l), int(m)
    return np.diag(tensor_blocks(ctx.twice_s)[ctx.twice_s + m][l - abs(m)], m).astype(complex)


def rotation_z(ctx, angle):
    """exp(-i angle S3), diagonal in the standard basis."""
    m = ctx.s - np.arange(ctx.hilbert_dim)
    return np.diag(np.exp(-1j * angle * m))
