"""Coupling coefficients and spin operators against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import clebsch_gordan, is_hermitian, rotation_z, tensor_operator
from spinphase.su2_algebra import SpinContext, spin_matrices, tensor_blocks


# --- oracle: couple two spins by explicit diagonalization ------------------
#
# Independent of the package code on purpose: raw ladder matrices, highest
# states from the kernel of J+, phases fixed by the standard convention that
# the coefficient at maximal m1 is positive, lower states by applying J-.

def _jmat(two_j):
    n = two_j + 1
    j = two_j / 2.0
    ms = (two_j - 2 * np.arange(n)) / 2.0
    jp = np.zeros((n, n))
    for k in range(1, n):
        m = ms[k]
        jp[k - 1, k] = math.sqrt(j * (j + 1) - m * (m + 1))
    jz = np.diag(ms)
    return jz, jp


def _cg_table_bruteforce(two_j1, two_j2):
    n1, n2 = two_j1 + 1, two_j2 + 1
    z1, p1 = _jmat(two_j1)
    z2, p2 = _jmat(two_j2)
    jz = np.kron(z1, np.eye(n2)) + np.kron(np.eye(n1), z2)
    jp = np.kron(p1, np.eye(n2)) + np.kron(np.eye(n1), p2)
    jm = jp.T
    mz = np.round(2 * np.diag(jz)).astype(int)  # doubled M per product state

    table = {}
    for two_j in range(two_j1 + two_j2, abs(two_j1 - two_j2) - 1, -2):
        j = two_j / 2.0
        cols = np.nonzero(mz == two_j)[0]
        block = jp[:, cols]
        _, sv, vt = np.linalg.svd(block)
        null = vt.conj()[-1]
        if block.shape[1] > 1:
            assert sv[-1] < 1e-12 and sv[-2] > 1e-6  # 1-dim kernel per slice
        vec = np.zeros(n1 * n2)
        vec[cols] = null.real
        # maximal m1 present in this slice sits at the smallest product index
        if vec[cols[0]] < 0:
            vec = -vec
        table[(two_j, two_j)] = vec
        for two_m in range(two_j, -two_j, -2):
            m = two_m / 2.0
            down = jm @ table[(two_j, two_m)]
            table[(two_j, two_m - 2)] = down / math.sqrt(
                j * (j + 1) - m * (m - 1))
    return table


def _oracle_cg(two_j1, two_m1, two_j2, two_m2, two_j, two_m, table):
    if (two_m1 + two_m2) != two_m:
        return 0.0
    i1 = (two_j1 - two_m1) // 2
    i2 = (two_j2 - two_m2) // 2
    return table[(two_j, two_m)][i1 * (two_j2 + 1) + i2]


@pytest.mark.parametrize("two_j1", range(0, 7))
@pytest.mark.parametrize("two_j2", range(0, 7))
def test_clebsch_gordan_matches_bruteforce_coupling(two_j1, two_j2):
    table = _cg_table_bruteforce(two_j1, two_j2)
    for two_j in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2):
        for two_m in range(-two_j, two_j + 1, 2):
            for two_m1 in range(-two_j1, two_j1 + 1, 2):
                two_m2 = two_m - two_m1
                if abs(two_m2) > two_j2:
                    continue
                got = clebsch_gordan(two_j1, two_m1, two_j2, two_m2,
                                     two_j, two_m)
                ref = _oracle_cg(two_j1, two_m1, two_j2, two_m2,
                                 two_j, two_m, table)
                assert got == pytest.approx(ref, abs=1e-12)


def test_clebsch_gordan_selection_rules_return_zero():
    assert clebsch_gordan(2, 0, 2, 0, 2, 2) == 0.0          # M != m1+m2
    assert clebsch_gordan(2, 2, 2, 2, 8, 4) == 0.0          # triangle
    assert clebsch_gordan(4, 0, 2, 0, 4, 0) == 0.0          # odd l1+l2+l at m=0
    assert clebsch_gordan(2, 0, 2, 0, 2, 0) == 0.0          # vanishing 1x1->1


def test_clebsch_gordan_rejects_invalid_angular_momenta():
    with pytest.raises(ValueError):
        clebsch_gordan(-2, 0, 2, 0, 2, 0)
    with pytest.raises(ValueError):
        clebsch_gordan(2, 1, 2, 0, 2, 1)   # two_j + two_m odd
    with pytest.raises(ValueError):
        clebsch_gordan(2, 4, 2, 0, 4, 4)   # |m| > j


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_clebsch_gordan_orthogonality_rows(two_j1, two_j2, data):
    """Sum over (m1, m2) of products for two (j, m) pairs is a delta."""
    choices = [(two_j, two_m)
               for two_j in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2)
               for two_m in range(-two_j, two_j + 1, 2)]
    a = data.draw(st.sampled_from(choices))
    b = data.draw(st.sampled_from(choices))
    total = 0.0
    for two_m1 in range(-two_j1, two_j1 + 1, 2):
        two_m2a = a[1] - two_m1
        two_m2b = b[1] - two_m1
        if abs(two_m2a) > two_j2 or two_m2a != two_m2b:
            continue
        total += (clebsch_gordan(two_j1, two_m1, two_j2, two_m2a, *a)
                  * clebsch_gordan(two_j1, two_m1, two_j2, two_m2b, *b))
    assert total == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_clebsch_gordan_reflection_symmetry(two_j1, two_j2, data):
    two_j = data.draw(st.sampled_from(
        range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2)))
    two_m = data.draw(st.sampled_from(range(-two_j, two_j + 1, 2)))
    two_m1 = data.draw(st.sampled_from(range(-two_j1, two_j1 + 1, 2)))
    two_m2 = two_m - two_m1
    if abs(two_m2) > two_j2:
        return
    sign = (-1.0) ** ((two_j1 + two_j2 - two_j) // 2)
    direct = clebsch_gordan(two_j1, two_m1, two_j2, two_m2, two_j, two_m)
    flipped = clebsch_gordan(two_j1, -two_m1, two_j2, -two_m2, two_j, -two_m)
    assert direct == pytest.approx(sign * flipped, abs=1e-12)


# --- spin context and operators --------------------------------------------

def test_spin_context_validates_and_exposes_dimensions():
    ctx = SpinContext(3)
    assert ctx.s == 1.5
    assert ctx.hilbert_dim == 4
    assert ctx.band_limit == 3
    assert ctx.symbol_dim == 16
    for bad in (0, -2, 1.5, "3"):
        with pytest.raises((ValueError, TypeError)):
            SpinContext(bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64("nan"), True,
                                 np.True_, 2 + 0j, None, "3"])
def test_spin_context_refuses_a_non_integer_with_its_own_error(bad):
    """An infinite or NaN twice_s is named by SpinContext, not left to int()'s
    OverflowError or NaN message; so are bools, complex numbers and strings."""
    with pytest.raises(ValueError, match="twice_s must be an integer"):
        SpinContext(bad)


@pytest.mark.parametrize("twice_s", [1, 2, 3, 5, 8, 20])
def test_spin_matrices_algebra(twice_s):
    ctx = SpinContext(twice_s)
    s1, s2, s3 = spin_matrices(ctx)
    eye = np.eye(ctx.hilbert_dim)
    np.testing.assert_allclose(s1 @ s2 - s2 @ s1, 1j * s3, atol=1e-13 * twice_s)
    np.testing.assert_allclose(s2 @ s3 - s3 @ s2, 1j * s1, atol=1e-13 * twice_s)
    np.testing.assert_allclose(s3 @ s1 - s1 @ s3, 1j * s2, atol=1e-13 * twice_s)
    np.testing.assert_allclose(s1 @ s1 + s2 @ s2 + s3 @ s3,
                               ctx.s * (ctx.s + 1) * eye,
                               atol=1e-12 * twice_s)
    for op in (s1, s2, s3):
        assert is_hermitian(op, 1e-14)
    np.testing.assert_allclose(np.diag(s3), ctx.s - np.arange(ctx.hilbert_dim))


def test_rotation_z_is_unitary_and_rotates_transverse_spin():
    ctx = SpinContext(2)
    s1, s2, s3 = spin_matrices(ctx)
    ang = 0.73
    u = rotation_z(ctx, ang)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(u @ s3 @ u.conj().T, s3, atol=1e-14)
    rotated = u @ s1 @ u.conj().T
    np.testing.assert_allclose(rotated, math.cos(ang) * s1 + math.sin(ang) * s2,
                               atol=1e-14)


@pytest.mark.parametrize("twice_s", [1, 2, 3, 4, 5])
def test_tensor_operators_orthonormal_under_trace(twice_s):
    ctx = SpinContext(twice_s)
    ops = {(l, m): tensor_operator(ctx, l, m)
           for l in range(twice_s + 1) for m in range(-l, l + 1)}
    for (l, m), t in ops.items():
        for (lp, mp), tp in ops.items():
            want = 1.0 if (l, m) == (lp, mp) else 0.0
            assert np.trace(t.conj().T @ tp) == pytest.approx(want, abs=1e-13)


def test_tensor_operator_adjoint_and_unit_element():
    ctx = SpinContext(4)
    n = ctx.hilbert_dim
    np.testing.assert_allclose(tensor_operator(ctx, 0, 0),
                               np.eye(n) / math.sqrt(n), atol=1e-15)
    for l in range(ctx.band_limit + 1):
        for m in range(-l, l + 1):
            t = tensor_operator(ctx, l, m)
            np.testing.assert_allclose(
                t.conj().T, (-1.0) ** m * tensor_operator(ctx, l, -m),
                atol=1e-14)


def test_tensor_operator_is_a_single_diagonal():
    ctx = SpinContext(3)
    t = tensor_operator(ctx, 2, -1)
    rows, cols = np.nonzero(np.abs(t) > 1e-15)
    assert np.all(rows == cols + 1)  # row = col - m


def test_tensor_operator_rejects_out_of_band_labels():
    ctx = SpinContext(2)
    with pytest.raises(ValueError):
        tensor_operator(ctx, 3, 0)
    with pytest.raises(ValueError):
        tensor_operator(ctx, 1, 2)


# --- T_lm tables: Jacobi eigenvectors against the Racah sum and the algebra --

@pytest.mark.parametrize("twice_s", range(1, 17))
def test_tensor_blocks_match_the_racah_sum(twice_s):
    """Every diagonal entry, signs included, at small S where the Racah sum
    is still exact to rounding."""
    n = twice_s + 1
    for m, block in zip(range(-twice_s, n), tensor_blocks(twice_s)):
        cols = np.arange(max(0, m), n + min(0, m))
        assert block.shape == (n - abs(m), cols.size)
        for row, l in enumerate(range(abs(m), n)):
            norm = math.sqrt((2 * l + 1) / n)
            want = [norm * clebsch_gordan(twice_s, twice_s - 2 * c, 2 * l, 2 * m,
                                          twice_s, twice_s - 2 * c + 2 * m)
                    for c in cols]
            np.testing.assert_allclose(block[row], want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("twice_s", [80, 81, 160])
def test_tensor_blocks_orthonormal_at_large_spin(twice_s):
    """Tr(T_l'm^dag T_lm) = delta_ll' within each m; different m never overlap."""
    for block in tensor_blocks(twice_s):
        assert not block.flags.writeable
        assert np.max(np.abs(block @ block.T - np.eye(block.shape[0]))) <= 1e-12


def _padded_diagonals(blocks, m):
    # D[l, c] = T_lm[c - m, c] for every l and column c, zero where absent,
    # with one more zero column so that D[:, c + 1] exists at the last c;
    # blocks are tensor_blocks(2S), built once by the caller
    twice_s = len(blocks) // 2
    n = twice_s + 1
    d = np.zeros((n, n + 1))
    block = blocks[twice_s + m]
    d[abs(m):, max(0, m):max(0, m) + block.shape[1]] = block
    return d


@pytest.mark.parametrize("twice_s", [81, 160])
def test_tensor_blocks_obey_the_ladder_relation(twice_s):
    """[S-, T_lm] = sqrt((l+m)(l-m+1)) T_l,m-1 for every l and m.

    A flipped sign in one column of a block leaves orthonormality and the
    symbol round trip intact; this relation between neighbouring blocks
    catches it.  On diagonals: [S-, T_lm][c-m+1, c] =
    s(c-m) T_lm[c-m, c] - s(c) T_lm[c-m+1, c+1], s(c) = S-[c+1, c].
    """
    ctx = SpinContext(twice_s)
    s1, s2, _ = spin_matrices(ctx)
    n = ctx.hilbert_dim
    s_minus = np.append(np.diagonal(s1 - 1j * s2, -1).real, 0.0)
    c = np.arange(n)
    l = np.arange(n)[:, None]
    blocks = tensor_blocks(twice_s)
    worst = 0.0
    for m in range(-twice_s + 1, twice_s + 1):
        d = _padded_diagonals(blocks, m)
        shifted = np.where((c >= m) & (c - m < n), s_minus[np.clip(c - m, 0, n - 1)], 0.0)
        comm = shifted * d[:, :n] - s_minus * d[:, 1:]
        coef = np.sqrt(np.clip((l + m) * (l - m + 1), 0, None))
        worst = max(worst, np.max(np.abs(comm - coef * _padded_diagonals(blocks, m - 1)[:, :n])))
    assert worst <= 1e-13 * n
