"""The sphere grid the CLI writes on, and the coefficient-space operators."""

import csv
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import oracles
from spinphase import bopp, cli
from spinphase import sphere_ops as so
from spinphase import sw_transform as swt
from spinphase.su2_algebra import SpinContext


# --- explicit low-order harmonics as the evaluation oracle ------------------

def _ylm_explicit(l, m, theta, phi):
    st_, ct = math.sin(theta), math.cos(theta)
    e = complex(math.cos(m * phi), math.sin(m * phi))
    table = {
        (0, 0): math.sqrt(1 / (4 * math.pi)),
        (1, 0): math.sqrt(3 / (4 * math.pi)) * ct,
        (1, 1): -math.sqrt(3 / (8 * math.pi)) * st_,
        (2, 0): math.sqrt(5 / (16 * math.pi)) * (3 * ct**2 - 1),
        (2, 1): -math.sqrt(15 / (8 * math.pi)) * st_ * ct,
        (2, 2): math.sqrt(15 / (32 * math.pi)) * st_**2,
        (3, 0): math.sqrt(7 / (16 * math.pi)) * (5 * ct**3 - 3 * ct),
        (3, 3): -math.sqrt(35 / (64 * math.pi)) * st_**3,
    }
    if m >= 0:
        return table[(l, m)] * e
    return (-1.0) ** m * table[(l, -m)].conjugate() * e


def test_ylm_eval_matches_explicit_low_orders():
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(0, 2 * math.pi)
        for l, m in [(0, 0), (1, -1), (1, 0), (1, 1), (2, -2), (2, 0),
                     (2, 1), (2, 2), (3, 0), (3, -3), (3, 3)]:
            got = oracles.ylm_eval(l, m, theta, phi)
            assert got == pytest.approx(_ylm_explicit(l, m, theta, phi),
                                        abs=1e-13)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10), st.data(),
       st.floats(0.01, math.pi - 0.01), st.floats(0.0, 2 * math.pi))
def test_ylm_conjugation_symmetry(l, data, theta, phi):
    m = data.draw(st.integers(-l, l))
    a = oracles.ylm_eval(l, m, theta, phi)
    b = oracles.ylm_eval(l, -m, theta, phi)
    assert a == pytest.approx((-1.0) ** m * np.conj(b), abs=1e-12)


# --- index bookkeeping ------------------------------------------------------

@settings(deadline=None, max_examples=80)
@given(st.integers(0, 40), st.data())
def test_flat_index_round_trip(l, data):
    m = data.draw(st.integers(-l, l))
    idx = so.flat_index(l, m)
    ls, ms = so.lm_arrays(40)
    assert (ls[idx], ms[idx]) == (l, m)


def test_num_coefficients_and_band_limit_of():
    for L in range(0, 12):
        n = so.num_coefficients(L)
        assert n == (L + 1) ** 2
        assert so.band_limit_of(n) == L
    with pytest.raises(ValueError):
        so.band_limit_of(5)  # not a perfect square


# --- the grid and its quadrature oracle -------------------------------------

def test_grid_weights_and_node_layout():
    """The oracle's quadrature sits on the points the library writes, and its
    weights add up to the solid angle."""
    thetas, phis = so.grid_points(6)
    ref_thetas, ref_phis, weights = oracles.quadrature(6)
    np.testing.assert_allclose(thetas, ref_thetas, rtol=0, atol=1e-15)
    assert np.array_equal(phis, ref_phis)
    assert np.sum(weights) * phis.size == pytest.approx(4 * math.pi, abs=1e-13)
    ones = np.ones((7, 14))
    assert oracles.sphere_integral(6, ones) == pytest.approx(4 * math.pi, abs=1e-13)


@pytest.mark.parametrize("band", [0, 1, 7, 20])
def test_grid_points_are_gauss_legendre_thetas_and_uniform_phis(band):
    """L+1 ascending thetas whose cosines are the Gauss-Legendre nodes, and
    2L+2 phis 2 pi k / (2L+2) from 0."""
    thetas, phis = so.grid_points(band)
    assert thetas.shape == (band + 1,) and phis.shape == (2 * band + 2,)
    assert np.all(np.diff(thetas) > 0) and np.all((thetas > 0) & (thetas < math.pi))
    nodes = np.polynomial.legendre.leggauss(band + 1)[0]
    np.testing.assert_allclose(np.cos(thetas), nodes[::-1], rtol=0, atol=1e-15)
    assert phis[0] == 0.0
    np.testing.assert_allclose(phis, 2 * math.pi * np.arange(phis.size) / phis.size,
                               rtol=1e-15, atol=0)


@pytest.mark.parametrize("band", [0, 1, 7, 20])
def test_grid_values_match_the_scipy_synthesis(band):
    """grid_values, from the library's Legendre recurrence, against the sum of
    c_lm Y_lm from scipy's harmonics, for coefficients of the full band and of
    a lower one."""
    rng = np.random.default_rng(band)
    for n in {so.num_coefficients(band), so.num_coefficients(band // 2)}:
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = so.grid_values(band, c)
        assert got.shape == (band + 1, 2 * band + 2)
        np.testing.assert_allclose(got, oracles.synthesize(band, c), rtol=0, atol=1e-13)


@pytest.mark.parametrize("band", [0, 1, 7, 40])
def test_ylm_point_matches_the_scipy_harmonics(band):
    """ylm_point, from the library's recurrence on the flat index, against
    scipy's harmonics at both poles and at random points."""
    l, m = np.array([(l, m) for l in range(band + 1) for m in range(-l, l + 1)]).T
    rng = np.random.default_rng(band)
    points = [(0.0, 0.7), (math.pi, 2.1)] + list(
        zip(rng.uniform(0, math.pi, 5), rng.uniform(0, 2 * math.pi, 5)))
    for theta, phi in points:
        np.testing.assert_allclose(so.ylm_point(band, theta, phi),
                                   oracles.ylm_eval(l, m, theta, phi), rtol=0, atol=1e-13)


def test_quadrature_orthonormality_of_harmonics():
    L = 6
    thetas, phis, _ = oracles.quadrature(L)
    th = thetas[:, None]
    ph = phis[None, :]
    for la, ma in [(0, 0), (1, 1), (2, -1), (3, 2), (5, -4), (6, 6)]:
        ya = oracles.ylm_eval(la, ma, th, ph)
        for lb, mb in [(0, 0), (1, 1), (2, -1), (4, 0), (6, 6)]:
            yb = oracles.ylm_eval(lb, mb, th, ph)
            want = 1.0 if (la, ma) == (lb, mb) else 0.0
            assert oracles.sphere_integral(L, np.conj(ya) * yb) == pytest.approx(want,
                                                                                  abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 9), st.integers(0, 2**31 - 1))
def test_analysis_inverts_synthesis(L, seed):
    """The scipy quadrature recovers the coefficients from grid_values."""
    rng = np.random.default_rng(seed)
    n = so.num_coefficients(L)
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    np.testing.assert_allclose(oracles.analyze(L, so.grid_values(L, c)), c, atol=1e-11)


def test_synthesize_rejects_coefficients_beyond_band():
    with pytest.raises(ValueError, match="coefficient band 4 exceeds grid band 3"):
        so.grid_values(3, np.zeros(so.num_coefficients(4), dtype=complex))
    with pytest.raises(ValueError, match="not a square"):
        so.grid_values(3, np.zeros(5, dtype=complex))
    for band in (-1, -2):
        with pytest.raises(ValueError, match="band_limit must be >= 0"):
            so.grid_points(band)


# --- coefficient-space operators ---------------------------------------------

def test_angular_operators_su2_algebra():
    L = 7
    l1, l2, l3 = (op.toarray() for op in so.angular_operators(L))
    np.testing.assert_allclose(l1 @ l2 - l2 @ l1, 1j * l3, atol=1e-13)
    np.testing.assert_allclose(l2 @ l3 - l3 @ l2, 1j * l1, atol=1e-13)
    ls, ms = so.lm_arrays(L)
    np.testing.assert_allclose(l1 @ l1 + l2 @ l2 + l3 @ l3, np.diag(ls * (ls + 1.0)),
                               atol=1e-12)
    np.testing.assert_allclose(np.diag(l3), ms, atol=1e-14)
    for op in (l1, l2, l3):
        np.testing.assert_allclose(op, op.conj().T, atol=1e-13)


def test_position_operator_m3_matches_quadrature_oracle():
    """Entries of the cos(theta) multiplication operator from raw integrals."""
    L = 5
    m3 = so.position_operators(L)[2].toarray()
    thetas, phis, _ = oracles.quadrature(L + 1)
    th = thetas[:, None]
    ph = phis[None, :]
    for la in range(L + 1):
        for lb in range(L + 1):
            for m in range(-min(la, lb), min(la, lb) + 1):
                ya = oracles.ylm_eval(la, m, th, ph)
                yb = oracles.ylm_eval(lb, m, th, ph)
                ref = oracles.sphere_integral(L + 1, np.conj(ya) * np.cos(th) * yb)
                if max(la, lb) == L and min(la, lb) == L:
                    continue  # top-shell to top-shell entries are truncated
                got = m3[so.flat_index(la, m), so.flat_index(lb, m)]
                assert got == pytest.approx(ref, abs=1e-12)


def test_position_operators_commute_and_sum_to_identity_in_interior():
    L = 8
    ops = [op.toarray() for op in so.position_operators(L)[:3]]
    n_in = so.num_coefficients(L - 2)
    total = sum(op @ op for op in ops)[:n_in, :n_in]
    np.testing.assert_allclose(total, np.eye(n_in), atol=1e-12)
    for a in range(3):
        for b in range(a + 1, 3):
            comm = (ops[a] @ ops[b] - ops[b] @ ops[a])[:n_in, :n_in]
            np.testing.assert_allclose(comm, 0, atol=1e-12)


def test_position_operators_are_vector_under_rotations():
    L = 8
    m_ops = [op.toarray() for op in so.position_operators(L)[:3]]
    l_ops = [op.toarray() for op in so.angular_operators(L)]
    n_in = so.num_coefficients(L - 1)
    eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    for (a, b), c in eps.items():
        comm = (l_ops[a] @ m_ops[b] - m_ops[b] @ l_ops[a])[:n_in, :n_in]
        np.testing.assert_allclose(comm, 1j * m_ops[c][:n_in, :n_in],
                                   atol=1e-12)


def test_k_operators_equal_m_cross_l():
    """The oracle's K_i, from the sin(theta) d/dtheta couplings, is i(m x L)_i
    over the sphere's M and L, and equals (1/2)[L^2, M_i] - M_i: it weights the
    step l -> l+1 of M_i by l and the step l -> l-1 by -(l+1), which is the
    form bopp_matrices folds into its shell-step weights."""
    L = 7
    m1, m2, m3 = (op.toarray() for op in so.position_operators(L))
    k1, k2, k3 = (op.toarray() for op in oracles.k_operators(L))
    l1, l2, l3 = (op.toarray() for op in so.angular_operators(L))
    np.testing.assert_allclose(k1, 1j * (m2 @ l3 - m3 @ l2), atol=1e-13)
    np.testing.assert_allclose(k2, 1j * (m3 @ l1 - m1 @ l3), atol=1e-13)
    np.testing.assert_allclose(k3, 1j * (m1 @ l2 - m2 @ l1), atol=1e-13)
    casimir = l1 @ l1 + l2 @ l2 + l3 @ l3
    for m_op, k_op in zip((m1, m2, m3), (k1, k2, k3)):
        np.testing.assert_allclose(k_op, 0.5 * (casimir @ m_op - m_op @ casimir) - m_op,
                                   atol=1e-12)


def test_conjugation_matrix_properties():
    L = 6
    p = so.conjugation_matrix(L)
    n = so.num_coefficients(L)
    np.testing.assert_allclose((p @ p).toarray(), np.eye(n), atol=0)
    l1, l2, l3 = so.angular_operators(L)
    m_ops = so.position_operators(L)
    for op in (l1, l2, l3):
        np.testing.assert_allclose(
            oracles.conjugated_operator(op.toarray(), L), -op.toarray(), atol=1e-13)
    for op in m_ops:
        np.testing.assert_allclose(
            oracles.conjugated_operator(op.toarray(), L), op.toarray(), atol=1e-13)


def test_conjugated_operator_keeps_the_format_of_its_operand():
    """P conj(O) P is CSR for a sparse operator and an array for a dense one,
    with the same entries: P is a signed permutation, so each is one product."""
    L = 4
    n = so.num_coefficients(L)
    rng = np.random.default_rng(5)
    op = (sp.random(n, n, density=0.2, format="csr", random_state=rng)
          + 1j * sp.random(n, n, density=0.2, format="csr", random_state=rng))
    sparse = oracles.conjugated_operator(op, L)
    dense = oracles.conjugated_operator(op.toarray(), L)
    assert sp.issparse(sparse) and sparse.format == "csr"
    assert type(dense) is np.ndarray
    assert np.array_equal(sparse.toarray(), dense)
    p = so.conjugation_matrix(L).toarray()
    assert np.array_equal(dense, p @ op.toarray().conj() @ p)


def _reference_operators(L):
    """L1, L2, L3, M1..M3 and P filled one (l, m) at a time, with the
    couplings written out here: the entry-by-entry oracle for the closed forms."""
    n = so.num_coefficients(L)

    def idx(l, m):
        return l * l + l + m

    lp, m3, p = (sp.lil_matrix((n, n)) for _ in range(3))
    for l in range(L + 1):
        for m in range(-l, l + 1):
            p[idx(l, m), idx(l, -m)] = (-1.0) ** m
            if m < l:
                lp[idx(l, m + 1), idx(l, m)] = math.sqrt(l * (l + 1) - m * (m + 1))
            if l + 1 <= L:
                a1 = math.sqrt((l - m + 1) * (l + m + 1) / ((2 * l + 1) * (2 * l + 3)))
                m3[idx(l + 1, m), idx(l, m)] = a1
            if abs(m) <= l - 1:
                a2 = math.sqrt((l - m) * (l + m) / ((2 * l - 1) * (2 * l + 1)))
                m3[idx(l - 1, m), idx(l, m)] = a2
    lp = lp.tocsr()
    lm = lp.T.tocsr()
    l1 = ((lp + lm) / 2.0).astype(complex).tocsr()
    l2 = ((lp - lm) / 2j).tocsr()
    ms = np.array([m for l in range(L + 1) for m in range(-l, l + 1)])
    l3 = sp.diags(ms.astype(complex)).tocsr()
    m3 = m3.tocsr().astype(complex)
    m_ops = ((1j * (m3 @ l2 - l2 @ m3)).tocsr(), (-1j * (m3 @ l1 - l1 @ m3)).tocsr(), m3)
    return (l1, l2, l3), m_ops, p.tocsr().astype(complex)


def _assert_same_entries(got, ref):
    got, ref = got.tocsr().sorted_indices(), ref.tocsr().sorted_indices()
    assert got.shape == ref.shape and got.nnz == ref.nnz
    np.testing.assert_array_equal(got.indptr, ref.indptr)
    np.testing.assert_array_equal(got.indices, ref.indices)
    np.testing.assert_array_equal(got.data, ref.data)


@pytest.mark.parametrize("twice_s", [1, 2, 7, 16])
def test_closed_form_operators_match_the_per_entry_reference(twice_s):
    ref_l, ref_m, ref_p = _reference_operators(twice_s)
    for got, ref in zip(so.angular_operators(twice_s), ref_l):
        _assert_same_entries(got, ref)
    for got, ref in zip(so.position_operators(twice_s), ref_m, strict=True):
        _assert_same_entries(got, ref)
    _assert_same_entries(so.conjugation_matrix(twice_s), ref_p)


def test_operator_real_imag_split_reassembles():
    rng = np.random.default_rng(3)
    L = 4
    n = so.num_coefficients(L)
    op = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    re = oracles.operator_real(op, L)
    im = oracles.operator_imag(op, L)
    np.testing.assert_allclose(re + 1j * im, op, atol=1e-14)
    # both parts map real symbols to real symbols
    for part in (re, im):
        np.testing.assert_allclose(oracles.conjugated_operator(part, L), part,
                                   atol=1e-13)


def test_real_symbols_detected_from_real_grid_functions():
    L = 5
    thetas, phis, _ = oracles.quadrature(L)
    vals = np.cos(thetas)[:, None] * np.sin(phis)[None, :] ** 2
    c = oracles.analyze(L, vals.astype(complex))
    assert oracles.is_real_symbol(c, 1e-12)
    c[so.flat_index(2, 1)] += 0.1
    assert not oracles.is_real_symbol(c, 1e-12)


def test_apply_conjugation_matches_pointwise_conjugate():
    L = 4
    rng = np.random.default_rng(8)
    n = so.num_coefficients(L)
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    np.testing.assert_allclose(so.grid_values(L, so.apply_conjugation(c)),
                               np.conj(so.grid_values(L, c)), atol=1e-12)


# --- CSV output ---------------------------------------------------------------

def test_symbol_grid_csv_round_trips_values(tmp_path):
    """`symbol` writes the synthesized values of S+ = S1 + i S2 (complex, with
    coefficients up to l = 2S = 3) on a grid of a higher band, exactly."""
    L = 5
    thetas, phis = so.grid_points(L)
    expr = [[1.0, [1]], [[0.0, 1.0], [2]]]
    ctx = SpinContext(3)
    mat = bopp.expression_to_matrix([(1.0, (1,)), (1j, (2,))], ctx)
    vals = so.grid_values(L, swt.operator_to_symbol(mat, 0.0, ctx))
    cfg = {"spin": {"twice_s": 3}, "operator": {"expression": expr},
           "grid": {"band_limit": L}, "outputs": {"grid": "grid.csv"}}
    (tmp_path / "s.json").write_text(json.dumps(cfg))
    assert cli.main(["symbol", "--config", str(tmp_path / "s.json"),
                     "--out", str(tmp_path)]) == 0
    with open(tmp_path / "grid.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "phi", "value_re", "value_im"]
    assert len(rows) == 1 + thetas.size * phis.size
    k = 1
    for i in range(thetas.size):
        for j in range(phis.size):
            assert float(rows[k][0]) == thetas[i]
            assert float(rows[k][1]) == phis[j]
            assert float(rows[k][2]) == vals[i, j].real
            assert float(rows[k][3]) == vals[i, j].imag
            k += 1
