"""Phase-space multiplication operators and their shell tables."""

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import oracles
from spinphase import bopp
from spinphase import sphere_ops as so
from spinphase import sw_transform as swt
from spinphase.su2_algebra import SpinContext, spin_matrices

SIGMAS = (-1.0, 0.0, 1.0)


# --- shell tables -----------------------------------------------------------

@pytest.mark.parametrize("twice_s", [1, 2, 7, 40, 1000])
@pytest.mark.parametrize("sigma", [-1.0, -0.5, 0.0, 0.3, 0.99])
def test_top_shell_closes_upward(twice_s, sigma):
    """For sigma < 1, F(2S)/F(2S+1) = 0 leaves only the downward term at l = 2S:
    f1 = 2S down / (2(4S+1)) and f2 = -down / (2(4S+1))."""
    f1, f2 = (f[twice_s] for f in bopp.bopp_coefficients(SpinContext(twice_s), sigma))
    assert f2 < 0
    assert abs(f1 + twice_s * f2) <= 4e-16 * f1


def _decimal_tables(twice_s, sigma, l):
    """(f1, f2) at shell l from their defining powers, in 50-digit decimal.

    up = (N-l)^(e/2) (N+l+2)^(1-e/2), down = (N+l+1)^(e/2) (N+1-l)^(1-e/2),
    N = 2S, e = 1 - sigma; f1 = (up (l+1) + down l)/(2(2l+1)),
    f2 = (up - down)/(2(2l+1)).  At 50 digits the difference up - down
    keeps over 35 of them up to 2S = 10^5.
    """
    def power(x, y):  # 0^0 = 1: at sigma = 1 the top shell's up is N+l+2
        if y == 0:
            return Decimal(1)
        return Decimal(0) if x == 0 else (y * x.ln()).exp()

    with localcontext() as dec:
        dec.prec = 50
        n, l, e = Decimal(twice_s), Decimal(l), 1 - Decimal(sigma)
        up = power(n - l, e / 2) * power(n + l + 2, 1 - e / 2)
        down = power(n + l + 1, e / 2) * power(n + 1 - l, 1 - e / 2)
        return (up * (l + 1) + down * l) / (4 * l + 2), (up - down) / (4 * l + 2)


@pytest.mark.parametrize("twice_s", [1, 2, 7, 40, 1000, 100000])
@pytest.mark.parametrize("sigma", [-1.0, -0.5, 0.0, 0.3, 1.0])
def test_tables_match_decimal_reference(twice_s, sigma):
    """Relative error <= 1e-15 at every S: f2 is O(1/S), a difference of two
    O(S) terms, so forming it as one loses about eps S^2."""
    f1, f2 = bopp.bopp_coefficients(SpinContext(twice_s), sigma)
    for l in sorted({0, 1, 2, twice_s - 1, twice_s} & set(range(twice_s + 1))):
        for got, want in zip((f1[l], f2[l]),
                             _decimal_tables(twice_s, sigma, l)):
            assert abs(Decimal(got) - want) <= Decimal("1e-15") * abs(want), (l, got)


@pytest.mark.parametrize("twice_s", range(1, 21))
def test_tables_reduce_to_constant_orderings_at_sigma_plus_minus_one(twice_s):
    ctx = SpinContext(twice_s)
    s = ctx.s
    anti_f1, anti_f2 = bopp.bopp_coefficients(ctx, -1.0)
    np.testing.assert_allclose(anti_f1, s, atol=1e-13)
    np.testing.assert_allclose(anti_f2, -0.5, atol=1e-13)
    normal_f1, normal_f2 = bopp.bopp_coefficients(ctx, 1.0)
    np.testing.assert_allclose(normal_f1, s + 1.0, atol=1e-13)
    np.testing.assert_allclose(normal_f2, 0.5, atol=1e-13)


@pytest.mark.parametrize("twice_s", [1, 2, 7, 40, 1000, 100000])
def test_symmetric_closed_form_matches_decimal_reference(twice_s):
    ctx = SpinContext(twice_s)
    for l in sorted({0, 1, 2, twice_s - 1, twice_s} & set(range(twice_s + 1))):
        for got, want in zip(oracles.symmetric_coefficients_closed_form(ctx, l),
                             _decimal_tables(twice_s, 0.0, l)):
            assert abs(Decimal(got) - want) <= Decimal("1e-15") * abs(want), (l, got)


@pytest.mark.parametrize("twice_s", [1, 2, 3, 5, 8, 13])
def test_symmetric_tables_match_closed_form(twice_s):
    ctx = SpinContext(twice_s)
    table_f1, table_f2 = bopp.bopp_coefficients(ctx, 0.0)
    for l in range(twice_s + 1):
        f1, f2 = oracles.symmetric_coefficients_closed_form(ctx, l)
        assert table_f1[l] == pytest.approx(f1, abs=1e-12)
        assert table_f2[l] == pytest.approx(f2, abs=1e-12)


def test_symmetric_table_values_at_spin_half():
    # pinned by the requirement that the square of the S3 symbol is exactly
    # the symbol of S3^2 = Id/4 (see the star-product regression below)
    f1, f2 = bopp.bopp_coefficients(SpinContext(1), 0.0)
    r3 = math.sqrt(3.0)
    np.testing.assert_allclose(f1, [r3 / 2, 1 / (2 * r3)], atol=1e-15)
    np.testing.assert_allclose(f2, [r3 / 2 - 1, -1 / (2 * r3)],
                               atol=1e-15)


def test_asymptotic_tables_converge_at_second_order():
    sigma = 0.0
    errs = []
    for twice_s in (30, 60):
        ctx = SpinContext(twice_s)
        f1, f2 = bopp.bopp_coefficients(ctx, sigma)
        worst = 0.0
        for l in range(5):
            a1, a2 = bopp.asymptotic_coefficients(ctx, sigma, l)
            worst = max(worst, abs(f1[l] - a1) / abs(f1[l]), abs(f2[l] - a2) / abs(f2[l]))
        errs.append(worst)
    assert errs[1] < errs[0] / 3.0  # halving 1/S should cut the error ~4x


def test_asymptotic_coefficients_broadcast_over_shells():
    ctx = SpinContext(30)
    l = np.arange(5)
    f1, f2 = bopp.asymptotic_coefficients(ctx, 0.4, l)
    assert f1.shape == f2.shape == (5,)
    for k in l:
        a1, a2 = bopp.asymptotic_coefficients(ctx, 0.4, int(k))
        assert (f1[k], f2[k]) == (a1, a2)


# --- multiplication operators against the transform oracle -------------------

@pytest.mark.parametrize("twice_s", [1, 2, 3, 4])
@pytest.mark.parametrize("sigma", SIGMAS + (0.37,))
def test_bopp_matrices_match_left_multiplication(twice_s, sigma):
    ctx = SpinContext(twice_s)
    mats = bopp.bopp_matrices(ctx, sigma)
    for op, mat in zip(spin_matrices(ctx), mats):
        oracle = oracles.left_mult_superoperator(op, sigma, ctx)
        assert np.max(np.abs(mat.toarray() - oracle)) < 1e-12


@pytest.mark.parametrize("sigma", [-1.0, 0.0, 0.3, 1.0])
@pytest.mark.parametrize("twice_s", [1, 6, 17, 80])
def test_bopp_matrices_equal_the_termwise_form(twice_s, sigma):
    """The shell-step weights up/2, down/2 of bopp_matrices give the paper's
    termwise M_i F1 + K_i F2 + L_i/2, with K from the oracle, to rounding; and
    the weights go to the right entries: each stored entry of M_i below the
    diagonal is a step l -> l+1, each above it a step l -> l-1."""
    ctx = SpinContext(twice_s)
    l_ops, r_ops = oracles._angular_and_bopp_positions(ctx, sigma)
    for got, r_op, l_op in zip(bopp.bopp_matrices(ctx, sigma), r_ops, l_ops, strict=True):
        want = r_op + 0.5 * l_op
        assert abs(got - want).max() <= 1e-13 * abs(want).max()
    l_of, _ = so.lm_arrays(twice_s)
    for m_op in so.position_operators(twice_s):
        m_op = m_op.tocoo()
        below = m_op.row > m_op.col
        assert np.array_equal(l_of[m_op.row] - l_of[m_op.col], np.where(below, 1, -1))


@pytest.mark.parametrize("twice_s", [41, 80, 160])
def test_bopp_matrices_are_exact_at_large_spin(twice_s):
    """B_i W_A is the symbol of S_i A to rounding on a random Hermitian A,
    at every ordering (B at 2S=160 takes about 0.1 s to build)."""
    ctx = SpinContext(twice_s)
    rng = np.random.default_rng(twice_s)
    n = ctx.hilbert_dim
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = (raw + raw.conj().T) / 2.0
    for sigma in (-1.0, 0.0, 0.5, 1.0):
        c = swt.operator_to_symbol(a, sigma, ctx)
        for op, mat in zip(spin_matrices(ctx), bopp.bopp_matrices(ctx, sigma)):
            ref = swt.operator_to_symbol(op @ a, sigma, ctx)
            assert np.max(np.abs(mat @ c - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("sigma", SIGMAS)
def test_bopp_algebra_commutators_and_casimir(sigma):
    ctx = SpinContext(3)
    b1, b2, b3 = (m.toarray() for m in bopp.bopp_matrices(ctx, sigma))
    eye = np.eye(ctx.symbol_dim)
    np.testing.assert_allclose(b1 @ b2 - b2 @ b1, 1j * b3, atol=1e-12)
    np.testing.assert_allclose(b2 @ b3 - b3 @ b2, 1j * b1, atol=1e-12)
    np.testing.assert_allclose(b3 @ b1 - b1 @ b3, 1j * b2, atol=1e-12)
    np.testing.assert_allclose(b1 @ b1 + b2 @ b2 + b3 @ b3,
                               ctx.s * (ctx.s + 1) * eye, atol=1e-12)


def test_star_product_equals_bopp_action_on_symbols():
    ctx = SpinContext(3)
    rng = np.random.default_rng(21)
    n = ctx.hilbert_dim
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for sigma in SIGMAS:
        c_a = swt.operator_to_symbol(a, sigma, ctx)
        mats = bopp.bopp_matrices(ctx, sigma)
        for op, mat in zip(spin_matrices(ctx), mats):
            c_op = swt.operator_to_symbol(op, sigma, ctx)
            np.testing.assert_allclose(oracles.star_product(c_op, c_a, sigma, ctx),
                                       mat @ c_a, atol=1e-12)


def test_spin_half_symmetric_star_square_is_one_quarter():
    """(W_S3 star W_S3) must be the constant 1/4 at S = 1/2, sigma = 0."""
    ctx = SpinContext(1)
    _, _, s3 = spin_matrices(ctx)
    c = swt.operator_to_symbol(s3, 0.0, ctx)
    out = bopp.bopp_matrices(ctx, 0.0)[2] @ c
    target = np.zeros(ctx.symbol_dim, dtype=complex)
    target[0] = 0.25 * math.sqrt(4 * math.pi)
    np.testing.assert_allclose(out, target, atol=1e-15)


# --- polynomial expressions ---------------------------------------------------

def test_validate_expression_normalizes_and_rejects():
    expr = bopp.validate_expression([(1, (1, 2)), (0.5j, (3,))])
    assert expr == [(1 + 0j, (1, 2)), (0.5j, (3,))]
    for bad in ([("x", (1,))], [(1.0, (0,))], [(1.0, (4,))], [(1.0, "12")]):
        with pytest.raises((ValueError, TypeError)):
            bopp.validate_expression(bad)


@pytest.mark.parametrize("term, message", [
    ((1.0, (1.7,)), r"word \(1\.7,\) has components outside \{1,2,3\}"),
    ((1.0, (True, 3.9)), r"word \(True, 3\.9\) has components outside"),
    ((1.0, "12"), r"word \('1', '2'\) has components outside"),
    (("2", (1,)), r"expression term \('2', \(1,\)\) has a coefficient that is not a number"),
    ((True, (3,)), r"expression term \(True, \(3,\)\) has a coefficient that is not"),
    ((np.True_, (3,)), "has a coefficient that is not a number"),
    ((1.0,), r"expression term \(1\.0,\) is not \(coeff, word\)"),
    ((1.0, 3), r"expression term \(1\.0, 3\) is not \(coeff, word\)"),
    ((None, (1,)), r"expression term \(None, \(1,\)\) has a coefficient that is not"),
    (([1, 2], (1,)), r"expression term \(\[1, 2\], \(1,\)\) has a coefficient that is not"),
    (({}, (1,)), r"expression term \(\{\}, \(1,\)\) has a coefficient that is not"),
], ids=["component-fractional", "component-bool", "word-string", "coeff-string",
        "coeff-bool", "coeff-numpy-bool", "term-single", "word-number", "coeff-none",
        "coeff-list", "coeff-dict"])
def test_validate_expression_refuses_what_int_or_complex_would_change(term, message):
    """int() cut 1.7 to 1 and True to 1, and complex() read "2" and True as
    numbers, so such a term ran as another polynomial; each is refused by name,
    as is a coefficient complex() refuses with a TypeError, such as None."""
    with pytest.raises(ValueError, match=message):
        bopp.validate_expression([(-1.0, (3,)), term])


def test_expression_adjoint_reverses_words():
    expr = [(2.0 + 1j, (1, 2, 3)), (0.5, (2,))]
    adj = oracles.expression_adjoint(expr)
    assert adj == [(2.0 - 1j, (3, 2, 1)), (0.5 + 0j, (2,))]


def test_expression_to_matrix_multiplies_in_word_order():
    ctx = SpinContext(2)
    s1, s2, s3 = spin_matrices(ctx)
    got = bopp.expression_to_matrix([(1.5, (1, 3)), (-2.0, (2,))], ctx)
    np.testing.assert_allclose(got, 1.5 * s1 @ s3 - 2.0 * s2, atol=1e-14)


def test_is_hermitian_expression():
    ctx = SpinContext(2)
    assert oracles.is_hermitian_expression([(-0.3, (1,)), (1.0, (3,))], ctx)
    assert oracles.is_hermitian_expression([(1.0, (1, 2)), (1.0, (2, 1))], ctx)
    assert not oracles.is_hermitian_expression([(1j, (1,))], ctx)


def test_evaluate_expression_builds_ordered_bopp_products():
    ctx = SpinContext(2)
    sigma = 0.0
    b1, b2, b3 = bopp.bopp_matrices(ctx, sigma)
    got = bopp.evaluate_expression([(2.0, (1, 2)), (1j, (3,))], (b1, b2, b3))
    want = 2.0 * (b1 @ b2) + 1j * b3
    assert np.max(np.abs((got - want).toarray())) < 1e-14
    assert bopp.evaluate_expression([], (b1, b2, b3)).nnz == 0


@pytest.mark.parametrize("sigma", [-1.0, 0.3, 1.0])
@pytest.mark.parametrize("twice_s", [1, 6, 17])
def test_bopp_set_at_a_band_is_the_full_band_block(twice_s, sigma):
    """Below 2S the Bopp matrices, the sphere operators L, M they are built
    from, and evaluate_expression, are the l <= band block of the band-2S ones,
    bit for bit: only transitions out of the block are dropped."""
    ctx = SpinContext(twice_s)

    def operators(band):
        return (bopp.bopp_matrices(ctx, sigma, band) + so.angular_operators(band)
                + so.position_operators(band))

    full = operators(twice_s)
    assert len(full) == 9
    expr = [(2.0, (1, 2)), (1j, (3,)), (0.5, ())]
    full_expr = bopp.evaluate_expression(expr, full[:3])
    for band in range(twice_s + 1):
        n = (band + 1) ** 2
        ops = operators(band)
        for op, full_op in zip(ops, full):
            assert np.array_equal(op.toarray(), full_op[:n, :n].toarray())
        assert bopp.evaluate_expression(expr, ops[:3]).shape == (n, n)
    assert np.array_equal(
        bopp.evaluate_expression(expr, bopp.bopp_matrices(ctx, sigma, twice_s)).toarray(),
        full_expr.toarray())


@pytest.mark.parametrize("sigma", [-1.0, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("twice_s", [1, 2, 7, 16])
def test_expression_symbol_is_the_transform_of_the_matrix(twice_s, sigma):
    """For every word up to length 3, expression_symbol gives the transform of
    the word's matrix on the shells l <= min(2S, length), and zero above them,
    to 1e-13 of the largest coefficient, or of S^length where the operator is
    zero (S_a S_b S_a at S = 1), compared in the sigma = 0 frame, where the
    transform's factors w_l^-sigma magnify no rounding."""
    ctx = SpinContext(twice_s)
    for word in itertools.chain.from_iterable(
            itertools.product((1, 2, 3), repeat=k) for k in range(4)):
        got = bopp.expression_symbol([(1.0, word)], sigma, ctx)
        assert got.size == (min(twice_s, len(word)) + 1) ** 2
        got = swt.switch_ordering(np.pad(got, (0, ctx.symbol_dim - got.size)), sigma, 0.0, ctx)
        want = swt.operator_to_symbol(bopp.expression_to_matrix([(1.0, word)], ctx), sigma, ctx)
        want = swt.switch_ordering(want, sigma, 0.0, ctx)
        scale = max(np.max(np.abs(want)), ctx.s ** len(word))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, word


@pytest.mark.parametrize("band", [-1, 3, 1.5, "2", True, False, math.inf, math.nan])
def test_bopp_set_refuses_a_band_outside_zero_to_2s(band):
    with pytest.raises(ValueError, match="band must be an integer"):
        bopp.bopp_matrices(SpinContext(2), 0.0, band)


def test_linear_expression_drops_zeros():
    assert oracles.linear_expression([0.0, 2.0, -1.0]) == [
        (2.0 + 0j, (2,)), (-1.0 + 0j, (3,))]


# --- analytic single-shell product route --------------------------------------

@pytest.mark.parametrize("twice_s", [1, 2, 3, 4])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_s3_star_ylm_matches_bopp_columns(twice_s, sigma):
    ctx = SpinContext(twice_s)
    b3 = bopp.bopp_matrices(ctx, sigma)[2].toarray()
    for l in range(ctx.band_limit + 1):
        for m in range(-l, l + 1):
            got = oracles.s3_star_ylm(ctx, sigma, l, m)
            np.testing.assert_allclose(got, b3[:, so.flat_index(l, m)],
                                       atol=1e-13)


# --- classical limit of the star commutator ------------------------------------

def _function_coefficients(fn, band_limit):
    thetas, phis, _ = oracles.quadrature(band_limit)
    sth = np.sin(thetas)[:, None]
    m1 = sth * np.cos(phis)[None, :]
    m2 = sth * np.sin(phis)[None, :]
    m3 = np.cos(thetas)[:, None] * np.ones_like(m1)
    return oracles.analyze(band_limit, fn(m1, m2, m3).astype(complex))


def test_star_commutator_approaches_poisson_bracket():
    """S [f, g]_star -> i m . (grad f x grad g) as S grows.

    For f = m3^2 and g = m1 the bracket is (2/S) m2 m3, so the scaled
    commutator must approach 2i m2 m3 at an O(1/S) rate.
    """
    target = 2j * _function_coefficients(lambda a, b, c: b * c, 4)
    devs = []
    for twice_s in (10, 40):
        ctx = SpinContext(twice_s)
        c_f = np.zeros(ctx.symbol_dim, dtype=complex)
        c_g = np.zeros(ctx.symbol_dim, dtype=complex)
        f4 = _function_coefficients(lambda a, b, c: c * c, 4)
        g4 = _function_coefficients(lambda a, b, c: a, 4)
        c_f[: f4.size] = f4
        c_g[: g4.size] = g4
        comm = (oracles.star_product(c_f, c_g, 0.0, ctx)
                - oracles.star_product(c_g, c_f, 0.0, ctx))
        scaled = ctx.s * comm
        devs.append(np.max(np.abs(scaled[: target.size] - target)))
        assert np.max(np.abs(scaled[target.size:])) < 1e-10
    assert devs[0] < 0.2 * np.max(np.abs(target))
    assert devs[1] < devs[0] / 2.5  # 1/S decay
