"""Operator-symbol correspondence: postulates, duality, kernels."""

import decimal
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import rotation_z
from spinphase import dynamics
from spinphase import sphere_ops as so
from spinphase import su2_algebra
from spinphase import sw_transform as swt
from spinphase.su2_algebra import SpinContext, spin_matrices

SIGMAS = (-1.0, 0.0, 1.0)  # antinormal, symmetric, normal


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def test_validate_sigma_accepts_floats_and_rejects_junk():
    assert swt.validate_sigma(0) == 0.0
    assert swt.validate_sigma(0.37) == 0.37
    for bad in ("sym", float("nan"), float("inf")):
        with pytest.raises((ValueError, TypeError)):
            swt.validate_sigma(bad)


def test_cg_weight_positive_and_known_value():
    # <S,S; 1,0 | S,S> at S = 1/2 is 1/sqrt(3)
    assert oracles.cg_weight(SpinContext(1), 1) == pytest.approx(1 / math.sqrt(3))
    for twice_s in range(1, 9):
        ctx = SpinContext(twice_s)
        for l in range(twice_s + 1):
            assert oracles.cg_weight(ctx, l) > 0


def test_cg_weight_matches_the_racah_sum():
    for twice_s in range(1, 17):
        ctx = SpinContext(twice_s)
        for l in range(twice_s + 1):
            want = oracles.clebsch_gordan(twice_s, twice_s, 2 * l, 0, twice_s, twice_s)
            assert oracles.cg_weight(ctx, l) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("twice_s,bound", [(40, 1e-14), (80, 1e-14), (1000, 1e-13),
                                            (100_000, 1e-11)])
def test_log_weight_ratios_match_a_decimal_reference(twice_s, bound):
    """ln(w_{l+1}/w_l) = (1/2) ln((2S-l)/(2S+l+2)) against 40-digit decimal
    logarithms, at every l up to 2S=1000 and at 400 spread l (both ends
    included) at 2S=10^5; ln w_0 = 0 exactly."""
    log_w = swt._log_weights(twice_s)
    assert log_w.shape == (twice_s + 1,) and log_w[0] == 0.0
    ls = np.unique(np.linspace(0, twice_s - 1, min(twice_s, 400)).astype(int))
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        want = [float((decimal.Decimal(twice_s - l) / (twice_s + l + 2)).ln() / 2)
                for l in ls.tolist()]
    assert np.max(np.abs(log_w[ls + 1] - log_w[ls] - want)) <= bound


def test_measure_constant():
    assert swt.measure_constant(SpinContext(3)) == pytest.approx(
        4 / (4 * math.pi))


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 5), st.sampled_from(SIGMAS), st.integers(0, 2**31 - 1))
def test_symbol_transform_round_trip(twice_s, sigma, seed):
    ctx = SpinContext(twice_s)
    rng = np.random.default_rng(seed)
    n = ctx.hilbert_dim
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    c = swt.operator_to_symbol(a, sigma, ctx)
    np.testing.assert_allclose(swt.symbol_to_operator(c, sigma, ctx), a,
                               atol=1e-11)


@pytest.mark.parametrize("twice_s", [80, 81, 160])
def test_round_trip_exact_at_large_spin(twice_s):
    ctx = SpinContext(twice_s)
    a = _random_hermitian(ctx.hilbert_dim, twice_s)
    for sigma in SIGMAS:
        c = swt.operator_to_symbol(a, sigma, ctx)
        assert np.max(np.abs(swt.symbol_to_operator(c, sigma, ctx) - a)) <= 1e-12


def test_tables_and_round_trip_hold_at_2s_320():
    """The largest spin the tests pin (about 3 s): orthonormal T_lm blocks and
    the round trip at every ordering, both <= 1e-12."""
    ctx = SpinContext(320)
    try:
        for block in su2_algebra.tensor_blocks(ctx.twice_s):
            assert np.max(np.abs(block @ block.T - np.eye(block.shape[0]))) <= 1e-12
        a = _random_hermitian(ctx.hilbert_dim, ctx.twice_s)
        for sigma in SIGMAS:
            c = swt.operator_to_symbol(a, sigma, ctx)
            assert np.max(np.abs(swt.symbol_to_operator(c, sigma, ctx) - a)) <= 1e-12
    finally:  # the tables at 2S=320 hold about 180 MB
        su2_algebra.tensor_blocks.cache_clear()
        swt._diagonals.cache_clear()


def test_transforms_kernel_and_integration_run_from_cold_table_caches():
    """With every table cache empty, the transforms, the kernel and an
    integration run at a new 2S from the Jacobi tables alone; that no library
    module reaches the Racah-sum oracle is checked in test_imports."""
    for cached in (su2_algebra.tensor_blocks, swt._log_weights, swt._diagonals):
        cached.cache_clear()
    ctx = SpinContext(23)
    a = _random_hermitian(ctx.hilbert_dim, 23)
    for sigma in SIGMAS:
        c = swt.operator_to_symbol(a, sigma, ctx)
        np.testing.assert_allclose(swt.symbol_to_operator(c, sigma, ctx), a, atol=1e-12)
    thetas, phis = so.grid_points(ctx.band_limit)
    delta = swt.kernel_eval(ctx, 0.5, thetas[4], phis[7])
    w = so.grid_values(ctx.band_limit, swt.operator_to_symbol(a, 0.5, ctx))
    assert np.trace(a @ delta) == pytest.approx(w[4, 7], abs=1e-11)
    gen = dynamics.qfp_generator([(-1.0, (3,))], None, 0.0, ctx)
    c0 = swt.operator_to_symbol(dynamics.coherent_state(ctx, 0.8, 0.2), 0.0, ctx)
    result = dynamics.integrate(gen, c0, 0.1, 0.05, "rk4", ctx, 0.0, "symbol")
    np.testing.assert_allclose(result.trace, 1.0, atol=1e-12)


def test_round_trip_holds_for_fractional_ordering():
    ctx = SpinContext(4)
    a = _random_hermitian(ctx.hilbert_dim, 123)
    c = swt.operator_to_symbol(a, 0.41, ctx)
    np.testing.assert_allclose(swt.symbol_to_operator(c, 0.41, ctx), a,
                               atol=1e-11)


@pytest.mark.parametrize("twice_s", [1, 2, 3])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_hermitian_operators_have_real_symbols(twice_s, sigma):
    ctx = SpinContext(twice_s)
    a = _random_hermitian(ctx.hilbert_dim, 7 * twice_s)
    c = swt.operator_to_symbol(a, sigma, ctx)
    assert oracles.is_real_symbol(c, 1e-12)


@pytest.mark.parametrize("twice_s", [1, 2, 3])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_standardization_integral_equals_trace(twice_s, sigma):
    """Mean of the symbol over the sphere with the (2S+1)/4pi measure."""
    ctx = SpinContext(twice_s)
    a = _random_hermitian(ctx.hilbert_dim, twice_s + 19)
    c = swt.operator_to_symbol(a, sigma, ctx)
    val = swt.measure_constant(ctx) * oracles.sphere_integral(
        ctx.band_limit, oracles.synthesize(ctx.band_limit, c))
    assert val == pytest.approx(np.trace(a).real, abs=1e-11)
    assert swt.symbol_trace(c, ctx) == pytest.approx(np.trace(a).real,
                                                     abs=1e-12)


@pytest.mark.parametrize("twice_s", [1, 2, 3])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_traciality_pairs_dual_orderings(twice_s, sigma):
    ctx = SpinContext(twice_s)
    a = _random_hermitian(ctx.hilbert_dim, 31 + twice_s)
    b = _random_hermitian(ctx.hilbert_dim, 77 + twice_s)
    ca = swt.operator_to_symbol(a, sigma, ctx)
    cb = swt.operator_to_symbol(b, -sigma, ctx)
    L = 2 * ctx.band_limit  # product of two band-2S symbols
    wa = oracles.synthesize(L, ca)
    wb = oracles.synthesize(L, cb)
    val = swt.measure_constant(ctx) * oracles.sphere_integral(L, wa * wb)
    assert val == pytest.approx(np.trace(a @ b).real, abs=1e-10)


def test_expectation_matches_hilbert_space_pairing():
    ctx = SpinContext(3)
    rho = _random_hermitian(ctx.hilbert_dim, 5)
    rho = rho @ rho.conj().T
    rho = rho / np.trace(rho).real
    a = _random_hermitian(ctx.hilbert_dim, 6)
    for sigma in SIGMAS:
        c_rho = swt.operator_to_symbol(rho, -sigma, ctx)
        c_a = swt.operator_to_symbol(a, sigma, ctx)
        got = swt.expectation(c_rho, c_a, ctx)
        assert got == pytest.approx(np.trace(rho @ a).real, abs=1e-12)


def test_z_rotation_covariance_of_symbols():
    """Rotating the operator shifts the symbol's azimuthal phases."""
    ctx = SpinContext(2)
    ang = 0.61
    a = _random_hermitian(ctx.hilbert_dim, 41)
    u = rotation_z(ctx, ang)
    for sigma in SIGMAS:
        c = swt.operator_to_symbol(a, sigma, ctx)
        c_rot = swt.operator_to_symbol(u @ a @ u.conj().T, sigma, ctx)
        ls, ms = so.lm_arrays(ctx.band_limit)
        np.testing.assert_allclose(c_rot, np.exp(-1j * ms * ang) * c,
                                   atol=1e-13)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 4), st.sampled_from(SIGMAS), st.sampled_from(SIGMAS),
       st.integers(0, 2**31 - 1))
def test_switch_ordering_consistent_with_direct_transform(twice_s, s_from,
                                                          s_to, seed):
    ctx = SpinContext(twice_s)
    rng = np.random.default_rng(seed)
    n = ctx.hilbert_dim
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    via_switch = swt.switch_ordering(
        swt.operator_to_symbol(a, s_from, ctx), s_from, s_to, ctx)
    direct = swt.operator_to_symbol(a, s_to, ctx)
    np.testing.assert_allclose(via_switch, direct, atol=1e-11)


@pytest.mark.parametrize("sigma", [-1.0, 0.0, 0.5, 1.0])
def test_switch_ordering_to_the_same_ordering_is_the_identity(sigma):
    ctx = SpinContext(20)
    rng = np.random.default_rng(5)
    c = rng.normal(size=ctx.symbol_dim) + 1j * rng.normal(size=ctx.symbol_dim)
    assert np.array_equal(swt.switch_ordering(c, sigma, sigma, ctx), c)


def test_kernel_is_hermitian_unit_trace_and_reproduces_symbols():
    ctx = SpinContext(2)
    a = _random_hermitian(ctx.hilbert_dim, 13)
    for sigma in SIGMAS:
        c = swt.operator_to_symbol(a, sigma, ctx)
        w = oracles.synthesize(ctx.band_limit, c)
        thetas, phis, _ = oracles.quadrature(ctx.band_limit)
        for i, j in [(0, 0), (1, 3), (2, 1)]:
            delta = swt.kernel_eval(ctx, sigma, thetas[i], phis[j])
            np.testing.assert_allclose(delta, delta.conj().T, atol=1e-12)
            assert np.trace(delta).real == pytest.approx(1.0, abs=1e-12)
            assert np.trace(a @ delta) == pytest.approx(w[i, j], abs=1e-11)


@pytest.mark.parametrize("angles", [(math.nan, 0.0), (0.3, math.nan), (0.3, math.inf)])
def test_kernel_refuses_non_finite_angles(angles):
    with pytest.raises(ValueError, match="angles must be finite"):
        swt.kernel_eval(SpinContext(3), 0.0, *angles)


@pytest.mark.parametrize("twice_s", [1, 6, 40])
def test_kernel_at_a_negative_sine_is_the_kernel_of_its_direction(twice_s):
    """theta with sin(theta) < 0 names the direction of (|theta'|, phi + pi) with
    theta' in [0, pi]: (-1.1, phi) is (1.1, phi + pi), (4.0, phi) is (2pi - 4.0, phi + pi)."""
    ctx = SpinContext(twice_s)
    for sigma in SIGMAS:
        for theta, same in ((-1.1, 1.1), (4.0, 2.0 * math.pi - 4.0)):
            want = swt.kernel_eval(ctx, sigma, same, 0.4 + math.pi)
            np.testing.assert_allclose(swt.kernel_eval(ctx, sigma, theta, 0.4), want,
                                       rtol=0, atol=1e-14 * np.max(np.abs(want)))


def test_kernel_integrates_to_identity():
    ctx = SpinContext(3)
    thetas, phis, weights = oracles.quadrature(ctx.band_limit)
    for sigma in SIGMAS:
        stack = np.empty((thetas.size, phis.size,
                          ctx.hilbert_dim, ctx.hilbert_dim), dtype=complex)
        for i, th in enumerate(thetas):
            for j, ph in enumerate(phis):
                stack[i, j] = swt.kernel_eval(ctx, sigma, th, ph)
        total = swt.measure_constant(ctx) * np.einsum("i,ijab->ab", weights, stack)
        np.testing.assert_allclose(total, np.eye(ctx.hilbert_dim), atol=1e-11)


def test_purity_from_symbols():
    ctx = SpinContext(2)
    # pure state: projector onto a random ket
    rng = np.random.default_rng(9)
    ket = rng.normal(size=ctx.hilbert_dim) + 1j * rng.normal(size=ctx.hilbert_dim)
    ket = ket / np.linalg.norm(ket)
    rho = np.outer(ket, ket.conj())
    for sigma in SIGMAS:
        c = swt.operator_to_symbol(rho, sigma, ctx)
        dual = swt.switch_ordering(c, sigma, -sigma, ctx)
        assert swt.expectation(c, dual, ctx) == pytest.approx(1.0, abs=1e-12)
    mixed = np.eye(ctx.hilbert_dim) / ctx.hilbert_dim
    c = swt.operator_to_symbol(mixed, 0.0, ctx)
    dual = swt.switch_ordering(c, 0.0, 0.0, ctx)
    assert swt.expectation(c, dual, ctx) == pytest.approx(
        1.0 / ctx.hilbert_dim, abs=1e-12)


def test_spin_component_symbols_are_linear_harmonics():
    """W of S_i is proportional to the corresponding l = 1 harmonic alone."""
    ctx = SpinContext(4)
    s_ops = spin_matrices(ctx)
    for sigma in SIGMAS:
        for i, op in enumerate(s_ops):
            c = swt.operator_to_symbol(op, sigma, ctx)
            mask = np.zeros(ctx.symbol_dim, dtype=bool)
            mask[so.flat_index(1, -1): so.flat_index(1, 1) + 1] = True
            assert np.max(np.abs(c[~mask])) < 1e-13


@pytest.mark.parametrize("twice_s, sigma", [(1000, 1.0), (1000, -1.0), (1100, 0.0),
                                            (1100, 0.5)])
def test_ordering_factors_are_normal_doubles_where_accepted(twice_s, sigma):
    factors = swt._factors(SpinContext(twice_s), sigma)
    assert np.all(np.isfinite(factors)) and np.min(factors) >= np.finfo(float).tiny


_LENGTH_16 = "coefficient length 16 does not match (2S+1)^2 = 9"


@pytest.mark.parametrize("call, message", [
    (lambda ctx: swt.symbol_to_operator(np.zeros(16), 0.0, ctx), _LENGTH_16),
    (lambda ctx: swt.switch_ordering(np.zeros(16), 0.0, 0.5, ctx), _LENGTH_16),
    (lambda ctx: swt.expectation(np.zeros(16), np.zeros(9), ctx), _LENGTH_16),
    (lambda ctx: swt.expectation(np.zeros(9), np.zeros(4), ctx),
     "coefficient length 4 does not match (2S+1)^2 = 9"),
    (lambda ctx: swt.symbol_trace(np.zeros(16), ctx), _LENGTH_16),
    (lambda ctx: swt.operator_to_symbol(np.zeros((4, 4)), 0.0, ctx),
     "operator shape (4, 4) does not match 2S+1 = 3"),
], ids=["symbol-to-operator", "switch-ordering", "expectation-a", "expectation-rho",
        "symbol-trace", "operator-to-symbol"])
def test_a_symbol_or_operator_of_another_size_is_refused_naming_both(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(SpinContext(2))


@pytest.mark.parametrize("twice_s, sigma", [(1030, 1.0), (1030, -1.0), (1100, 1.0),
                                            (1100, -1.0)])
def test_ordering_factors_outside_the_normal_doubles_are_refused_before_any_table(
        monkeypatch, twice_s, sigma):
    """Past 2S of about 1020 at |sigma| = 1 the factors w_l^-sigma overflow to
    inf or fall below the least normal double: each transform refuses, naming
    2S and sigma, before it builds a T_lm table."""
    def no_tables(twice_s):
        raise AssertionError("a T_lm table was built")

    monkeypatch.setattr(swt, "_diagonals", no_tables)
    ctx = SpinContext(twice_s)
    message = rf"at 2S = {twice_s}, sigma = {sigma} leave the normal double range"
    with pytest.raises(ValueError, match=message):
        swt.operator_to_symbol(np.zeros((ctx.hilbert_dim,) * 2), sigma, ctx)
    with pytest.raises(ValueError, match=message):
        swt.symbol_to_operator(np.zeros(ctx.symbol_dim), sigma, ctx)
    with pytest.raises(ValueError, match=message):
        swt.switch_ordering(np.zeros(ctx.symbol_dim), 0.0, sigma, ctx)
