"""Evolution generators against Hilbert-space oracles; classical physics."""

import csv
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

import oracles
from oracles import rotation_z
from spinphase import bopp, cli
from spinphase import dynamics as dyn
from spinphase import sphere_ops as so
from spinphase import sw_transform as swt
from spinphase.su2_algebra import SpinContext, spin_matrices

SIGMAS = (-1.0, 0.0, 1.0)


def _random_density(ctx, seed):
    rng = np.random.default_rng(seed)
    n = ctx.hilbert_dim
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# --- Hamiltonian containers ---------------------------------------------------

def _quadratic_expression(d, b):
    """H = -sum_jk d_jk S_j S_k - sum_j b_j S_j as an expression, term by term."""
    return ([(-d[j, k], (j + 1, k + 1)) for j in range(3) for k in range(3)]
            + [(-b[j], (j + 1,)) for j in range(3)])


def test_quadratic_hamiltonian_expression_matches_matrix():
    ctx = SpinContext(3)
    rng = np.random.default_rng(2)
    d = rng.normal(size=(3, 3))
    d = (d + d.T) / 2.0
    b = rng.normal(size=3)
    s_ops = spin_matrices(ctx)
    want = -sum(b[j] * s_ops[j] for j in range(3))
    for j in range(3):
        for k in range(3):
            want = want - d[j, k] * s_ops[j] @ s_ops[k]
    got = bopp.expression_to_matrix(_quadratic_expression(d, b), ctx)
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_bath_spec_validation_and_diagnostic():
    bath = dyn.BathSpec(((1.0, (1,)),), 0.2, 2.0)
    assert bath.validity_ratio(SpinContext(4)) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        dyn.BathSpec(((1.0, (1,)),), -0.1, 1.0)
    with pytest.raises(ValueError):
        dyn.BathSpec(((1.0, (1,)),), 0.1, 0.0)


# --- unitary generators ---------------------------------------------------------

@pytest.mark.parametrize("sigma", SIGMAS)
def test_unitary_generator_matches_commutator_oracle(sigma):
    ctx = SpinContext(3)
    h_expr = [(-0.7, (3,)), (0.4, (1,)), (-0.25, (1, 1))]
    h = bopp.expression_to_matrix(h_expr, ctx)
    gen = dyn.qfp_generator(h_expr, None, sigma, ctx)
    rho = _random_density(ctx, 3)
    lhs = gen @ swt.operator_to_symbol(rho, sigma, ctx)
    rhs = swt.operator_to_symbol(-1j * (h @ rho - rho @ h), sigma, ctx)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_unitary_generator_rejects_non_hermitian_hamiltonian():
    ctx = SpinContext(2)
    with pytest.raises(ValueError):
        dyn.qfp_generator([(1j, (3,))], None, 0.0, ctx)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_bath_free_generator_is_the_gamma_zero_generator(sigma):
    """qfp_generator with no bath is 2 Im(H_hat), the generator with a bath
    at gamma = 0, at band 2S and below."""
    ctx = SpinContext(6)
    h_expr = [(-0.7, (3,)), (0.4, (1,)), (-0.25, (1, 1)), (0.1, (3, 3, 3))]
    bath = dyn.BathSpec(((0.8, (1,)), (0.2, (2, 2))), 0.0, 1.3)
    for band in (None, 3):
        free = dyn.qfp_generator(h_expr, None, sigma, ctx, band)
        zero = dyn.qfp_generator(h_expr, bath, sigma, ctx, band)
        assert free.shape == zero.shape
        assert np.max(np.abs((free - zero).toarray())) <= 1e-15


def _dense_check_refuses(expr, ctx):
    """The Hilbert-space Hermiticity check: max|A - A^dag| > 1e-12 max(1, max|A|)."""
    a = bopp.expression_to_matrix(expr, ctx)
    return np.max(np.abs(a - a.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(a)))


def _refuses(expr, sigma, ctx):
    bath = dyn.BathSpec(((1.0, (1,)),), 0.1, 1.0)
    try:
        dyn.qfp_generator(expr, bath, sigma, ctx, min(ctx.band_limit, 2))
    except ValueError as exc:
        assert "Hamiltonian must be Hermitian" in str(exc)
        return True
    return False


@pytest.mark.parametrize("twice_s", [1, 2, 5, 10])
def test_symbol_hermiticity_check_agrees_with_the_dense_check(twice_s):
    """On Hermitian polynomials (some with no Hermitian term), non-Hermitian
    ones and Hermitian ones perturbed by i 1e-6 or i 1e-9 times a Hermitian
    term, the symbol check of qfp_generator refuses exactly what the dense
    (2S+1)^2 check refuses, at a band below the degree too."""
    ctx = SpinContext(twice_s)
    rng = np.random.default_rng(twice_s)
    exprs = [[(1j, (3,))], [(1.0, (1, 2))], [(1j, ())], [(1.0, (3, 3, 1))],
             [(1j, (1, 2)), (-1j, (2, 1))], [(1.0, (1, 3)), (1.0, (3, 1))],
             [(1.0, (3,)), (1e-9j, (1, 1))], [(-1.0, (3,)), (1e-6j, (2,))]]
    for _ in range(12):
        words = [tuple(int(k) for k in rng.integers(1, 4, size=rng.integers(0, 5)))
                 for _ in range(3)]
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        expr = [(c, w) for c, w in zip(coeffs, words)]
        exprs.append(expr)  # non-Hermitian unless the draw is degenerate
        hermitian = expr + oracles.expression_adjoint(expr)
        exprs.append(hermitian)
        exprs.append(hermitian + [(1e-9j, words[0] + words[0][::-1])])
    verdicts = []
    for expr in exprs:
        dense = _dense_check_refuses(expr, ctx)
        verdicts.append(dense)
        for sigma in (-1.0, 0.0, 0.5, 1.0):
            assert _refuses(expr, sigma, ctx) == dense, (expr, sigma)
    assert 0 < sum(verdicts) < len(verdicts)


def test_hermiticity_check_builds_no_dense_matrix_at_large_spin():
    """At 2S = 10^5 a dense (2S+1)^2 check would need 160 GB: qfp_generator at
    band 4 refuses 1j S3 within 16 MiB, and accepts i(S1 S2 - S2 S1) = -S3,
    which is Hermitian although neither term is: its l <= 2 block is that of
    -S3 up to the rounding of its cancelling terms."""
    ctx = SpinContext(10 ** 5)
    bath = dyn.BathSpec(((1.0, (1,)),), 0.1, 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="Hamiltonian must be Hermitian"):
            dyn.qfp_generator([(1j, (3,))], bath, 0.3, ctx, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    commutator = [(1j, (1, 2)), (-1j, (2, 1))]
    band = dyn._block_band(commutator, bath.coupling, 2, ctx)
    assert band == 4
    for sigma in (-1.0, 0.0, 1.0):
        block = dyn._submatrix(dyn.qfp_generator(commutator, bath, sigma, ctx, band), 2)
        field = dyn._submatrix(dyn.qfp_generator([(-1.0, (3,))], bath, sigma, ctx, band), 2)
        # the O(S^2) terms cancel, leaving rounding of about eps S^2 = 6e-7
        assert np.max(np.abs(block - field)) <= 16 * np.finfo(float).eps * ctx.s ** 2 * np.max(
            np.abs(field))


@pytest.mark.parametrize("sigma", (-1.0, 0.0))
def test_quadratic_generator_equals_expression_route(sigma):
    ctx = SpinContext(3)
    rng = np.random.default_rng(17)
    d = rng.normal(size=(3, 3))
    d = (d + d.T) / 2.0
    b = rng.normal(size=3)
    direct = oracles.quadratic_generator(d, b, sigma, ctx)
    via_expr = dyn.qfp_generator(_quadratic_expression(d, b), None, sigma, ctx)
    assert np.max(np.abs((direct - via_expr).toarray())) < 1e-12


def test_linear_hamiltonian_generator_is_classical_liouville():
    """With no quadratic part the two generators agree entry by entry."""
    b = np.array([0.3, -0.8, 0.55])
    for twice_s in (2, 4, 5):
        ctx = SpinContext(twice_s)
        h_expr = [(-bk, (k + 1,)) for k, bk in enumerate(b)]
        quantum = dyn.qfp_generator(h_expr, None, 0.0, ctx).toarray()
        classical = dyn.classical_generators(
            [(ctx.s * c, w) for c, w in h_expr], np.zeros((3, 3)), 1.0, ctx.band_limit,
            ctx.s).toarray()
        np.testing.assert_allclose(quantum, classical, atol=1e-12)


# --- dissipative generator vs the master equation --------------------------------

@pytest.mark.parametrize("sigma", SIGMAS)
def test_qfp_generator_matches_master_equation_oracle(sigma):
    ctx = SpinContext(3)
    h_expr = [(-1.0, (3,)), (0.3, (1,))]
    f_expr = [(0.8, (1,)), (-0.5, (3,)), (0.2, (2, 2))]
    bath = dyn.BathSpec(tuple(f_expr), 0.15, 1.3)
    gen = dyn.qfp_generator(h_expr, bath, sigma, ctx)
    h = bopp.expression_to_matrix(h_expr, ctx)
    f = bopp.expression_to_matrix(f_expr, ctx)
    rho = _random_density(ctx, 11)
    lhs = gen @ swt.operator_to_symbol(rho, sigma, ctx)
    rhs = swt.operator_to_symbol(
        oracles.master_rhs(rho, h, f, bath.gamma, bath.temperature), sigma, ctx)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_master_rhs_preserves_trace_and_hermiticity():
    ctx = SpinContext(4)
    h = bopp.expression_to_matrix([(-1.0, (3,)), (0.2, (1, 1))], ctx)
    f = bopp.expression_to_matrix([(1.0, (1,))], ctx)
    rho = _random_density(ctx, 23)
    out = oracles.master_rhs(rho, h, f, 0.3, 0.9)
    assert abs(np.trace(out)) < 1e-14
    np.testing.assert_allclose(out, out.conj().T, atol=1e-13)


def test_master_liouvillian_consistent_with_rhs():
    ctx = SpinContext(2)
    h = bopp.expression_to_matrix([(-1.0, (3,))], ctx)
    f = bopp.expression_to_matrix([(0.6, (1,)), (0.4, (2,))], ctx)
    rho = _random_density(ctx, 29)
    liou = dyn.master_liouvillian(h, f, 0.2, 1.1)
    direct = oracles.master_rhs(rho, h, f, 0.2, 1.1)
    via_vec = dyn.unvec_density(liou @ dyn.vec_density(rho))
    np.testing.assert_allclose(via_vec, direct, atol=1e-13)


def test_unvec_density_refuses_a_length_that_is_not_a_square():
    with pytest.raises(ValueError, match="vector length is not a perfect square"):
        dyn.unvec_density(np.zeros(8))


def test_master_stationary_state_is_a_fixed_point_and_gibbs_like():
    ctx = SpinContext(2)
    h = bopp.expression_to_matrix([(-1.0, (3,))], ctx)
    f = bopp.expression_to_matrix([(1.0, (1,))], ctx)
    gamma = 0.05
    devs = []
    for temperature in (1.0, 4.0):
        rho_ss = oracles.master_stationary_state(h, f, gamma, temperature)
        assert np.trace(rho_ss).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho_ss, rho_ss.conj().T, atol=1e-12)
        resid = oracles.master_rhs(rho_ss, h, f, gamma, temperature)
        assert np.max(np.abs(resid)) < 1e-12
        gibbs = la.expm(-h / temperature)
        gibbs = gibbs / np.trace(gibbs).real
        devs.append(np.max(np.abs(rho_ss - gibbs)))
    # the weak-coupling form approaches the Gibbs state at high temperature
    assert devs[1] < devs[0] / 2.0


@pytest.mark.parametrize("sigma", (-1.0, 0.0))
def test_bilinear_generator_equals_general_dissipative_form(sigma):
    """qfp_generator for H = -b.S and F = xi.S is the effective-field form of
    the classical Fokker-Planck generator with m replaced by the Bopp
    position operators (M F1 + K F2)/S."""
    ctx = SpinContext(3)
    b = np.array([0.2, -0.4, 1.0])
    xi = np.array([0.6, 0.3, -0.74])
    gamma, temperature = 0.3, 0.8
    direct = oracles.bilinear_effective_field_generator(b, xi, gamma, temperature,
                                                        sigma, ctx)
    h_expr = oracles.linear_expression(-b)
    bath = dyn.BathSpec(tuple(oracles.linear_expression(xi)), gamma, temperature)
    general = dyn.qfp_generator(h_expr, bath, sigma, ctx)
    assert np.max(np.abs((direct - general).toarray())) < 1e-12


def test_bilinear_lambda_is_scaled_outer_product(monkeypatch):
    """The bilinear scan hands classical_generators Lam = S gamma xi xi^T, the
    full outer product of the xi it reads from the coupling F = xi.S."""
    lams = []
    generators = dyn.classical_generators
    monkeypatch.setattr(dyn, "classical_generators",
                        lambda h, lam, *rest: lams.append(lam) or generators(h, lam, *rest))
    xi = np.array([0.3, -1.2, 0.5])
    bath = dyn.BathSpec(oracles.linear_expression(xi), 0.7, 1.0)
    dyn.classical_limit_scan("bilinear", [5, 6], 0.0, 3, h=[(-1.0, (3,))], bath=bath)
    assert len(lams) == 2
    for lam, s in zip(lams, (2.5, 3.0)):
        np.testing.assert_array_equal(lam, s * 0.7 * np.outer(xi, xi))


# --- classical generators ----------------------------------------------------------

@pytest.mark.parametrize("word", [(1, 3, 3), (3, 3, 1)], ids=["sorted", "m1-last"])
def test_classical_drift_is_the_word_gradient(word):
    """For h = 2 m1 m3^2 the drift is (i/S) sum_k L_k B_k with the field
    B = -grad h = (-2 m3^2, 0, -4 m1 m3), written out from the sphere's
    operators; the word's order moves only the truncated top shells."""
    L, s = 8, 3.0
    l_ops = [op.toarray() for op in so.angular_operators(L)]
    m1, _, m3 = (op.toarray() for op in so.position_operators(L)[:3])
    want = (1j / s) * (l_ops[0] @ (-2.0 * m3 @ m3) + l_ops[2] @ (-4.0 * m1 @ m3))
    drift = dyn.classical_generators([(2.0, word)], np.zeros((3, 3)), 1.0, L, s)
    n_in = (L - 1) ** 2
    np.testing.assert_allclose(drift.toarray()[:n_in, :n_in], want[:n_in, :n_in], atol=1e-13)
    if word == (1, 3, 3):  # the same products in the same order: equal everywhere
        np.testing.assert_allclose(drift.toarray(), want, atol=1e-13)
    with pytest.raises(ValueError, match="components outside"):
        dyn.classical_generators([(1.0, (1, 4))], np.zeros((3, 3)), 1.0, L, s)
    with pytest.raises(ValueError, match="real coefficients only"):
        dyn.classical_generators([(1.0, (1,)), (0.5j, (3,))], np.zeros((3, 3)), 1.0, L, s)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_classical_generators_refuse_a_non_finite_lam(entry):
    """A NaN or infinite diffusion entry is refused, not spread into every
    entry of the generator."""
    lam = 0.4 * np.eye(3)
    lam[1, 2] = entry
    for bad in (lam, np.full((3, 3), entry)):
        with pytest.raises(ValueError, match="lam must be a finite 3x3 matrix"):
            dyn.classical_generators([(-2.0, (3,))], bad, 1.0, 4, 2.0)


@pytest.mark.parametrize("h_expr", [[(1e308, (1, 1))], [(-1.0, (3,)), (-1e308, (2, 3, 2))]])
def test_classical_generators_name_an_overflow_of_their_own_gradient(h_expr):
    """A finite h whose -grad h overflows (d/dm_1 of 1e308 m1 m1 is 2e308) is
    a RuntimeError about the gradient, not a ValueError about a non-finite
    term the caller never wrote."""
    with pytest.raises(RuntimeError, match="the gradient -grad h of the classical "
                                           "Hamiltonian overflows"):
        dyn.classical_generators(h_expr, np.zeros((3, 3)), 1.0, 3, 2.0)


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
def test_classical_generators_refuse_a_bad_s(s):
    with pytest.raises(ValueError, match="s must be finite and > 0"):
        dyn.classical_generators([(-2.0, (3,))], 0.4 * np.eye(3), 1.0, 4, s)


@pytest.mark.parametrize("band_limit", [-1, 2.5, True, math.inf, math.nan, "4"])
def test_classical_generators_refuse_a_bad_band_limit(band_limit):
    """A band limit that is not an integer >= 0 is named, not built as a 0x0
    generator at -1 or passed to numpy at 2.5; an integral float is its int."""
    with pytest.raises(ValueError, match="band_limit must be an integer >= 0"):
        dyn.classical_generators([(-2.0, (3,))], 0.4 * np.eye(3), 1.0, band_limit, 2.0)
    fp = dyn.classical_generators([(-2.0, (3,))], 0.4 * np.eye(3), 1.0, 4.0, 2.0)
    assert fp.shape == (25, 25)


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf)])
def test_non_finite_initial_state_is_refused_before_the_first_step(bad):
    """A non-finite y0 is named as the initial state when lockstep or
    integrate is called, not reported as a non-finite state at step 1."""
    gen = sp.identity(4, dtype=complex, format="csr")
    y0 = np.array([1.0, bad, 0.0, 0.0], dtype=complex)
    message = r"non-finite initial state y0 at t = 0"
    for method in ("rk4", "expm"):
        with pytest.raises(ValueError, match=message):
            dyn.integrate(gen, y0, 1.0, 0.1, method, SpinContext(1), 0.0)
        with pytest.raises(ValueError, match=message):  # on the call, before any step
            dyn.lockstep(gen, y0, 1.0, 0.1, method)


@pytest.mark.parametrize("coeff", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_coefficients_are_refused_at_every_entry_point(coeff):
    """A NaN or infinite coefficient is refused by name, not turned into NaN
    entries or a misleading Hermiticity error."""
    ctx = SpinContext(4)
    expr = [(-1.0, (3,)), (coeff, (1,))]
    message = r"expression term \(.*\) has a non-finite coefficient"
    with pytest.raises(ValueError, match=message):
        bopp.evaluate_expression(expr, bopp.bopp_matrices(ctx, 0.0))
    with pytest.raises(ValueError, match=message):
        dyn.qfp_generator(expr, None, 0.0, ctx)
    with pytest.raises(ValueError, match=message):
        dyn.BathSpec(expr, 0.1, 1.0)
    with pytest.raises(ValueError, match=message):
        dyn.classical_generators(expr, 0.4 * np.eye(3), 1.0, 6, ctx.s)


def test_boltzmann_state_is_stationary_for_linear_hamiltonian():
    L, s, temperature, b3 = 24, 10.0, 0.25, 1.0
    lam = 0.4 * np.eye(3)
    fp = dyn.classical_generators([(-b3, (3,))], lam, temperature, L, s)
    thetas, phis, _ = oracles.quadrature(L)
    vals = np.exp((b3 / temperature) * np.cos(thetas))[:, None] * np.ones((1, phis.size))
    c = oracles.analyze(L, vals.astype(complex))
    c = c / c[0]
    assert np.linalg.norm(fp @ c) / np.linalg.norm(c) < 1e-10


def test_boltzmann_state_is_stationary_for_nonlinear_hamiltonian():
    """exp(-H/T) is stationary under the Fokker-Planck generator for a
    quadratic H as well, on the shells below the truncated top of the band;
    the reversed weight exp(+H/T) is not."""
    L, s, temperature = 24, 10.0, 0.5
    fp = dyn.classical_generators([(-1.0, (3, 3)), (0.3, (1,))],
                                  0.4 * np.eye(3), temperature, L, s)
    thetas, phis, _ = oracles.quadrature(L)
    m1 = np.sin(thetas)[:, None] * np.cos(phis)[None, :]
    h = -(np.cos(thetas) ** 2)[:, None] + 0.3 * m1
    interior = 21 ** 2

    def residual(sign):
        c = oracles.analyze(L, np.exp(sign * h / temperature).astype(complex))
        return np.linalg.norm((fp @ c)[:interior]) / np.linalg.norm(c)

    assert residual(-1.0) < 1e-12
    assert residual(+1.0) > 1e-2


def test_free_diffusion_spectrum_is_shellwise():
    L, s, temperature = 12, 4.0, 0.7
    lam_val = 0.3
    fp = dyn.classical_generators([], lam_val * np.eye(3), temperature, L, s)
    ls, _ = so.lm_arrays(L)
    fp = fp.toarray()
    np.testing.assert_allclose(np.diag(fp),
                               -(lam_val * temperature / s) * ls * (ls + 1),
                               atol=1e-14)
    np.testing.assert_allclose(fp - np.diag(np.diag(fp)), 0, atol=1e-14)


def test_classical_generators_conserve_total_probability():
    L, s = 10, 5.0
    lam = 0.2 * np.eye(3)
    h = [(0.3, (1,)), (-1.0, (3,))]
    liou = dyn.classical_generators(h, np.zeros((3, 3)), 0.5, L, s)
    fp = dyn.classical_generators(h, lam, 0.5, L, s)
    # d/dt of the l = 0 coefficient vanishes for every state
    assert np.max(np.abs(liou.toarray()[0])) < 1e-14
    assert np.max(np.abs(fp.toarray()[0])) < 1e-14


# --- states, integration, trajectories ------------------------------------------------

def test_coherent_state_points_along_its_angles():
    """Any theta0 names the direction n(theta0, phi0), a negative sine included."""
    ctx = SpinContext(5)
    s_ops = spin_matrices(ctx)
    for theta0, phi0 in ((1.1, 2.3), (-1.1, 0.4), (4.0, 0.4)):
        rho = dyn.coherent_state(ctx, theta0, phi0)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-13)
        direction = np.array([math.sin(theta0) * math.cos(phi0),
                              math.sin(theta0) * math.sin(phi0),
                              math.cos(theta0)])
        got = np.array([np.trace(op @ rho).real for op in s_ops])
        np.testing.assert_allclose(got, ctx.s * direction, atol=1e-12)


@pytest.mark.parametrize("twice_s", (1, 2, 7, 40, 81, 160))
def test_coherent_state_matches_the_dense_rotation(twice_s):
    """rho = |u0><u0| with u0 column 0 of Rz(phi0) expm(-i theta0 S2), for
    theta0 in and outside [0, pi]."""
    ctx = SpinContext(twice_s)
    _, s2, _ = spin_matrices(ctx)
    for theta0, phi0 in ((0.0, 0.0), (1.1, 2.3), (math.pi / 2, -0.7), (math.pi, 0.4),
                         (-1.1, 0.4), (4.0, 0.4), (-math.pi, 1.0), (7.0, 0.3)):
        ket = (rotation_z(ctx, phi0) @ la.expm(-1j * theta0 * s2))[:, 0]
        np.testing.assert_allclose(dyn.coherent_state(ctx, theta0, phi0),
                                   np.outer(ket, ket.conj()), rtol=0, atol=1e-14)


@pytest.mark.parametrize("angles", [(math.nan, 0.0), (0.3, math.nan), (0.3, math.inf)])
def test_coherent_state_refuses_non_finite_angles(angles):
    with pytest.raises(ValueError, match="angles must be finite"):
        dyn.coherent_state(SpinContext(4), *angles)


def test_coherent_state_past_the_kernel_range_is_refused_by_name():
    """From 2S = 1030 on, the sigma = 1 factors of the kernel leave the normal
    double range: the refusal names the coherent state and 2S, not an ordering
    the caller never asked for.  2S = 1029 is in range."""
    with pytest.raises(ValueError, match=r"^a coherent state at 2S = 1030 is out of range: "
                                         r"its kernel's factors w_l\^-1 leave the normal "
                                         r"double range$"):
        dyn.coherent_state(SpinContext(1030), 1.1, 0.4)
    assert np.all(np.isfinite(swt._factors(SpinContext(1029), 1.0)))


def test_integrate_adjusts_dt_and_attaches_observables():
    ctx = SpinContext(2)
    gen = dyn.qfp_generator([(-1.0, (3,))], None, 0.0, ctx)
    c0 = swt.operator_to_symbol(dyn.coherent_state(ctx, 1.2, 0.0), 0.0, ctx)
    res = dyn.integrate(gen, c0, 1.0, 0.3, "rk4", ctx=ctx, sigma=0.0,
                        kind="symbol")
    np.testing.assert_allclose(np.diff(res.times), 1.0 / 3.0, atol=1e-15)
    assert _every_state(gen, c0, 1.0, 0.3, "rk4").shape[0] == 4
    for field in (res.s1, res.s2, res.s3, res.trace, res.purity):
        assert field.shape == (4,)
    np.testing.assert_allclose(res.trace, 1.0, atol=1e-12)
    # purity only to rk4 truncation order at this coarse step
    np.testing.assert_allclose(res.purity, 1.0, atol=1e-3)


def test_integrate_larmor_rotates_transverse_spin():
    """d<S>/dt = <S> x B for H = -B.S; phases follow exp(-i B3 t)."""
    ctx = SpinContext(3)
    b3 = 1.0
    gen = dyn.qfp_generator([(-b3, (3,))], None, 0.0, ctx)
    c0 = swt.operator_to_symbol(dyn.coherent_state(ctx, 0.8, 0.3), 0.0, ctx)
    res = dyn.integrate(gen, c0, 3.0, 0.01, "expm", ctx=ctx, sigma=0.0,
                        kind="symbol")
    transverse = res.s1 + 1j * res.s2
    expected = transverse[0] * np.exp(-1j * b3 * res.times)
    np.testing.assert_allclose(transverse, expected, atol=1e-10)


@pytest.mark.parametrize("sigma", [-1.0, 0.0, 0.5, 1.0])
def test_integrate_density_matches_symbol_route(sigma):
    """Every observable of the symbol route, the purity read on the sigma = 0
    coefficients too, is the dense master equation's at every ordering."""
    ctx = SpinContext(2)
    h_expr = [(-1.0, (3,)), (0.2, (1,))]
    f_expr = [(1.0, (1,))]
    bath = dyn.BathSpec(tuple(f_expr), 0.1, 1.0)
    gen = dyn.qfp_generator(h_expr, bath, sigma, ctx)
    rho0 = dyn.coherent_state(ctx, 1.0, 0.5)
    c0 = swt.operator_to_symbol(rho0, sigma, ctx)
    sym = dyn.integrate(gen, c0, 2.0, 0.05, "expm", ctx=ctx, sigma=sigma,
                        kind="symbol")
    h = bopp.expression_to_matrix(h_expr, ctx)
    f = bopp.expression_to_matrix(f_expr, ctx)
    liou = dyn.master_liouvillian(h, f, bath.gamma, bath.temperature)
    rhos = [dyn.unvec_density(v) for v in _every_state(liou, dyn.vec_density(rho0), 2.0, 0.05)]
    s1, s2, s3 = ([np.trace(m @ r).real for r in rhos] for m in spin_matrices(ctx))
    trace = [np.trace(r).real for r in rhos]
    purity = [np.trace(r @ r).real for r in rhos]
    for a, b in ((sym.s1, s1), (sym.s2, s2), (sym.s3, s3),
                 (sym.trace, trace), (sym.purity, purity)):
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_integrate_observes_with_one_ordering_switch_and_three_pairings(monkeypatch):
    """Over N steps the observer switches ordering once, for its sigma -> 0
    factors, and pairs only S1, S2, S3 with each of the N + 1 states: the
    purity is the norm of the sigma = 0 coefficients, with no dual state."""
    ctx, n_steps = SpinContext(4), 6
    gen = dyn.qfp_generator([(-1.0, (3,)), (0.2, (1, 1))], None, 0.5, ctx)
    c0 = swt.operator_to_symbol(dyn.coherent_state(ctx, 1.1, 0.4), 0.5, ctx)
    calls = {"switch_ordering": 0, "expectation": 0, "apply_conjugation": 0}
    for module, name in ((swt, "switch_ordering"), (swt, "expectation"),
                         (so, "apply_conjugation")):
        def counted(*args, _name=name, _real=getattr(module, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    res = dyn.integrate(gen, c0, 0.6, 0.1, "rk4", ctx, 0.5)
    assert res.times.size == n_steps + 1
    assert calls == {"switch_ordering": 1, "expectation": 3 * (n_steps + 1),
                     "apply_conjugation": 3 * (n_steps + 1)}


@pytest.mark.parametrize("method", ["rk4", "expm"])
def test_a_generator_of_another_size_than_y0_is_refused_on_the_call(monkeypatch, method):
    """A 2S=3 generator with a 2S=4 state is refused by lockstep when it is
    called, and so by integrate, naming both sizes: not a matmul error at
    the first step.  The stubbed steppers fail on any call."""
    def no_stepper(gen, dt_used):
        raise AssertionError("built a stepper before checking gen against y0")

    monkeypatch.setattr(dyn, "_rk4_step", no_stepper)
    monkeypatch.setattr(dyn, "_taylor_step", no_stepper)
    ctx = SpinContext(4)
    gen = dyn.qfp_generator([(-1.0, (3,))], None, 0.0, SpinContext(3))
    c0 = swt.operator_to_symbol(dyn.coherent_state(ctx, 1.1, 0.4), 0.0, ctx)
    message = r"gen has shape \(16, 16\), but y0 has 25 coefficients"
    with pytest.raises(ValueError, match=message):
        dyn.integrate(gen, c0, 1.0, 0.1, method, ctx=ctx, sigma=0.0)
    with pytest.raises(ValueError, match=message):
        dyn.lockstep(gen, c0, 1.0, 0.1, method)
    with pytest.raises(ValueError, match=r"gen has shape \(25,\), but y0 has 25"):
        dyn.lockstep(np.ones(25), c0, 1.0, 0.1, method)


@pytest.mark.parametrize("method", ["rk4", "expm"])
def test_integrate_refuses_a_state_of_another_spin_than_ctx_before_stepping(
        monkeypatch, method):
    """A 2S=20 generator and state with a 2S=10 ctx are refused before any step:
    the stubbed steppers fail on any call."""
    def no_stepper(gen, dt_used):
        def step(y):
            raise AssertionError("stepped before checking y0 against ctx")
        return step

    monkeypatch.setattr(dyn, "_rk4_step", no_stepper)
    monkeypatch.setattr(dyn, "_taylor_step", no_stepper)
    ctx = SpinContext(20)
    gen = dyn.qfp_generator([(-1.0, (3,))], None, 0.0, ctx)
    c0 = swt.operator_to_symbol(dyn.coherent_state(ctx, 1.2, 0.0), 0.0, ctx)
    with pytest.raises(ValueError, match="y0 has 441 coefficients.*symbol_dim 121"):
        dyn.integrate(gen, c0, 50.0, 0.01, method, ctx=SpinContext(10), sigma=0.0,
                      kind="symbol")


def test_integrate_refuses_density_observables():
    """integrate observes symbol states only: a kind other than "symbol", None
    included, is refused, and so is a call without ctx or sigma."""
    gen, c0 = np.zeros((4, 4)), np.zeros(4)
    for kind in ("density", None):
        with pytest.raises(ValueError, match=re.escape(
                f'unknown kind {kind!r}: integrate takes only "symbol"')):
            dyn.integrate(gen, c0, 1.0, 0.5, "expm", SpinContext(1), 0.0, kind)
    with pytest.raises(TypeError, match="missing 2 required positional arguments: 'ctx' "
                                        "and 'sigma'"):
        dyn.integrate(gen, c0, 1.0, 0.5, "expm")
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'sigma'"):
        dyn.integrate(gen, c0, 1.0, 0.5, "expm", ctx=SpinContext(1), kind="symbol")


@pytest.mark.parametrize("missing", ["ctx", "sigma"])
def test_integrate_refuses_a_ctx_or_sigma_of_none_by_name_before_stepping(monkeypatch,
                                                                         missing):
    """An explicit None is refused by name, not by an AttributeError or a
    TypeError from the observers' set-up: the stubbed steppers fail if built."""
    def no_stepper(gen, dt_used):
        raise AssertionError("built a stepper before checking ctx and sigma")

    monkeypatch.setattr(dyn, "_rk4_step", no_stepper)
    monkeypatch.setattr(dyn, "_taylor_step", no_stepper)
    given = {"ctx": SpinContext(1), "sigma": 0.0, missing: None}
    message = f"integrate needs a ctx and a sigma, got .*{missing}=None"
    with pytest.raises(TypeError, match=message):
        dyn.integrate(np.zeros((4, 4)), np.zeros(4), 1.0, 0.5, "expm", **given)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_integrate_flags_divergence_with_time_stamp():
    gen = np.array([[500.0]])
    with pytest.raises(RuntimeError, match="t ="):
        _every_state(gen, np.array([1.0 + 0j]), 100.0, 1.0, "rk4")


def _dissipative_case(twice_s, sigma):
    ctx = SpinContext(twice_s)
    bath = dyn.BathSpec(((0.6, (1,)), (0.8, (3,))), 0.3, 1.5)
    gen = dyn.qfp_generator([(-1.0, (3,)), (0.4, (1, 1))], bath, sigma, ctx)
    c0 = swt.operator_to_symbol(dyn.coherent_state(ctx, 1.1, 0.4), sigma, ctx)
    return ctx, gen, c0


def _every_state(gen, y0, t_end, dt, method="expm"):
    """Every state lockstep hands out for one system, each written into one
    array as it comes."""
    times, states = dyn.lockstep(gen, y0, t_end, dt, method)
    out = np.empty((times.size, np.size(y0)), dtype=complex)
    for k, y in enumerate(states):
        out[k] = y
    return out


def _observables(ctx, sigma, states):
    """(s1, s2, s3, trace, purity, reality) of each symbol state, by the
    observer integrate uses."""
    observe, obs = dyn._symbol_observables(ctx, sigma), np.empty((len(states), 6))
    for y, row in zip(states, obs):
        observe(y, row)
    return obs.T


@pytest.mark.parametrize("kind", ("symbol",))
@pytest.mark.parametrize("method", ("rk4", "expm"))
def test_integrate_states_are_the_initial_and_the_final_state(method, kind):
    """integrate keeps two states, y0 and the last, beside its observables."""
    ctx, gen, c0 = _dissipative_case(5, 0.5)
    res = dyn.integrate(gen, c0, 1.0, 0.05, method, ctx=ctx, sigma=0.5, kind=kind)
    assert res.states.shape[0] == 2
    assert res.states.tobytes() == _every_state(gen, c0, 1.0, 0.05, method)[[0, -1]].tobytes()


@pytest.mark.parametrize("twice_s", (2, 5, 6))
@pytest.mark.parametrize("sigma", (-1.0, 0.0, 0.5, 1.0))
def test_integrate_expm_matches_dense_exponential(twice_s, sigma):
    """Streamed by lockstep one step at a time at dt 0.25 and 0.2, each state
    starts from the one before and still equals expm(G t_k) c0, computed
    densely; integrate keeps the same grid and ends on the last of them."""
    ctx, gen, c0 = _dissipative_case(twice_s, sigma)
    dense = gen.toarray()
    for dt, n_steps in ((0.25, 8), (0.2, 10)):
        times, states = dyn.lockstep(gen, c0, 2.0, dt, "expm")
        np.testing.assert_allclose(times, dt * np.arange(n_steps + 1), atol=1e-15)
        for t, state in zip(times, states, strict=True):
            np.testing.assert_allclose(state, la.expm(dense * t) @ c0, rtol=0, atol=1e-13)
        ends = dyn.integrate(gen, c0, 2.0, dt, "expm", ctx, sigma)
        assert ends.times.tobytes() == times.tobytes()
        assert ends.states[-1].tobytes() == state.tobytes()


def test_integrate_expm_ignores_global_rng_state():
    """The expm step draws no random numbers: the states, streamed by lockstep
    or kept at the ends by integrate, do not depend on the caller's global RNG
    stream and leave it untouched."""
    ctx, gen, c0 = _dissipative_case(10, 0.5)
    outputs = []
    for seed in (0, 12345):
        np.random.seed(seed)
        ends = dyn.integrate(gen, c0, 4.0, 0.05, "expm", ctx, 0.5).states
        outputs.append(ends.tobytes() + _every_state(gen, c0, 4.0, 0.05).tobytes())
        after = np.random.random()
        np.random.seed(seed)
        assert after == np.random.random()
    assert outputs[0] == outputs[1]


def test_integrate_expm_flags_overflow_step():
    gen = 1e3 * sp.identity(3, dtype=complex, format="csr")
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(RuntimeError, match=r"step 8/10"):
            _every_state(gen, np.ones(3, dtype=complex), 1.0, 0.1, "expm")


def test_integrate_flags_overflow_step_in_a_later_block():
    """exp(1000 t) overflows at step 8/10 under expm.  Under rk4 at rate 500
    and dt 1, lockstep names step k > 1, the first at which a loop of the
    same stepper from y0 leaves the finite doubles: the overflow is named by
    its step, however many steps came before it."""
    gen = 1e3 * sp.identity(3, dtype=complex, format="csr")
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(RuntimeError, match=r"step 8/10"):
            _every_state(gen, np.ones(3, dtype=complex), 1.0, 0.1, "expm")
    gen, y = np.array([[500.0]]), np.array([1.0 + 0j])
    step, k = dyn._rk4_step(gen, 1.0), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.all(np.isfinite(y)):
            y, k = step(y), k + 1
        with pytest.raises(RuntimeError, match=rf"\(step {k}/100, dt = 1\)$"):
            _every_state(gen, np.array([1.0 + 0j]), 100.0, 1.0, "rk4")
    assert 1 < k < 100


def test_integrate_streaming_flags_overflow_step_in_a_later_block():
    """Streaming one system through lockstep, every state before the overflow
    is yielded, and the overflow is named by its step with the same message
    as integrate: step 8/10 under expm at rate 1000, step k > 1 under rk4."""
    eye, y0 = sp.identity(4, dtype=complex, format="csr"), np.ones(4, dtype=complex)
    for rate, t_end, dt, method in ((1e3, 1.0, 0.1, "expm"), (5e2, 100.0, 1.0, "rk4")):
        gen = rate * eye
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError) as alone:
                dyn.integrate(gen, y0, t_end, dt, method, SpinContext(1), 0.0)
            yielded = []
            with pytest.raises(RuntimeError) as streamed:
                for y in dyn.lockstep(gen, y0, t_end, dt, method)[1]:
                    yielded.append(y)
        assert str(streamed.value) == str(alone.value)
        assert f"(step {len(yielded)}/" in str(streamed.value)
        assert 1 < len(yielded) and all(np.all(np.isfinite(y)) for y in yielded)
        assert method == "rk4" or len(yielded) == 8


@pytest.mark.parametrize("sigma", [-1.0, -0.5, 0.0, 1.0])
@pytest.mark.parametrize("twice_s", [1, 2, 10, 40, 80, 160])
def test_observables_pair_states_with_the_closed_form_spin_symbols(monkeypatch, twice_s,
                                                                   sigma):
    """integrate's S1, S2, S3 pair a state at sigma with the symbols of S_k at
    tau = -sigma: sqrt(S(S+1)) ((S+1)/S)^(tau/2) m_k on shell 1 and zero on
    every other shell, to 1e-13 of the largest.  The transform's symbols at
    tau = +1 were off by up to 3.6e-3 at 2S = 40 and 3.6e9 at 2S = 80."""
    ctx = SpinContext(twice_s)
    s = ctx.s
    paired, expectation = [], swt.expectation
    monkeypatch.setattr(swt, "expectation",
                        lambda c_a, c_rho, ctx: paired.append(c_a) or expectation(c_a, c_rho, ctx))
    state = np.zeros(ctx.symbol_dim, dtype=complex)
    state[0] = math.sqrt(4.0 * math.pi) / ctx.hilbert_dim  # the mixed state
    dyn._symbol_observables(ctx, sigma)(state, np.empty(6))
    scale = math.sqrt(s * (s + 1)) * ((s + 1) / s) ** (-sigma / 2)
    m_k = math.sqrt(2 * math.pi / 3) * np.array([[1, 0, -1], [1j, 0, 1j], [0, math.sqrt(2), 0]])
    for dual, m in zip(paired[:3], m_k, strict=True):
        want = np.zeros(ctx.symbol_dim, dtype=complex)
        want[1:4] = scale * m
        assert np.max(np.abs(dual - want)) <= 1e-13 * scale


@pytest.mark.parametrize("method", ("rk4", "expm"))
def test_integrate_without_states_keeps_the_ends_and_observables(method):
    """integrate keeps the initial and the final state, and every observable,
    byte for byte as those of every state lockstep hands out."""
    ctx, gen, c0 = _dissipative_case(5, 1.0)
    fields = ("s1", "s2", "s3", "trace", "purity", "reality")
    ends = dyn.integrate(gen, c0, 1.0, 0.05, method, ctx=ctx, sigma=1.0, kind="symbol")
    times, _ = dyn.lockstep(gen, c0, 1.0, 0.05, method)
    full = _every_state(gen, c0, 1.0, 0.05, method)
    assert ends.times.tobytes() == times.tobytes()
    assert ends.states.shape == (2, c0.size)
    assert ends.states.tobytes() == full[[0, -1]].tobytes()
    for name, column in zip(fields, _observables(ctx, 1.0, full), strict=True):
        assert getattr(ends, name).tobytes() == column.tobytes()
    assert np.max(ends.reality) < 1e-12


def test_integrate_rk4_blocks_are_byte_identical_to_one_block():
    """A run restarted from its last state every 3 steps (32 steps: ten blocks
    of 3 and one of 2) has, byte for byte, the states (as lockstep hands them
    out) and observables of one run: a step reads nothing but the state
    before it.  dt = 1/16 keeps dt_used the same in every block."""
    ctx, gen, c0 = _dissipative_case(6, 0.5)
    fields = ("states", "s1", "s2", "s3", "trace", "purity", "reality")

    def run(y0, n_steps):
        res = dyn.integrate(gen, y0, n_steps / 16, 1 / 16, "rk4", ctx=ctx, sigma=0.5,
                            kind="symbol")
        res.states = _every_state(gen, y0, n_steps / 16, 1 / 16, "rk4")
        return res

    whole, blocks, y = run(c0, 32), [], c0
    for n_steps in [3] * 10 + [2]:
        blocks.append(run(y, n_steps))
        y = blocks[-1].states[-1]
    for name in fields:
        joined = np.concatenate([getattr(blocks[0], name)[:1]]
                                + [getattr(b, name)[1:] for b in blocks])
        assert joined.tobytes() == getattr(whole, name).tobytes()


@pytest.mark.parametrize("method", ("rk4", "expm"))
@pytest.mark.parametrize("rows", (3, 6))
def test_integrate_streaming_with_a_partial_last_block_matches_one_buffer(method, rows):
    """A consumer that holds lockstep's 41 states in blocks of 3 or 6, the last
    one partial, sees the states written into one buffer as they came, byte
    for byte: no state handed out is overwritten by a later step.  integrate
    keeps the ends and every observable of that buffer."""
    ctx, gen, c0 = _dissipative_case(6, 0.5)
    fields = ("s1", "s2", "s3", "trace", "purity", "reality")
    full = _every_state(gen, c0, 2.0, 0.05, method)
    ends = dyn.integrate(gen, c0, 2.0, 0.05, method, ctx=ctx, sigma=0.5, kind="symbol")
    assert len(ends.times) == len(full) == 41 and 41 % rows
    stream, held = dyn.lockstep(gen, c0, 2.0, 0.05, method)[1], []
    while block := list(itertools.islice(stream, rows)):
        held.append(block)
    assert len(held[-1]) == 41 % rows
    assert np.array(sum(held, [])).tobytes() == full.tobytes()
    assert ends.states.shape == (2, c0.size)
    assert ends.states.tobytes() == full[[0, -1]].tobytes()
    for name, column in zip(fields, _observables(ctx, 0.5, full), strict=True):
        assert getattr(ends, name).tobytes() == column.tobytes()

def test_integrate_reality_column_sees_a_non_real_step():
    """exp(i t) c0 leaves the real symbols at t = pi/2 and is real at t = pi."""
    ctx, _, c0 = _dissipative_case(2, 0.0)
    gen = 1j * sp.identity(c0.size, dtype=complex, format="csr")
    res = dyn.integrate(gen, c0, math.pi, math.pi / 8, "expm", ctx=ctx, sigma=0.0,
                        kind="symbol")
    assert res.reality[4] == pytest.approx(2 * np.max(np.abs(c0)), rel=1e-12)
    assert res.reality[0] < 1e-15 and res.reality[-1] < 1e-14


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method", ("rk4", "expm"))
def test_integrate_streaming_peak_does_not_grow_with_the_step_count(method):
    """The peak of a run of 1000 steps exceeds that of 100 steps by less than
    its longer times and observables, 7 doubles a step, and half a state of
    interpreter noise; each kept state would add 16 B x (2S+1)^2 = 1936 B more."""
    ctx, gen, c0 = _dissipative_case(10, 0.5)

    def run(steps):
        return dyn.integrate(gen, c0, steps * 0.01, 0.01, method, ctx=ctx, sigma=0.5,
                             kind="symbol")

    run(1)  # warms the caches
    (short, peak_100), (long, peak_1000) = _traced_peak(lambda: run(100)), \
        _traced_peak(lambda: run(1000))
    assert short.states.shape == long.states.shape == (2, c0.size)
    assert peak_1000 - peak_100 < 900 * 7 * 8 + c0.nbytes / 2


@pytest.mark.parametrize("method", ("rk4", "expm"))
def test_integrate_keeps_states_without_a_second_copy(method):
    """States that lockstep hands out can be written straight into one array:
    lockstep holds only the current state, so there is no second copy."""
    _, gen, c0 = _dissipative_case(10, 0.5)
    states, peak = _traced_peak(lambda: _every_state(gen, c0, 10.0, 0.01, method))
    assert states.shape == (1001, c0.size)
    assert peak < 1.25 * states.nbytes


def test_lockstep_states_are_the_integrated_states():
    """Two lockstep streams zipped, as compare steps the oracle and the symbol
    route, hand out at each step the state each stream computes alone, bit
    for bit, from and to integrate's ends."""
    ctx = SpinContext(2)
    gen = dyn.qfp_generator([(-1.0, (3,))], dyn.BathSpec(((1.0, (1,)),), 0.1, 1.0), 0.5, ctx)
    rho0 = dyn.coherent_state(ctx, 0.9, 0.2)
    liou = dyn.master_liouvillian(bopp.expression_to_matrix([(-1.0, (3,))], ctx),
                                  bopp.expression_to_matrix([(1.0, (1,))], ctx), 0.1, 1.0)
    y0s = [dyn.vec_density(rho0), swt.operator_to_symbol(rho0, 0.5, ctx)]
    for method in ("rk4", "expm"):
        whole = [_every_state(g, y, 1.0, 0.1, method) for g, y in zip([liou, gen], y0s)]
        ends = dyn.integrate(gen, y0s[1], 1.0, 0.1, method, ctx, 0.5)
        assert np.array_equal(ends.states, whole[1][[0, -1]])
        (times, rhos), (_, cs) = (dyn.lockstep(g, y, 1.0, 0.1, method)
                                  for g, y in zip([liou, gen], y0s))
        assert np.array_equal(times, ends.times)
        steps = 0
        for k, ys in enumerate(zip(rhos, cs)):
            for kept, y in zip(whole, ys, strict=True):
                assert np.array_equal(kept[k], y)
            steps += 1
        assert steps == 11


@pytest.mark.parametrize("t_end, dt", [(math.inf, 0.1), (math.nan, 0.1),
                                       (1.0, math.inf), (1.0, math.nan)])
def test_time_steps_rejects_a_non_finite_grid(t_end, dt):
    with pytest.raises(ValueError, match="finite"):
        dyn.time_steps(t_end, dt)


@pytest.mark.parametrize("t_end, dt", [(1e300, 1e-10), (1e14, 0.1)])
def test_time_steps_refuses_counts_above_the_ceiling(t_end, dt):
    """An overflowing ratio (inf) and a finite absurd one are both refused."""
    with pytest.raises(ValueError, match=f"MAX_STEPS = {dyn.MAX_STEPS} steps"):
        dyn.time_steps(t_end, dt)


def test_time_steps_accepts_the_ceiling():
    assert dyn.MAX_STEPS == 10 ** 7
    assert dyn.time_steps(float(dyn.MAX_STEPS), 1.0) == (dyn.MAX_STEPS, 1.0)
    assert dyn.time_steps(1.0, 1.0 / dyn.MAX_STEPS)[0] == dyn.MAX_STEPS


@pytest.mark.parametrize("twice_s", (10, 20))
@pytest.mark.parametrize("sigma", (0.0, 1.0))
def test_integrate_expm_matches_expm_multiply(twice_s, sigma):
    """Every state of the README's 400-step damped precession against scipy's
    expm_multiply over the same grid, which shares no code with the Taylor step."""
    from scipy.sparse.linalg import expm_multiply

    ctx = SpinContext(twice_s)
    gen = dyn.qfp_generator([(-1.0, (3,))], dyn.BathSpec(((1.0, (1,)),), 0.1, 1.0),
                            sigma, ctx)
    c0 = swt.operator_to_symbol(dyn.coherent_state(ctx, 1.1, 0.3), sigma, ctx)
    states = _every_state(gen, c0, 20.0, 0.05)
    want = expm_multiply(gen, c0, start=0.0, stop=20.0, num=401, endpoint=True)
    assert states.shape == want.shape == (401, c0.size)
    assert np.max(np.abs(states - want)) <= 1e-13 * np.max(np.abs(want))


def test_taylor_parameters_come_once_from_the_exact_one_norm(monkeypatch):
    """The norm handed to the (m, s) choice is the dense column-sum norm of
    (G - trace(G)/n I) dt, read once per run."""
    ctx, gen, c0 = _dissipative_case(10, 0.5)
    seen = []
    choose = dyn._taylor_parameters
    monkeypatch.setattr(dyn, "_taylor_parameters", lambda norm: seen.append(norm) or choose(norm))
    dyn.integrate(gen, c0, 2.0, 0.05, "expm", ctx=ctx, sigma=0.5, kind="symbol")
    dense = gen.toarray()
    n = dense.shape[0]
    shifted = (dense - np.trace(dense) / n * np.eye(n)) * 0.05
    assert seen == [pytest.approx(np.abs(shifted).sum(axis=0).max(), rel=1e-14, abs=0)]


@pytest.mark.parametrize("norm", (0.0, 1e-3, 0.1, 0.5, 7.46, 8.86, 30.0, 1e3))
def test_taylor_parameters_are_the_cheapest_admissible_pair(norm):
    """m*s is the least over every table degree m and substep count s with
    norm / s <= theta_m, found here by brute force."""
    m, s = dyn._taylor_parameters(norm)
    assert norm / s <= dyn._THETA[m]
    assert m * s == min(mm * ss for mm, theta in dyn._THETA.items()
                        for ss in range(1, 1000) if norm / ss <= theta)


def test_taylor_step_refuses_more_substeps_than_max_steps():
    """H = 1e300 S3 at 2S = 4 and dt 0.5 would take s = 2.0e299 substeps a step:
    the stepper is refused, naming ||A||_1 and s, before any step is taken.
    At ||A||_1 = 1e7 (s about 1e6) it is returned."""
    gen = dyn.qfp_generator([(1e300, (3,))], None, 0.0, SpinContext(4))
    with pytest.raises(RuntimeError, match=r"\|\|A\|\|_1 = 2e\+300 .* needs s = 2\.0202e\+299 "
                                           r"Taylor substeps, above MAX_STEPS = 10000000"):
        dyn._taylor_step(gen, 0.5)
    with pytest.raises(RuntimeError, match=r"needs s = 2\.0202e\+299 Taylor substeps"):
        dyn.lockstep(gen, np.ones(25), 1.0, 0.5, "expm")  # on the call, before any step
    assert callable(dyn._taylor_step(gen * 1e-293, 0.5))


@pytest.mark.parametrize("bath", [None, dyn.BathSpec(((1e308, (1, 1)),), 1.0, 1.0)])
def test_an_overflowing_polynomial_is_a_numerical_failure_not_non_hermitian(bath):
    """1e308 S3S3 as H and 1e308 S1S1 as F are Hermitian, but their symbols
    overflow: the check names the overflow as a RuntimeError instead of
    calling the polynomial non-Hermitian."""
    ctx = SpinContext(4)
    h = [(1e308, (3, 3))] if bath is None else [(-1.0, (3,))]
    what = "Hamiltonian" if bath is None else "coupling operator"
    with pytest.raises(RuntimeError, match=f"the symbol of the {what} overflows"):
        dyn.qfp_generator(h, bath, 0.0, ctx)


def test_taylor_parameters_at_the_documented_norms():
    assert dyn._taylor_parameters(7.46) == (50, 1)
    assert dyn._taylor_parameters(8.86) == (55, 1)


def test_integrate_rejects_bad_method_and_steps():
    ctx = SpinContext(1)
    gen = dyn.qfp_generator([(-1.0, (3,))], None, 0.0, ctx)
    c0 = np.zeros(ctx.symbol_dim, dtype=complex)
    with pytest.raises(ValueError):
        dyn.integrate(gen, c0, 1.0, 0.1, "euler", ctx, 0.0)
    with pytest.raises(ValueError):
        dyn.integrate(gen, c0, -1.0, 0.1, "rk4", ctx, 0.0)


def test_evolve_trajectory_csv_layout(tmp_path):
    """The trajectory `evolve` writes holds the library's observables exactly."""
    ctx = SpinContext(2)
    gen = dyn.qfp_generator([(-1.0, (3,))], None, 0.0, ctx)
    c0 = swt.operator_to_symbol(dyn.coherent_state(ctx, 1.0, 0.0), 0.0, ctx)
    res = dyn.integrate(gen, c0, 1.0, 0.25, "expm", ctx=ctx, sigma=0.0,
                        kind="symbol")
    cfg = {"spin": {"twice_s": 2}, "sigma": 0.0, "hamiltonian": {"expression": [[-1.0, [3]]]},
           "initial": {"coherent": {"theta": 1.0, "phi": 0.0}},
           "time": {"t_end": 1.0, "dt": 0.25, "method": "expm"},
           "outputs": {"trajectory": "traj.csv"}}
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    assert cli.main(["evolve", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path)]) == 0
    with open(tmp_path / "traj.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "Sx", "Sy", "Sz", "trace", "purity"]
    assert len(rows) == 1 + res.times.size
    assert float(rows[2][0]) == res.times[1]
    assert float(rows[2][3]) == res.s3[1]


# --- classical-limit scans ---------------------------------------------------------

# the README's scan: h = -m3, F = S1, gamma 2, T 0.1
_README_SCAN = dict(h=[(-1.0, (3,))], bath=dyn.BathSpec(((1.0, (1,)),), 2.0, 0.1))


def test_bilinear_scan_decays_inversely_with_spin():
    out = dyn.classical_limit_scan("bilinear", [10, 20, 40], -1.0, 3, **_README_SCAN)
    assert -1.3 < out["slope"] < -0.7
    assert np.all(np.diff(out["deviations"]) < 0)


def test_asymptotics_scan_decays_quadratically():
    out = dyn.classical_limit_scan("asymptotics", [20, 40, 80], 0.0, 4)
    assert -2.4 < out["slope"] < -1.6


def test_bilinear_scan_never_densifies_a_whole_generator():
    """Peak traced allocation of a scan up to 2S=40 stays far below one dense
    2S=40 generator (1681^2 complex entries, 43 MB): only the l <= l_test
    corner is made dense."""
    tracemalloc.start()
    try:
        out = dyn.classical_limit_scan("bilinear", [10, 20, 40], -1.0, 3, **_README_SCAN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert np.all(np.isfinite(out["deviations"]))
    gen = dyn.qfp_generator([(-1.0, (3,))], dyn.BathSpec(((1.0, (1,)),), 2.0, 0.1),
                            -1.0, SpinContext(10))
    assert np.array_equal(dyn._submatrix(gen, 3), gen.toarray()[:16, :16])


# h = -b.m with b = (0.3, -0.2, 1) and F = xi.S with xi = (0.5, 0.7, -0.2)
_SCAN_MODEL = dict(h=oracles.linear_expression([-0.3, 0.2, -1.0]),
                   bath=dyn.BathSpec(oracles.linear_expression([0.5, 0.7, -0.2]), 0.1, 1.0))


def test_scan_rejects_bad_modes_and_contaminated_blocks():
    for mode in ("nonsense", "unitary"):
        with pytest.raises(ValueError, match="scan mode must be"):
            dyn.classical_limit_scan(mode, [10, 20], 0.0, 3, **_SCAN_MODEL)
    with pytest.raises(ValueError, match=r"l_test = 3 exceeds min\(2S\) - 2 = 2; the truncated"):
        dyn.classical_limit_scan("bilinear", [4, 10], 0.0, 3, **_SCAN_MODEL)
    # the exact shell tables have no truncated top shell: asymptotics reads up to min(2S)
    for twice_s_values, l_test in (([1, 10], 0), ([4, 10], 4)):
        out = dyn.classical_limit_scan("asymptotics", twice_s_values, 0.0, l_test)
        assert np.all(np.isfinite(out["deviations"]))
    with pytest.raises(ValueError, match=r"l_test = 5 exceeds min\(2S\) = 4, the last shell"):
        dyn.classical_limit_scan("asymptotics", [4, 10], 0.0, 5)
    with pytest.raises(ValueError, match="l_test must be >= 0"):
        dyn.classical_limit_scan("bilinear", [4, 10], 0.0, -1, **_SCAN_MODEL)
    # every 2S is checked as a spin before the l_test bound reads it
    with pytest.raises(ValueError, match="twice_s must be >= 1"):
        dyn.classical_limit_scan("bilinear", [0, 10], 0.0, 3, **_SCAN_MODEL)
    with pytest.raises(ValueError, match="twice_s must be >= 1"):
        dyn.classical_limit_scan("asymptotics", [0, 10], 0.0, 0)


@pytest.mark.parametrize("twice_s_values, l_test, message", [
    ([math.inf, 10], 0, "twice_s must be an integer"),
    ([math.nan, 10], 0, "twice_s must be an integer"),
    ([4, 10], 2.5, "l_test must be an integer"),
    ([4, 10], True, "l_test must be an integer"),
    ([4, 10], math.nan, "l_test must be an integer"),
])
def test_scan_refuses_a_non_integer_spin_or_l_test_by_name(twice_s_values, l_test, message):
    """An infinite or NaN 2S is refused as a spin, not by int()'s OverflowError,
    and a fractional or boolean l_test by name, not by numpy's IndexError."""
    with pytest.raises(ValueError, match=message):
        dyn.classical_limit_scan("asymptotics", twice_s_values, 0.0, l_test)


@pytest.mark.parametrize("mode", ["bilinear", "asymptotics"])
def test_scan_takes_an_integral_float_l_test_as_its_int(mode):
    """l_test 3.0 passes the integer check and scans as 3, bit for bit, not
    into numpy's refusal of a float index (asymptotics) or slice bound
    (bilinear)."""
    model = _SCAN_MODEL if mode == "bilinear" else {}
    want, got = (dyn.classical_limit_scan(mode, [10, 20], 0.0, l_test, **model)
                 for l_test in (3, 3.0))
    for key in ("s_values", "deviations"):
        assert got[key].tobytes() == want[key].tobytes()
    assert math.isfinite(want["slope"]) and got["slope"] == want["slope"]


# (h, coupling, gamma, temperature, the 2S refused): each overflows in the
# bilinear row's own arithmetic, not in its inputs: the classical block of
# h = 1e307 m3 at 2S = 12, the zero-block bound at gamma = T = 1e154, Lam at
# gamma xi^2 = 1e500, S c for a constant c = 1e308, and the bound alone, with
# finite blocks, at T = 1e307
_OVERFLOWING_SCANS = {
    "block": ([(1e307, (3,))], ((1.0, (1,)),), 0.1, 1.0, 12),
    "bound": ([(-1.0, (3,))], ((1.0, (1,)),), 1e154, 1e154, 8),
    "lam": ([(-1.0, (3,))], ((1e200, (1,)),), 1e100, 1.0, 8),
    "constant": ([(1e308, ()), (-1.0, (3,))], ((1.0, (1,)),), 0.1, 1.0, 8),
    "bound-only": ([(1.0, (1, 1))], ((1e150, (1,)),), 1e-300, 1e307, 8),
}


@pytest.mark.parametrize("case", list(_OVERFLOWING_SCANS))
def test_bilinear_scan_refuses_an_overflow_as_one_naming_its_spin(capfd, case):
    """An overflow is a RuntimeError naming the 2S of its point: not a NaN
    deviation, a "compares nothing" or "lam must be a finite 3x3 matrix"
    ValueError, or a non-finite coefficient.  No RuntimeWarning escapes (the
    suite makes them errors), and LAPACK is never handed an inf."""
    h, coupling, gamma, temperature, twice_s = _OVERFLOWING_SCANS[case]
    with pytest.raises(RuntimeError, match=re.escape(
            f"the bilinear scan deviation at 2S = {twice_s} is nan, not finite: its "
            "arithmetic overflows")):
        dyn.classical_limit_scan("bilinear", [8, 12], -1.0, 3, h=h,
                                 bath=dyn.BathSpec(coupling, gamma, temperature))
    assert "DLASCL" not in "".join(capfd.readouterr())


@pytest.mark.parametrize("mode", list(dyn._SCAN_MODES))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_scan_driver_refuses_a_point_that_is_not_finite_in_every_mode(monkeypatch, mode, bad):
    """The driver checks every point of every row, so a row's point that
    returns a non-finite deviation at 2S = 20 is refused there, naming it."""
    read, point, cut, least = dyn._SCAN_MODES[mode]

    def second_not_finite(ctx, sigma, l_test, model):
        return bad if ctx.twice_s == 20 else point(ctx, sigma, l_test, model)

    monkeypatch.setitem(dyn._SCAN_MODES, mode, (read, second_not_finite, cut, least))
    model = _SCAN_MODEL if mode == "bilinear" else {}
    with pytest.raises(RuntimeError, match=re.escape(
            f"the {mode} scan deviation at 2S = 20 is {bad}, not finite")):
        dyn.classical_limit_scan(mode, [10, 20, 40], 0.0, 3, **model)


@pytest.mark.parametrize("key", ["h", "bath"])
def test_scan_modes_refuse_the_inputs_they_do_not_read_and_need_those_they_do(key):
    """asymptotics compares shell tables, which neither h nor a bath enters,
    so it refuses each of them; bilinear reads both, so it needs each of them."""
    with pytest.raises(ValueError, match=f"asymptotics mode reads no {key}$"):
        dyn.classical_limit_scan("asymptotics", [10, 20], 0.0, 3, **{key: _SCAN_MODEL[key]})
    rest = {k: v for k, v in _SCAN_MODEL.items() if k != key}
    with pytest.raises(ValueError, match=f"bilinear mode needs {key}$"):
        dyn.classical_limit_scan("bilinear", [10, 20], 0.0, 3, **rest)


@pytest.mark.parametrize("key, value, message", [
    ("h", [(-1.0, (3,)), (0.5, (4,))], r"word \(4,\) has components outside"),
    ("h", [(-1.0, (3,)), (0.5j, (1, 2)), (-0.5j, (2, 1))], "h takes real coefficients only"),
    ("bath", ((1.0, (1, 2)),), "coupling must be xi.S with real xi"),
    ("bath", ((1.0, ()),), "coupling must be xi.S with real xi"),
    ("bath", ((1.0, (1,)), (0.5j, (3,))), "coupling must be xi.S with real xi"),
], ids=["b-long", "b-complex", "xi-long", "xi-short", "xi-complex"])
def test_bilinear_scan_refuses_what_is_not_a_real_3_vector(monkeypatch, key, value, message):
    """h, which carries the field, takes the words of S1, S2 and S3 with real
    coefficients, and the coupling must be xi.S with a real 3-vector xi: a
    word of another length or a complex coefficient is refused by name before
    any point is computed.  i(S1 S2 - S2 S1) is Hermitian, but the classical
    h it stands for is not real."""
    monkeypatch.setattr(dyn, "qfp_generator", None)  # no point may be computed
    if key == "bath":
        value = dyn.BathSpec(value, 0.1, 1.0)
    with pytest.raises(ValueError, match=message):
        dyn.classical_limit_scan("bilinear", [10, 20], 0.0, 3, **dict(_SCAN_MODEL, **{key: value}))


@pytest.mark.parametrize("gamma, xi", [(0.0, [0.5, 0.7, -0.2]), (0.1, [0.0, 0.0, 0.0])],
                         ids=["gamma-zero", "xi-zero"])
def test_bilinear_scan_with_no_field_and_no_diffusion_compares_nothing(gamma, xi):
    """With a constant h and gamma xi = 0 the classical generator is zero, and
    each deviation would be 0/0; a field alone, or a diffusion alone, compares."""
    constant = [(0.7, ())]
    bath = dyn.BathSpec([(x, (k + 1,)) for k, x in enumerate(xi)], gamma, 1.0)
    with pytest.raises(ValueError, match="a bilinear scan with a constant h and gamma xi = 0 "
                                         "compares nothing"):
        dyn.classical_limit_scan("bilinear", [6, 10], 0.0, 3, h=constant, bath=bath)
    for h, runs in ((constant + [(-1.0, (3,))], bath), (constant, _SCAN_MODEL["bath"])):
        out = dyn.classical_limit_scan("bilinear", [6, 10], 0.0, 3, h=h, bath=runs)
        assert np.all(np.isfinite(out["deviations"]))


def test_bilinear_scan_refuses_an_h_constant_on_the_sphere_at_gamma_zero():
    """h = m1^2 + m2^2 + m3^2 is 1 on the sphere: at gamma = 0 both compared
    blocks are rounding, and their ratio is no deviation.  The scan names the
    2S at which the classical block is zero to rounding; a small real field
    on top of it still compares."""
    sphere = [(1.0, (1, 1)), (1.0, (2, 2)), (1.0, (3, 3))]
    bath = dyn.BathSpec(((1.0, (1,)),), 0.0, 1.0)
    with pytest.raises(ValueError, match=r"compares nothing at 2S = 10: the classical "
                                         r"l <= 3 block is zero to rounding"):
        dyn.classical_limit_scan("bilinear", [10, 20], 0.0, 3, h=sphere, bath=bath)
    out = dyn.classical_limit_scan("bilinear", [10, 20], 0.0, 3,
                                   h=sphere + [(-1e-6, (3,))], bath=bath)
    assert np.all(np.isfinite(out["deviations"]))


@pytest.mark.parametrize("sigma", [-1.0, -0.5, 0.0, 0.3, 1.0])
@pytest.mark.parametrize("twice_s", [6, 10, 20])
@pytest.mark.parametrize("l_test", [0, 3, "2S-2"])
def test_scan_blocks_equal_the_full_band_generators_bit_for_bit(monkeypatch, twice_s,
                                                                 sigma, l_test):
    """The blocks a scan compares, built at the derived band l_test + 1, are the
    l <= l_test blocks of the band-2S qfp_generator and classical_generators,
    bit for bit.  At l_test = 0 there is no block to compare (every generator
    annihilates shell 0) and the library refuses the scan."""
    h, bath = _SCAN_MODEL["h"], _SCAN_MODEL["bath"]
    xi = np.array([0.5, 0.7, -0.2])
    if l_test == 0:
        with pytest.raises(ValueError, match="scan l_test = 0 compares nothing"):
            dyn.classical_limit_scan("bilinear", [twice_s, twice_s + 1], sigma, 0,
                                     **_SCAN_MODEL)
        return
    l_test = twice_s - 2 if l_test == "2S-2" else l_test
    blocks = []
    submatrix = dyn._submatrix

    def recording(gen, l):
        blocks.append((gen.shape[0], submatrix(gen, l)))
        return blocks[-1][1]

    monkeypatch.setattr(dyn, "_submatrix", recording)
    dyn.classical_limit_scan("bilinear", [twice_s, twice_s + 1], sigma, l_test, **_SCAN_MODEL)
    assert len(blocks) == 4
    for (size_q, quantum), (size_c, classical), twice in zip(blocks[::2], blocks[1::2],
                                                             [twice_s, twice_s + 1]):
        ctx = SpinContext(twice)
        assert size_q == size_c == (l_test + 2) ** 2
        full_q = dyn.qfp_generator(h, bath, sigma, ctx)
        full_c = dyn.classical_generators([(ctx.s * c, w) for c, w in h],
                                          ctx.s * bath.gamma * np.outer(xi, xi),
                                          bath.temperature, ctx.band_limit, ctx.s)
        assert np.array_equal(quantum, submatrix(full_q, l_test))
        assert np.array_equal(classical, submatrix(full_c, l_test))


# h = -m3 - 0.5 m1^2 + 0.3 (m1 m2 m3 + m3 m2 m1) and F = S1 + 0.4 S3: words of
# one, two and three letters, and a coupling with two components
_CUBIC_H = [(-1.0, (3,)), (-0.5, (1, 1)), (0.3, (1, 2, 3)), (0.3, (3, 2, 1))]
_TWO_COMPONENT_BATH = dyn.BathSpec(((1.0, (1,)), (0.4, (3,))), 2.0, 0.5)


@pytest.mark.parametrize("sigma", [-1.0, 0.3])
@pytest.mark.parametrize("l_test", [3, "2S-2"])
def test_nonlinear_scan_points_are_the_scaled_generators_bit_for_bit(monkeypatch, sigma,
                                                                     l_test):
    """A word w with coefficient c is c S^(1 - len w) S_w on the quantum side
    and S c m_w on the classical one, with Lam = S gamma xi xi^T: the blocks
    the scan compares, built at the band _block_band gives a cubic h, are the
    l <= l_test blocks of those band-2S generators, bit for bit."""
    blocks = []
    submatrix = dyn._submatrix
    monkeypatch.setattr(dyn, "_submatrix",
                        lambda gen, l: blocks.append(submatrix(gen, l)) or blocks[-1])
    l_test = 6 if l_test == "2S-2" else l_test
    dyn.classical_limit_scan("bilinear", [8, 9], sigma, l_test, h=_CUBIC_H,
                             bath=_TWO_COMPONENT_BATH)
    xi = np.array([1.0, 0.0, 0.4])
    for quantum, classical, twice_s in zip(blocks[::2], blocks[1::2], [8, 9]):
        ctx = SpinContext(twice_s)
        h_quantum = [(c * ctx.s ** (1 - len(w)), w) for c, w in _CUBIC_H]
        full_q = dyn.qfp_generator(h_quantum, _TWO_COMPONENT_BATH, sigma, ctx)
        full_c = dyn.classical_generators([(ctx.s * c, w) for c, w in _CUBIC_H],
                                          ctx.s * _TWO_COMPONENT_BATH.gamma * np.outer(xi, xi),
                                          _TWO_COMPONENT_BATH.temperature, ctx.band_limit,
                                          ctx.s)
        assert np.array_equal(quantum, submatrix(full_q, l_test))
        assert np.array_equal(classical, submatrix(full_c, l_test))


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("gamma", [0.0, 2.0])
def test_nonlinear_scan_decays_inversely_with_spin_up_to_large_spin(sigma, gamma):
    """The classical limit of a nonlinear h, h = -m3 - 0.5 m1^2 with F = S1 and
    T 0.5: over 2S in {10^3, 10^4, 10^5} the deviation falls like 1/S to 0.01,
    with and without the bath, at every ordering."""
    out = dyn.classical_limit_scan("bilinear", [1000, 10000, 100000], sigma, 3,
                                   h=[(-1.0, (3,)), (-0.5, (1, 1))],
                                   bath=dyn.BathSpec(((1.0, (1,)),), gamma, 0.5))
    assert abs(out["slope"] + 1.0) <= 0.01
    assert np.all(out["deviations"] > dyn._ROUNDING)


@pytest.mark.parametrize("mode", ["bilinear"])
def test_scan_builds_no_operator_above_band_l_test_plus_one(monkeypatch, mode):
    """Every sphere operator and Bopp set a scan builds has band <= l_test + 1:
    nothing of size (2S+1)^2 is built."""
    bands = []
    for name in ("angular_operators", "position_operators"):
        original = getattr(so, name)
        monkeypatch.setattr(so, name, lambda band, f=original: bands.append(band) or f(band))
    bopp_bands = []
    bopp_matrices = bopp.bopp_matrices

    def recorded(ctx, sigma, band=None):
        bopp_bands.append(ctx.band_limit if band is None else band)
        return bopp_matrices(ctx, sigma, band)

    monkeypatch.setattr(bopp, "bopp_matrices", recorded)
    out = dyn.classical_limit_scan(mode, [10, 40, 1000], 1.0, 3, **_SCAN_MODEL)
    assert bands and max(bands) == 4
    assert bopp_bands and max(bopp_bands) <= 4
    assert np.all(np.isfinite(out["deviations"]))


def _cubic_hamiltonian(ctx):
    """H = -S3 - 0.5 S1 S1 / S + 0.1 S3^3 / S^2: every term O(S)."""
    s = ctx.s
    return [(-1.0, (3,)), (-0.5 / s, (1, 1)), (0.1 / s ** 2, (3, 3, 3))]


@pytest.mark.parametrize("sigma", [-1.0, 0.3, 1.0])
@pytest.mark.parametrize("twice_s", [20, 40])
def test_qfp_block_at_the_derived_band_equals_the_full_band_bit_for_bit(twice_s, sigma):
    """For a cubic H and F = S1 the longest product has 3 + 2 factors, so the
    l <= l_test block needs band l_test + 2: there it is the band-2S block bit
    for bit, and one band lower it is not."""
    ctx = SpinContext(twice_s)
    h_expr, bath = _cubic_hamiltonian(ctx), dyn.BathSpec(((1.0, (1,)),), 0.3, 0.7)
    full = dyn.qfp_generator(h_expr, bath, sigma, ctx)
    for l_test in (3, 6):
        band = dyn._block_band(h_expr, bath.coupling, l_test, ctx)
        assert band == l_test + 2
        block = dyn._submatrix(full, l_test)
        assert np.array_equal(
            dyn._submatrix(dyn.qfp_generator(h_expr, bath, sigma, ctx, band), l_test), block)
        assert not np.array_equal(
            dyn._submatrix(dyn.qfp_generator(h_expr, bath, sigma, ctx, band - 1), l_test), block)


_QFP_BATH = dyn.BathSpec(((0.6, (1,)), (0.8, (3,))), 0.3, 1.5)


def _record_operator_builds(monkeypatch):
    """Bands of every Bopp set and conjugation P built next, and the number of
    evaluate_expression calls, as lists the patched builders append to."""
    built = {"bopp_matrices": [], "conjugation_matrix": [], "evaluate_expression": []}
    bopp_matrices, evaluate, conjugation = (bopp.bopp_matrices, bopp.evaluate_expression,
                                            so.conjugation_matrix)

    def bopp_set(ctx, sigma, band=None):
        built["bopp_matrices"].append(ctx.band_limit if band is None else band)
        return bopp_matrices(ctx, sigma, band)

    def words(expr, mats):
        built["evaluate_expression"].append(mats[0].shape[0])
        return evaluate(expr, mats)

    monkeypatch.setattr(bopp, "bopp_matrices", bopp_set)
    monkeypatch.setattr(bopp, "evaluate_expression", words)
    monkeypatch.setattr(so, "conjugation_matrix",
                        lambda band: built["conjugation_matrix"].append(band) or conjugation(band))
    return built


@pytest.mark.parametrize("band", [None, 3])
@pytest.mark.parametrize("bath", [None, _QFP_BATH])
def test_qfp_generator_builds_one_bopp_set_and_one_conjugation(monkeypatch, bath, band):
    """H and F are words in one Bopp set at the generator's band, and every
    imaginary part reads one P there; before it, each Hermiticity check reads
    a set and P of its own at min(2S, degree): 3 for the cubic H, 1 for F."""
    built = _record_operator_builds(monkeypatch)
    ctx = SpinContext(10)
    dyn.qfp_generator(_cubic_hamiltonian(ctx), bath, 0.3, ctx, band)
    want = 10 if band is None else band
    checks = [3] if bath is None else [3, 1]
    assert built["bopp_matrices"] == checks + [want]
    assert built["conjugation_matrix"] == checks + [want]
    n = (want + 1) ** 2
    assert built["evaluate_expression"] == (
        [16, n] if bath is None else [16, 4, n, n])


def test_qfp_generator_reads_hermiticity_below_the_degree_from_a_second_set(monkeypatch):
    """At band 2 the symbol of a cubic H reaches shell 3, so its check reads a
    set and P at band 3 apart from the generator's band-2 set; the linear F is
    read at band 1.  At 2S = 2 the cubic H is read at band 2S = 2."""
    built = _record_operator_builds(monkeypatch)
    ctx = SpinContext(10)
    dyn.qfp_generator(_cubic_hamiltonian(ctx), _QFP_BATH, 0.3, ctx, 2)
    assert built["bopp_matrices"] == [3, 1, 2]
    assert built["conjugation_matrix"] == [3, 1, 2]
    assert built["evaluate_expression"] == [16, 4, 9, 9]
    with pytest.raises(ValueError, match="Hamiltonian must be Hermitian"):
        dyn.qfp_generator([(1j, (3, 3, 3))], None, 0.3, ctx, 2)
    built["bopp_matrices"].clear()
    dyn.qfp_generator(_cubic_hamiltonian(SpinContext(2)), None, 0.3, SpinContext(2), 1)
    assert built["bopp_matrices"] == [2, 1]


@pytest.mark.parametrize("sigma", [-1.0, 0.0, 0.3, 1.0])
@pytest.mark.parametrize("twice_s", [6, 20])
def test_qfp_generator_is_the_two_set_assembly_bit_for_bit(twice_s, sigma):
    """One Bopp set and one P give the CSR arrays of the assembly with a set for
    H, another for F and a P per imaginary part, with and without a bath, at
    band 2S and at band 2, below the degree of the cubic H."""
    ctx = SpinContext(twice_s)
    hamiltonians = ([(-1.0, (3,)), (0.3, (1,))], [(-1.0, (3,)), (-0.2, (1, 1))],
                    _cubic_hamiltonian(ctx))
    for band in (None, 2):
        for bath in (None, _QFP_BATH):
            for h_expr in hamiltonians:
                got = dyn.qfp_generator(h_expr, bath, sigma, ctx, band)
                want = oracles.two_set_qfp_generator(h_expr, bath, sigma, ctx, band)
                for attr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got, attr), getattr(want, attr))


def test_derived_band_follows_the_expression_degrees():
    ctx = SpinContext(20)
    linear = oracles.linear_expression([0.3, 0.0, 1.0])
    assert dyn._block_band(linear, linear, 3, ctx) == 4      # 1 + 2 factors
    assert dyn._block_band([(1.0, (1, 2))], (), 3, ctx) == 4  # 2 + 0
    assert dyn._block_band([(1.0, (1, 2))], linear, 3, ctx) == 5  # 2 + 2
    assert dyn._block_band(_cubic_hamiltonian(ctx), [(1.0, (3, 3))], 3, ctx) == 6  # 3 + 4
    assert dyn._block_band(_cubic_hamiltonian(ctx), linear, 18, ctx) == 20  # capped at 2S


def test_bilinear_scan_memory_does_not_grow_with_spin():
    """A bilinear scan at 2S in {320, 322} peaks under 2 MiB: nothing of size
    (2S+1)^2 is built.  Full-band generators peaked at hundreds of MB here."""
    tracemalloc.start()
    try:
        out = dyn.classical_limit_scan("bilinear", [320, 322], -1.0, 3, **_README_SCAN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert np.all(out["deviations"] > 0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(gamma=-0.1, temperature=1.0), "gamma must be finite and >= 0"),
    (dict(gamma=0.1, temperature=0.0), "temperature must be finite and > 0"),
    (dict(gamma=0.1, temperature=math.nan), "temperature must be finite and > 0"),
])
def test_bilinear_paths_refuse_bad_gamma_and_temperature(tmp_path, capsys, kwargs, message):
    """The bath of a limit-scan config, the bath of qfp_generator and the
    classical generators refuse gamma < 0 and T <= 0 (or NaN) with one
    message each."""
    ctx = SpinContext(6)
    cfg = {"scan": {"mode": "bilinear", "twice_s_values": [6, 8]},
           "hamiltonian": {"expression": [[-1.0, [3]]]},
           "bath": {"coupling": [[1.0, [1]]], **kwargs}}
    (tmp_path / "scan.json").write_text(json.dumps(cfg))
    assert cli.main(["limit-scan", "--config", str(tmp_path / "scan.json"),
                     "--out", str(tmp_path / "o")]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    with pytest.raises(ValueError, match=message):
        dyn.BathSpec(((1.0, (1,)),), **kwargs)
    if kwargs["gamma"] >= 0:
        with pytest.raises(ValueError, match=message):
            dyn.classical_generators([(-1.0, (3,))], np.eye(3), kwargs["temperature"],
                                     6, ctx.s)
