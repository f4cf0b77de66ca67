"""Evolution generators against Hilbert-space oracles; classical physics."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from spinphase import bopp, cli
from spinphase import dynamics as dyn
from spinphase import sphere_ops as so
from spinphase import sw_transform as swt
from spinphase.su2_algebra import SpinContext, rotation_z, spin_matrices

SIGMAS = (-1.0, 0.0, 1.0)


def _random_density(ctx, seed):
    rng = np.random.default_rng(seed)
    n = ctx.hilbert_dim
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# --- Hamiltonian containers ---------------------------------------------------

def test_quadratic_hamiltonian_validates_symmetry():
    d = np.diag([0.1, 0.2, 0.3])
    qh = dyn.QuadraticHamiltonian(d, np.array([0.0, 0.0, 1.0]))
    assert qh.d.shape == (3, 3)
    with pytest.raises(ValueError):
        dyn.QuadraticHamiltonian(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]),
                                 np.zeros(3))


def test_quadratic_hamiltonian_expression_matches_matrix():
    ctx = SpinContext(3)
    rng = np.random.default_rng(2)
    d = rng.normal(size=(3, 3))
    d = (d + d.T) / 2.0
    b = rng.normal(size=3)
    qh = dyn.QuadraticHamiltonian(d, b)
    s_ops = spin_matrices(ctx)
    want = -sum(b[j] * s_ops[j] for j in range(3))
    for j in range(3):
        for k in range(3):
            want = want - d[j, k] * s_ops[j] @ s_ops[k]
    got = bopp.expression_to_matrix(qh.to_expression(), ctx)
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
    gen = dyn.unitary_generator(h_expr, sigma, ctx)
    rho = _random_density(ctx, 3)
    lhs = gen @ swt.operator_to_symbol(rho, sigma, ctx)
    rhs = swt.operator_to_symbol(-1j * (h @ rho - rho @ h), sigma, ctx)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_unitary_generator_rejects_non_hermitian_hamiltonian():
    ctx = SpinContext(2)
    with pytest.raises(ValueError):
        dyn.unitary_generator([(1j, (3,))], 0.0, ctx)


@pytest.mark.parametrize("sigma", (-1.0, 0.0))
def test_quadratic_generator_equals_expression_route(sigma):
    ctx = SpinContext(3)
    rng = np.random.default_rng(17)
    d = rng.normal(size=(3, 3))
    d = (d + d.T) / 2.0
    b = rng.normal(size=3)
    qh = dyn.QuadraticHamiltonian(d, b)
    direct = dyn.quadratic_generator(qh, sigma, ctx)
    via_expr = dyn.unitary_generator(qh.to_expression(), sigma, ctx)
    assert np.max(np.abs((direct - via_expr).toarray())) < 1e-12


def test_linear_hamiltonian_generator_is_classical_liouville():
    """With no quadratic part the two generators agree entry by entry."""
    b = np.array([0.3, -0.8, 0.55])
    for twice_s in (2, 4, 5):
        ctx = SpinContext(twice_s)
        qh = dyn.QuadraticHamiltonian(np.zeros((3, 3)), b)
        quantum = dyn.quadratic_generator(qh, 0.0, ctx).toarray()
        h_poly = [(-ctx.s * b[k], tuple(int(i == k) for i in range(3)))
                  for k in range(3)]
        classical = dyn.classical_generators(
            h_poly, np.zeros((3, 3)), 1.0, ctx.band_limit, ctx.s)[0].toarray()
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
        dyn.master_rhs(rho, h, f, bath.gamma, bath.temperature), sigma, ctx)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_master_rhs_preserves_trace_and_hermiticity():
    ctx = SpinContext(4)
    h = bopp.expression_to_matrix([(-1.0, (3,)), (0.2, (1, 1))], ctx)
    f = bopp.expression_to_matrix([(1.0, (1,))], ctx)
    rho = _random_density(ctx, 23)
    out = dyn.master_rhs(rho, h, f, 0.3, 0.9)
    assert abs(np.trace(out)) < 1e-14
    np.testing.assert_allclose(out, out.conj().T, atol=1e-13)


def test_master_liouvillian_consistent_with_rhs():
    ctx = SpinContext(2)
    h = bopp.expression_to_matrix([(-1.0, (3,))], ctx)
    f = bopp.expression_to_matrix([(0.6, (1,)), (0.4, (2,))], ctx)
    rho = _random_density(ctx, 29)
    liou = dyn.master_liouvillian(h, f, 0.2, 1.1)
    direct = dyn.master_rhs(rho, h, f, 0.2, 1.1)
    via_vec = dyn.unvec_density(liou @ dyn.vec_density(rho))
    np.testing.assert_allclose(via_vec, direct, atol=1e-13)


def test_master_stationary_state_is_a_fixed_point_and_gibbs_like():
    ctx = SpinContext(2)
    h = bopp.expression_to_matrix([(-1.0, (3,))], ctx)
    f = bopp.expression_to_matrix([(1.0, (1,))], ctx)
    gamma = 0.05
    devs = []
    for temperature in (1.0, 4.0):
        rho_ss = dyn.master_stationary_state(h, f, gamma, temperature)
        assert np.trace(rho_ss).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho_ss, rho_ss.conj().T, atol=1e-12)
        resid = dyn.master_rhs(rho_ss, h, f, gamma, temperature)
        assert np.max(np.abs(resid)) < 1e-12
        gibbs = la.expm(-h / temperature)
        gibbs = gibbs / np.trace(gibbs).real
        devs.append(np.max(np.abs(rho_ss - gibbs)))
    # the weak-coupling form approaches the Gibbs state at high temperature
    assert devs[1] < devs[0] / 2.0


@pytest.mark.parametrize("sigma", (-1.0, 0.0))
def test_bilinear_generator_equals_general_dissipative_form(sigma):
    ctx = SpinContext(3)
    b = np.array([0.2, -0.4, 1.0])
    xi = np.array([0.6, 0.3, -0.74])
    gamma, temperature = 0.3, 0.8
    direct = dyn.isotropic_bilinear_generator(b, xi, gamma, temperature,
                                              sigma, ctx)
    h_expr = bopp.linear_expression(-b)
    bath = dyn.BathSpec(tuple(bopp.linear_expression(xi)), gamma, temperature)
    general = dyn.qfp_generator(h_expr, bath, sigma, ctx)
    assert np.max(np.abs((direct - general).toarray())) < 1e-12


def test_bilinear_lambda_is_scaled_outer_product():
    ctx = SpinContext(5)
    xi = np.array([0.3, -1.2, 0.5])
    np.testing.assert_allclose(dyn.bilinear_lambda(ctx, 0.7, xi),
                               2.5 * 0.7 * np.outer(xi, xi), atol=0)


# --- classical generators ----------------------------------------------------------

def test_polynomial_helpers():
    grads = dyn.poly_gradient([(2.0, (1, 0, 2))])
    assert grads[0] == [(2.0, (0, 0, 2))]
    assert grads[1] == []
    assert grads[2] == [(4.0, (1, 0, 1))]
    with pytest.raises(ValueError):
        dyn.poly_gradient([(1.0, (1, -1, 0))])
    L = 6
    op = dyn.poly_multiplication_operator([(1.0, (0, 0, 2))], L).toarray()
    m3 = so.position_operators(L)[2].toarray()
    n_in = so.num_coefficients(L - 2)
    np.testing.assert_allclose(op[:n_in, :n_in], (m3 @ m3)[:n_in, :n_in],
                               atol=1e-13)


def test_boltzmann_state_is_stationary_for_linear_hamiltonian():
    L, s, temperature, b3 = 24, 10.0, 0.25, 1.0
    lam = 0.4 * np.eye(3)
    _, fp = dyn.classical_generators([(-b3, (0, 0, 1))], lam, temperature, L, s)
    grid, _, analyze, _ = so.grid_synthesis_analysis(L)
    vals = np.exp((b3 / temperature) * grid.x)[:, None] * np.ones(
        (1, grid.phis.size))
    c = analyze(vals.astype(complex))
    c = c / c[0]
    assert np.linalg.norm(fp @ c) / np.linalg.norm(c) < 1e-10


def test_free_diffusion_spectrum_is_shellwise():
    L, s, temperature = 12, 4.0, 0.7
    lam_val = 0.3
    _, fp = dyn.classical_generators([], lam_val * np.eye(3), temperature, L, s)
    ls, _ = so.lm_arrays(L)
    fp = fp.toarray()
    np.testing.assert_allclose(np.diag(fp),
                               -(lam_val * temperature / s) * ls * (ls + 1),
                               atol=1e-14)
    np.testing.assert_allclose(fp - np.diag(np.diag(fp)), 0, atol=1e-14)


def test_classical_generators_conserve_total_probability():
    L, s = 10, 5.0
    lam = 0.2 * np.eye(3)
    liou, fp = dyn.classical_generators([(0.3, (1, 0, 0)), (-1.0, (0, 0, 1))],
                                        lam, 0.5, L, s)
    # d/dt of the l = 0 coefficient vanishes for every state
    assert np.max(np.abs(liou.toarray()[0])) < 1e-14
    assert np.max(np.abs(fp.toarray()[0])) < 1e-14


# --- states, integration, trajectories ------------------------------------------------

def test_coherent_state_points_along_its_angles():
    ctx = SpinContext(5)
    theta0, phi0 = 1.1, 2.3
    rho = dyn.coherent_state(ctx, theta0, phi0)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-13)
    s_ops = spin_matrices(ctx)
    direction = np.array([math.sin(theta0) * math.cos(phi0),
                          math.sin(theta0) * math.sin(phi0),
                          math.cos(theta0)])
    got = np.array([np.trace(op @ rho).real for op in s_ops])
    np.testing.assert_allclose(got, ctx.s * direction, atol=1e-12)


@pytest.mark.parametrize("twice_s", (1, 2, 7, 40))
def test_coherent_state_matches_the_dense_rotation(twice_s):
    """rho = |u0><u0| with u0 column 0 of Rz(phi0) expm(-i theta0 S2)."""
    ctx = SpinContext(twice_s)
    _, s2, _ = spin_matrices(ctx)
    for theta0, phi0 in ((0.0, 0.0), (1.1, 2.3), (math.pi / 2, -0.7), (math.pi, 0.4)):
        ket = (rotation_z(ctx, phi0) @ la.expm(-1j * theta0 * s2))[:, 0]
        np.testing.assert_allclose(dyn.coherent_state(ctx, theta0, phi0),
                                   np.outer(ket, ket.conj()), rtol=0, atol=1e-14)


def test_integrate_adjusts_dt_and_attaches_observables():
    ctx = SpinContext(2)
    gen = dyn.unitary_generator([(-1.0, (3,))], 0.0, ctx)
    c0 = swt.operator_to_symbol(dyn.coherent_state(ctx, 1.2, 0.0), 0.0, ctx)
    res = dyn.integrate(gen, c0, 1.0, 0.3, "rk4", ctx=ctx, sigma=0.0,
                        kind="symbol")
    np.testing.assert_allclose(np.diff(res.times), 1.0 / 3.0, atol=1e-15)
    assert res.states.shape[0] == 4
    for field in (res.s1, res.s2, res.s3, res.trace, res.purity):
        assert field.shape == (4,)
    np.testing.assert_allclose(res.trace, 1.0, atol=1e-12)
    # purity only to rk4 truncation order at this coarse step
    np.testing.assert_allclose(res.purity, 1.0, atol=1e-3)


def test_integrate_larmor_rotates_transverse_spin():
    """d<S>/dt = <S> x B for H = -B.S; phases follow exp(-i B3 t)."""
    ctx = SpinContext(3)
    b3 = 1.0
    gen = dyn.unitary_generator([(-b3, (3,))], 0.0, ctx)
    c0 = swt.operator_to_symbol(dyn.coherent_state(ctx, 0.8, 0.3), 0.0, ctx)
    res = dyn.integrate(gen, c0, 3.0, 0.01, "expm", ctx=ctx, sigma=0.0,
                        kind="symbol")
    transverse = res.s1 + 1j * res.s2
    expected = transverse[0] * np.exp(-1j * b3 * res.times)
    np.testing.assert_allclose(transverse, expected, atol=1e-10)


def test_integrate_density_matches_symbol_route():
    ctx = SpinContext(2)
    h_expr = [(-1.0, (3,)), (0.2, (1,))]
    f_expr = [(1.0, (1,))]
    bath = dyn.BathSpec(tuple(f_expr), 0.1, 1.0)
    sigma = 0.0
    gen = dyn.qfp_generator(h_expr, bath, sigma, ctx)
    rho0 = dyn.coherent_state(ctx, 1.0, 0.5)
    c0 = swt.operator_to_symbol(rho0, sigma, ctx)
    sym = dyn.integrate(gen, c0, 2.0, 0.05, "expm", ctx=ctx, sigma=sigma,
                        kind="symbol")
    h = bopp.expression_to_matrix(h_expr, ctx)
    f = bopp.expression_to_matrix(f_expr, ctx)
    liou = dyn.master_liouvillian(h, f, bath.gamma, bath.temperature)
    den = dyn.integrate(liou, dyn.vec_density(rho0), 2.0, 0.05, "expm",
                        ctx=ctx, kind="density")
    for a, b in ((sym.s1, den.s1), (sym.s2, den.s2), (sym.s3, den.s3),
                 (sym.trace, den.trace), (sym.purity, den.purity)):
        np.testing.assert_allclose(a, b, atol=1e-10)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_integrate_flags_divergence_with_time_stamp():
    gen = np.array([[500.0]])
    with pytest.raises(RuntimeError, match="t ="):
        dyn.integrate(gen, np.array([1.0 + 0j]), 100.0, 1.0, "rk4")


def _dissipative_case(twice_s, sigma):
    ctx = SpinContext(twice_s)
    bath = dyn.BathSpec(((0.6, (1,)), (0.8, (3,))), 0.3, 1.5)
    gen = dyn.qfp_generator([(-1.0, (3,)), (0.4, (1, 1))], bath, sigma, ctx)
    c0 = swt.operator_to_symbol(dyn.coherent_state(ctx, 1.1, 0.4), sigma, ctx)
    return ctx, gen, c0


@pytest.mark.parametrize("twice_s", (2, 5, 6))
@pytest.mark.parametrize("sigma", (-1.0, 0.0, 0.5, 1.0))
def test_integrate_expm_matches_dense_exponential(twice_s, sigma):
    """Every state equals expm(G t_k) c0, computed densely and step by step."""
    _, gen, c0 = _dissipative_case(twice_s, sigma)
    res = dyn.integrate(gen, c0, 2.0, 0.25, "expm")
    assert res.states.shape == (9, c0.size)
    np.testing.assert_allclose(res.times, 0.25 * np.arange(9), atol=1e-15)
    dense = gen.toarray()
    for t, state in zip(res.times, res.states):
        np.testing.assert_allclose(state, la.expm(dense * t) @ c0, rtol=0,
                                   atol=1e-13)


def test_integrate_expm_ignores_global_rng_state():
    """The 1-norm estimator's draws leave neither a trace in the states nor
    a change in the caller's global RNG stream."""
    _, gen, c0 = _dissipative_case(10, 0.5)
    outputs = []
    for seed in (0, 12345):
        np.random.seed(seed)
        outputs.append(dyn.integrate(gen, c0, 4.0, 0.05, "expm").states.tobytes())
        after = np.random.random()
        np.random.seed(seed)
        assert after == np.random.random()
    assert outputs[0] == outputs[1]


def test_integrate_expm_flags_overflow_step():
    gen = 1e3 * sp.identity(3, dtype=complex, format="csr")
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(RuntimeError, match=r"step 8/10"):
            dyn.integrate(gen, np.ones(3, dtype=complex), 1.0, 0.1, "expm")


def _block_rows(monkeypatch, rows, n):
    """Make integrate propagate in blocks of `rows` states of length n."""
    monkeypatch.setattr(dyn, "_BLOCK_BYTES", rows * 16 * n)


def test_integrate_rk4_blocks_are_byte_identical_to_one_block(monkeypatch):
    ctx, gen, c0 = _dissipative_case(6, 0.5)

    def run():
        res = dyn.integrate(gen, c0, 2.0, 0.05, "rk4", ctx=ctx, sigma=0.5, kind="symbol")
        return [a.tobytes() for a in (res.states, res.s1, res.s2, res.s3, res.trace,
                                      res.purity, res.reality)]

    whole = run()
    _block_rows(monkeypatch, 3, c0.size)  # 41 states: 13 blocks of 3 and one of 2
    assert run() == whole


@pytest.mark.parametrize("twice_s", (2, 5, 6))
@pytest.mark.parametrize("sigma", (-1.0, 0.5))
def test_integrate_expm_blocks_match_dense_exponential(monkeypatch, twice_s, sigma):
    """Each block starts from the last state of the one before, and every
    state still equals expm(G t_k) c0."""
    _, gen, c0 = _dissipative_case(twice_s, sigma)
    _block_rows(monkeypatch, 3, c0.size)
    res = dyn.integrate(gen, c0, 2.0, 0.2, "expm")
    assert res.states.shape == (11, c0.size)
    dense = gen.toarray()
    for t, state in zip(res.times, res.states):
        np.testing.assert_allclose(state, la.expm(dense * t) @ c0, rtol=0, atol=1e-13)


@pytest.mark.parametrize("method", ("rk4", "expm"))
def test_integrate_without_states_keeps_the_ends_and_observables(monkeypatch, method):
    ctx, gen, c0 = _dissipative_case(5, 1.0)
    _block_rows(monkeypatch, 4, c0.size)
    fields = ("times", "s1", "s2", "s3", "trace", "purity", "reality")
    runs = [dyn.integrate(gen, c0, 1.0, 0.05, method, ctx=ctx, sigma=1.0, kind="symbol",
                          keep_states=keep) for keep in (True, False)]
    full, ends = runs
    assert ends.states.shape == (2, c0.size)
    assert ends.states.tobytes() == full.states[[0, -1]].tobytes()
    for name in fields:
        assert getattr(ends, name).tobytes() == getattr(full, name).tobytes()
    assert np.max(full.reality) < 1e-12


def test_integrate_reality_column_sees_a_non_real_step():
    """exp(i t) c0 leaves the real symbols at t = pi/2 and is real at t = pi."""
    ctx, _, c0 = _dissipative_case(2, 0.0)
    gen = 1j * sp.identity(c0.size, dtype=complex, format="csr")
    res = dyn.integrate(gen, c0, math.pi, math.pi / 8, "expm", ctx=ctx, sigma=0.0,
                        kind="symbol")
    assert res.reality[4] == pytest.approx(2 * np.max(np.abs(c0)), rel=1e-12)
    assert res.reality[0] < 1e-15 and res.reality[-1] < 1e-14


def test_integrate_expm_blocks_keep_the_global_rng_stream(monkeypatch):
    _, gen, c0 = _dissipative_case(10, 0.5)
    _block_rows(monkeypatch, 5, c0.size)  # 81 states: 17 blocks
    outputs = []
    for seed in (0, 12345):
        np.random.seed(seed)
        outputs.append(dyn.integrate(gen, c0, 4.0, 0.05, "expm").states.tobytes())
        after = np.random.random()
        np.random.seed(seed)
        assert after == np.random.random()
    assert outputs[0] == outputs[1]


def test_integrate_flags_overflow_step_in_a_later_block(monkeypatch):
    _block_rows(monkeypatch, 3, 3)  # step 8 is in the third block
    gen = 1e3 * sp.identity(3, dtype=complex, format="csr")
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(RuntimeError, match=r"step 8/10"):
            dyn.integrate(gen, np.ones(3, dtype=complex), 1.0, 0.1, "expm")
    gen = np.array([[500.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError) as whole:
            dyn.integrate(gen, np.array([1.0 + 0j]), 100.0, 1.0, "rk4")
        _block_rows(monkeypatch, 3, 1)
        with pytest.raises(RuntimeError) as blocked:
            dyn.integrate(gen, np.array([1.0 + 0j]), 100.0, 1.0, "rk4")
    assert str(blocked.value) == str(whole.value)


@pytest.mark.parametrize("method", ("rk4", "expm"))
@pytest.mark.parametrize("rows", (3, 6))
def test_integrate_streaming_with_a_partial_last_block_matches_one_buffer(
        monkeypatch, method, rows):
    """41 states streamed through a reused buffer of 3 or 6 rows end in a
    partial block; the ends and every observable equal a one-buffer run."""
    ctx, gen, c0 = _dissipative_case(6, 0.5)
    fields = ("times", "s1", "s2", "s3", "trace", "purity", "reality")

    def run(keep):
        return dyn.integrate(gen, c0, 2.0, 0.05, method, ctx=ctx, sigma=0.5,
                             kind="symbol", keep_states=keep)

    full = run(True)
    _block_rows(monkeypatch, rows, c0.size)
    ends = run(False)
    assert len(full.times) == 41 and 40 % rows
    assert ends.states.shape == (2, c0.size)
    assert ends.states.tobytes() == full.states[[0, -1]].tobytes()
    for name in fields:
        assert getattr(ends, name).tobytes() == getattr(full, name).tobytes()


def test_integrate_streaming_flags_overflow_step_in_a_later_block(monkeypatch):
    _block_rows(monkeypatch, 3, 3)  # step 8 is in the third fill of the buffer
    gen = 1e3 * sp.identity(3, dtype=complex, format="csr")
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(RuntimeError, match=r"step 8/10"):
            dyn.integrate(gen, np.ones(3, dtype=complex), 1.0, 0.1, "expm",
                          keep_states=False)
    gen = np.array([[500.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError) as whole:
            dyn.integrate(gen, np.array([1.0 + 0j]), 100.0, 1.0, "rk4")
        _block_rows(monkeypatch, 3, 1)
        with pytest.raises(RuntimeError) as blocked:
            dyn.integrate(gen, np.array([1.0 + 0j]), 100.0, 1.0, "rk4",
                          keep_states=False)
    assert str(blocked.value) == str(whole.value)


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method", ("rk4", "expm"))
def test_integrate_streaming_reuses_one_block(monkeypatch, method):
    """Without kept states, a run of five blocks holds one block at a time:
    a block is never allocated while the one before is still alive."""
    _, gen, c0 = _dissipative_case(10, 0.5)
    _block_rows(monkeypatch, 200, c0.size)
    block = 200 * c0.nbytes
    res, peak = _traced_peak(
        lambda: dyn.integrate(gen, c0, 10.0, 0.01, method, keep_states=False))
    assert res.states.shape == (2, c0.size)
    assert peak < 1.5 * block


@pytest.mark.parametrize("method", ("rk4", "expm"))
def test_integrate_keeps_many_blocks_without_a_second_copy(monkeypatch, method):
    """Kept states longer than one block are written straight into the
    returned array: no per-block arrays are joined at the end."""
    _, gen, c0 = _dissipative_case(10, 0.5)
    _block_rows(monkeypatch, 200, c0.size)
    res, peak = _traced_peak(lambda: dyn.integrate(gen, c0, 10.0, 0.01, method))
    assert res.states.shape == (1001, c0.size)
    assert peak < 1.25 * res.states.nbytes


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
    res = dyn.integrate(gen, c0, 20.0, 0.05, "expm")
    want = expm_multiply(gen, c0, start=0.0, stop=20.0, num=401, endpoint=True)
    assert res.states.shape == want.shape == (401, c0.size)
    assert np.max(np.abs(res.states - want)) <= 1e-13 * np.max(np.abs(want))


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


def test_taylor_parameters_at_the_documented_norms():
    assert dyn._taylor_parameters(7.46) == (50, 1)
    assert dyn._taylor_parameters(8.86) == (55, 1)


def test_integrate_rejects_bad_method_and_steps():
    ctx = SpinContext(1)
    gen = dyn.unitary_generator([(-1.0, (3,))], 0.0, ctx)
    c0 = np.zeros(ctx.symbol_dim, dtype=complex)
    with pytest.raises(ValueError):
        dyn.integrate(gen, c0, 1.0, 0.1, "euler")
    with pytest.raises(ValueError):
        dyn.integrate(gen, c0, -1.0, 0.1, "rk4")


def test_evolve_trajectory_csv_layout(tmp_path):
    """The trajectory `evolve` writes holds the library's observables exactly."""
    ctx = SpinContext(2)
    gen = dyn.unitary_generator([(-1.0, (3,))], 0.0, ctx)
    c0 = swt.operator_to_symbol(dyn.coherent_state(ctx, 1.0, 0.0), 0.0, ctx)
    res = dyn.integrate(gen, c0, 1.0, 0.25, "rk4", ctx=ctx, sigma=0.0,
                        kind="symbol")
    cfg = {"spin": {"twice_s": 2}, "sigma": 0.0, "hamiltonian": {"expression": [[-1.0, [3]]]},
           "initial": {"coherent": {"theta": 1.0, "phi": 0.0}},
           "time": {"t_end": 1.0, "dt": 0.25, "method": "rk4"},
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

def test_unitary_scan_deviation_vanishes():
    out = dyn.classical_limit_scan("unitary", [6, 10], 0.0, 3,
                                   b=[0.2, 0.0, 1.0])
    assert np.all(out["deviations"] < 1e-12)
    assert math.isnan(out["slope"])


def test_bilinear_scan_decays_inversely_with_spin():
    out = dyn.classical_limit_scan("bilinear", [10, 20, 40], -1.0, 3,
                                   b=[0.0, 0.0, 1.0], xi=[1.0, 0.0, 0.0],
                                   gamma=2.0, temperature=0.1)
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
        out = dyn.classical_limit_scan("bilinear", [10, 20, 40], -1.0, 3,
                                       b=[0.0, 0.0, 1.0], xi=[1.0, 0.0, 0.0],
                                       gamma=2.0, temperature=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert np.all(np.isfinite(out["deviations"]))
    gen = dyn.isotropic_bilinear_generator([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], 2.0, 0.1,
                                           -1.0, SpinContext(10))
    assert np.array_equal(dyn._submatrix(gen, 3), gen.toarray()[:16, :16])


def test_scan_rejects_bad_modes_and_contaminated_blocks():
    with pytest.raises(ValueError):
        dyn.classical_limit_scan("nonsense", [10, 20], 0.0, 3, b=[0, 0, 1.0])
    with pytest.raises(ValueError):
        dyn.classical_limit_scan("unitary", [4, 10], 0.0, 3, b=[0, 0, 1.0])
