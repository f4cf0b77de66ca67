"""Acceptance gate: the toolkit's headline guarantees at pinned tolerances.

Each test prints one machine-greppable PASS/FAIL line with the measured
figure next to its threshold.
"""

import math
import time

import numpy as np

import oracles
from oracles import rotation_z
from spinphase import bopp
from spinphase import dynamics as dyn
from spinphase import sphere_ops as so
from spinphase import sw_transform as swt
from spinphase.su2_algebra import SpinContext, spin_matrices

SWEEP_TWICE_S = (1, 2, 3, 4, 5)
SIGMAS = (-1.0, 0.0, 1.0)


def _line(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def test_criterion_01_symbol_postulates():
    """Reality, standardization, traciality, z-covariance via quadrature."""
    worst_quad = 0.0   # standardization + traciality budget 1e-10
    worst_exact = 0.0  # reality + covariance budget 1e-12
    for twice_s in SWEEP_TWICE_S:
        ctx = SpinContext(twice_s)
        n = ctx.hilbert_dim
        a = _random_hermitian(n, 100 + twice_s)
        b = _random_hermitian(n, 200 + twice_s)
        mu0 = swt.measure_constant(ctx)
        L = 2 * ctx.band_limit
        ang = 0.83
        u = rotation_z(ctx, ang)
        _, ms = so.lm_arrays(ctx.band_limit)
        for sigma in SIGMAS:
            c_a = swt.operator_to_symbol(a, sigma, ctx)
            wa = oracles.synthesize(L, c_a)
            worst_exact = max(worst_exact, float(np.max(np.abs(wa.imag))))
            std = mu0 * oracles.sphere_integral(L, wa).real - np.trace(a).real
            worst_quad = max(worst_quad, abs(std))
            wb = oracles.synthesize(L, swt.operator_to_symbol(b, -sigma, ctx))
            trc = mu0 * oracles.sphere_integral(L, wa * wb).real - np.trace(a @ b).real
            worst_quad = max(worst_quad, abs(trc))
            c_rot = swt.operator_to_symbol(u @ a @ u.conj().T, sigma, ctx)
            cov = np.max(np.abs(c_rot - np.exp(-1j * ms * ang) * c_a))
            worst_exact = max(worst_exact, float(cov))
    ok = worst_quad < 1e-10 and worst_exact < 1e-12
    _line(1, "symbol correspondence postulates", ok,
          f"quadrature residual {worst_quad:.2e} < 1e-10, "
          f"reality/covariance {worst_exact:.2e} < 1e-12")
    assert ok


def test_criterion_02_multiplication_operators_match_transform_oracle():
    worst = 0.0
    for twice_s in SWEEP_TWICE_S:
        ctx = SpinContext(twice_s)
        for sigma in SIGMAS:
            mats = bopp.bopp_matrices(ctx, sigma)
            for op, mat in zip(spin_matrices(ctx), mats):
                oracle = oracles.left_mult_superoperator(op, sigma, ctx)
                worst = max(worst, float(np.linalg.norm(
                    mat.toarray() - oracle, 2)))
    ok = worst < 1e-10
    _line(2, "phase-space multiplication vs transform oracle", ok,
          f"max operator-norm deviation {worst:.2e} < 1e-10")
    assert ok


def test_criterion_03_multiplication_operators_satisfy_spin_algebra():
    worst = 0.0
    for twice_s in SWEEP_TWICE_S:
        ctx = SpinContext(twice_s)
        eye = np.eye(ctx.symbol_dim)
        for sigma in SIGMAS:
            b1, b2, b3 = (m.toarray() for m in bopp.bopp_matrices(ctx, sigma))
            worst = max(
                worst,
                float(np.max(np.abs(b1 @ b2 - b2 @ b1 - 1j * b3))),
                float(np.max(np.abs(b2 @ b3 - b3 @ b2 - 1j * b1))),
                float(np.max(np.abs(b3 @ b1 - b1 @ b3 - 1j * b2))),
                float(np.max(np.abs(b1 @ b1 + b2 @ b2 + b3 @ b3
                                    - ctx.s * (ctx.s + 1) * eye))),
            )
    ok = worst < 1e-10
    _line(3, "spin algebra of multiplication operators", ok,
          f"commutator/casimir residual {worst:.2e} < 1e-10")
    assert ok


def test_criterion_04_extreme_orderings_have_constant_tables():
    worst = 0.0
    for twice_s in range(1, 21):
        ctx = SpinContext(twice_s)
        anti_f1, anti_f2 = bopp.bopp_coefficients(ctx, -1.0)
        normal_f1, normal_f2 = bopp.bopp_coefficients(ctx, 1.0)
        worst = max(worst,
                    float(np.max(np.abs(anti_f1 - ctx.s))),
                    float(np.max(np.abs(anti_f2 + 0.5))),
                    float(np.max(np.abs(normal_f1 - (ctx.s + 1)))),
                    float(np.max(np.abs(normal_f2 - 0.5))))
    ok = worst < 1e-13
    _line(4, "constant shell tables at extreme orderings", ok,
          f"max table deviation {worst:.2e} < 1e-13 for all l, S <= 10")
    assert ok


def test_criterion_05_analytic_single_shell_product_route():
    worst = 0.0
    for twice_s in range(1, 7):
        ctx = SpinContext(twice_s)
        for sigma in SIGMAS:
            b3 = bopp.bopp_matrices(ctx, sigma)[2].toarray()
            for l in range(ctx.band_limit + 1):
                for m in range(-l, l + 1):
                    col = oracles.s3_star_ylm(ctx, sigma, l, m)
                    worst = max(worst, float(np.max(np.abs(
                        col - b3[:, so.flat_index(l, m)]))))
    ok = worst < 1e-12
    _line(5, "analytic shell product route", ok,
          f"max column deviation {worst:.2e} < 1e-12 for S <= 3")
    assert ok


def test_criterion_06_linear_hamiltonian_flow_is_classical():
    b = np.array([0.4, -0.7, 1.1])
    worst = 0.0
    for twice_s in (2, 3, 4, 5):
        ctx = SpinContext(twice_s)
        h_expr = [(-bk, (k + 1,)) for k, bk in enumerate(b)]
        quantum = dyn.qfp_generator(h_expr, None, 0.0, ctx).toarray()
        classical = dyn.classical_generators(
            [(ctx.s * c, w) for c, w in h_expr], np.zeros((3, 3)), 1.0, ctx.band_limit,
            ctx.s).toarray()
        worst = max(worst, float(np.max(np.abs(quantum - classical))))
    ok = worst < 1e-12
    _line(6, "linear flow equals classical rotation", ok,
          f"max generator deviation {worst:.2e} < 1e-12")
    assert ok


def test_criterion_07_dissipative_flow_matches_master_equation():
    start = time.monotonic()
    ctx = SpinContext(2)  # S = 1
    sigma = 0.0
    b3, gamma, temperature = 1.0, 0.1, 1.0  # gamma T = 0.1
    xi = np.array([0.8, 0.0, 0.6])
    h_expr = [(-b3, (3,))]
    f_expr = oracles.linear_expression(xi)
    bath = dyn.BathSpec(tuple(f_expr), gamma, temperature)
    t_end = 5.0 / gamma
    dt = 0.5
    rho0 = dyn.coherent_state(ctx, 1.2, 0.3)

    gen = dyn.qfp_generator(h_expr, bath, sigma, ctx)
    c0 = swt.operator_to_symbol(rho0, sigma, ctx)
    phase = dyn.integrate(gen, c0, t_end, dt, "expm", ctx, sigma, "symbol")

    h = bopp.expression_to_matrix(h_expr, ctx)
    f = bopp.expression_to_matrix(f_expr, ctx)
    liou = dyn.master_liouvillian(h, f, gamma, temperature)
    oracle = dyn.integrate(liou, dyn.vec_density(rho0), t_end, dt, "expm")
    worst = 0.0
    for i in range(oracle.times.size):
        c_ref = swt.operator_to_symbol(dyn.unvec_density(oracle.states[i]),
                                       sigma, ctx)
        worst = max(worst, float(np.max(np.abs(c_ref - phase.states[i]))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _line(7, "dissipative flow vs density-matrix oracle", ok,
          f"max deviation {worst:.2e} < 1e-8 over t in [0, {t_end:g}], "
          f"{elapsed:.1f}s < 10s")
    assert ok


def test_criterion_08_bilinear_generator_converges_to_classical():
    start = time.monotonic()
    out = dyn.classical_limit_scan("bilinear", [10, 20, 40, 80], -1.0, 3, h=[(-1.0, (3,))],
                                   bath=dyn.BathSpec(((1.0, (1,)),), 2.0, 0.1))
    elapsed = time.monotonic() - start
    slope = out["slope"]
    ok = abs(slope + 1.0) <= 0.2 and elapsed < 60.0
    devs = ", ".join(f"{d:.4f}" for d in out["deviations"])
    _line(8, "bilinear-coupling classical convergence", ok,
          f"slope {slope:.3f} within -1 +- 0.2 over S in {{5,10,20,40}} "
          f"[devs {devs}], {elapsed:.1f}s < 60s")
    assert ok


def test_criterion_09_shell_table_asymptotics_are_second_order():
    out = dyn.classical_limit_scan("asymptotics", [20, 40, 80, 160], 0.0, 4)
    slope = out["slope"]
    ok = abs(slope + 2.0) <= 0.2
    _line(9, "shell-table asymptotics order", ok,
          f"slope {slope:.3f} within -2 +- 0.2 over S in {{10,20,40,80}}")
    assert ok


def test_criterion_10_classical_fokker_planck_physics():
    L, s, temperature, b3 = 64, 20.0, 0.25, 1.0
    lam = 0.5 * np.eye(3)
    fp = dyn.classical_generators([(-b3, (3,))], lam, temperature, L, s)
    thetas, phis, _ = oracles.quadrature(L)
    vals = np.exp((b3 / temperature) * np.cos(thetas))[:, None] * np.ones((1, phis.size))
    c = oracles.analyze(L, vals.astype(complex))
    c = c / c[0]
    residual = float(np.linalg.norm(fp @ c) / np.linalg.norm(c))

    lam_val, s2, t2, L2 = 0.3, 4.0, 0.7, 16
    fp0 = dyn.classical_generators([], lam_val * np.eye(3), t2, L2, s2)
    fp0 = fp0.toarray()
    ls, _ = so.lm_arrays(L2)
    spec_dev = float(np.max(np.abs(
        np.diag(fp0) + (lam_val * t2 / s2) * ls * (ls + 1))))
    offdiag = float(np.max(np.abs(fp0 - np.diag(np.diag(fp0)))))

    ok = residual < 1e-8 and spec_dev < 1e-12 and offdiag < 1e-12
    _line(10, "stationary thermal state and diffusion spectrum", ok,
          f"stationarity residual {residual:.2e} < 1e-8 at L=64; "
          f"spectrum deviation {spec_dev:.2e}, off-diagonal {offdiag:.2e}")
    assert ok


def test_criterion_11_integrator_order_and_conservation():
    ctx = SpinContext(3)
    sigma, b3 = 0.0, 1.0
    gen = dyn.qfp_generator([(-b3, (3,))], None, sigma, ctx)
    c0 = swt.operator_to_symbol(dyn.coherent_state(ctx, np.pi / 3, 0.4),
                                sigma, ctx)
    errs = []
    for dt in (0.05, 0.025):
        approx = dyn.integrate(gen, c0, 4.0, dt, "rk4", ctx=ctx, sigma=sigma)
        exact = dyn.integrate(gen, c0, 4.0, dt, "expm", ctx=ctx, sigma=sigma)
        errs.append(float(np.max(np.abs(approx.states[-1] - exact.states[-1]))))
    ratio = errs[0] / errs[1]

    res = dyn.integrate(gen, c0, 20.0, 0.05, "expm", ctx=ctx, sigma=sigma,
                        kind="symbol")
    mag = np.sqrt(res.s1**2 + res.s2**2 + res.s3**2)
    drift = float(np.max(np.abs(mag - mag[0])))

    ok = 14.0 <= ratio <= 18.0 and drift < 1e-10
    _line(11, "integrator order and spin-norm conservation", ok,
          f"halving ratio {ratio:.2f} in 16 +- 2; |<S>| drift {drift:.2e} "
          f"< 1e-10")
    assert ok


def test_criterion_12_sign_and_index_regressions(monkeypatch):
    # square of the S3 symbol at S = 1/2, symmetric ordering: the product
    # rule must return the constant 1/4, which pins the sign under the
    # radical in the symmetric shell table
    ctx = SpinContext(1)
    _, _, s3 = spin_matrices(ctx)
    c = swt.operator_to_symbol(s3, 0.0, ctx)
    out = bopp.bopp_matrices(ctx, 0.0)[2] @ c
    target = np.zeros(ctx.symbol_dim, dtype=complex)
    target[0] = 0.25 * math.sqrt(4 * math.pi)
    star_dev = float(np.max(np.abs(out - target)))

    # diffusion matrix of a linear coupling, as the bilinear scan hands it to
    # the classical generators: full outer product xi_j xi_k, not its diagonal
    # or trace
    ctx2 = SpinContext(5)
    xi = np.array([0.3, -1.2, 0.5])
    gamma = 0.7
    lams = []
    generators = dyn.classical_generators
    monkeypatch.setattr(dyn, "classical_generators",
                        lambda h, lam, *rest: lams.append(lam) or generators(h, lam, *rest))
    dyn.classical_limit_scan("bilinear", [5, 6], 0.0, 3, h=[(-1.0, (3,))],
                             bath=dyn.BathSpec(oracles.linear_expression(xi), gamma, 1.0))
    lam = lams[0]
    lam_dev = float(np.max(np.abs(lam - ctx2.s * gamma * np.outer(xi, xi))))
    off_ok = abs(lam[0, 1] - ctx2.s * gamma * xi[0] * xi[1]) < 1e-15 \
        and lam[0, 1] != 0.0

    ok = star_dev < 1e-12 and lam_dev == 0.0 and off_ok
    _line(12, "sign and index regression pins", ok,
          f"symbol-square deviation {star_dev:.2e} < 1e-12; "
          f"diffusion-matrix deviation {lam_dev:.2e}")
    assert ok
