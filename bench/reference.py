"""Reference computations and output checks for the benchmark.

Nothing here imports spinphase: every reference is rebuilt from the
physics it stands for, so a defect in the package cannot hide in the check.

- Spin matrices in the basis m = S, S-1, ..., -S.
- Coherent states |theta, phi> as explicit binomial amplitudes.
- The weak-coupling master equation
      d(rho)/dt = -i[H, rho] - gamma T ([F, F rho] + h.c.)
                  + (gamma/2) ([F, [H, F] rho] + h.c.)
  as a sparse Liouvillian on column-stacked rho, propagated with
  scipy.sparse.linalg.expm_multiply (the exact flow) or with rk4.
- The seeded random Hermitian operator of the transform round-trip probe.

Tolerances follow from "exact to floating point": an error budget of one
rounding (eps) per coefficient, times the size of the quantity.  A method
with a truncation error of its own (rk4) is checked against the same method.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

EPS = np.finfo(float).eps


def spin_ops(twice_s):
    """(S1, S2, S3) as dense complex matrices, basis m = S, ..., -S."""
    s = twice_s / 2.0
    m = s - np.arange(twice_s + 1)
    s3 = np.diag(m).astype(complex)
    # <m+1|S+|m> = sqrt((S - m)(S + m + 1)); row of m+1 sits just above m
    raise_ = np.diag(np.sqrt((s - m[1:]) * (s + m[1:] + 1)), k=1).astype(complex)
    s1 = (raise_ + raise_.conj().T) / 2.0
    s2 = (raise_ - raise_.conj().T) / 2.0j
    return s1, s2, s3


def polynomial(expr, mats):
    """Matrix of sum coeff * S_w1 S_w2 ... for an expression [(coeff, word)]."""
    n = mats[0].shape[0]
    out = np.zeros((n, n), dtype=complex)
    for coeff, word in expr:
        term = np.eye(n, dtype=complex)
        for k in word:
            term = term @ mats[k - 1]
        out += coeff * term
    return out


def coherent_ket(twice_s, theta, phi):
    """Spin coherent state exp(-i phi S3) exp(-i theta S2) |S, S>."""
    s = twice_s / 2.0
    k = np.arange(twice_s + 1)  # m = S - k
    log_binom = np.array([math.lgamma(twice_s + 1) - math.lgamma(twice_s - j + 1)
                          - math.lgamma(j + 1) for j in k])
    c, sn = math.cos(theta / 2.0), math.sin(theta / 2.0)
    amp = np.exp(0.5 * log_binom) * c ** (twice_s - k) * sn ** k
    return amp * np.exp(-1j * (s - k) * phi)


def liouvillian(h, f, gamma, temperature):
    """Sparse Liouvillian of the master equation on column-stacked rho.

    vec(A X B) = (B^T kron A) vec(X).
    """
    h, f = sp.csr_matrix(h), sp.csr_matrix(f)
    n = h.shape[0]
    eye = sp.identity(n, dtype=complex, format="csr")
    g = h @ f - f @ h

    def left(a):
        return sp.kron(eye, a)

    def right(a):
        return sp.kron(a.T, eye)

    out = -1j * (left(h) - right(h))
    out = out - gamma * temperature * (left(f @ f) + right(f @ f) - 2.0 * sp.kron(f.T, f))
    out = out + 0.5 * gamma * (left(f @ g) - sp.kron(f.T, g) - right(g @ f) + sp.kron(g.T, f))
    return out.tocsc()


def rk4_states(gen, y0, t_end, n_steps):
    """Classical fourth-order Runge-Kutta, n_steps equal steps; every state."""
    h = t_end / n_steps
    states = [y0]
    y = y0
    for _ in range(n_steps):
        k1 = gen @ y
        k2 = gen @ (y + 0.5 * h * k1)
        k3 = gen @ (y + 0.5 * h * k2)
        k4 = gen @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    return np.array(states)


def master_trajectory(twice_s, h_expr, f_expr, gamma, temperature, theta, phi,
                      t_end, n_steps, rk4_substeps=0):
    """Observables (t, S1, S2, S3, trace, purity), one row a step.

    rk4_substeps=0 gives the exact flow; k > 0 gives rk4 with k substeps per
    step, sampled at the same n_steps + 1 times.
    """
    mats = spin_ops(twice_s)
    n = twice_s + 1
    ket = coherent_ket(twice_s, theta, phi)
    rho0 = np.outer(ket, ket.conj()).flatten(order="F")
    gen = liouvillian(polynomial(h_expr, mats), polynomial(f_expr, mats),
                      gamma, temperature)
    if rk4_substeps:
        states = rk4_states(gen, rho0, t_end, n_steps * rk4_substeps)[::rk4_substeps]
    else:
        states = expm_multiply(gen, rho0, start=0.0, stop=t_end, num=n_steps + 1,
                               endpoint=True)
    rhos = states.reshape(n_steps + 1, n, n, order="F")  # rhos[t] = rho(t)
    obs = np.empty((n_steps + 1, 6))
    obs[:, 0] = np.linspace(0.0, t_end, n_steps + 1)
    for k in range(3):
        obs[:, 1 + k] = np.einsum("ij,tji->t", mats[k], rhos).real
    obs[:, 4] = np.einsum("tii->t", rhos).real
    obs[:, 5] = np.einsum("tij,tji->t", rhos, rhos).real
    return obs


def read_csv(path):
    """Numeric CSV with one header line, as a 2-D float array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class CheckResult:
    """Outcome of one output check: ok, the error found and its tolerance."""

    def __init__(self, ok, error=float("nan"), tolerance=float("nan"), detail=""):
        self.ok = bool(ok)
        self.error = float(error)
        self.tolerance = float(tolerance)
        self.detail = detail

    def as_dict(self):
        return {"ok": self.ok, "error": self.error, "tolerance": self.tolerance,
                "detail": self.detail}


def within(error, tolerance, detail=""):
    # written so that a NaN error fails
    return CheckResult(error <= tolerance, error, tolerance, detail)


def _trajectory_args(job):
    return (job["twice_s"], job["hamiltonian"], job["coupling"], job["gamma"],
            job["temperature"], job["theta"], job["phi"], job["t_end"], job["steps"])


def _trajectory_scale(twice_s):
    # spin components divided by S, trace and purity as they are
    return np.array([1.0, *([twice_s / 2.0] * 3), 1.0, 1.0])


def check_trajectory(observables, job):
    """Compares an (steps+1, 6) array of t,S1,S2,S3,trace,purity with the
    master equation propagated by the job's method; the error is the largest
    deviation, spin components divided by S.

    expm is checked against the exact flow.  rk4 is checked against the
    reference's own rk4 at the same step: every explicit four-stage rk4 maps a
    linear generator G to the same polynomial 1 + hG + ... + (hG)^4/24, and
    the symbol generator is the Liouvillian in another basis, so the two
    agree up to rounding, truncation error included.  Either way the
    tolerance is (2S+1)^2 roundings, one per symbol coefficient.
    """
    if job["method"] not in ("expm", "rk4"):
        raise ValueError(f"no reference for method {job['method']!r}")
    ref = master_trajectory(*_trajectory_args(job),
                            rk4_substeps=1 if job["method"] == "rk4" else 0)
    if observables.shape != ref.shape:
        return CheckResult(False, detail=f"shape {observables.shape}, expected {ref.shape}")
    if not np.all(np.isfinite(observables)):
        return CheckResult(False, detail="non-finite observables")
    err = float(np.max(np.abs(observables - ref) / _trajectory_scale(job["twice_s"])))
    return within(err, (job["twice_s"] + 1) ** 2 * EPS)


def random_hermitian(twice_s, seed):
    """A seeded random Hermitian operator, (X + X^H) / 2 with X standard
    complex normal (the recipe of the `symbol` command)."""
    n = twice_s + 1
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (raw + raw.conj().T) / 2.0
