"""Acceptance suite: one test per shipped guarantee, each printing a
PASS line with its measured numbers (run with `pytest -s` to see them).

Shared expensive artifacts (tube sampling, certificates) are computed once
in session fixtures that record their own wall time; the criteria assert
against those recorded times, so reuse never hides a budget overrun.
"""
import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import softcbf as sc
from softcbf import backup as bk
from softcbf.safety_filter import ClassK
from softcbf.sim import SimConfig, run
from test_safety_filter import exact_filter

mp.mp.dps = 50


def report(num, name, elapsed, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): PASS in {elapsed:.2f}s {detail}")


@pytest.fixture(scope="session")
def scalar_pipeline():
    t0 = time.time()
    bench = sc.get_benchmark("scalar-stable")
    F = bench.closed_loop_field()
    tube = sc.sample_tube(bench.constraints, bench.cert_epsilon, bench.cert_density, seed=0)
    bounds = sc.estimate_bounds(F, tube)
    cert = sc.theta_star_compact(bounds, bench.constraints.N)
    return dict(bench=bench, F=F, cert=cert, elapsed=time.time() - t0)


@pytest.fixture(scope="session")
def di_pipeline():
    t0 = time.time()
    bench = sc.get_benchmark("double-integrator-box")
    F = bench.closed_loop_field()
    tube = sc.sample_tube(bench.constraints, bench.cert_epsilon, bench.cert_density, seed=0)
    bounds = sc.estimate_bounds(F, tube)
    cert = sc.theta_star_compact(bounds, bench.constraints.N)
    return dict(bench=bench, F=F, cert=cert, elapsed=time.time() - t0)


@pytest.fixture(scope="session")
def annulus_pipeline():
    t0 = time.time()
    bench = sc.get_benchmark("thin-annulus")
    F = bench.closed_loop_field()
    tube = sc.sample_tube(bench.constraints, bench.cert_epsilon, bench.cert_density, seed=0)
    bounds = sc.estimate_bounds(F, tube)
    cert = sc.theta_star_compact(bounds, bench.constraints.N)
    return dict(bench=bench, F=F, cert=cert, elapsed=time.time() - t0)


@pytest.fixture(scope="session")
def pendulum_pipeline():
    t0 = time.time()
    bench = sc.get_benchmark("pendulum-backup")
    prob = bench.backup
    F = bench.closed_loop_field()
    samples = bench.precondition_sampler(3000, 0)
    pre = sc.check_backup_preconditions(prob, samples, tol=1e-6)
    cs = sc.slice_constraint_set(prob)
    tube = sc.sample_tube(cs, bench.cert_epsilon, bench.cert_density, seed=0)
    cert = sc.theta_star_compact(sc.estimate_bounds(F, tube), prob.N)
    verify = sc.verify_certificate(cs, F, cert, 1.01 * cert.theta_star, 200, seed=0)
    return dict(
        bench=bench, prob=prob, F=F, cs=cs, pre=pre, cert=cert, verify=verify,
        elapsed=time.time() - t0,
    )


def test_criterion_1_softmin_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        n = int(rng.integers(1, 12))
        values = rng.uniform(-40.0, 40.0, size=n)
        theta = float(rng.uniform(1e-2, 300.0))
        s = sc.softmin_value(values, theta)
        assert s <= values.min() + 1e-12
        assert s >= values.min() - np.log(n) / theta - 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, "soft-min sandwich on 10k random instances", elapsed)


def test_criterion_2_gradient_fidelity():
    t0 = time.time()
    rng = np.random.default_rng(1)
    # direct: random affine families, central differences at step 1e-6
    worst_direct = 0.0
    for _ in range(100):
        n_dim = int(rng.integers(1, 5))
        n_con = int(rng.integers(2, 7))
        A = rng.normal(size=(n_con, n_dim))
        b = rng.normal(size=n_con)
        theta = float(rng.uniform(0.5, 20.0))
        x0 = rng.normal(size=n_dim)
        vals = A @ x0 + b
        grad = sc.softmin_gradient(A, sc.softmin_weights(vals, theta))
        step = 1e-6
        fd = np.empty(n_dim)
        for k in range(n_dim):
            e = np.zeros(n_dim)
            e[k] = step
            fd[k] = (
                sc.softmin_value(A @ (x0 + e) + b, theta)
                - sc.softmin_value(A @ (x0 - e) + b, theta)
            ) / (2 * step)
        err = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        worst_direct = max(worst_direct, err)
        assert err < 1e-5

    # through the flow: smooth slice barrier on the pendulum benchmark,
    # all perturbed integrations in one batch
    bench = sc.get_benchmark("pendulum-backup")
    prob = bench.backup
    theta = 3.0
    X0 = rng.uniform([-0.5, -0.6], [0.5, 0.6], size=(100, 2))
    step = 1e-5
    blocks = [X0]
    for k in range(2):
        e = np.zeros(2)
        e[k] = step
        blocks += [X0 + e, X0 - e]
    vals, grads = bk.slice_values_batch(prob, np.vstack(blocks))

    def soft(v):
        z = -theta * v
        zmax = z.max(axis=1, keepdims=True)
        return -(zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))) / theta

    soft_grad = np.empty((100, 2))
    for i in range(100):
        w = sc.softmin_weights(vals[i], theta)
        soft_grad[i] = sc.softmin_gradient(grads[i], w)
    fd = np.stack(
        [
            (soft(vals[100:200]) - soft(vals[200:300])) / (2 * step),
            (soft(vals[300:400]) - soft(vals[400:500])) / (2 * step),
        ],
        axis=-1,
    )
    rel = np.linalg.norm(soft_grad - fd, axis=1) / np.maximum(
        np.linalg.norm(fd, axis=1), 1e-12
    )
    worst_flow = float(rel.max())
    assert worst_flow < 1e-4
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(2, "gradient fidelity", elapsed,
           f"(direct worst {worst_direct:.2e}, through-flow worst {worst_flow:.2e})")


def test_criterion_3_threshold_formula_fidelity():
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        N = int(rng.integers(2, 30))
        eps = float(rng.uniform(1e-3, 2.0))
        M = float(rng.uniform(0.5, 50.0))
        r = float(rng.uniform(1e-3, M))
        d = float(rng.uniform(1e-3, 5.0))
        cert = sc.theta_star_compact(
            sc.CompactBounds(M=M, r=r, d=d, epsilon=eps, n_samples=1), N
        )
        ref_tube = mp.log(N) / mp.mpf(eps)
        ref_core = mp.log(N * (mp.mpf(r) + mp.mpf(M)) / mp.mpf(r)) / mp.mpf(d)
        ref_star = max(ref_tube, ref_core)
        worst = max(worst, abs(cert.theta_star - float(ref_star)) / float(ref_star))
        assert abs(cert.theta_tube - float(ref_tube)) <= 1e-12 * float(ref_tube)
        assert abs(cert.theta_core - float(ref_core)) <= 1e-12 * float(ref_core)
        assert abs(cert.theta_star - float(ref_star)) <= 1e-12 * float(ref_star)

        eta = float(rng.uniform(1e-2, 5.0))
        C = float(rng.uniform(0.0, 10.0))
        p = float(rng.uniform(0.0, 3.0))
        R = float(rng.uniform(0.5, 20.0))
        r_inf = float(rng.uniform(1e-3, 5.0))
        got = sc.theta_star_tail(sc.TailSpec(R=R, eta_at_R=eta, C=C, p=p, r_inf=r_inf), N)
        ref_tail = mp.log(
            (N - 1) * (mp.mpf(r_inf) + mp.mpf(C) * (1 + mp.mpf(R)) ** mp.mpf(p)) / mp.mpf(r_inf)
        ) / mp.mpf(eta)
        if float(ref_tail) != 0.0:
            assert abs(got - float(ref_tail)) <= 1e-12 * abs(float(ref_tail))
    elapsed = time.time() - t0
    report(3, "threshold formulas vs 50-digit reference (1000 tuples each)", elapsed,
           f"(worst rel err {worst:.2e})")


def test_criterion_4_compact_certificates_empirical(scalar_pipeline, di_pipeline):
    t0 = time.time()
    details = []
    for pipe in (scalar_pipeline, di_pipeline):
        bench, F, cert = pipe["bench"], pipe["F"], pipe["cert"]
        rep = sc.verify_certificate(
            bench.constraints, F, cert, 1.01 * cert.theta_star, 500, seed=0
        )
        assert rep.boundary_found
        assert rep.n_located >= 500
        assert rep.min_lie > 0.0
        details.append(f"{bench.name}: min Lie {rep.min_lie:.3g} over {rep.n_located}")
    elapsed = time.time() - t0 + scalar_pipeline["elapsed"] + di_pipeline["elapsed"]
    assert elapsed < 60.0
    report(4, "compact-set certificates verified on boundary samples", elapsed,
           "(" + "; ".join(details) + ")")


def test_criterion_5_backup_end_to_end(pendulum_pipeline):
    pipe = pendulum_pipeline
    pre, cert, verify = pipe["pre"], pipe["cert"], pipe["verify"]
    assert pre.backup_set_safe.passed
    assert pre.reachable_boundary_safe.passed
    assert pre.regular_value.passed
    assert np.isfinite(cert.theta_star) and cert.theta_star > 0
    assert verify.boundary_found
    assert verify.n_located >= 200
    assert verify.min_lie > 0.0
    assert pipe["elapsed"] < 600.0
    report(5, "backup pipeline end-to-end on the pendulum", pipe["elapsed"],
           f"(theta* {cert.theta_star:.4g}, min Lie {verify.min_lie:.3g} over {verify.n_located})")


def test_criterion_6_flow_and_sensitivity_oracles():
    from scipy.linalg import expm

    t0 = time.time()

    def zero_k(X):
        return np.zeros((X.shape[0], 1))

    def no_g(X):
        return np.zeros(X.shape + (1,))

    def quad(level):
        def fn(X):
            return level - np.einsum("bi,bi->b", X, X), -2.0 * X

        return fn

    # scalar linear flow
    sys1 = sc.ControlAffineSystem(
        n=1, m=1, drift=lambda x: -np.asarray(x, dtype=float), actuation=no_g
    )
    prob1 = sc.BackupProblem(
        sys=sys1, k_b=zero_k, h=quad(1.0), h_b=quad(0.25), T=1.0, dtau=0.5,
        bounding_box=np.array([[-1.2, 1.2]]),
    )
    flow = sc.integrate_flow(prob1, np.array([1.0]))
    assert abs(flow.states[-1][0] - np.exp(-1.0)) < 1e-9
    assert abs(flow.sensitivities[-1][0, 0] - np.exp(-1.0)) < 1e-9

    # random stable planar systems vs the matrix exponential
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        A = rng.normal(size=(2, 2))
        A -= (max(np.linalg.eigvals(A).real) + 0.5) * np.eye(2)

        def drift(x, A=A):
            return np.asarray(x, dtype=float) @ A.T

        sys2 = sc.ControlAffineSystem(n=2, m=1, drift=drift, actuation=no_g)
        prob2 = sc.BackupProblem(
            sys=sys2, k_b=zero_k, h=quad(1.0), h_b=quad(0.25), T=1.0, dtau=0.25,
            bounding_box=np.array([[-1, 1], [-1, 1]]),
        )
        x0 = rng.normal(size=2) * 0.4
        flow = sc.integrate_flow(prob2, x0)
        for i, tau in enumerate(prob2.slice_times):
            ref = expm(A * tau)
            worst = max(worst, float(np.abs(flow.sensitivities[i] - ref).max()))
            worst = max(worst, float(np.abs(flow.states[i] - ref @ x0).max()))
        assert worst < 1e-7
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(6, "flow and sensitivity vs closed forms", elapsed, f"(worst abs err {worst:.2e})")


def test_criterion_7_filter_optimality():
    # against the exact rational oracle: the same status, and u within 4
    # ulps of the scale of the two exact-oracle filter tests (the box for a
    # boxed row, else the largest of |u_des| and |u|)
    t0 = time.time()
    rng = np.random.default_rng(4)
    n_checked = 0
    worst_ulps = 0.0
    worst_slack = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 4))
        a = rng.normal(size=m)
        c = float(rng.normal())
        u_des = rng.uniform(-1.0, 1.0, size=m)
        boxed = bool(rng.integers(0, 2))
        if boxed:
            lo = u_des - rng.uniform(0.2, 1.5, size=m)
            hi = u_des + rng.uniform(0.2, 1.5, size=m)
            box = np.stack([lo, hi], axis=-1)
            corner = np.where(a > 0, hi, np.where(a < 0, lo, u_des))
            rhs = c + float(rng.uniform(-1.0, 1.2)) * abs(float(a @ corner) - c)
            out = sc.filter_boxed(a, c, rhs, u_des, box)
        else:
            box = None
            rhs = float(rng.normal())
            out = sc.filter_unconstrained(a, c, rhs, u_des)
        status, exact = exact_filter(a, c, rhs, u_des, box)
        assert out.qp_status == status
        if status == "infeasible":
            continue
        scale = float(np.abs(box).max()) if boxed else max(np.abs(u_des).max(), np.abs(out.u).max())
        ulps = max(abs(Fraction(float(v)) - e) for v, e in zip(out.u, exact)) / Fraction(math.ulp(scale))
        assert ulps <= 4, (a, c, rhs, u_des, box)
        worst_ulps = max(worst_ulps, float(ulps))
        if out.modified and out.qp_status == "analytic":
            worst_slack = max(worst_slack, abs(out.constraint_value))
            assert abs(out.constraint_value) <= 1e-9  # constraint tight
        n_checked += 1
    assert n_checked >= 120
    elapsed = time.time() - t0
    report(7, "filter vs exact oracle", elapsed,
           f"({n_checked} feasible instances, worst {worst_ulps:.2f} ulps, worst active slack {worst_slack:.1e})")


def test_criterion_8_closed_loop_safety_regression(
    scalar_pipeline, di_pipeline, annulus_pipeline, pendulum_pipeline
):
    t0 = time.time()
    details = []
    cases = [
        (scalar_pipeline, ClassK(), 0.01),
        (di_pipeline, ClassK(), 0.01),
        # gentler relaxation on the thin benchmarks: the hover margin above
        # zero scales with 1/kappa and must clear the sampling tolerance
        (annulus_pipeline, ClassK(kappa=0.5), 0.01),
        (pendulum_pipeline, ClassK(kappa=0.5), 0.01),
    ]
    for pipe, alpha, dt in cases:
        bench, cert = pipe["bench"], pipe["cert"]
        cfg = SimConfig(
            x0=bench.x0_default, t_final=10.0, dt=dt,
            theta=1.01 * cert.theta_star, alpha=alpha,
        )
        trace = run(bench, cfg)
        assert not trace.truncated
        assert trace.min_h_soft >= -1e-6, bench.name
        assert int(trace.infeasible.sum()) == 0, bench.name
        assert trace.modified.any(), bench.name  # the desired input is adversarial
        details.append(f"{bench.name}: min {trace.min_h_soft:.2e}")
    elapsed = time.time() - t0
    report(8, "closed-loop safety regression (10s adversarial runs)", elapsed,
           "(" + "; ".join(details) + ")")


def test_criterion_9_boundary_containment(
    scalar_pipeline, di_pipeline, annulus_pipeline, pendulum_pipeline
):
    t0 = time.time()
    details = []
    for pipe in (scalar_pipeline, di_pipeline, annulus_pipeline):
        bench, F, cert = pipe["bench"], pipe["F"], pipe["cert"]
        theta = max(1.01 * cert.theta_star, np.log(bench.constraints.N) / cert.bounds.epsilon)
        rep = sc.probe_boundary(
            bench.constraints, F, theta, cert.bounds.epsilon, 1000, seed=0
        )
        assert rep.boundary_found and rep.n_located >= 1000
        assert rep.min_h_hat >= 0.0
        assert rep.containment_ok
        details.append(f"{bench.name}: {rep.n_located} pts, min hard {rep.min_h_hat:.1e}")
    pipe = pendulum_pipeline
    rep = sc.probe_boundary(
        pipe["cs"], pipe["F"], 1.01 * pipe["cert"].theta_star,
        pipe["cert"].bounds.epsilon, 1000, seed=0,
    )
    assert rep.boundary_found and rep.n_located >= 1000
    assert rep.min_h_hat >= 0.0
    assert rep.containment_ok
    details.append(f"pendulum-backup: {rep.n_located} pts, min hard {rep.min_h_hat:.1e}")
    elapsed = time.time() - t0
    report(9, "smooth boundary contained in the hard set", elapsed,
           "(" + "; ".join(details) + ")")
