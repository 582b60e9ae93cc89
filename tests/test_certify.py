import math

import numpy as np
import pytest

import softcbf.backup
from softcbf import (
    CompactBounds,
    ConstraintSet,
    DomainError,
    InvalidCertificateError,
    ProbeReports,
    TailSpec,
    certify,
    probe_boundary,
    sample_tube,
    estimate_bounds,
    get_benchmark,
    theta_star_compact,
    theta_star_tail,
    verify_certificate,
)

# frozen with an independent 50-digit evaluation (mpmath)
TUBE_N2_EPS01 = 6.9314718055994530942
CORE_EX1 = 4.1588830833596718565
CORE_EX2 = 2.0794415416798359283
TUBE_EX2 = 1.3862943611198906188
TAIL_EX = 1.9143206982445475001


def bounds_of(M, r, d, epsilon=0.1):
    return CompactBounds(M=M, r=r, d=d, epsilon=epsilon, n_samples=100)


def test_compact_threshold_first_example():
    cert = theta_star_compact(bounds_of(M=3.0, r=1.0, d=0.5, epsilon=0.1), N=2)
    assert cert.theta_tube == pytest.approx(TUBE_N2_EPS01, rel=1e-15)
    assert cert.theta_core == pytest.approx(CORE_EX1, rel=1e-15)
    assert cert.theta_star == pytest.approx(TUBE_N2_EPS01, rel=1e-15)
    assert cert.kind == "CBF"


def test_compact_threshold_core_dominates():
    cert = theta_star_compact(bounds_of(M=0.5, r=0.5, d=1.0, epsilon=1.0), N=4)
    assert cert.theta_core == pytest.approx(CORE_EX2, rel=1e-15)
    assert cert.theta_tube == pytest.approx(TUBE_EX2, rel=1e-15)
    assert cert.theta_star == pytest.approx(CORE_EX2, rel=1e-15)


def test_single_constraint_threshold_is_zero():
    cert = theta_star_compact(bounds_of(M=10.0, r=0.1, d=0.7), N=1)
    assert cert.theta_star == 0.0
    assert cert.theta_tube == 0.0
    assert cert.theta_core == 0.0


def test_all_active_gap_sentinel_drops_core_term():
    cert = theta_star_compact(bounds_of(M=2.0, r=1.0, d=np.inf, epsilon=0.2), N=3)
    assert cert.theta_core == 0.0
    assert cert.theta_star == pytest.approx(math.log(3) / 0.2, rel=1e-15)


def test_compact_threshold_rejects_bad_inputs():
    with pytest.raises(InvalidCertificateError):
        theta_star_compact(bounds_of(M=1.0, r=1.0, d=1.0), N=0)
    with pytest.raises(InvalidCertificateError):
        # invalid bounds cannot even be constructed
        bounds_of(M=1.0, r=0.0, d=1.0)


def test_tail_threshold_example():
    tail = TailSpec(R=10.0, eta_at_R=2.0, C=1.0, p=1.0, r_inf=0.5)
    assert theta_star_tail(tail, N=3) == pytest.approx(TAIL_EX, rel=1e-15)


def test_tail_threshold_degenerate_cases():
    # no inactive growth and a two-member family: log(1) = 0
    tail = TailSpec(R=5.0, eta_at_R=1.0, C=0.0, p=0.0, r_inf=0.7)
    assert theta_star_tail(tail, N=2) == 0.0
    assert theta_star_tail(tail, N=1) == 0.0


def test_tail_threshold_inverse_in_eta():
    t1 = TailSpec(R=4.0, eta_at_R=1.0, C=2.0, p=2.0, r_inf=0.3)
    t2 = TailSpec(R=4.0, eta_at_R=2.0, C=2.0, p=2.0, r_inf=0.3)
    assert theta_star_tail(t1, 5) == pytest.approx(2.0 * theta_star_tail(t2, 5), rel=1e-15)


def test_tail_spec_validation():
    with pytest.raises(InvalidCertificateError):
        TailSpec(R=1.0, eta_at_R=0.0, C=1.0, p=1.0, r_inf=1.0)
    with pytest.raises(InvalidCertificateError):
        TailSpec(R=1.0, eta_at_R=1.0, C=-1.0, p=1.0, r_inf=1.0)
    with pytest.raises(InvalidCertificateError):
        TailSpec(R=1.0, eta_at_R=1.0, C=1.0, p=1.0, r_inf=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("key", ["R", "eta_at_R", "C", "p", "r_inf"])
def test_tail_spec_requires_finite_constants(key, value):
    kw = dict(R=1.0, eta_at_R=1.0, C=1.0, p=1.0, r_inf=1.0)
    kw[key] = value
    with pytest.raises(InvalidCertificateError, match="tail constants must be finite"):
        TailSpec(**kw)


def test_certify_combines_terms():
    bounds = bounds_of(M=3.0, r=1.0, d=0.5, epsilon=0.1)
    compact_only = certify(bounds, None, 2)
    assert compact_only.kind == "CBF"
    assert compact_only.theta_tail is None
    assert compact_only.theta_star == pytest.approx(TUBE_N2_EPS01, rel=1e-15)

    tail = TailSpec(R=10.0, eta_at_R=2.0, C=1.0, p=1.0, r_inf=0.5)
    with_tail = certify(bounds, tail, 2)
    assert with_tail.kind == "eCBF"
    # the tube term still dominates the tail term here
    assert with_tail.theta_star == pytest.approx(TUBE_N2_EPS01, rel=1e-15)
    assert with_tail.theta_tail is not None

    huge_tail = TailSpec(R=10.0, eta_at_R=0.01, C=5.0, p=3.0, r_inf=0.1)
    dominated = certify(bounds, huge_tail, 2)
    assert dominated.theta_star == pytest.approx(theta_star_tail(huge_tail, 2), rel=1e-15)


def test_certify_degenerate_single_constraint():
    cert = certify(bounds_of(M=1.0, r=1.0, d=np.inf), None, 1)
    assert cert.theta_star == 0.0
    assert cert.kind == "CBF"


def test_threshold_monotonicity_by_perturbation():
    rng = np.random.default_rng(0)
    for _ in range(100):
        M = float(rng.uniform(0.5, 5.0))
        r = float(rng.uniform(0.05, M / 1.2))
        d = float(rng.uniform(0.05, 2.0))
        eps = float(rng.uniform(0.01, 1.0))
        N = int(rng.integers(2, 9))
        base = theta_star_compact(bounds_of(M, r, d, eps), N).theta_core
        assert theta_star_compact(bounds_of(M, r, d * 1.1, eps), N).theta_core < base
        assert theta_star_compact(bounds_of(M, r * 1.1, d, eps), N).theta_core < base
        assert theta_star_compact(bounds_of(M * 1.1, r, d, eps), N).theta_core > base
        assert theta_star_compact(bounds_of(M, r, d, eps), N + 1).theta_core > base

        tail = TailSpec(R=float(rng.uniform(1, 10)), eta_at_R=float(rng.uniform(0.1, 2)),
                        C=float(rng.uniform(0.1, 3)), p=float(rng.uniform(0.1, 2)),
                        r_inf=float(rng.uniform(0.05, 1)))
        t0 = theta_star_tail(tail, N)
        assert theta_star_tail(TailSpec(tail.R, tail.eta_at_R * 1.1, tail.C, tail.p, tail.r_inf), N) < t0
        assert theta_star_tail(TailSpec(tail.R, tail.eta_at_R, tail.C, tail.p, tail.r_inf * 1.1), N) < t0
        assert theta_star_tail(TailSpec(tail.R, tail.eta_at_R, tail.C * 1.1, tail.p, tail.r_inf), N) > t0
        assert theta_star_tail(TailSpec(tail.R * 1.1, tail.eta_at_R, tail.C, tail.p, tail.r_inf), N) > t0
        assert theta_star_tail(TailSpec(tail.R, tail.eta_at_R, tail.C, tail.p * 1.1, tail.r_inf), N) > t0
        assert theta_star_tail(tail, N + 1) > t0


def disk_problem():
    def ev_disk(x):
        return float(1.0 - x @ x), -2.0 * np.asarray(x, dtype=float)

    def ev_slab(x):
        return float(1.5 - x[0]), np.array([-1.0, 0.0])

    cs = ConstraintSet(
        n=2,
        evaluators=(ev_disk, ev_slab),
        bounding_box=np.array([[-1.2, 1.2], [-1.2, 1.2]]),
    )

    def F(x):
        return -np.asarray(x, dtype=float)

    return cs, F


def test_verify_certificate_stable_disk():
    cs, F = disk_problem()
    tube = sample_tube(cs, 0.1, 1500.0, seed=0)
    bounds = estimate_bounds(F, tube)
    cert = theta_star_compact(bounds, cs.N)
    report = verify_certificate(cs, F, cert, 2.0 * cert.theta_star, 300, seed=0)
    assert report.boundary_found
    assert report.n_located == 300
    assert report.min_lie > 0
    assert report.containment_ok
    assert report.min_h_hat >= 0.0
    assert report.max_h_hat <= 0.1 + 1e-9


def test_verify_certificate_requires_theta_above_threshold():
    cs, F = disk_problem()
    tube = sample_tube(cs, 0.1, 1500.0, seed=0)
    cert = theta_star_compact(estimate_bounds(F, tube), cs.N)
    with pytest.raises(DomainError):
        verify_certificate(cs, F, cert, 0.5 * cert.theta_star, 50, seed=0)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), 0.0])
def test_probe_boundary_rejects_theta_that_is_not_finite_positive(theta):
    cs, F = disk_problem()
    with pytest.raises(DomainError, match="theta must be a finite positive number"):
        probe_boundary(cs, F, theta, 0.1, 10, seed=0)


def test_probe_boundary_reports_negative_witnesses_for_unstable_field():
    cs, _ = disk_problem()

    def F_out(x):
        return np.asarray(x, dtype=float)

    report = probe_boundary(cs, F_out, theta=60.0, epsilon=0.1, n_check=100, seed=0)
    assert report.boundary_found
    assert report.min_lie < 0
    assert len(report.nonpositive) > 0


def test_probe_boundary_flags_missing_boundary():
    # a set covering the whole box has no reachable zero level set inside it
    def ev(x):
        return float(100.0 - x @ x), -2.0 * np.asarray(x, dtype=float)

    cs = ConstraintSet(n=2, evaluators=(ev,), bounding_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    report = probe_boundary(cs, lambda x: -np.asarray(x, dtype=float), 5.0, 0.1, 50, 0)
    assert not report.boundary_found
    assert report.min_lie is None


def test_probe_boundary_counts_every_requested_ray():
    cs, F = disk_problem()

    def counts(report):
        assert report.n_requested == report.n_located + report.n_abandoned + report.n_unconverged
        return report.n_located, report.n_abandoned, report.n_unconverged

    # every ray from inside the disk crosses its boundary, and converges
    assert counts(probe_boundary(cs, F, 60.0, 0.1, 200, seed=0)) == (200, 0, 0)
    # a tolerance below the levels rounding leaves next to the boundary
    # keeps rays that crossed from converging
    located, abandoned, unconverged = counts(
        probe_boundary(cs, F, 60.0, 0.1, 200, seed=0, boundary_tol=1e-300))
    assert abandoned == 0 and unconverged > 0

    # no zero level set inside the widened box: every ray is abandoned
    def wide(x):
        return float(100.0 - x @ x), -2.0 * np.asarray(x, dtype=float)

    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    cs_wide = ConstraintSet(n=2, evaluators=(wide,), bounding_box=box)
    assert counts(probe_boundary(cs_wide, F, 5.0, 0.1, 50, 0)) == (0, 50, 0)

    # no interior start at all: no ray is marched, and each counts as abandoned
    def empty(x):
        return float(-1.0 - x @ x), -2.0 * np.asarray(x, dtype=float)

    cs_empty = ConstraintSet(n=2, evaluators=(empty,), bounding_box=box)
    assert counts(probe_boundary(cs_empty, F, 5.0, 0.1, 50, 0)) == (0, 50, 0)


def test_containment_at_tube_threshold():
    # just above log(N)/eps every located boundary point stays in the band
    cs, F = disk_problem()
    theta = math.log(2) / 0.1 * 1.001
    report = probe_boundary(cs, F, theta, 0.1, 200, seed=1)
    assert report.boundary_found
    assert report.min_h_hat >= 0.0
    assert report.max_h_hat <= 0.1 + 1e-9


def report_fields(report):
    # every field of a VerificationReport, arrays and floats as their bytes
    def raw(x):
        return None if x is None else np.asarray(x, dtype=float).tobytes()

    return (
        report.theta, report.epsilon, report.n_requested, report.n_located, report.n_abandoned,
        report.n_unconverged, report.boundary_found, raw(report.min_lie), raw(report.argmin_point),
        tuple((raw(p), raw(v)) for p, v in report.nonpositive), report.containment_ok,
        raw(report.max_h_hat), raw(report.min_h_hat),
    )


def sweep_compact_thetas(seed):
    # the theta list perfbench's sweep-compact workload draws for a seed
    rng = np.random.default_rng(seed)
    exps = np.linspace(math.log10(3.0), 5.0, 6)
    exps[1:-1] += rng.uniform(-0.3, 0.3, 4)
    return [float(t) for t in 10.0**exps]


def assert_list_probe_is_one_theta_probes(bench, thetas, n_check, seed):
    cs, F = bench.certification_set(), bench.closed_loop_field()
    reports = probe_boundary(cs, F, thetas, bench.cert_epsilon, n_check, seed)
    assert isinstance(reports, ProbeReports) and len(reports) == len(thetas)
    single = [probe_boundary(cs, F, t, bench.cert_epsilon, n_check, seed) for t in thetas]
    assert [report_fields(r) for r in reports] == [report_fields(r) for r in single]
    assert reports.n_requested == len(thetas) * n_check
    assert reports.n_located == sum(r.n_located for r in single)
    return reports


@pytest.mark.gate
@pytest.mark.parametrize("seed", range(10))
def test_probe_of_a_theta_list_equals_one_theta_probes(seed):
    assert_list_probe_is_one_theta_probes(
        get_benchmark("double-integrator-box"), sweep_compact_thetas(seed), 500, seed)


@pytest.mark.gate
def test_probe_of_a_theta_list_with_a_repeated_and_an_interior_free_theta():
    # at theta = 0.01 the smooth minimum is negative on the whole box, so
    # no ray starts; its report still counts every requested ray
    bench = get_benchmark("double-integrator-box")
    reports = assert_list_probe_is_one_theta_probes(bench, [300.0, 0.01, 300.0, 2e4], 200, 3)
    assert not reports[1].boundary_found and reports[1].n_abandoned == 200
    assert report_fields(reports[0]) == report_fields(reports[2])
    assert all(r.boundary_found for r in reports[::2])


@pytest.mark.gate
@pytest.mark.parametrize("seed", range(3))
def test_pendulum_probe_of_a_theta_list_shares_its_pool_and_flows(seed, monkeypatch):
    bench = get_benchmark("pendulum-backup")
    thetas = [3000.0, 75000.0, 1e6]
    real = softcbf.backup.integrate_flow_batch
    flows = []

    def counted(prob, X0, *args, **kwargs):
        flows.append(np.array(X0))
        return real(prob, X0, *args, **kwargs)

    monkeypatch.setattr(softcbf.backup, "integrate_flow_batch", counted)
    assert_list_probe_is_one_theta_probes(bench, thetas, 30, seed)
    # the list call's flows come first, then those of the three one-theta calls
    box = bench.certification_set().bounding_box
    pool = {x.tobytes() for x in np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], size=(256, 2))}

    def pool_flows(group):
        return sum(all(x.tobytes() in pool for x in X0) for X0 in group)

    firsts = [i for i, X0 in enumerate(flows) if pool_flows([X0])]
    assert len(firsts) == 1 + len(thetas)
    lockstep, single = flows[: firsts[1]], flows[firsts[1]:]
    assert pool_flows(lockstep) == 1
    assert len(lockstep) < len(single) / 2
