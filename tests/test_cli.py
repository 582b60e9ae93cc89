import dataclasses
import re
from dataclasses import fields

import numpy as np
import pytest

import softcbf.backup
import softcbf.cli
from softcbf.cli import ConfigError, ScenarioConfig, build_parser, load_config, main, resolve_config
from softcbf.certify import probe_boundary
from softcbf.geometry import ConstraintSet
from softcbf.sim import run
from softcbf.systems import get_benchmark


def read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_certify_scalar_stable_exit_zero(tmp_path):
    code = main([
        "certify", "--benchmark", "scalar-stable", "--epsilon", "0.1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    report = read_report(tmp_path / "certify-scalar-stable.txt")
    assert report["kind"] == "CBF"
    assert float(report["theta_star"]) == pytest.approx(np.log(2) / 0.1, rel=1e-12)
    assert report["mfcq_passed"] == "True"
    assert float(report["verify_min_lie"]) > 0
    # every verification ray is located, abandoned or unconverged
    rays = [int(report[k]) for k in ("verify_boundary_points", "verify_rays_abandoned",
                                     "verify_rays_unconverged")]
    assert sum(rays) == int(report["config.n_check"])
    # and so is every refinement ray of the tube
    rays = [int(report[f"tube_rays_{k}"]) for k in ("located", "abandoned", "unconverged")]
    assert int(report["tube_rays_requested"]) > 0
    assert sum(rays) == int(report["tube_rays_requested"])
    assert report["exit_status"] == "certified"
    # the resolved configuration is embedded for reproducibility
    assert report["config.benchmark"] == "scalar-stable"
    assert "config.seed" in report


@pytest.mark.parametrize("theta", ["nan", "inf", "-1"])
def test_certify_rejects_a_non_finite_theta(tmp_path, capsys, monkeypatch, theta):
    # rejected before the preconditions and the tube are computed
    def never(*args, **kwargs):
        raise AssertionError("certification ran")

    monkeypatch.setattr(softcbf.cli, "sample_tube", never)
    monkeypatch.setattr(softcbf.cli, "check_backup_preconditions", never)
    for name in ("scalar-stable", "pendulum-backup"):
        assert main(["certify", "--benchmark", name, "--theta", theta, "--out", str(tmp_path)]) == 1
        assert f"theta must be a finite positive number, got {theta}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_certify_refuses_theta_zero_before_any_work_where_theta_star_is_positive(tmp_path, capsys, monkeypatch):
    # theta = 0 runs verification at 1 only where theta_star = 0, which
    # takes one constraint; with more it is refused before any work
    def never(*args, **kwargs):
        raise AssertionError("certification ran")

    real = softcbf.backup.integrate_flow_batch
    flows = []

    def counted(*args, **kwargs):
        flows.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(softcbf.backup, "integrate_flow_batch", counted)
    monkeypatch.setattr(softcbf.cli, "sample_tube", never)
    monkeypatch.setattr(softcbf.cli, "check_backup_preconditions", never)
    for name in ("pendulum-backup", "double-integrator-box"):
        assert main(["certify", "--benchmark", name, "--theta", "0", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: theta must be a finite positive number, got 0.0\n"
    assert flows == [] and list(tmp_path.iterdir()) == []


TAIL = "tail_R = 1\ntail_eta = 0.01\ntail_p = 1\ntail_r_inf = 0.5\n"

# (benchmark, flags, config file, fragment of the error) of inputs that
# certify refuses: each exits 1 with one error line and writes no report
INVALID_CERTIFY_INPUTS = {
    "epsilon-inf": ("double-integrator-box", ["--epsilon", "inf"], "", "epsilon must be finite"),
    "density-nan": ("double-integrator-box", ["--density", "nan"], "", "density must be finite"),
    "density-inf": ("double-integrator-box", ["--density", "inf"], "", "density must be finite"),
    "activity-tolerance-nan": ("scalar-stable", ["--activity-tolerance", "nan"], "", "activity tolerance"),
    "activity-tolerance-negative": ("scalar-stable", ["--activity-tolerance", "-1"], "", "activity tolerance"),
    "seed-negative": ("scalar-stable", ["--seed", "-1"], "", "seed must be nonnegative"),
    "theta-negative": ("pendulum-backup", ["--theta", "-1"], "", "theta must be a finite positive number"),
    "n-check-negative": ("scalar-stable", [], "n_check = -1\n", "n_check must be nonnegative"),
    "precondition-points-negative": (
        "pendulum-backup", [], "precondition_points = -1\n", "precondition_points must be nonnegative"),
    "precondition-tolerance-nan": (
        "pendulum-backup", [], "precondition_tolerance = nan\n", "precondition tolerance must be finite"),
    "tail-C-nan": ("scalar-stable", [], TAIL + "tail_C = nan\n", "tail constants must be finite"),
    # a tail term that overflows: (1 + R)^p raises OverflowError, and C (1 + R)^p
    # is inf, which made theta_star inf
    "tail-power-overflow": ("double-integrator-box", [], TAIL.replace("tail_p = 1", "tail_p = 40").replace(
        "tail_R = 1", "tail_R = 1e10") + "tail_C = 1\n", "theta_tail = log((N - 1) (r_inf + C (1 + R)^p)"),
    "tail-term-inf": ("double-integrator-box", [], TAIL.replace("tail_R = 1", "tail_R = 1e300") + "tail_C = 1e300\n",
                      "is not finite (inf) for N=4, R=1e+300, C=1e+300"),
}


@pytest.mark.parametrize("case", sorted(INVALID_CERTIFY_INPUTS))
def test_certify_refuses_invalid_inputs_with_one_error_line(tmp_path, capsys, case):
    # an exception other than the package's own would escape main here
    name, flags, config, message = INVALID_CERTIFY_INPUTS[case]
    cfg_file = tmp_path / "case.cfg"
    cfg_file.write_text(config)
    out = tmp_path / "out"
    code = main(["certify", "--benchmark", name, "--config", str(cfg_file), *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("points", [0, 1])
def test_certify_fails_without_a_precondition_sample_on_the_terminal_boundary(tmp_path, capsys, points):
    # pendulum's sampler puts a third of its points on the terminal boundary,
    # so none at 0 or 1 point: checks (1) and (3) fail before any tube work
    cfg_file = tmp_path / "points.cfg"
    cfg_file.write_text(f"precondition_points = {points}\n")
    out = tmp_path / "out"
    code = main(["certify", "--benchmark", "pendulum-backup", "--config", str(cfg_file), "--out", str(out)])
    assert code == 2
    path = out / "certify-pendulum-backup.txt"
    assert capsys.readouterr().out == f"backup preconditions failed; report: {path}\n"
    report = read_report(path)
    assert report["exit_status"] == "backup preconditions failed"
    for tag in ("backup-set_inward_flow", "terminal_boundary_regular_value"):
        assert report[f"precondition.{tag}"] == "FAIL"
        assert "no samples on the terminal boundary" in report[f"precondition.{tag}.note"]
    assert report["precondition.reachable-boundary_inward_flow"] == "pass"
    assert not [key for key in report if key.startswith("tube_")]


@pytest.mark.parametrize("key", ["seed", "n_check", "precondition_points"])
def test_resolve_config_rejects_a_negative_count(tmp_path, key):
    cfg_file = tmp_path / "counts.cfg"
    cfg_file.write_text(f"benchmark = scalar-stable\n{key} = -1\n")
    with pytest.raises(ConfigError, match=f"{key} must be nonnegative, got -1"):
        resolve_config(build_parser().parse_args(["certify", "--config", str(cfg_file)]))
    cfg_file.write_text(f"benchmark = scalar-stable\n{key} = 0\n")
    assert getattr(resolve_config(build_parser().parse_args(["certify", "--config", str(cfg_file)])), key) == 0


def test_certify_without_a_located_boundary_point_says_so(tmp_path):
    # no verification ray at all: nothing was found, positive or not
    cfg_file = tmp_path / "none.cfg"
    cfg_file.write_text("n_check = 0\n")
    out = tmp_path / "out"
    assert main(["certify", "--benchmark", "scalar-stable", "--config", str(cfg_file), "--out", str(out)]) == 2
    report = read_report(out / "certify-scalar-stable.txt")
    assert report["verify_boundary_points"] == "0"
    assert report["verify_min_lie"] == "n/a"
    assert report["exit_status"] == "verification located no boundary point"


def test_certify_below_theta_star_is_not_a_certificate(tmp_path):
    out = tmp_path / "below"
    # theta_star is 15737.3 here; a boundary probe at theta = 100 finds only
    # positive Lie derivatives, which is a sampled check, not a certificate
    assert main(["certify", "--benchmark", "double-integrator-box", "--theta", "100",
                 "--out", str(out)]) == 5
    report = read_report(out / "certify-double-integrator-box.txt")
    assert float(report["theta_star"]) > 100.0
    assert float(report["verify_min_lie"]) > 0
    assert report["exit_status"] == "sampled check below theta_star, not a certificate"

    out = tmp_path / "default"
    assert main(["certify", "--benchmark", "double-integrator-box", "--out", str(out)]) == 0
    assert read_report(out / "certify-double-integrator-box.txt")["exit_status"] == "certified"


def test_certify_unstable_exit_two(tmp_path):
    code = main(["certify", "--benchmark", "scalar-unstable", "--out", str(tmp_path)])
    assert code == 2
    report = read_report(tmp_path / "certify-scalar-unstable.txt")
    assert "not strictly safe" in report["exit_status"]


def test_certify_mfcq_failure_exit_three(tmp_path):
    code = main([
        "certify", "--benchmark", "thin-annulus", "--activity-tolerance", "0.1",
        "--out", str(tmp_path),
    ])
    assert code == 3
    report = read_report(tmp_path / "certify-thin-annulus.txt")
    assert report["mfcq_passed"] == "False"
    assert "mfcq_violating_pair" in report


def test_certify_annulus_default_tolerance_passes(tmp_path):
    code = main(["certify", "--benchmark", "thin-annulus", "--out", str(tmp_path)])
    assert code == 0


def test_certify_backup_benchmark_reports_preconditions(tmp_path):
    code = main([
        "certify", "--benchmark", "pendulum-backup", "--out", str(tmp_path),
        "--seed", "0",
    ])
    assert code == 0
    report = read_report(tmp_path / "certify-pendulum-backup.txt")
    assert report["N"] == "11"
    assert report["precondition.backup-set_inward_flow"] == "pass"
    assert report["precondition.reachable-boundary_inward_flow"] == "pass"
    assert report["precondition.terminal_boundary_regular_value"] == "pass"
    assert float(report["verify_min_lie"]) > 0


def test_simulate_exit_zero_and_trace(tmp_path):
    code = main([
        "simulate", "--benchmark", "scalar-stable", "--out", str(tmp_path),
        "--t-final", "2.0",
    ])
    assert code == 0
    lines = (tmp_path / "trace-scalar-stable.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x_1,u_1,h_soft,h_hard,modified,infeasible"
    assert len(lines) == 202  # header + 201 rows at dt = 0.01


def test_simulate_uses_the_tail_certificate(tmp_path, capsys):
    cfg_file = tmp_path / "tail.cfg"
    cfg_file.write_text(
        "benchmark = scalar-stable\n"
        "tail_R = 1\ntail_eta = 0.01\ntail_C = 1\ntail_p = 1\ntail_r_inf = 0.5\n"
    )
    assert main(["certify", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path / "certify-scalar-stable.txt")
    assert report["kind"] == "eCBF"
    theta_tail = float(report["theta_tail"])
    assert float(report["theta_star"]) == theta_tail

    capsys.readouterr()
    assert main([
        "simulate", "--config", str(cfg_file), "--t-final", "0.5", "--out", str(tmp_path),
    ]) == 0
    printed = capsys.readouterr().out.split("theta=", 1)[1].split(":", 1)[0]
    # printed with 6 significant digits
    assert float(printed) >= 1.01 * theta_tail * (1.0 - 1e-5)


# pendulum-backup at a quick size: a coarse tube, few verification rays and
# few precondition points
QUICK_PENDULUM_CONFIG = "n_check = 30\nprecondition_points = 300\n"


def certify_quick_pendulum(tmp_path):
    cfg_file = tmp_path / "quick.cfg"
    cfg_file.write_text(QUICK_PENDULUM_CONFIG)
    code = main([
        "certify", "--benchmark", "pendulum-backup", "--seed", "0", "--density", "30",
        "--config", str(cfg_file), "--out", str(tmp_path),
    ])
    return code, read_report(tmp_path / "certify-pendulum-backup.txt")


# seed-0 certificates of the compact benchmarks, each at its default band
# and density, and of pendulum-backup at the quick size; the sampling, flow,
# bound and verification paths must reproduce them to the last few bits
SEED0_CERTIFICATES = {
    "double-integrator-box": {
        "theta_star": 15737.286940871161, "M": 2.4935103419077298,
        "r": 0.5002017852375702, "d": 0.00020178523757019562,
        "verify_min_lie": 0.53391178215077373,
    },
    "scalar-stable": {
        "theta_star": 6.9314718055994522, "M": 0.99999086257507397,
        "r": 0.90007050241129716, "d": 1.8001410048225943,
        "verify_min_lie": 0.99999822086571466,
    },
    "thin-annulus": {
        "theta_star": 69.314718055994533, "M": 0.19999083637960874,
        "r": 0.11557813862188918, "d": 0.030008720295538582,
        "verify_min_lie": 0.17502189768327664,
    },
    "pendulum-backup": {
        "theta_star": 2221.5281496503903, "M": 6.703580477125195,
        "r": 0.090789552834032089, "d": 0.0030218841310769018,
        "verify_min_lie": 0.093894284098017672,
    },
}


# which constraints attain the minimum at some tube sample: the quick-size
# pendulum-backup tube reaches only slices 0 and 10
SEED0_TUBE_COVERAGE = {
    "double-integrator-box": "1 1 1 1",
    "scalar-stable": "1 1",
    "thin-annulus": "1 1",
    "pendulum-backup": "1 0 0 0 0 0 0 0 0 0 1",
}


@pytest.mark.gate
@pytest.mark.parametrize("name", sorted(SEED0_CERTIFICATES))
def test_certify_reproduces_seed0_certificate(tmp_path, name):
    if name == "pendulum-backup":
        code, report = certify_quick_pendulum(tmp_path)
    else:
        code = main(["certify", "--benchmark", name, "--seed", "0", "--out", str(tmp_path)])
        report = read_report(tmp_path / f"certify-{name}.txt")
    assert code == 0
    for key, value in SEED0_CERTIFICATES[name].items():
        assert float(report[key]) == pytest.approx(value, rel=1e-12), key
    assert report["tube_constraint_coverage"] == SEED0_TUBE_COVERAGE[name]


def test_certify_with_a_wrapped_backup_controller_writes_the_same_report(tmp_path, monkeypatch):
    # a step clock or a call counter wraps k_b, which takes the flows off the
    # fused closed loop and onto the system's fused plant; the report must not move
    def report_lines(out):
        code, _ = certify_quick_pendulum(out)
        assert code == 0
        lines = (out / "certify-pendulum-backup.txt").read_text().splitlines()
        return [line for line in lines if not line.startswith("config.out = ")]

    (tmp_path / "plain").mkdir()
    (tmp_path / "wrapped").mkdir()
    plain = report_lines(tmp_path / "plain")
    real = softcbf.cli.get_benchmark
    calls = []

    def get_benchmark(name):
        bench = real(name)
        k_b = bench.backup.k_b

        def clocked(x):
            calls.append(1)
            return k_b(x)

        return dataclasses.replace(bench, backup=dataclasses.replace(bench.backup, k_b=clocked))

    monkeypatch.setattr(softcbf.cli, "get_benchmark", get_benchmark)
    assert report_lines(tmp_path / "wrapped") == plain
    assert calls


def test_certify_integrates_sensitivities_only_where_gradients_are_read(tmp_path, monkeypatch):
    real = softcbf.backup.integrate_flow_batch
    flows = []

    def counted(prob, X0, *args, **kwargs):
        flow = real(prob, X0, *args, **kwargs)
        flows.append((flow.states.shape[1], flow.sensitivities is not None))
        return flow

    monkeypatch.setattr(softcbf.backup, "integrate_flow_batch", counted)
    code, report = certify_quick_pendulum(tmp_path)
    assert code == 0
    tube = int(report["tube_samples"])
    located = int(report["verify_boundary_points"])
    # sample_tube evaluates its final samples once with gradients, for
    # coverage and for check_mfcq and estimate_bounds, which read the tube's
    # evaluation; verification reads them at the located boundary points.
    # Every other flow (the precondition reachability, sampling, ray
    # marching, bisection) reads values only
    assert [rows for rows, sens in flows if sens] == [tube, located]
    # values-only flows go through the module-level name as well
    assert sum(rows for rows, sens in flows if not sens) > 0


@pytest.mark.parametrize("name", ["double-integrator-box", "scalar-stable", "thin-annulus"])
def test_compact_certify_evaluates_gradients_only_where_they_are_read(name, tmp_path, monkeypatch):
    # the compact families carry value evaluators, so sampling, marching,
    # bisection and boundary location never build gradient blocks: the tube
    # samples (read by check_mfcq and estimate_bounds) and the located
    # boundary points (read by verification) are the only gradient blocks
    real = ConstraintSet.evaluate_batch
    rows = []

    def counted(self, X):
        rows.append(len(X))
        return real(self, X)

    monkeypatch.setattr(ConstraintSet, "evaluate_batch", counted)
    assert main(["certify", "--benchmark", name, "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path / f"certify-{name}.txt")
    assert rows == [int(report["tube_samples"]), int(report["verify_boundary_points"])]


# certification steps that fail: (benchmark, flags, config file, exit code)
FAILED_STEPS = {
    "preconditions": ("pendulum-backup", [], "precondition_points = 0\n", 2),
    "mfcq": ("thin-annulus", ["--activity-tolerance", "0.1"], "", 3),
    "strict-safety": ("scalar-unstable", [], "", 2),
}


@pytest.mark.parametrize("case", sorted(FAILED_STEPS))
def test_simulate_exits_with_certify_code_when_a_step_fails(tmp_path, capsys, monkeypatch, case):
    name, flags, config, code = FAILED_STEPS[case]
    cfg_file = tmp_path / "case.cfg"
    cfg_file.write_text(config)
    argv = ["--benchmark", name, "--config", str(cfg_file), *flags]
    if case == "preconditions":
        # refused before the tube
        def never(*args, **kwargs):
            raise AssertionError("sample_tube ran")

        monkeypatch.setattr(softcbf.cli, "sample_tube", never)
    assert main(["certify", *argv, "--out", str(tmp_path / "certify")]) == code
    status = read_report(tmp_path / "certify" / f"certify-{name}.txt")["exit_status"]
    capsys.readouterr()
    out = tmp_path / "simulate"
    assert main(["simulate", *argv, "--t-final", "0.1", "--out", str(out)]) == code
    printed = capsys.readouterr()
    assert printed.out == f"{status}; no trace written\n"
    assert printed.err == ""
    assert not out.exists()


CERTIFICATION_STEPS = ("check_backup_preconditions", "sample_tube", "check_mfcq", "estimate_bounds", "certify")


def test_simulate_certifies_with_the_steps_of_certify(tmp_path, monkeypatch):
    calls = []
    for step in CERTIFICATION_STEPS:
        def recorded(*args, _real=getattr(softcbf.cli, step), _step=step, **kwargs):
            calls.append(_step)
            return _real(*args, **kwargs)

        monkeypatch.setattr(softcbf.cli, step, recorded)
    assert certify_quick_pendulum(tmp_path)[0] == 0
    assert calls == list(CERTIFICATION_STEPS)
    calls.clear()
    cfg_file = tmp_path / "quick.cfg"
    assert main(["simulate", "--benchmark", "pendulum-backup", "--seed", "0", "--density", "30",
                 "--config", str(cfg_file), "--t-final", "0.05", "--out", str(tmp_path)]) == 0
    assert calls == list(CERTIFICATION_STEPS)


@pytest.mark.gate
@pytest.mark.parametrize("name", sorted(SEED0_CERTIFICATES))
def test_simulate_runs_at_the_multiplier_times_certify_theta_star(tmp_path, monkeypatch, name):
    cfg_file = tmp_path / "quick.cfg"
    cfg_file.write_text(QUICK_PENDULUM_CONFIG)
    argv = ["--benchmark", name, "--seed", "0", "--config", str(cfg_file), "--out", str(tmp_path)]
    if name == "pendulum-backup":
        argv += ["--density", "30"]
    assert main(["certify", *argv]) == 0
    report = read_report(tmp_path / f"certify-{name}.txt")
    thetas = []
    real = softcbf.cli.run

    def run(bench, cfg):
        thetas.append(cfg.theta)
        return real(bench, cfg)

    monkeypatch.setattr(softcbf.cli, "run", run)
    assert main(["simulate", *argv, "--t-final", "0.1"]) == 0
    assert thetas == [1.01 * float(report["theta_star"])] == [float(report["verify_theta"])]


def test_simulate_explicit_theta(tmp_path):
    code = main([
        "simulate", "--benchmark", "scalar-stable", "--theta", "30",
        "--t-final", "1.0", "--out", str(tmp_path),
    ])
    assert code == 0


def test_sweep_csv(tmp_path):
    code = main([
        "sweep", "--benchmark", "scalar-stable", "--thetas", "3,8,30",
        "--t-final", "1.0", "--out", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "sweep-scalar-stable.csv").read_text().strip().splitlines()
    assert lines[0] == "theta,min_boundary_lie,min_h_soft,infeasible_count"
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    # every theta above the certified threshold has a positive boundary margin
    theta_star = np.log(2) / 0.1
    for row in rows:
        if float(row[0]) > theta_star:
            assert float(row[1]) > 0


def test_sweep_requires_thetas(tmp_path, capsys):
    code = main(["sweep", "--benchmark", "scalar-stable", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: sweep needs a nonempty theta list (--thetas)\n"


def test_an_unwritable_output_path_is_one_error_line(tmp_path, capsys):
    # --out names a file, so the report directory cannot be made
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["certify", "--benchmark", "scalar-stable", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_sweep_rejects_a_non_finite_theta_before_writing(tmp_path):
    code = main(["sweep", "--benchmark", "double-integrator-box", "--thetas", "nan 10",
                 "--t-final", "0.1", "--out", str(tmp_path)])
    assert code == 1
    assert not (tmp_path / "sweep-double-integrator-box.csv").exists()


def test_sweep_refuses_an_x0_of_the_wrong_dimension_before_writing(tmp_path, capsys):
    cfg_file = tmp_path / "x0.cfg"
    cfg_file.write_text("x0 = 0 0 0\n")
    out = tmp_path / "out"
    assert main(["sweep", "--benchmark", "double-integrator-box", "--config", str(cfg_file),
                 "--thetas", "100,20000", "--t-final", "0.1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: x0 must have dimension 2\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--epsilon", "inf"], ["--epsilon", "0"], ["--density", "nan"]])
def test_sweep_refuses_a_bad_band_before_writing(tmp_path, capsys, flags):
    # epsilon enters the containment check of every probe report
    code = main(["sweep", "--benchmark", "double-integrator-box", "--thetas", "100,20000", *flags,
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1 and err.startswith("error: ")
    assert "must be finite and positive" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_writes_no_csv_when_a_run_raises(tmp_path, capsys, monkeypatch):
    # x0 = (5, 5) passes the configuration checks but starts outside the
    # safe set, so the closed loop raises, before any boundary probe
    def never(*args, **kwargs):
        raise AssertionError("boundary probe ran")

    monkeypatch.setattr(softcbf.cli, "probe_boundary", never)
    cfg_file = tmp_path / "x0.cfg"
    cfg_file.write_text("x0 = 5 5\n")
    out = tmp_path / "out"
    assert main(["sweep", "--benchmark", "double-integrator-box", "--config", str(cfg_file),
                 "--thetas", "100,200", "--t-final", "0.1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "initial state is unsafe" in err
    assert not out.exists() or list(out.glob("sweep-*.csv")) == []


@pytest.mark.gate
def test_pendulum_sweep_writes_the_rows_of_one_theta_probes_and_run(tmp_path):
    thetas = [3000.0, 75000.0, 1e6]
    cfg_file = tmp_path / "quick.cfg"
    cfg_file.write_text("n_check = 30\n")
    out = tmp_path / "out"
    assert main(["sweep", "--benchmark", "pendulum-backup", "--config", str(cfg_file),
                 "--thetas", "3000,75000,1e6", "--t-final", "0.05", "--out", str(out)]) == 0
    bench = get_benchmark("pendulum-backup")
    cs, F = bench.certification_set(), bench.closed_loop_field()
    cfg = ScenarioConfig(benchmark=bench.name, t_final=0.05)
    traces = run(bench, [softcbf.cli._sim_config(cfg, bench, t) for t in thetas])
    lines = ["theta,min_boundary_lie,min_h_soft,infeasible_count"]
    for t, trace in zip(thetas, traces):
        lie = probe_boundary(cs, F, t, bench.cert_epsilon, 30, 0).min_lie
        lines.append(f"{t:.17g},{lie:.17g},{trace.min_h_soft:.17g},{int(trace.infeasible.sum())}")
    assert (out / "sweep-pendulum-backup.csv").read_text() == "\n".join(lines) + "\n"


def test_single_theta_sweep_consistent_with_simulate(tmp_path):
    # a one-point sweep must reproduce the dedicated simulate command
    assert main([
        "sweep", "--benchmark", "scalar-stable", "--thetas", "30",
        "--t-final", "1.0", "--out", str(tmp_path),
    ]) == 0
    assert main([
        "simulate", "--benchmark", "scalar-stable", "--theta", "30",
        "--t-final", "1.0", "--out", str(tmp_path),
    ]) == 0
    sweep_row = (tmp_path / "sweep-scalar-stable.csv").read_text().strip().splitlines()[1]
    min_h_sweep = float(sweep_row.split(",")[1 + 1])
    trace_lines = (tmp_path / "trace-scalar-stable.csv").read_text().strip().splitlines()[1:]
    min_h_trace = min(float(line.split(",")[3]) for line in trace_lines)
    assert min_h_sweep == min_h_trace


def test_missing_benchmark_is_config_error():
    assert main(["certify"]) == 1


def test_config_file_roundtrip(tmp_path):
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text(
        """
        # scenario for the scalar benchmark
        benchmark = scalar-stable
        epsilon = 0.2
        seed = 3
        thetas = 5 10
        x0 = 0.1
        """
    )
    loaded = load_config(str(cfg_file))
    assert loaded["benchmark"] == "scalar-stable"
    assert loaded["epsilon"] == 0.2
    assert loaded["seed"] == 3
    assert loaded["thetas"] == [5.0, 10.0]
    assert loaded["x0"] == [0.1]


def test_every_config_key_parses_to_its_field_type(tmp_path):
    # every key gets the text "2", so a key parsed as the wrong type shows
    types = {
        "benchmark": str, "alpha_kind": str, "infeasible_policy": str, "out": str,
        "seed": int, "n_check": int, "precondition_points": int, "substeps": int,
        "x0": list, "thetas": list,
    }
    keys = [f.name for f in fields(ScenarioConfig)]
    cfg_file = tmp_path / "every-key.cfg"
    cfg_file.write_text("".join(f"{key} = 2\n" for key in keys))
    loaded = load_config(str(cfg_file))
    assert list(loaded) == keys
    for key in keys:
        assert type(loaded[key]) is types.get(key, float), key
    assert loaded["x0"] == loaded["thetas"] == [2.0]


def test_config_file_unknown_key_rejected(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("benchmark = scalar-stable\nepsilonn = 0.2\n")
    with pytest.raises(ConfigError):
        load_config(str(cfg_file))
    assert main(["certify", "--config", str(cfg_file)]) == 1


def test_config_file_bad_value_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("benchmark = scalar-stable\nseed = abc\n")
    with pytest.raises(ConfigError, match=r"bad.cfg:2: bad value for 'seed': invalid literal for int"):
        load_config(str(cfg_file))
    assert main(["certify", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad value for 'seed'" in err
    assert not (tmp_path / "out").exists()


def test_config_file_malformed_line(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("benchmark scalar-stable\n")
    with pytest.raises(ConfigError):
        load_config(str(cfg_file))


def test_cli_flags_override_config(tmp_path):
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text("benchmark = scalar-stable\nseed = 3\nepsilon = 0.2\n")

    class Args:
        config = str(cfg_file)
        benchmark = None
        epsilon = 0.05
        density = None
        seed = None
        theta = None
        theta_multiplier = None
        out = None

    cfg = resolve_config(Args())
    assert cfg.benchmark == "scalar-stable"
    assert cfg.epsilon == 0.05  # flag wins
    assert cfg.seed == 3  # file value kept


# inputs that certification refuses before any work: (flags, config file,
# fragment of the error)
EARLY_REFUSED_INPUTS = {
    "activity-tolerance-nan": (["--activity-tolerance", "nan"], "", "activity tolerance must be finite"),
    "activity-tolerance-negative": (["--activity-tolerance", "-1"], "", "activity tolerance must be finite"),
    "density-nan": (["--density", "nan"], "", "density must be finite"),
    "density-inf": (["--density", "inf"], "", "density must be finite"),
    "epsilon-inf": (["--epsilon", "inf"], "", "epsilon must be finite"),
    "tail-partial": ([], "tail_R = 1\n", "tail parameters must be given together"),
    "tail-C-nan": ([], TAIL + "tail_C = nan\n", "tail constants must be finite"),
    "tail-term-inf": ([], TAIL.replace("tail_R = 1", "tail_R = 1e10").replace("tail_p = 1", "tail_p = 40")
                      + "tail_C = 1\n", "theta_tail = log((N - 1) (r_inf + C (1 + R)^p) / r_inf) / eta_at_R is not"),
    "theta-multiplier-nan": (["--theta-multiplier", "nan"], "", "theta_multiplier must be a finite positive number"),
    "theta-multiplier-negative": (["--theta-multiplier", "-1"], "", "theta_multiplier must be a finite positive"),
    # theta_star > 0 here (N = 11), so a zero multiplier would give theta = 0
    "theta-multiplier-zero": (["--theta-multiplier", "0"], "", "theta_multiplier must be a finite positive"),
}

# closed-loop settings, which only simulate reads: refused before any
# certification work, so before theta is known, and the error must not
# name it
SIMULATE_REFUSED_INPUTS = {
    "dt-zero": (["--dt", "0"], "", "need dt > 0"),
    "t-final-nan": (["--t-final", "nan"], "", "t_final nan must be finite"),
    "infeasible-policy": ([], "infeasible_policy = foo\n", "unknown infeasible policy 'foo'"),
    "alpha-kind": ([], "alpha_kind = quartic\n", "unknown class-K kind 'quartic'"),
    "alpha-kappa-nan": ([], "alpha_kappa = nan\n", "class-K kappa nan and scale 1.0 must be finite"),
    "x0-3d": ([], "x0 = 0 0 0\n", "x0 must have dimension 2"),
}


@pytest.mark.parametrize("command, case", [
    pytest.param(command, case, id=f"{case}-{command}")
    for table, commands in ((EARLY_REFUSED_INPUTS, ("certify", "simulate")), (SIMULATE_REFUSED_INPUTS, ("simulate",)))
    for case in sorted(table) for command in commands
])
def test_certification_inputs_are_refused_before_any_certification_work(tmp_path, capsys, monkeypatch, command, case):
    def never(*args, **kwargs):
        raise AssertionError("certification work started")

    monkeypatch.setattr(softcbf.cli, "check_backup_preconditions", never)
    monkeypatch.setattr(softcbf.cli, "sample_tube", never)
    flags, config, message = {**EARLY_REFUSED_INPUTS, **SIMULATE_REFUSED_INPUTS}[case]
    cfg_file = tmp_path / "case.cfg"
    cfg_file.write_text(config)
    out = tmp_path / "out"
    argv = [command, "--benchmark", "pendulum-backup", "--config", str(cfg_file), *flags, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert case not in SIMULATE_REFUSED_INPUTS or "theta" not in err
    assert not out.exists() or list(out.iterdir()) == []


# the seed-0 certificate of pendulum-backup at its default size, the one
# perfbench's certify-pendulum times
SEED0_PENDULUM_FULL_SIZE = {
    "theta_star": 73444.492044431332, "M": 6.7844221347139486,
    "r": 0.084848644700887627, "d": 9.2475818117943032e-05,
    "verify_min_lie": 0.093514775396122296, "tube_samples": 1262,
}


@pytest.mark.gate
def test_certify_reproduces_the_full_size_seed0_pendulum_certificate(tmp_path, monkeypatch):
    def report_lines(out):
        code = main(["certify", "--benchmark", "pendulum-backup", "--seed", "0", "--out", str(out)])
        assert code == 0
        lines = (out / "certify-pendulum-backup.txt").read_text().splitlines()
        return [line for line in lines if not line.startswith("config.out = ")]

    plain = report_lines(tmp_path / "plain")
    report = read_report(tmp_path / "plain" / "certify-pendulum-backup.txt")
    for key, value in SEED0_PENDULUM_FULL_SIZE.items():
        assert float(report[key]) == pytest.approx(value, rel=1e-12), key

    # a wrapped k_b, like perfbench's step clock, takes the fused plant and
    # must write the same report
    real = softcbf.cli.get_benchmark

    def get_benchmark(name):
        bench = real(name)
        k_b = bench.backup.k_b
        return dataclasses.replace(bench, backup=dataclasses.replace(bench.backup, k_b=lambda x: k_b(x)))

    monkeypatch.setattr(softcbf.cli, "get_benchmark", get_benchmark)
    assert report_lines(tmp_path / "wrapped") == plain


@pytest.mark.parametrize("argv", [
    ["certify"], ["simulate", "--t-final", "0.1"], ["simulate", "--theta", "30", "--t-final", "0.1"],
    ["sweep", "--thetas", "3,30", "--t-final", "0.1"],
], ids=["certify", "simulate", "simulate-theta", "sweep"])
def test_every_command_builds_the_benchmark_once(tmp_path, monkeypatch, argv):
    real = softcbf.cli.get_benchmark
    built = []

    def get_benchmark(name):
        built.append(name)
        return real(name)

    monkeypatch.setattr(softcbf.cli, "get_benchmark", get_benchmark)
    assert main([*argv, "--benchmark", "scalar-stable", "--out", str(tmp_path)]) == 0
    assert built == ["scalar-stable"]


# the key sequence of each certify report that scripts/fixed_outputs.py
# writes, at reduced sizes where the keys stay the same: the keys before
# `exit_status`, the status with its floats masked, and the config keys
HEAD_KEYS = ["benchmark", "N", "epsilon"]
PRECONDITION_KEYS = [
    "precondition.backup-set_inward_flow", "precondition.backup-set_inward_flow.min_margin",
    "precondition.reachable-boundary_inward_flow", "precondition.reachable-boundary_inward_flow.min_margin",
    "precondition.terminal_boundary_regular_value", "precondition.terminal_boundary_regular_value.min_margin",
]
TUBE_MFCQ_KEYS = ["tube_samples", "tube_constraint_coverage", "tube_rays_requested", "tube_rays_located",
                  "tube_rays_abandoned", "tube_rays_unconverged", "mfcq_checked", "mfcq_passed"]
CERTIFICATE_KEYS = ["M", "r", "d", "theta_tube", "theta_core", "theta_star", "kind"]
VERIFY_KEYS = ["verify_theta", "verify_boundary_points", "verify_rays_abandoned", "verify_rays_unconverged",
               "verify_min_lie", "verify_containment"]
CONFIG_KEYS = ["benchmark", "epsilon", "density", "seed", "theta_multiplier", "n_check", "precondition_points",
               "precondition_tolerance", "t_final", "dt", "substeps", "alpha_kind", "alpha_kappa", "alpha_scale",
               "infeasible_policy", "out"]
REPORT_KEY_SEQUENCES = {
    "compact-certificate": (
        "double-integrator-box", ["--density", "400"], "",
        HEAD_KEYS + TUBE_MFCQ_KEYS + CERTIFICATE_KEYS + VERIFY_KEYS, "certified", CONFIG_KEYS),
    "backup-certificate": (
        "pendulum-backup", ["--density", "30"], QUICK_PENDULUM_CONFIG,
        HEAD_KEYS + PRECONDITION_KEYS + TUBE_MFCQ_KEYS + CERTIFICATE_KEYS + VERIFY_KEYS, "certified", CONFIG_KEYS),
    "not-strictly-safe": (
        "scalar-unstable", [], "", HEAD_KEYS + TUBE_MFCQ_KEYS,
        "not strictly safe: active constraint 1 has Lie derivative <float> <= 0 at sample [<float>]"
        " (strict inward flow violated)", CONFIG_KEYS),
    "mfcq-failure": (
        "thin-annulus", ["--activity-tolerance", "0.1"], "",
        HEAD_KEYS + TUBE_MFCQ_KEYS + ["mfcq_witness_point", "mfcq_violating_pair"], "constraint qualification failed",
        CONFIG_KEYS[:6] + ["activity_tolerance"] + CONFIG_KEYS[6:]),
    "precondition-failure": (
        "pendulum-backup", [], "precondition_points = 0\n",
        HEAD_KEYS + [key.replace(".min_margin", ".note") for key in PRECONDITION_KEYS],
        "backup preconditions failed", CONFIG_KEYS),
    "tail-certificate": (
        "scalar-stable", [], TAIL + "tail_C = 1\n",
        HEAD_KEYS + TUBE_MFCQ_KEYS + CERTIFICATE_KEYS + ["theta_tail"] + VERIFY_KEYS, "certified",
        CONFIG_KEYS + ["tail_R", "tail_eta", "tail_C", "tail_p", "tail_r_inf"]),
}


@pytest.mark.gate
@pytest.mark.parametrize("case", sorted(REPORT_KEY_SEQUENCES))
def test_certify_report_keys_come_in_a_fixed_order(tmp_path, case):
    name, flags, config, keys, status, config_keys = REPORT_KEY_SEQUENCES[case]
    cfg_file = tmp_path / "case.cfg"
    cfg_file.write_text(config)
    main(["certify", "--benchmark", name, "--seed", "0", "--config", str(cfg_file), *flags,
          "--out", str(tmp_path)])
    lines = (tmp_path / f"certify-{name}.txt").read_text().splitlines()
    written = [line.partition(" = ")[0] for line in lines]
    assert written == keys + ["exit_status"] + [f"config.{key}" for key in config_keys]
    exit_status = lines[len(keys)].partition(" = ")[2]
    assert re.sub(r"-?\d+\.\d*(?:e[+-]?\d+)?", "<float>", exit_status) == status
