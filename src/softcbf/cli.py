"""Command-line interface: certify constraint families, simulate the
filtered closed loop, and sweep the smoothing parameter.

Outputs are plain key-value report files and CSV traces so external tools
can plot them.  `simulate` without --theta certifies as `certify` does and
runs at theta_multiplier·θ*; a failed step exits with certify's code and
writes no trace.  Exit codes: 0 success, 1 bad configuration, 2 strict
safety fails on samples, 3 constraint qualification fails, 4 a simulated
trace violated the safety tolerance, 5 `certify --theta` at or below
theta_star passed its sampled boundary check, which is not a certificate.
"""
from __future__ import annotations

import argparse
import sys as _sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from .backup import BackupPreconditionReport, check_backup_preconditions
from .certify import (TailSpec, ThetaCertificate, VerificationReport, certify, probe_boundary, theta_star_tail,
                      verify_certificate)
from .errors import DomainError, NotStrictlySafeError, SoftCBFError
from .geometry import (CompactBounds, MFCQReport, TubeSpec, _check_activity_tolerance, _check_band, check_mfcq,
                       estimate_bounds, sample_tube)
from .safety_filter import ClassK
from .sim import SAFETY_TOLERANCE, SimConfig, _as_block, run
from .systems import benchmark_names, get_benchmark

__all__ = ["ScenarioConfig", "main", "cmd_certify", "cmd_simulate", "cmd_sweep"]


@dataclass
class ScenarioConfig:
    """Resolved run configuration.  A `key = value` config file sets any
    key; the command line only those with a flag in `build_parser`."""

    benchmark: str = ""
    epsilon: Optional[float] = None  # default: the benchmark's preferred width
    density: Optional[float] = None  # default: the benchmark's preferred density
    seed: int = 0
    theta: Optional[float] = None
    theta_multiplier: float = 1.01
    n_check: int = 500
    activity_tolerance: Optional[float] = None
    precondition_points: int = 3000
    precondition_tolerance: float = 1e-6
    t_final: float = 10.0
    dt: float = 0.01
    substeps: int = 10
    x0: Optional[list] = None
    alpha_kind: str = "linear"
    alpha_kappa: float = 1.0
    alpha_scale: float = 1.0
    infeasible_policy: str = "backup-takeover"
    thetas: Optional[list] = None
    out: str = "out"
    tail_R: Optional[float] = None
    tail_eta: Optional[float] = None
    tail_C: Optional[float] = None
    tail_p: Optional[float] = None
    tail_r_inf: Optional[float] = None


class ConfigError(SoftCBFError):
    pass


def _parse_list(raw: str) -> list:
    return [float(tok) for tok in raw.replace(",", " ").split()]


# a key parses by its ScenarioConfig annotation; every other annotation is a float
_PARSERS = {str: str, int: int, Optional[list]: _parse_list}
_FIELD_TYPES = get_type_hints(ScenarioConfig)


def _parse_value(key: str, raw: str):
    return _PARSERS.get(_FIELD_TYPES[key], float)(raw.strip())


def load_config(path: str) -> dict:
    """Parse a `key = value` file; comments start with '#'."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (tok.strip() for tok in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _parse_value(key, raw)
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {err}") from None
    return out


def resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    cfg = ScenarioConfig()
    if getattr(args, "config", None):
        for key, value in load_config(args.config).items():
            setattr(cfg, key, value)
    # a command-line flag overrides the key of the same name
    for key in _FIELD_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if not cfg.benchmark:
        raise ConfigError(f"no benchmark selected; choose one of: {', '.join(benchmark_names())}")
    for key in ("seed", "n_check", "precondition_points"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"{key} must be nonnegative, got {getattr(cfg, key)}")
    return cfg


def _tail_from(cfg: ScenarioConfig) -> Optional[TailSpec]:
    vals = [cfg.tail_R, cfg.tail_eta, cfg.tail_C, cfg.tail_p, cfg.tail_r_inf]
    if all(v is None for v in vals):
        return None
    if None in vals:
        raise ConfigError("tail parameters must be given together: tail_R, tail_eta, tail_C, tail_p, tail_r_inf")
    return TailSpec(R=cfg.tail_R, eta_at_R=cfg.tail_eta, C=cfg.tail_C, p=cfg.tail_p, r_inf=cfg.tail_r_inf)


def _sim_config(cfg: ScenarioConfig, bench, theta: float) -> SimConfig:
    """The closed-loop settings at θ, checked against the benchmark's plant."""
    return _as_block(SimConfig(
        x0=np.asarray(cfg.x0, dtype=float) if cfg.x0 is not None else bench.x0_default,
        t_final=cfg.t_final,
        dt=cfg.dt,
        theta=theta,
        alpha=ClassK(kind=cfg.alpha_kind, kappa=cfg.alpha_kappa, scale=cfg.alpha_scale),
        infeasible_policy=cfg.infeasible_policy,
        substeps=cfg.substeps,
    ), bench.sys.n)[0]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return " ".join(_fmt(v) for v in value)
    return str(value)


@dataclass(frozen=True)
class CertifyReport:
    """What one certification ran and found, step by step; a step that did
    not run leaves its field None.  `code`, `status` and `summary` are the
    exit code, the report's `exit_status` and the printed summary."""

    config: ScenarioConfig
    N: int
    preconditions: Optional[BackupPreconditionReport] = None
    tube: Optional[TubeSpec] = None
    mfcq: Optional[MFCQReport] = None
    bounds: Optional[CompactBounds] = None
    cert: Optional[ThetaCertificate] = None
    verification: Optional[VerificationReport] = None
    code: int = 0
    status: str = ""
    summary: Optional[str] = None  # where None, the status is printed


def _report_lines(report: CertifyReport) -> list:
    """The report file's `key = value` lines: each step's keys where it
    ran, then `exit_status` and the resolved configuration."""
    entries = [("benchmark", report.config.benchmark), ("N", report.N), ("epsilon", report.config.epsilon)]
    pre = report.preconditions
    for chk in (pre.backup_set_safe, pre.reachable_boundary_safe, pre.regular_value) if pre else ():
        tag = chk.name.replace(" ", "_")
        entries.append((f"precondition.{tag}", "pass" if chk.passed else "FAIL"))
        if chk.min_margin is not None:
            entries.append((f"precondition.{tag}.min_margin", chk.min_margin))
        if chk.note:
            entries.append((f"precondition.{tag}.note", chk.note))
    tube = report.tube
    if tube is not None:
        entries += [("tube_samples", len(tube)), ("tube_constraint_coverage", tube.constraint_coverage.astype(int))]
        entries += [(f"tube_rays_{k}", getattr(tube, f"rays_{k}"))
                    for k in ("requested", "located", "abandoned", "unconverged")]
    if report.mfcq is not None:
        entries += [("mfcq_checked", report.mfcq.n_checked), ("mfcq_passed", report.mfcq.passed)]
        if not report.mfcq.passed:
            worst = report.mfcq.failures[0]
            entries.append(("mfcq_witness_point", worst.point))
            if worst.violating_pair is not None:
                entries.append(("mfcq_violating_pair", worst.violating_pair))
    if report.bounds is not None:
        entries += [(k, getattr(report.bounds, k)) for k in ("M", "r", "d")]
    if report.cert is not None:
        entries += [(k, getattr(report.cert, k)) for k in ("theta_tube", "theta_core", "theta_star", "kind")]
        if report.cert.theta_tail is not None:
            entries.append(("theta_tail", report.cert.theta_tail))
    check = report.verification
    if check is not None:
        lie = check.min_lie if check.min_lie is not None else "n/a"
        entries += [("verify_theta", check.theta), ("verify_boundary_points", check.n_located),
                    ("verify_rays_abandoned", check.n_abandoned), ("verify_rays_unconverged", check.n_unconverged),
                    ("verify_min_lie", lie), ("verify_containment", check.containment_ok)]
    entries.append(("exit_status", report.status))
    entries += [(f"config.{key}", value) for key, value in vars(report.config).items() if value is not None]
    return [f"{key} = {_fmt(value)}" for key, value in entries]


def write_report(path: Path, report: CertifyReport) -> None:
    path.write_text("".join(line + "\n" for line in _report_lines(report)))


def _out_file(cfg: ScenarioConfig, name: str) -> Path:
    """`name` in the output directory, made where it is missing."""
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    return Path(cfg.out) / name


def _certification_pieces(cfg: ScenarioConfig, bench):
    """The benchmark's certification set and closed-loop field; an unset ε
    or density takes the benchmark's preferred one."""
    cfg.epsilon = bench.cert_epsilon if cfg.epsilon is None else cfg.epsilon
    cfg.density = bench.cert_density if cfg.density is None else cfg.density
    return bench.certification_set(), bench.closed_loop_field()


def _certify_steps(cfg: ScenarioConfig, bench, cs, F) -> CertifyReport:
    """Certification as `certify` and `simulate` without --theta run it.
    Refuses a bad θ or theta_multiplier, activity tolerance, ε, density or
    tail spec before any work, then runs each step.  Returns the report up
    to the certificate, or up to the step that failed, with its exit code
    and status."""
    _check_activity_tolerance(cfg.activity_tolerance)
    tail = _tail_from(cfg)
    # θ is --theta, else theta_multiplier·θ*; 0 runs at 1 only where θ* = 0, i.e. N = 1
    key = "theta" if cfg.theta is not None else "theta_multiplier"
    value = float(getattr(cfg, key))
    if not (np.isfinite(value) and value >= 0.0) or (value == 0.0 and cs.N > 1):
        raise DomainError(f"{key} must be a finite positive number, got {value}")
    _check_band(cfg.epsilon, cfg.density)
    if tail is not None:  # a tail term that overflows refuses the spec here
        theta_star_tail(tail, cs.N)
    report = CertifyReport(config=cfg, N=cs.N)

    if bench.backup is not None:
        samples = bench.precondition_sampler(cfg.precondition_points, cfg.seed)
        pre = check_backup_preconditions(bench.backup, samples, cfg.precondition_tolerance)
        report = replace(report, preconditions=pre)
        if not pre.passed:
            return replace(report, code=2, status="backup preconditions failed")

    tube = sample_tube(cs, cfg.epsilon, cfg.density, cfg.seed)
    report = replace(report, tube=tube, mfcq=check_mfcq(tube, cfg.activity_tolerance))
    if not report.mfcq.passed:
        return replace(report, code=3, status="constraint qualification failed")

    try:
        bounds = estimate_bounds(F, tube, cfg.activity_tolerance)
    except NotStrictlySafeError as err:
        return replace(report, code=2, status=f"not strictly safe: {err}", summary="not strictly safe")
    return replace(report, bounds=bounds, cert=certify(bounds, tail, cs.N))


def _operating_theta(cfg: ScenarioConfig, cert: ThetaCertificate) -> float:
    """--theta, else theta_multiplier·θ*; 1 where both are 0 (one constraint)."""
    theta = cfg.theta if cfg.theta is not None else cfg.theta_multiplier * cert.theta_star
    return 1.0 if cert.theta_star == 0.0 and theta == 0.0 else theta


def cmd_certify(cfg: ScenarioConfig) -> int:
    bench = get_benchmark(cfg.benchmark)
    cs, F = _certification_pieces(cfg, bench)
    report = _certify_steps(cfg, bench, cs, F)
    cert = report.cert
    if cert is not None:
        # verification above θ*, a sampled boundary probe at or below it
        theta = _operating_theta(cfg, cert)
        below = theta <= cert.theta_star
        if below:
            check = probe_boundary(cs, F, theta, cfg.epsilon, cfg.n_check, cfg.seed)
        else:
            check = verify_certificate(cs, F, cert, theta, cfg.n_check, cfg.seed)
        if check.n_located == 0:
            status, code = "verification located no boundary point", 2
        elif not check.all_positive:
            status, code = "verification found nonpositive witnesses", 2
        elif below:
            status, code = "sampled check below theta_star, not a certificate", 5
        else:
            status, code = "certified", 0
        report = replace(report, verification=check, code=code, status=status,
                         summary=f"theta_star = {cert.theta_star:.6g} ({cert.kind})")
    report_path = _out_file(cfg, f"certify-{bench.name}.txt")
    write_report(report_path, report)
    print(f"{report.summary or report.status}; report: {report_path}")
    return report.code


def cmd_simulate(cfg: ScenarioConfig) -> int:
    # the closed-loop settings are checked before any certification work,
    # at a stand-in θ where --theta is not given
    bench = get_benchmark(cfg.benchmark)
    sim_cfg = _sim_config(cfg, bench, 1.0 if cfg.theta is None else cfg.theta)
    if cfg.theta is None:
        report = _certify_steps(cfg, bench, *_certification_pieces(cfg, bench))
        if report.cert is None:
            print(f"{report.status}; no trace written")
            return report.code
        sim_cfg = replace(sim_cfg, theta=_operating_theta(cfg, report.cert))
    trace = run(bench, sim_cfg)
    csv_path = _out_file(cfg, f"trace-{bench.name}.csv")
    trace.to_csv(str(csv_path))
    print(
        f"simulated {trace.times[-1]:.3g}s at theta={sim_cfg.theta:.6g}: min_h_soft={trace.min_h_soft:.3e},"
        f" infeasible steps={int(trace.infeasible.sum())}; trace: {csv_path}"
    )
    return 0 if trace.min_h_soft >= SAFETY_TOLERANCE else 4


def cmd_sweep(cfg: ScenarioConfig) -> int:
    if not cfg.thetas:
        raise ConfigError("sweep needs a nonempty theta list (--thetas)")
    bench = get_benchmark(cfg.benchmark)
    cs, F = _certification_pieces(cfg, bench)
    # the configs check every theta, and ε and the density are checked,
    # before any work
    sim_cfgs = [_sim_config(cfg, bench, theta) for theta in cfg.thetas]
    _check_band(cfg.epsilon, cfg.density)
    # one closed loop and one boundary probe per theta, each set in lockstep,
    # both done before the csv is opened, so a run that raises leaves none;
    # the loops go first, as they refuse an unsafe x0 before any step
    traces = run(bench, sim_cfgs)
    reports = probe_boundary(cs, F, cfg.thetas, cfg.epsilon, cfg.n_check, cfg.seed)
    csv_path = _out_file(cfg, f"sweep-{bench.name}.csv")
    with open(csv_path, "w") as fobj:
        fobj.write("theta,min_boundary_lie,min_h_soft,infeasible_count\n")
        for theta, report, trace in zip(cfg.thetas, reports, traces):
            lie = report.min_lie if report.min_lie is not None else float("nan")
            fobj.write(
                f"{theta:.17g},{lie:.17g},{trace.min_h_soft:.17g},{int(trace.infeasible.sum())}\n"
            )
    print(f"sweep over {len(cfg.thetas)} theta values; csv: {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softcbf",
        description="certify smooth-minimum barriers and run filtered closed loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("certify", cmd_certify), ("simulate", cmd_simulate), ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--benchmark", choices=benchmark_names())
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--epsilon", type=float)
        p.add_argument("--density", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--theta", type=float)
        p.add_argument("--theta-multiplier", dest="theta_multiplier", type=float)
        p.add_argument("--activity-tolerance", dest="activity_tolerance", type=float)
        p.add_argument("--out")
        p.set_defaults(fn=fn)
        if name in ("simulate", "sweep"):
            p.add_argument("--t-final", dest="t_final", type=float)
            p.add_argument("--dt", type=float)
        if name == "sweep":
            p.add_argument("--thetas", type=_parse_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(resolve_config(args))
    except (SoftCBFError, OSError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
