"""Command-line interface: certify constraint families, simulate the
filtered closed loop, and sweep the smoothing parameter.

Outputs are plain key-value report files and CSV traces so external tools
can plot them.  Exit codes: 0 success, 1 bad configuration, 2 strict
safety fails on samples, 3 constraint qualification fails, 4 a simulated
trace violated the safety tolerance, 5 `certify --theta` at or below
theta_star passed its sampled boundary check, which is not a certificate.
"""
from __future__ import annotations

import argparse
import sys as _sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from .backup import check_backup_preconditions
from .certify import TailSpec, certify, probe_boundary, verify_certificate
from .errors import DomainError, NotStrictlySafeError, SoftCBFError
from .geometry import check_mfcq, estimate_bounds, sample_tube
from .safety_filter import ClassK
from .sim import SAFETY_TOLERANCE, SimConfig, run
from .systems import benchmark_names, get_benchmark

__all__ = ["ScenarioConfig", "main", "cmd_certify", "cmd_simulate", "cmd_sweep"]


@dataclass
class ScenarioConfig:
    """Resolved run configuration; every key is overridable from a
    `key = value` config file and from the command line."""

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

    def items(self):
        for f in fields(self):
            yield f.name, getattr(self, f.name)


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
        raise ConfigError(
            f"no benchmark selected; choose one of: {', '.join(benchmark_names())}"
        )
    return cfg


def _tail_from(cfg: ScenarioConfig) -> Optional[TailSpec]:
    vals = [cfg.tail_R, cfg.tail_eta, cfg.tail_C, cfg.tail_p, cfg.tail_r_inf]
    given = [v is not None for v in vals]
    if not any(given):
        return None
    if not all(given):
        raise ConfigError("tail parameters must be given together: tail_R, tail_eta, tail_C, tail_p, tail_r_inf")
    return TailSpec(R=cfg.tail_R, eta_at_R=cfg.tail_eta, C=cfg.tail_C, p=cfg.tail_p, r_inf=cfg.tail_r_inf)


def _sim_config(cfg: ScenarioConfig, bench, theta: float) -> SimConfig:
    return SimConfig(
        x0=np.asarray(cfg.x0, dtype=float) if cfg.x0 is not None else bench.x0_default,
        t_final=cfg.t_final,
        dt=cfg.dt,
        theta=theta,
        alpha=ClassK(kind=cfg.alpha_kind, kappa=cfg.alpha_kappa, scale=cfg.alpha_scale),
        infeasible_policy=cfg.infeasible_policy,
        substeps=cfg.substeps,
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def write_report(path: Path, entries: list, cfg: ScenarioConfig) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fobj:
        for key, value in entries:
            fobj.write(f"{key} = {_fmt(value)}\n")
        for key, value in cfg.items():
            if value is not None:
                fobj.write(f"config.{key} = {_fmt(value)}\n")


def _certification_pieces(cfg: ScenarioConfig):
    bench = get_benchmark(cfg.benchmark)
    if cfg.epsilon is None:
        cfg.epsilon = bench.cert_epsilon
    if cfg.density is None:
        cfg.density = bench.cert_density
    cs = bench.certification_set()
    F = bench.closed_loop_field()
    return bench, cs, F


def cmd_certify(cfg: ScenarioConfig) -> int:
    if cfg.theta is not None and not np.isfinite(cfg.theta):  # before any certification work
        raise DomainError(f"theta must be a finite positive number, got {cfg.theta}")
    bench, cs, F = _certification_pieces(cfg)
    out = Path(cfg.out)
    report_path = out / f"certify-{bench.name}.txt"
    entries = [("benchmark", bench.name), ("N", cs.N), ("epsilon", cfg.epsilon)]

    if bench.backup is not None:
        n_pts = cfg.precondition_points
        if bench.precondition_sampler is not None:
            samples = bench.precondition_sampler(n_pts, cfg.seed)
        else:
            box = bench.backup.bounding_box
            rng = np.random.default_rng(cfg.seed)
            samples = rng.uniform(box[:, 0], box[:, 1], size=(n_pts, bench.sys.n))
        pre = check_backup_preconditions(bench.backup, samples, cfg.precondition_tolerance)
        for chk in (pre.backup_set_safe, pre.reachable_boundary_safe, pre.regular_value):
            tag = chk.name.replace(" ", "_")
            entries.append((f"precondition.{tag}", "pass" if chk.passed else "FAIL"))
            if chk.min_margin is not None:
                entries.append((f"precondition.{tag}.min_margin", chk.min_margin))
            if chk.note:
                entries.append((f"precondition.{tag}.note", chk.note))
        if not pre.passed:
            entries.append(("exit_status", "backup preconditions failed"))
            write_report(report_path, entries, cfg)
            print(f"backup preconditions failed; report: {report_path}")
            return 2

    try:
        tube = sample_tube(cs, cfg.epsilon, cfg.density, cfg.seed)
    except SoftCBFError as err:
        print(f"error: {err}", file=_sys.stderr)
        return 1
    entries.append(("tube_samples", len(tube)))
    entries.append(("tube_constraint_coverage", tube.constraint_coverage.astype(int)))
    entries += [
        ("tube_rays_requested", tube.rays_requested),
        ("tube_rays_located", tube.rays_located),
        ("tube_rays_abandoned", tube.rays_abandoned),
        ("tube_rays_unconverged", tube.rays_unconverged),
    ]

    mfcq = check_mfcq(tube, cfg.activity_tolerance)
    entries.append(("mfcq_checked", mfcq.n_checked))
    entries.append(("mfcq_passed", mfcq.passed))
    if not mfcq.passed:
        worst = mfcq.failures[0]
        entries.append(("mfcq_witness_point", worst.point))
        if worst.violating_pair is not None:
            entries.append(("mfcq_violating_pair", worst.violating_pair))
        entries.append(("exit_status", "constraint qualification failed"))
        write_report(report_path, entries, cfg)
        print(f"constraint qualification failed; report: {report_path}")
        return 3

    try:
        bounds = estimate_bounds(F, tube, cfg.activity_tolerance)
    except NotStrictlySafeError as err:
        entries.append(("exit_status", f"not strictly safe: {err}"))
        write_report(report_path, entries, cfg)
        print(f"not strictly safe; report: {report_path}")
        return 2
    entries += [("M", bounds.M), ("r", bounds.r), ("d", bounds.d)]

    cert = certify(bounds, _tail_from(cfg), cs.N)
    entries += [
        ("theta_tube", cert.theta_tube),
        ("theta_core", cert.theta_core),
        ("theta_star", cert.theta_star),
        ("kind", cert.kind),
    ]
    if cert.theta_tail is not None:
        entries.append(("theta_tail", cert.theta_tail))

    theta = cfg.theta if cfg.theta is not None else cfg.theta_multiplier * cert.theta_star
    if cert.theta_star == 0.0 and theta == 0.0:
        theta = 1.0
    below = theta <= cert.theta_star
    if below:
        report = probe_boundary(cs, F, theta, cfg.epsilon, cfg.n_check, cfg.seed)
    else:
        report = verify_certificate(cs, F, cert, theta, cfg.n_check, cfg.seed)
    entries += [
        ("verify_theta", theta),
        ("verify_boundary_points", report.n_located),
        ("verify_rays_abandoned", report.n_abandoned),
        ("verify_rays_unconverged", report.n_unconverged),
        ("verify_min_lie", report.min_lie if report.min_lie is not None else "n/a"),
        ("verify_containment", report.containment_ok),
    ]
    if not report.all_positive:
        status, code = "verification found nonpositive witnesses", 2
    elif below:
        status, code = "sampled check below theta_star, not a certificate", 5
    else:
        status, code = "certified", 0
    entries.append(("exit_status", status))
    write_report(report_path, entries, cfg)
    print(f"theta_star = {cert.theta_star:.6g} ({cert.kind}); report: {report_path}")
    return code


def cmd_simulate(cfg: ScenarioConfig) -> int:
    bench, cs, F = _certification_pieces(cfg)
    theta = cfg.theta
    if theta is None:
        tube = sample_tube(cs, cfg.epsilon, cfg.density, cfg.seed)
        bounds = estimate_bounds(F, tube, cfg.activity_tolerance)
        cert = certify(bounds, _tail_from(cfg), cs.N)
        theta = cfg.theta_multiplier * max(cert.theta_star, 1e-9)
    trace = run(bench, _sim_config(cfg, bench, theta))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"trace-{bench.name}.csv"
    trace.to_csv(str(csv_path))
    print(
        f"simulated {trace.times[-1]:.3g}s at theta={theta:.6g}: min_h_soft={trace.min_h_soft:.3e},"
        f" infeasible steps={int(trace.infeasible.sum())}; trace: {csv_path}"
    )
    return 0 if trace.min_h_soft >= SAFETY_TOLERANCE else 4


def cmd_sweep(cfg: ScenarioConfig) -> int:
    if not cfg.thetas:
        print("error: sweep needs a nonempty theta list (--thetas)", file=_sys.stderr)
        return 1
    bench, cs, F = _certification_pieces(cfg)
    # the configs check every theta before the csv is opened
    sim_cfgs = [_sim_config(cfg, bench, theta) for theta in cfg.thetas]
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"sweep-{bench.name}.csv"
    with open(csv_path, "w") as fobj:
        fobj.write("theta,min_boundary_lie,min_h_soft,infeasible_count\n")
        reports = [probe_boundary(cs, F, theta, cfg.epsilon, cfg.n_check, cfg.seed)
                   for theta in cfg.thetas]
        # one closed loop per theta, all advanced in lockstep
        traces = run(bench, sim_cfgs)
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
        cfg = resolve_config(args)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return 1
    try:
        return args.fn(cfg)
    except SoftCBFError as err:
        print(f"error: {err}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
