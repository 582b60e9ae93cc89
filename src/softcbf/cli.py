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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from .backup import check_backup_preconditions
from .certify import TailSpec, ThetaCertificate, certify, probe_boundary, verify_certificate
from .errors import DomainError, NotStrictlySafeError, SoftCBFError
from .geometry import _check_activity_tolerance, _check_band, check_mfcq, estimate_bounds, sample_tube
from .safety_filter import ClassK
from .sim import SAFETY_TOLERANCE, SimConfig, run
from .softmin import _check_theta
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
    cfg.epsilon = bench.cert_epsilon if cfg.epsilon is None else cfg.epsilon
    cfg.density = bench.cert_density if cfg.density is None else cfg.density
    return bench, bench.certification_set(), bench.closed_loop_field()


def _certify_steps(cfg: ScenarioConfig, entries: list):
    """Certification as `certify` and `simulate` without --theta run it.
    Refuses a bad θ, activity tolerance, ε, density or tail spec before any
    work, then runs each step, appending its report entries.  Returns
    (bench, cs, F, outcome); outcome is the certificate, or the (exit code,
    status, summary) of the step that failed."""
    if cfg.theta is not None and not (np.isfinite(cfg.theta) and cfg.theta >= 0.0):
        raise DomainError(f"theta must be a finite positive number, got {cfg.theta}")
    _check_activity_tolerance(cfg.activity_tolerance)
    tail = _tail_from(cfg)
    bench, cs, F = _certification_pieces(cfg)
    if cfg.theta is not None and cs.N > 1:  # θ = 0 runs at 1 only where θ* = 0, i.e. N = 1
        _check_theta(cfg.theta)
    _check_band(cfg.epsilon, cfg.density)
    entries += [("benchmark", bench.name), ("N", cs.N), ("epsilon", cfg.epsilon)]

    if bench.backup is not None:
        samples = bench.precondition_sampler(cfg.precondition_points, cfg.seed)
        pre = check_backup_preconditions(bench.backup, samples, cfg.precondition_tolerance)
        for chk in (pre.backup_set_safe, pre.reachable_boundary_safe, pre.regular_value):
            tag = chk.name.replace(" ", "_")
            entries.append((f"precondition.{tag}", "pass" if chk.passed else "FAIL"))
            if chk.min_margin is not None:
                entries.append((f"precondition.{tag}.min_margin", chk.min_margin))
            if chk.note:
                entries.append((f"precondition.{tag}.note", chk.note))
        if not pre.passed:
            return bench, cs, F, (2, "backup preconditions failed", None)

    tube = sample_tube(cs, cfg.epsilon, cfg.density, cfg.seed)
    entries += [("tube_samples", len(tube)), ("tube_constraint_coverage", tube.constraint_coverage.astype(int))]
    entries += [(f"tube_rays_{k}", getattr(tube, f"rays_{k}"))
                for k in ("requested", "located", "abandoned", "unconverged")]

    mfcq = check_mfcq(tube, cfg.activity_tolerance)
    entries += [("mfcq_checked", mfcq.n_checked), ("mfcq_passed", mfcq.passed)]
    if not mfcq.passed:
        worst = mfcq.failures[0]
        entries.append(("mfcq_witness_point", worst.point))
        if worst.violating_pair is not None:
            entries.append(("mfcq_violating_pair", worst.violating_pair))
        return bench, cs, F, (3, "constraint qualification failed", None)

    try:
        bounds = estimate_bounds(F, tube, cfg.activity_tolerance)
    except NotStrictlySafeError as err:
        return bench, cs, F, (2, f"not strictly safe: {err}", "not strictly safe")
    entries += [("M", bounds.M), ("r", bounds.r), ("d", bounds.d)]

    cert = certify(bounds, tail, cs.N)
    entries += [(k, getattr(cert, k)) for k in ("theta_tube", "theta_core", "theta_star", "kind")]
    if cert.theta_tail is not None:
        entries.append(("theta_tail", cert.theta_tail))
    return bench, cs, F, cert


def _operating_theta(cfg: ScenarioConfig, cert: ThetaCertificate) -> float:
    """--theta, else theta_multiplier·θ*; 1 where both are 0 (one constraint)."""
    theta = cfg.theta if cfg.theta is not None else cfg.theta_multiplier * cert.theta_star
    return 1.0 if cert.theta_star == 0.0 and theta == 0.0 else theta


def cmd_certify(cfg: ScenarioConfig) -> int:
    entries = []
    bench, cs, F, cert = _certify_steps(cfg, entries)
    report_path = Path(cfg.out) / f"certify-{bench.name}.txt"

    def finish(code: int, status: str, summary: Optional[str] = None) -> int:
        entries.append(("exit_status", status))
        write_report(report_path, entries, cfg)
        print(f"{summary or status}; report: {report_path}")
        return code

    if not isinstance(cert, ThetaCertificate):
        return finish(*cert)
    theta = _operating_theta(cfg, cert)
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
    if report.n_located == 0:
        status, code = "verification located no boundary point", 2
    elif not report.all_positive:
        status, code = "verification found nonpositive witnesses", 2
    elif below:
        status, code = "sampled check below theta_star, not a certificate", 5
    else:
        status, code = "certified", 0
    return finish(code, status, f"theta_star = {cert.theta_star:.6g} ({cert.kind})")


def cmd_simulate(cfg: ScenarioConfig) -> int:
    if cfg.theta is not None:
        bench, theta = get_benchmark(cfg.benchmark), cfg.theta
    else:
        bench, _, _, cert = _certify_steps(cfg, [])
        if not isinstance(cert, ThetaCertificate):  # (exit code, status, summary)
            print(f"{cert[1]}; no trace written")
            return cert[0]
        theta = _operating_theta(cfg, cert)
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
        raise ConfigError("sweep needs a nonempty theta list (--thetas)")
    bench, cs, F = _certification_pieces(cfg)
    # the configs check every theta, and ε and the density are checked,
    # before the csv is opened
    sim_cfgs = [_sim_config(cfg, bench, theta) for theta in cfg.thetas]
    _check_band(cfg.epsilon, cfg.density)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"sweep-{bench.name}.csv"
    with open(csv_path, "w") as fobj:
        fobj.write("theta,min_boundary_lie,min_h_soft,infeasible_count\n")
        # one boundary probe and one closed loop per theta, each set in lockstep
        reports = probe_boundary(cs, F, cfg.thetas, cfg.epsilon, cfg.n_check, cfg.seed)
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
        return args.fn(resolve_config(args))
    except (SoftCBFError, OSError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
