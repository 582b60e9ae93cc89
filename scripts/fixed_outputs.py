#!/usr/bin/env python3
"""Write the fixed-seed outputs of softcbf's command line into one directory,
so that two checkouts, or two runs of one checkout, compare with `diff -r`.

    python scripts/fixed_outputs.py OUTDIR [benchmark ...]

Runs, each into OUTDIR/<run>/:
  - certify-<benchmark>: the seed-0 certify report of every benchmark
    (scalar-unstable's is the not-strictly-safe failure report);
  - the failure reports: backup preconditions (pendulum-backup with no
    precondition points), constraint qualification (thin-annulus at
    activity tolerance 0.1) and a verification that located no boundary
    point (scalar-stable with n_check = 0);
  - the exit-5 report of `certify --theta` below θ* (double-integrator-box)
    and the eCBF report of a tail certificate (scalar-stable);
  - simulate-<benchmark>: a 2 s certified simulate trace of every benchmark
    that certifies;
  - simulate-pendulum-backup-theta75000: a 1 s pendulum-backup trace at a
    fixed θ, which skips certification, so its 101 backup flows are all
    one-row flows on the row path;
  - simulate-double-integrator-box-cubic and -tanh: 2 s traces at a fixed θ
    with a cubic and a tanh relaxation (kappa ≠ 1), set in the config file,
    whose filter right-hand sides take `make_rhs` row by row, where a linear
    relaxation's take one block call;
  - sweep-double-integrator-box: a sweep CSV over six θ, and the same sweep
    at seeds 1–9 (sweep-double-integrator-box-seed<S>), whose boundary probes
    draw other rays;
  - sweep-double-integrator-box-12: a sweep over twelve θ, one lockstep
    block above `sim._PLANT_ROWS` rows, so its plant steps take the numpy
    block step while the six-θ sweeps take the row path;
  - sweep-thin-annulus: a sweep over six θ on a two-input plant, whose
    smallest θ starts outside the smooth set;
  - simulate-scalar-unstable-takeover: a 2 s trace at θ = 0.5 from
    x0 = 1e-17, where the smooth gradient vanishes, so the filter is
    infeasible at once and the safe controller u = 0 takes over while the
    unstable plant grows the state.

OUTDIR/runs.txt lists each run's command line, exit code and printed lines,
warnings included.  Every occurrence of OUTDIR's absolute path, in the files
and in the printed lines, becomes `<OUTDIR>`.  With benchmark names, only
the runs on those benchmarks are made.  softcbf is imported as installed
or from PYTHONPATH, so the same script can run against another checkout's
sources.
"""
import contextlib
import io
import sys
import warnings
from pathlib import Path

import softcbf.cli
from softcbf.systems import benchmark_names

PLACEHOLDER = "<OUTDIR>"
TAKEOVER_CONFIG = "x0 = 1e-17\n"
TAIL_CONFIG = "tail_R = 1\ntail_eta = 0.01\ntail_C = 1\ntail_p = 1\ntail_r_inf = 0.5\n"
ALPHA_CONFIGS = {
    "cubic": "alpha_kind = cubic\nalpha_kappa = 2.5\n",
    "tanh": "alpha_kind = tanh\nalpha_kappa = 0.7\nalpha_scale = 3\n",
}


def runs() -> list:
    """(run name, benchmark, command and flags, config file text or None)."""
    out = [(f"certify-{b}", b, ["certify", "--seed", "0"], None) for b in benchmark_names()]
    out += [
        ("precondition-failure", "pendulum-backup", ["certify"], "precondition_points = 0\n"),
        ("mfcq-failure", "thin-annulus", ["certify", "--activity-tolerance", "0.1"], None),
        ("no-located-point", "scalar-stable", ["certify"], "n_check = 0\n"),
        ("below-theta-star", "double-integrator-box", ["certify", "--theta", "100"], None),
        ("tail-certificate", "scalar-stable", ["certify"], TAIL_CONFIG),
    ]
    out += [(f"simulate-{b}", b, ["simulate", "--seed", "0", "--t-final", "2"], None)
            for b in benchmark_names() if b != "scalar-unstable"]
    out.append(("simulate-pendulum-backup-theta75000", "pendulum-backup",
                ["simulate", "--theta", "75000", "--t-final", "1"], None))
    out += [(f"simulate-double-integrator-box-{kind}", "double-integrator-box",
             ["simulate", "--theta", "20000", "--t-final", "2"], config) for kind, config in ALPHA_CONFIGS.items()]
    sweep = ["sweep", "--thetas", "3,40,500,6000,20000,100000"]
    out.append(("sweep-double-integrator-box", "double-integrator-box", sweep, None))
    out += [(f"sweep-double-integrator-box-seed{s}", "double-integrator-box", sweep + ["--seed", str(s)], None)
            for s in range(1, 10)]
    out.append(("sweep-double-integrator-box-12", "double-integrator-box",
                ["sweep", "--thetas", "3,10,40,150,500,2000,6000,12000,20000,50000,100000,300000"], None))
    out.append(("sweep-thin-annulus", "thin-annulus", ["sweep", "--thetas", "20,60,200,2000,20000,200000"], None))
    out.append(("simulate-scalar-unstable-takeover", "scalar-unstable",
                ["simulate", "--theta", "0.5", "--t-final", "2"], TAKEOVER_CONFIG))
    return out


def run_one(out: Path, benchmark: str, command: list, config) -> tuple:
    """Run one command line into `out`; returns its argv, exit code and
    printed text, warnings as `warning: <category>: <message>` lines."""
    out.mkdir(parents=True)
    argv = command[:1] + ["--benchmark", benchmark] + command[1:] + ["--out", str(out)]
    if config is not None:
        (out / "run.cfg").write_text(config)
        argv += ["--config", str(out / "run.cfg")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = softcbf.cli.main(argv)
    printed = buf.getvalue() + "".join(f"warning: {w.category.__name__}: {w.message}\n" for w in caught)
    return argv, code, printed


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: python scripts/fixed_outputs.py OUTDIR [benchmark ...]", file=sys.stderr)
        return 2
    root, chosen = Path(args[0]).resolve(), args[1:]
    unknown = sorted(set(chosen) - set(benchmark_names()))
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    if root.exists() and any(root.iterdir()):
        print(f"{root} is not empty", file=sys.stderr)
        return 2
    log = []
    for name, benchmark, command, config in runs():
        if chosen and benchmark not in chosen:
            continue
        run_argv, code, printed = run_one(root / name, benchmark, command, config)
        log += [f"## {name}", "$ softcbf " + " ".join(run_argv), f"exit {code}", printed.rstrip("\n"), ""]
    (root / "runs.txt").write_text("\n".join(log))
    for path in sorted(root.rglob("*")):
        if path.is_file():
            text = path.read_text()
            path.write_text(text.replace(str(root), PLACEHOLDER))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
