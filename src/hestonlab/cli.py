"""Command-line driver: simulate paths, estimate drifts, run experiments.

command   options                                  what it does
simulate  --config --set --preset --out            write one path CSV per replicate
estimate  PATH --config --set --preset             print a path CSV's drift estimates
mc        --config --set --preset --out --threads  run replicates, write the report
report    --out                                    rebuild a report's tables, figures

Configuration is ``key = value`` lines with ``#`` comments and the keys a,
b, alpha, beta, sigma1, sigma2, rho, y0, x0, T, N, scheme, replicates, seed.
One reader, :func:`hestonlab.montecarlo.read_config`, takes the preset (as
the lines of ``ExperimentConfig.to_text``), then the config file, then each
``--set key=value`` item as one such line; later lines win, so values
resolve in the order preset < config file < ``--set``.  ``simulate`` and
``mc`` need every key; ``estimate`` parses whichever keys it is given, as a
full config would, and uses sigma1 for the Itô diagnostic.  Exit status is 0
exactly when no error occurred; every error prints its structured cause to
stderr.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from .errors import HestonLabError
from .estimate import estimate_record, ito_cross_check, lse_from_functionals, path_functionals
from .montecarlo import (PARAM_NAMES, PRESET_NAMES, ExperimentConfig, read_config,
                         run_replicates)
from .reports import regenerate_report, write_report
from .simulate import Scheme, read_path_csv, simulate_paths, write_path_csv

__all__ = ["main", "parse_config", "cmd_simulate", "cmd_estimate"]

_PATH_NAME = re.compile(r"path_(?P<scheme>[A-Za-z]+)_s(?P<seed>\d+)_r(?P<rep>\d+)\.csv$")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# ---------------------------------------------------------------------------
# configuration resolution


def parse_config(path, overrides=(), preset: str | None = None) -> ExperimentConfig:
    """Resolve preset, file, and overrides into a validated ExperimentConfig."""
    return ExperimentConfig.from_mapping(read_config(path, overrides, preset))


# ---------------------------------------------------------------------------
# commands


def _path_filename(scheme: Scheme, seed: int, replicate: int) -> str:
    return f"path_{scheme.value}_s{seed}_r{replicate:04d}.csv"


def cmd_simulate(config: ExperimentConfig, out_dir) -> list[Path]:
    """Simulate the config's replicates in lane groups and write one CSV per path,
    in replicate order; a failing replicate raises once those before it are written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    paths = simulate_paths(config.params, config.grid, config.scheme,
                           config.master_seed, config.replicates)
    for r, path_obj in enumerate(paths):
        dest = out / _path_filename(config.scheme, config.master_seed, r)
        write_path_csv(path_obj, dest)
        written.append(dest)
    return written


def cmd_estimate(path_csv, sigma1: float | None = None) -> dict:
    """Estimate the four drift coefficients from a path CSV.

    Emits the flat estimate record; when ``sigma1`` is known (from a config,
    preset, or --set), the Itô cross-check diagnostic is appended.
    """
    path_obj = read_path_csv(path_csv)
    f = path_functionals(path_obj)
    est = lse_from_functionals(f)
    match = _PATH_NAME.search(str(path_csv))
    scheme = match.group("scheme") if match else None
    seed = int(match.group("seed")) if match else None
    record = estimate_record(est, scheme=scheme, seed=seed)
    if sigma1 is not None:
        diag = ito_cross_check(f, sigma1)
        record["i3_direct"] = diag.i3_direct
        record["i3_ito"] = diag.i3_ito
        record["qv_ratio"] = diag.qv_ratio
    return record


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing keeps no state between calls,
    each of which makes a new namespace."""
    parser = argparse.ArgumentParser(
        prog="heston-lab",
        description="Simulation and drift-estimation experiments for a "
        "square-root stochastic volatility model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate", help="write simulated path CSVs")
    p_est = sub.add_parser("estimate", help="estimate drift coefficients from a path CSV")
    p_est.add_argument("path_csv", help="path CSV file (header t,y,x)")
    p_mc = sub.add_parser("mc", help="run a replicate experiment and write reports")
    p_rep = sub.add_parser("report", help="regenerate tables from a report directory")
    for p in (p_sim, p_est, p_mc):
        p.add_argument("--config", metavar="PATH", help="key-value config file")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE", help="override one config key (repeatable)",
        )
        p.add_argument("--preset", choices=PRESET_NAMES, help="named base config")
    for p in (p_sim, p_mc, p_rep):
        p.add_argument("--out", metavar="DIR", default=".", help="output directory")
    p_mc.add_argument("--threads", type=int, default=1, metavar="K",
                      help="worker thread cap (never affects results)")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "simulate":
        config = parse_config(args.config, args.overrides, args.preset)
        for dest in cmd_simulate(config, args.out):
            print(dest)
        return 0
    if args.command == "estimate":
        sigma1 = read_config(args.config, args.overrides, args.preset).get("sigma1")
        record = cmd_estimate(args.path_csv, sigma1=sigma1)
        for key, value in record.items():
            print(f"{key}={_fmt(value)}")
        return 0
    if args.command == "mc":
        config = parse_config(args.config, args.overrides, args.preset)
        run = run_replicates(config, threads=args.threads)
        summary, deviations = write_report(args.out, run)
        print(f"replicates: {summary.n_results} ok, {len(run.failures)} failed")
        for name in PARAM_NAMES:
            s = summary.per_param[name]
            print(
                f"{name}: bias={s.expected_bias:.6g} l1={s.l1_error:.6g} "
                f"l2={s.l2_error:.6g}"
            )
        if deviations is not None and deviations.low_confidence:
            print("covariance check: low confidence (fewer than 100 replicates)")
        print(f"report written to {args.out}")
        return 0
    # report: argparse admits no other command
    regenerate_report(args.out)
    print(f"report regenerated in {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (HestonLabError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
