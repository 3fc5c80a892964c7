"""Experiment report files: one JSON document plus table and figure CSVs.

Layout of an experiment directory written by :func:`write_report`:

    report.json      config echo, failure counts, summary, deviation report
    replicates.csv   per-replicate functionals and estimates (re-analysis input)
    table1.csv       long-run means of Y_T and X_T/T vs their ergodic values
    table2.csv       expected bias, L1 and L2 error per coefficient
    table3.csv       relative error of the mean estimate per coefficient
    table4.csv       skewness and excess kurtosis of the normalized errors
    table5.csv       Anderson-Darling and Jarque-Bera statistics and p-values
    fig1_<name>.csv  histogram of the normalized error with its normal overlay

The CSV files are written and read by the one codec of path files, under
its one rule (:mod:`hestonlab.simulate`): 17 significant digits, so every
file re-parses to exactly the doubles that produced it.  ``replicates.csv``
retains enough per-path functionals that :func:`regenerate_report` can
rebuild every table and figure without re-simulating, and it checks that the
estimates it recomputes from them equal the stored ones.  ``report.json``
holds the fields of ``McSummary``, ``DeviationReport`` and
``ReplicateFailure`` and is strict JSON: a statistic that is not a finite
number (for example a normality test on fewer than 8 results) is ``null``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ConfigParseError, CsvFormatError, ReportNotFound, require_instance
from .estimate import FAILURE_REASONS, PathFunctionals
from .model import asymptotic_covariance, classify_regime, Regime
from .montecarlo import (
    DeviationReport,
    ExperimentConfig,
    McRun,
    McSummary,
    PARAM_NAMES,
    ReplicateFailure,
    ReplicateTable,
    covariance_check,
    histogram_overlay,
    summarize,
)
from .simulate import parse_csv, write_csv

__all__ = [
    "write_report",
    "regenerate_report",
    "report_payload",
]

# the files a report holds, as the config echo in report.json lists them
_OUTPUTS = ("summary", "tables", "figures", "replicates")


def report_payload(run: McRun, summary: McSummary, deviations: DeviationReport | None) -> dict:
    """The ``report.json`` document of a run: its config echo, its failures,
    the summary and the covariance check, as their dataclasses hold them,
    with arrays as lists and every non-finite number as None (JSON null);
    ``InvalidArgument`` where ``run`` is not an :class:`McRun`, ``summary``
    not an :class:`McSummary`, or ``deviations`` neither None nor a
    :class:`DeviationReport`."""
    require_instance(run, McRun, "run")
    require_instance(summary, McSummary, "summary")
    if deviations is not None:
        require_instance(deviations, DeviationReport, "deviations")
    return _finite_or_null({
        "config": {**run.config.to_mapping(), "outputs": list(_OUTPUTS)},
        "failures": {"count": len(run.failures), "items": [asdict(f) for f in run.failures]},
        "summary": asdict(summary),
        "covariance_check": None if deviations is None else asdict(deviations),
    })


def _finite_or_null(value):
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _member(value, key: str, kind: type, where: str):
    """``value[key]`` of a ``report.json`` object at ``where``, a ``kind``."""
    if not isinstance(value, dict):
        raise ConfigParseError(f"{where} is not a JSON object")
    if key not in value or not isinstance(value[key], kind):
        raise ConfigParseError(f"{where}: missing or malformed key {key!r}")
    return value[key]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_failures(failures, count, replicates: int, kept, path: Path) -> None:
    """Refuse the failure items and count of a run of ``replicates`` whose
    ``replicates.csv`` holds ``kept``, as :func:`regenerate_report` says."""
    taken = set(kept.tolist())
    for i, fl in enumerate(failures):
        where = f"{path}: failures.items[{i}]: key"
        if not (_is_int(fl.index) and 0 <= fl.index < replicates) or fl.index in taken:
            raise ConfigParseError(
                f"{where} 'index' must be an int in [0, {replicates}) that no "
                f"replicates.csv row or other item holds, got {fl.index!r}")
        taken.add(fl.index)
        if fl.reason not in FAILURE_REASONS:
            raise ConfigParseError(
                f"{where} 'reason' must be one of {', '.join(FAILURE_REASONS)}, got {fl.reason!r}")
        abort = fl.reason == FAILURE_REASONS[0]
        if not (_is_int(fl.step) and fl.step >= 1 if abort else fl.step is None):
            raise ConfigParseError(
                f"{where} 'step' must be {'an int >= 1' if abort else 'null'} "
                f"for {fl.reason}, got {fl.step!r}")
    if not (_is_int(count) and count == len(failures)):
        raise ConfigParseError(
            f"{path}: failures: key 'count' must be the number of items, "
            f"{len(failures)}, got {count!r}")


# ---------------------------------------------------------------------------
# CSV files, in simulate's one codec

_REPLICATE_COLUMNS = (
    "index", "a_hat", "b_hat", "alpha_hat", "beta_hat",
    "y_terminal", "x_terminal",
    "i1", "i2", "i3", "i4", "e1", "e2", "e3", "qv_y", "denom",
)
_REPLICATE_CELLS = ("%d",) + ("%.17g",) * (len(_REPLICATE_COLUMNS) - 1)

# table file -> the ParamStats fields it holds, one row per parameter
_PARAM_TABLES = {
    "table2.csv": ("expected_bias", "l1_error", "l2_error"),
    "table3.csv": ("relative_error",),
    "table4.csv": ("skewness", "excess_kurtosis"),
    "table5.csv": ("ad_stat", "ad_pvalue", "jb_stat", "jb_pvalue"),
}


def _write_replicates_csv(path: Path, results: ReplicateTable) -> None:
    # the '%d' index is written from doubles, as the other columns are
    columns = [results.index.astype(float), *results.estimates.T,
               *(getattr(results.functionals, name) for name in _REPLICATE_COLUMNS[5:])]
    write_csv(path, _REPLICATE_COLUMNS, _REPLICATE_CELLS, columns)


def _read_report_file(path: Path, read=Path.read_text):
    """The text of a stored report file, or what ``read`` gives of it, or
    ``ReportNotFound`` where it, or its directory, does not exist."""
    try:
        return read(path)
    except FileNotFoundError as exc:
        raise ReportNotFound(exc.errno, exc.strerror, exc.filename) from None


def _read_replicates_csv(path: Path, config: ExperimentConfig) -> ReplicateTable:
    """Rebuild the replicate table from the stored functionals.

    The file is read as bytes, which the kernel reads where they lie.

    Raises:
        CsvFormatError: as :func:`~hestonlab.simulate.parse_csv`; bytes that
            are not UTF-8, naming the line; or a stored estimate that differs
            from the one its row's functionals give.
        ReportNotFound: no such file.
    """
    data = _read_report_file(path, Path.read_bytes)
    try:
        (index, *columns), lines = parse_csv(
            data, _REPLICATE_COLUMNS, (int,) + (float,) * (len(_REPLICATE_COLUMNS) - 1),
            str(path), "replicate-file",
        )
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise CsvFormatError(f"{path}: line {line}: bytes that are not UTF-8 text "
                             f"({exc.reason})") from None
    stored = np.column_stack(columns[:4])
    params, grid = config.params, config.grid
    f = PathFunctionals(
        t_horizon=grid.horizon, n_steps=grid.steps,
        y0=np.full(len(index), params.y0), x0=np.full(len(index), params.x0),
        **dict(zip(_REPLICATE_COLUMNS[5:], columns[4:])),
    )
    table = ReplicateTable.from_functionals(index, f, params.drift_vector())
    differs = np.argwhere(table.estimates != stored)
    if differs.size:
        row, col = differs[0]
        raise CsvFormatError(
            f"{path}: line {lines[row]} (replicate {index[row]}): stored "
            f"{_REPLICATE_COLUMNS[1 + col]} {stored[row, col]:.17g} differs from "
            f"{table.estimates[row, col]:.17g} recomputed from the row's functionals"
        )
    return table


def _write_tables(out: Path, config: ExperimentConfig, summary: McSummary) -> None:
    p = config.params
    subcritical = classify_regime(p) is Regime.SUBCRITICAL
    mean_y_theory = p.a / p.b if subcritical else math.nan
    slope_theory = p.alpha - p.beta * p.a / p.b if subcritical else math.nan
    table1 = np.array([
        ("mean_y_terminal", summary.mean_y_terminal, mean_y_theory),
        ("mean_x_terminal_over_t", summary.mean_x_terminal_over_t, slope_theory),
    ], dtype=object)
    write_csv(out / "table1.csv", ("quantity", "empirical", "theoretical"),
              ("%s", "%.17g", "%.17g"), list(table1.T))
    for name, fields in _PARAM_TABLES.items():
        rows = np.array([
            (param, *(getattr(summary.per_param[param], field) for field in fields))
            for param in PARAM_NAMES
        ], dtype=object)
        write_csv(out / name, ("parameter", *fields), ("%s",) + ("%.17g",) * len(fields),
                  list(rows.T))


def _write_figures(out: Path, results: ReplicateTable, theory_diag: np.ndarray | None) -> None:
    for idx, name in enumerate(PARAM_NAMES):
        sample = results.normalized[:, idx]
        var = np.var(sample, ddof=1) if theory_diag is None else theory_diag[idx]
        hist = histogram_overlay(sample, float(var))
        write_csv(out / f"fig1_{name}.csv", ("bin_center", "density", "overlay_density"),
                  ("%.17g",) * 3, [hist.bin_centers, hist.density, hist.overlay])


def write_report(out_dir, run: McRun) -> tuple[McSummary, DeviationReport | None]:
    """Write the full report directory for a finished run; ``InvalidArgument``
    where ``run`` is not an :class:`McRun`, or ``out_dir`` not a str or an
    ``os.PathLike``."""
    require_instance(run, McRun, "run")
    out = Path(require_instance(out_dir, (str, os.PathLike), "out_dir"))
    out.mkdir(parents=True, exist_ok=True)
    params = run.config.params
    summary = summarize(run.results, params)
    theory = (
        asymptotic_covariance(params)
        if classify_regime(params) is Regime.SUBCRITICAL
        else None
    )
    deviations = covariance_check(summary, theory) if theory is not None else None

    payload = report_payload(run, summary, deviations)
    (out / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    _write_replicates_csv(out / "replicates.csv", run.results)
    _write_tables(out, run.config, summary)
    diag = np.diag(theory.sigma_matrix) if theory is not None else None
    _write_figures(out, run.results, diag)
    return summary, deviations


def regenerate_report(out_dir) -> tuple[McSummary, DeviationReport | None]:
    """Rebuild every table and figure from a stored experiment directory.

    Reads the config echo from ``report.json`` and the per-replicate
    functionals from ``replicates.csv``; nothing is re-simulated.

    Raises:
        ConfigParseError: a ``report.json`` that is not an object, lacks
            ``config``, ``failures``, ``failures.items`` or a failure's
            ``index`` or ``reason``, or holds one of the wrong JSON type.  A
            failure item whose index is not an int in [0, replicates) held by
            no ``replicates.csv`` row or other item, whose reason is not in
            ``FAILURE_REASONS``, or whose step is not an int >= 1 for a DESRE
            abort and null otherwise; a ``failures.count`` other than the
            number of items.  Each error names the key.  A config echo value
            that does not parse.
        CsvFormatError: malformed replicate file.
        ReportNotFound: a missing directory, report.json or replicates.csv;
            a ``FileNotFoundError`` too, so an ``OSError`` handler catches it.
        OSError: another failure to read the report files.
        InvalidArgument: ``out_dir`` is not a str or an ``os.PathLike``.
    """
    out = Path(require_instance(out_dir, (str, os.PathLike), "out_dir"))
    path = out / "report.json"
    payload = json.loads(_read_report_file(path))
    config = ExperimentConfig.from_mapping(_member(payload, "config", dict, str(path)))
    recorded = _member(payload, "failures", dict, str(path))
    items = _member(recorded, "items", list, f"{path}: failures")
    failures = []
    for i, f in enumerate(items):
        index, reason = (
            _member(f, key, object, f"{path}: failures.items[{i}]") for key in ("index", "reason"))
        failures.append(ReplicateFailure(index, reason, f.get("step")))
    results = _read_replicates_csv(out / "replicates.csv", config)
    _check_failures(failures, recorded.get("count"), config.replicates, results.index, path)
    run = McRun(config=config, results=results, failures=tuple(failures))
    return write_report(out, run)
