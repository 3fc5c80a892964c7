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

All numbers are written with 17 significant digits, so every file re-parses
to exactly the double-precision values that produced it.  In particular
``replicates.csv`` retains enough per-path functionals that
:func:`regenerate_report` can rebuild every table and figure without
re-simulating, and it checks that the estimates it recomputes from them equal
the stored ones.  ``report.json`` is strict JSON: a statistic that is not a
finite number (for example a normality test on fewer than 8 results) is
written as ``null``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CsvFormatError
from .estimate import PathFunctionals
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

__all__ = [
    "write_report",
    "regenerate_report",
    "report_payload",
]

# the files a report holds, as the config echo in report.json lists them
_OUTPUTS = ("summary", "tables", "figures", "replicates")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _summary_payload(summary: McSummary) -> dict:
    return {
        "n_results": summary.n_results,
        "truth": summary.truth.tolist(),
        "mean_y_terminal": summary.mean_y_terminal,
        "mean_x_terminal_over_t": summary.mean_x_terminal_over_t,
        "per_param": {
            name: vars(stats).copy() for name, stats in summary.per_param.items()
        },
        "cov_normalized": summary.cov_normalized.tolist(),
        "cov_scaled": summary.cov_scaled.tolist(),
    }


def _deviation_payload(dev: DeviationReport | None) -> dict | None:
    if dev is None:
        return None
    return {
        "normalized_dev": dev.normalized_dev.tolist(),
        "scaled_dev": dev.scaled_dev.tolist(),
        "max_normalized_dev": dev.max_normalized_dev,
        "max_scaled_dev": dev.max_scaled_dev,
        "low_confidence": dev.low_confidence,
    }


def report_payload(
    run: McRun, summary: McSummary, deviations: DeviationReport | None
) -> dict:
    return {
        "config": {**run.config.to_mapping(), "outputs": list(_OUTPUTS)},
        "failures": {
            "count": len(run.failures),
            "items": [
                {"index": f.index, "reason": f.reason, "step": f.step}
                for f in run.failures
            ],
        },
        "summary": _summary_payload(summary),
        "covariance_check": _deviation_payload(deviations),
    }


# ---------------------------------------------------------------------------
# CSV blocks

_REPLICATE_COLUMNS = (
    "index", "a_hat", "b_hat", "alpha_hat", "beta_hat",
    "y_terminal", "x_terminal",
    "i1", "i2", "i3", "i4", "e1", "e2", "e3", "qv_y", "denom",
)


def _write_replicates_csv(path: Path, results: ReplicateTable) -> None:
    columns = [getattr(results.functionals, name) for name in _REPLICATE_COLUMNS[5:]]
    values = np.column_stack([results.index, results.estimates, *columns])
    row = "%d," + ",".join(["%.17g"] * (len(_REPLICATE_COLUMNS) - 1)) + "\n"
    path.write_text(",".join(_REPLICATE_COLUMNS) + "\n"
                    + (row * len(values)) % tuple(values.ravel().tolist()))


def _read_replicates_csv(path: Path, config: ExperimentConfig) -> ReplicateTable:
    """Rebuild the replicate table from the stored functionals.

    Raises:
        CsvFormatError: wrong header or column count, a non-numeric cell, or
            a stored estimate that differs from the one its row's
            functionals give.
    """
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines or lines[0] != ",".join(_REPLICATE_COLUMNS):
        raise CsvFormatError(f"{path}: unexpected replicate-file header")
    body, width = lines[1:], len(_REPLICATE_COLUMNS)
    try:
        if any(line.count(",") != width - 1 for line in body):
            raise ValueError
        cells = ",".join(body).split(",") if body else []
        index = list(map(int, cells[::width]))
        del cells[::width]
        values = np.array(list(map(float, cells))).reshape(len(body), width - 1)
    except ValueError:
        # a line that fails here fails on its own too: name the first one
        for lineno, line in enumerate(body, start=2):
            parts = line.split(",")
            if len(parts) != width:
                raise CsvFormatError(f"{path}: line {lineno}: wrong column count") from None
            try:
                int(parts[0])
                list(map(float, parts[1:]))
            except ValueError:
                raise CsvFormatError(f"{path}: line {lineno}: non-numeric value") from None
    stored, columns = values[:, :4], np.ascontiguousarray(values[:, 4:].T)
    params, grid = config.params, config.grid
    f = PathFunctionals(
        t_horizon=grid.horizon, n_steps=grid.steps,
        y0=np.full(len(body), params.y0), x0=np.full(len(body), params.x0),
        **dict(zip(_REPLICATE_COLUMNS[5:], columns)),
    )
    table = ReplicateTable.from_functionals(index, f, params.drift_vector())
    differs = np.argwhere(table.estimates != stored)
    if differs.size:
        row, col = differs[0]
        raise CsvFormatError(
            f"{path}: line {row + 2} (replicate {index[row]}): stored "
            f"{_REPLICATE_COLUMNS[1 + col]} {_fmt(stored[row, col])} differs from "
            f"{_fmt(table.estimates[row, col])} recomputed from the row's functionals"
        )
    return table


def _write_tables(out: Path, config: ExperimentConfig, summary: McSummary) -> None:
    p = config.params
    if classify_regime(p) is Regime.SUBCRITICAL:
        mean_y_theory = p.a / p.b
        slope_theory = p.alpha - p.beta * p.a / p.b
    else:
        mean_y_theory = math.nan
        slope_theory = math.nan
    (out / "table1.csv").write_text(
        "quantity,empirical,theoretical\n"
        f"mean_y_terminal,{_fmt(summary.mean_y_terminal)},{_fmt(mean_y_theory)}\n"
        f"mean_x_terminal_over_t,{_fmt(summary.mean_x_terminal_over_t)},{_fmt(slope_theory)}\n"
    )
    rows2 = ["parameter,expected_bias,l1_error,l2_error"]
    rows3 = ["parameter,relative_error"]
    rows4 = ["parameter,skewness,excess_kurtosis"]
    rows5 = ["parameter,ad_stat,ad_pvalue,jb_stat,jb_pvalue"]
    for name in PARAM_NAMES:
        s = summary.per_param[name]
        rows2.append(f"{name},{_fmt(s.expected_bias)},{_fmt(s.l1_error)},{_fmt(s.l2_error)}")
        rows3.append(f"{name},{_fmt(s.relative_error)}")
        rows4.append(f"{name},{_fmt(s.skewness)},{_fmt(s.excess_kurtosis)}")
        rows5.append(
            f"{name},{_fmt(s.ad_stat)},{_fmt(s.ad_pvalue)},{_fmt(s.jb_stat)},{_fmt(s.jb_pvalue)}"
        )
    (out / "table2.csv").write_text("\n".join(rows2) + "\n")
    (out / "table3.csv").write_text("\n".join(rows3) + "\n")
    (out / "table4.csv").write_text("\n".join(rows4) + "\n")
    (out / "table5.csv").write_text("\n".join(rows5) + "\n")


def _write_figures(out: Path, results: ReplicateTable, theory_diag: np.ndarray | None) -> None:
    for idx, name in enumerate(PARAM_NAMES):
        sample = results.normalized[:, idx]
        if theory_diag is not None:
            var = float(theory_diag[idx])
        else:
            var = float(np.var(sample, ddof=1))
        hist = histogram_overlay(sample, var)
        lines = ["bin_center,density,overlay_density"]
        for c, d, o in zip(hist.bin_centers, hist.density, hist.overlay):
            lines.append(f"{_fmt(c)},{_fmt(d)},{_fmt(o)}")
        (out / f"fig1_{name}.csv").write_text("\n".join(lines) + "\n")


def _finite_or_null(value):
    """The payload with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_report(out_dir, run: McRun) -> tuple[McSummary, DeviationReport | None]:
    """Write the full report directory for a finished run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = run.config.params
    summary = summarize(run.results, params)
    theory = (
        asymptotic_covariance(params)
        if classify_regime(params) is Regime.SUBCRITICAL
        else None
    )
    deviations = covariance_check(summary, theory) if theory is not None else None

    payload = _finite_or_null(report_payload(run, summary, deviations))
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
        ConfigParseError: a config echo value that does not parse.
        CsvFormatError: malformed replicate file.
        OSError: missing report files.
    """
    out = Path(out_dir)
    payload = json.loads((out / "report.json").read_text())
    config = ExperimentConfig.from_mapping(payload["config"])
    results = _read_replicates_csv(out / "replicates.csv", config)
    failures = tuple(
        ReplicateFailure(index=f["index"], reason=f["reason"], step=f.get("step"))
        for f in payload["failures"]["items"]
    )
    run = McRun(config=config, results=results, failures=failures)
    return write_report(out, run)
