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
from .estimate import (
    PathFunctionals,
    lse_from_functionals,
    normalized_error,
    random_scaling_transform,
)
from .model import ModelParams, asymptotic_covariance, classify_regime, Regime
from .montecarlo import (
    DeviationReport,
    ExperimentConfig,
    McRun,
    McSummary,
    PARAM_NAMES,
    ReplicateFailure,
    ReplicateResult,
    covariance_check,
    histogram_overlay,
    summarize,
)
from .simulate import Scheme, TimeGrid

__all__ = [
    "write_report",
    "regenerate_report",
    "report_payload",
    "config_to_mapping",
    "config_from_mapping",
]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def config_to_mapping(config: ExperimentConfig) -> dict:
    p = config.params
    return {
        "a": p.a, "b": p.b, "alpha": p.alpha, "beta": p.beta,
        "sigma1": p.sigma1, "sigma2": p.sigma2, "rho": p.rho,
        "y0": p.y0, "x0": p.x0,
        "T": config.grid.horizon, "N": config.grid.steps,
        "scheme": config.scheme.value,
        "replicates": config.replicates,
        "seed": config.master_seed,
        "outputs": list(config.outputs),
    }


def config_from_mapping(data: dict) -> ExperimentConfig:
    params = ModelParams(
        a=float(data["a"]), b=float(data["b"]),
        alpha=float(data["alpha"]), beta=float(data["beta"]),
        sigma1=float(data["sigma1"]), sigma2=float(data["sigma2"]),
        rho=float(data["rho"]), y0=float(data["y0"]), x0=float(data["x0"]),
    )
    return ExperimentConfig(
        params=params,
        grid=TimeGrid(horizon=float(data["T"]), steps=int(data["N"])),
        scheme=Scheme.parse(data["scheme"]),
        replicates=int(data["replicates"]),
        master_seed=int(data["seed"]),
        outputs=tuple(data.get("outputs", ("summary", "tables", "figures", "replicates"))),
    )


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
        "config": config_to_mapping(run.config),
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


def _write_replicates_csv(path: Path, run: McRun) -> None:
    lines = [",".join(_REPLICATE_COLUMNS)]
    for r in run.results:
        f = r.estimate.functionals
        row = [str(r.index)] + [
            _fmt(v)
            for v in (
                r.estimate.a_hat, r.estimate.b_hat,
                r.estimate.alpha_hat, r.estimate.beta_hat,
                r.y_terminal, r.x_terminal,
                f.i1, f.i2, f.i3, f.i4, f.e1, f.e2, f.e3, f.qv_y, f.denom,
            )
        ]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _read_replicates_csv(path: Path, config: ExperimentConfig) -> list[ReplicateResult]:
    """Rebuild the replicate records from their stored functionals.

    Raises:
        CsvFormatError: wrong header or column count, a non-numeric cell, or
            a stored estimate that differs from the one its row's
            functionals give.
    """
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines or lines[0] != ",".join(_REPLICATE_COLUMNS):
        raise CsvFormatError(f"{path}: unexpected replicate-file header")
    truth = config.params.drift_vector()
    grid = config.grid
    results = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(_REPLICATE_COLUMNS):
            raise CsvFormatError(f"{path}: line {lineno}: wrong column count")
        try:
            idx = int(parts[0])
            vals = [float(p) for p in parts[1:]]
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno}: non-numeric value") from None
        (a_hat, b_hat, alpha_hat, beta_hat, y_term, x_term,
         i1, i2, i3, i4, e1, e2, e3, qv_y, denom) = vals
        f = PathFunctionals(
            t_horizon=grid.horizon, n_steps=grid.steps,
            y0=config.params.y0, x0=config.params.x0,
            y_terminal=y_term, x_terminal=x_term,
            i1=i1, i2=i2, i3=i3, i4=i4, e1=e1, e2=e2, e3=e3,
            qv_y=qv_y, denom=denom,
        )
        est = lse_from_functionals(f)
        stored = (a_hat, b_hat, alpha_hat, beta_hat)
        for column, want, got in zip(_REPLICATE_COLUMNS[1:5], stored, est.vector()):
            if got != want:
                raise CsvFormatError(
                    f"{path}: line {lineno} (replicate {idx}): stored {column} "
                    f"{_fmt(want)} differs from {_fmt(got)} recomputed from the "
                    f"row's functionals"
                )
        results.append(
            ReplicateResult(
                index=idx,
                estimate=est,
                normalized=normalized_error(est, truth),
                scaled=random_scaling_transform(est, truth, f),
                y_terminal=y_term,
                x_terminal=x_term,
            )
        )
    return results


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


def _write_figures(
    out: Path, run: McRun, summary: McSummary, theory_diag: np.ndarray | None
) -> None:
    normalized = np.array([r.normalized for r in run.results])
    for idx, name in enumerate(PARAM_NAMES):
        sample = normalized[:, idx]
        if theory_diag is not None:
            var = float(theory_diag[idx])
        else:
            var = float(np.var(sample, ddof=1))
        hist = histogram_overlay(sample, var)
        lines = ["bin_center,density,overlay_density"]
        for c, d, o in zip(hist.bin_centers, hist.density, hist.overlay):
            lines.append(f"{_fmt(c)},{_fmt(d)},{_fmt(o)}")
        (out / f"fig1_{name}.csv").write_text("\n".join(lines) + "\n")


def _theory_for(config: ExperimentConfig):
    if classify_regime(config.params) is Regime.SUBCRITICAL:
        return asymptotic_covariance(config.params)
    return None


def _finite_or_null(value):
    """The payload with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(out_dir, run: McRun) -> tuple[McSummary, DeviationReport | None]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = summarize(run.results, run.config.params)
    theory = _theory_for(run.config)
    deviations = covariance_check(summary, theory) if theory is not None else None
    selected = set(run.config.outputs)

    payload = _finite_or_null(report_payload(run, summary, deviations))
    (out / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    if "replicates" in selected:
        _write_replicates_csv(out / "replicates.csv", run)
    if "tables" in selected:
        _write_tables(out, run.config, summary)
    if "figures" in selected:
        diag = np.diag(theory.sigma_matrix) if theory is not None else None
        _write_figures(out, run, summary, diag)
    return summary, deviations


def write_report(out_dir, run: McRun) -> tuple[McSummary, DeviationReport | None]:
    """Write the full report directory for a finished run."""
    return _emit(out_dir, run)


def regenerate_report(out_dir) -> tuple[McSummary, DeviationReport | None]:
    """Rebuild every table and figure from a stored experiment directory.

    Reads the config echo from ``report.json`` and the per-replicate
    functionals from ``replicates.csv``; nothing is re-simulated.

    Raises:
        CsvFormatError: malformed replicate file.
        OSError: missing report files.
    """
    out = Path(out_dir)
    payload = json.loads((out / "report.json").read_text())
    config = config_from_mapping(payload["config"])
    results = _read_replicates_csv(out / "replicates.csv", config)
    failures = tuple(
        ReplicateFailure(index=f["index"], reason=f["reason"], step=f.get("step"))
        for f in payload["failures"]["items"]
    )
    run = McRun(config=config, results=tuple(results), failures=failures)
    return _emit(out, run)
