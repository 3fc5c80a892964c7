"""Every public callable of ``hestonlab`` against hostile arguments: each
argument of one valid call, in turn, replaced by each value of ``HOSTILE``.
A call either returns finite values or raises a ``HestonLabError``, with
no warning.  An ``InvalidArgument``, which is how a call refuses what is
not a record or an enum member where it wants one, names the argument, and
a refused call writes nothing."""

import dataclasses
import enum
import inspect
import numbers
import warnings
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest

import hestonlab as hl

# NaN, both infinities, a negative number, a fraction where an int is
# wanted, a bool, a str, None, an empty array, an array of the wrong shape
# and an int beyond the doubles
HOSTILE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "-1.0": -1.0, "0.5": 0.5,
           "True": True, "'x'": "x", "None": None, "empty": np.empty(0),
           "(2, 2)": np.zeros((2, 2)), "10**400": 10**400}

# Left out of the sweep, by name:
# - the 12 output records, which the package builds and returns; as plain
#   dataclasses they hold what they are given, and the functions that take
#   one refuse another type (their rows below);
# - the raw enum constructors, whose ValueError for an unknown value is the
#   enum protocol's; the package reads a scheme by ``Scheme.parse`` (its row
#   below), and a regime only comes from ``classify_regime``.
NOT_SWEPT = {
    "AsymptoticCovariance", "DeviationReport", "HistogramOverlay", "IntegralDiagnostic",
    "LseEstimate", "McRun", "McSummary", "ParamStats", "PathFunctionals", "ReplicateFailure",
    "ReplicateTable", "StationaryMoments", "Scheme", "Regime",
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid arguments, made once: a path and its estimate, a small run and
    its report, a path file and a normal sample."""
    tmp = tmp_path_factory.mktemp("sweep")
    params = hl.canonical_params()
    grid = hl.TimeGrid(5.0, 50)
    rng = np.random.default_rng(11)
    draws = hl.GaussianDraws(rng.standard_normal(50), rng.standard_normal(50))
    path = hl.simulate_xy(params, grid, hl.Scheme.DISRE, hl.SeedLineage(3, 0))
    f = hl.path_functionals(path)
    run = hl.run_replicates(hl.ExperimentConfig(params, grid, hl.Scheme.DISRE, 10, 7))
    summary = hl.summarize(run.results, params)
    theory = hl.asymptotic_covariance(params)
    hl.write_path_csv(path, tmp / "path.csv")
    hl.write_report(tmp / "report", run)
    return dict(params=params, grid=grid, draws=draws, path=path, f=f,
                est=hl.lse_from_functionals(f), run=run, summary=summary, theory=theory,
                deviations=hl.covariance_check(summary, theory),
                y_path=hl.simulate_y(params, grid, hl.Scheme.DISRE, draws),
                sample=rng.standard_normal(50), tmp=tmp)


TRUTH = (0.4, 0.3, 0.1, 0.15)

# one valid call of each public callable: its positional arguments, every
# one, from the objects above
SWEEP = {
    hl.ExperimentConfig: lambda o: (o["params"], o["grid"], hl.Scheme.DISRE, 4, 7),
    hl.GaussianDraws: lambda o: (o["draws"].eta, o["draws"].zeta),
    hl.ModelParams: lambda o: (0.4, 0.3, 0.1, 0.15, 0.4, 0.3, 0.2, 0.2, 0.1),
    hl.Scheme.parse: lambda o: ("disre",),
    hl.SeedLineage: lambda o: (3, 1),
    hl.TimeGrid: lambda o: (5.0, 50),
    hl.XYPath: lambda o: (o["grid"], o["path"].y, o["path"].x, hl.Scheme.DISRE),
    hl.anderson_darling: lambda o: (o["sample"],),
    hl.anderson_darling_pvalue: lambda o: (0.5, 50),
    hl.asymptotic_covariance: lambda o: (o["params"],),
    hl.canonical_params: lambda o: (),
    hl.classify_regime: lambda o: (o["params"],),
    hl.conditional_mean_x: lambda o: (o["params"], 0.2, 0.1, 0.0, 1.0),
    hl.conditional_mean_y: lambda o: (o["params"], 0.2, 0.0, 1.0),
    hl.covariance_check: lambda o: (o["summary"], o["theory"]),
    hl.covariance_sandwich: lambda o: (o["params"],),
    hl.estimate_record: lambda o: (o["est"], "DISRE", 3),
    hl.failure_reasons: lambda o: (o["f"],),
    hl.histogram_overlay: lambda o: (o["sample"], 1.0),
    hl.ito_cross_check: lambda o: (o["f"], 0.4),
    hl.jarque_bera: lambda o: (o["sample"],),
    hl.jarque_bera_pvalue: lambda o: (2.0,),
    hl.kron: lambda o: (np.eye(2), np.ones((2, 2))),
    hl.lane_generators: lambda o: (5, [0, 1]),
    hl.lse_discrete_ab: lambda o: (o["path"].y, 0.1),
    hl.lse_discrete_alphabeta: lambda o: (o["path"].y, o["path"].x, 0.1),
    hl.lse_from_functionals: lambda o: (o["f"],),
    hl.normalized_error: lambda o: (o["est"], TRUTH),
    hl.path_functionals: lambda o: (o["path"],),
    hl.preset_config: lambda o: ("desk",),
    hl.random_scaling_transform: lambda o: (o["est"], TRUTH, o["f"]),
    hl.read_path_csv: lambda o: (o["tmp"] / "path.csv",),
    hl.regenerate_report: lambda o: (o["tmp"] / "report",),
    hl.report_payload: lambda o: (o["run"], o["summary"], o["deviations"]),
    hl.run_replicates: lambda o: (hl.ExperimentConfig(o["params"], hl.TimeGrid(1.0, 20),
                                                      hl.Scheme.DISRE, 3, 7), 1),
    hl.simulate_paths: lambda o: (o["params"], o["grid"], hl.Scheme.DISRE, 3, 2),
    hl.simulate_x: lambda o: (o["params"], o["grid"], o["y_path"], o["draws"]),
    hl.simulate_xy: lambda o: (o["params"], o["grid"], hl.Scheme.DISRE, hl.SeedLineage(3, 0)),
    hl.simulate_y: lambda o: (o["params"], o["grid"], hl.Scheme.DISRE, o["draws"]),
    hl.stationary_laplace: lambda o: (o["params"], 0.5),
    hl.stationary_moments: lambda o: (o["params"],),
    hl.summarize: lambda o: (o["run"].results, o["params"]),
    hl.write_path_csv: lambda o: (o["path"], "path.csv"),
    hl.write_report: lambda o: ("report", o["run"]),
}


def public_callables() -> set[str]:
    """The callables of the ``hestonlab`` namespace, but its errors."""
    return {name for name, value in vars(hl).items()
            if not name.startswith("_") and callable(value) and not inspect.ismodule(value)
            and not (inspect.isclass(value) and issubclass(value, BaseException))}


def check_finite(value) -> None:
    """Every number that ``value`` holds, through records, containers and
    iterators, is finite."""
    if value is None or isinstance(value, (str, numbers.Integral, enum.Enum, np.random.Generator)):
        return
    if isinstance(value, (numbers.Number, np.ndarray)):
        array = np.asarray(value)
        if array.dtype == object:
            for item in array.ravel().tolist():
                check_finite(item)
        else:
            assert array.dtype.kind in "US" or np.isfinite(array).all(), value
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            check_finite(getattr(value, field.name))
    elif isinstance(value, dict):
        for item in value.values():
            check_finite(item)
    elif isinstance(value, (list, tuple, Iterator)):
        for item in value:
            check_finite(item)
    else:
        raise AssertionError(f"a result of unchecked type {type(value).__name__}")


def outcome(call, args, cwd: Path):
    """None where ``call(*args)`` returns finite values, else the
    HestonLabError it raised, with warnings raised as errors; a refused
    call leaves ``cwd`` empty, and an accepted one's files are removed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            check_finite(call(*args))
        except hl.HestonLabError as e:
            assert not any(cwd.iterdir()), f"{e!r} after writing {sorted(cwd.iterdir())}"
            return e
    for written in sorted(cwd.rglob("*"), reverse=True):
        written.rmdir() if written.is_dir() else written.unlink()
    return None


# each argument of each row, or None for a callable that takes none
CASES = [(call, argument) for call in SWEEP
         for argument in list(inspect.signature(call).parameters) or [None]]


@pytest.mark.parametrize("call, argument", CASES,
                         ids=[f"{call.__qualname__}-{argument}" for call, argument in CASES])
def test_an_argument_of_a_public_callable_is_refused_by_name_or_taken(call, argument, valid,
                                                                     tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = SWEEP[call](valid)
    names = list(inspect.signature(call).parameters)
    assert len(args) == len(names), "a row passes every argument"
    assert outcome(call, args, tmp_path) is None, "the row's own call fails"
    if argument is None:
        return
    i = names.index(argument)
    # where a record or an enum member is wanted, anything else is an
    # InvalidArgument
    record = dataclasses.is_dataclass(args[i]) or isinstance(args[i], enum.Enum)
    failures = []
    for label, bad in HOSTILE.items():
        try:
            error = outcome(call, [*args[:i], bad, *args[i + 1:]], tmp_path)
            if error is not None and (record or isinstance(error, hl.InvalidArgument)):
                assert isinstance(error, hl.InvalidArgument) and argument in str(error), error
        except Exception as e:
            failures.append(f"{argument} = {label}: {type(e).__name__}: {e}")
    assert not failures, "\n".join(failures)


def test_every_public_callable_has_a_row():
    swept = {call.__qualname__ for call in SWEEP} - {"Scheme.parse"}
    assert public_callables() - NOT_SWEPT == swept
    assert NOT_SWEPT <= public_callables()
