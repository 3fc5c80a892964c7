"""Checks of a pass's outputs, computed apart from `hestonlab`.

Nothing here imports the package.  The scheme recursions, the price step,
the path functionals, the least-squares fit and the closed-form limits are
written from their definitions, and the random draws follow the documented
lineage: PCG64 on ``SeedSequence(entropy=seed, spawn_key=(r, 0 | 1))``.
No check compares against a stored copy of earlier output.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np
from scipy import stats

import workloads

ESTIMATES = ("a_hat", "b_hat", "alpha_hat", "beta_hat")
TRUTH_KEYS = ("a", "b", "alpha", "beta")
REPLAYED = 3          # successful (and, on DESRE, aborted) replicates replayed
REPLAY_RTOL = 1e-9    # replay against the program, same draws, other arithmetic
ALGEBRA_RTOL = 1e-10  # identities among the numbers of one row
N_SE = 5.0            # sampling bound, in standard errors, of the statistical checks


# ---------------------------------------------------------------------------
# reading


def strict_json(path) -> dict:
    """Parse JSON, rejecting the NaN and Infinity tokens that JSON does not have."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def read_columns(path) -> dict[str, np.ndarray]:
    """A headed CSV of numbers as a mapping column name -> array."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        data = data.reshape(0, len(header))
    return {name: data[:, j] for j, name in enumerate(header)}


def read_table5(path) -> dict[str, dict[str, float]]:
    lines = Path(path).read_text().split()
    header = lines[0].split(",")
    return {parts[0]: dict(zip(header[1:], map(float, parts[1:])))
            for parts in (line.split(",") for line in lines[1:])}


# ---------------------------------------------------------------------------
# replay of one replicate from its lineage


def lineage_draws(seed: int, replicate: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    eta, zeta = (
        np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(replicate, tag))
        )).standard_normal(steps)
        for tag in (0, 1)
    )
    return eta, zeta


def variance_path(cfg: dict, eta: np.ndarray) -> tuple[np.ndarray, int | None]:
    """Y on the grid by the scheme's one-step recursion, and the abort step.

    The abort step is the first grid index at which the explicit square-root
    scheme reaches Z <= 0 (the path is cut there), or None.
    """
    a, b, s1, scheme = cfg["a"], cfg["b"], cfg["sigma1"], cfg["scheme"]
    dt = cfg["T"] / cfg["N"]
    noise = [s1 * math.sqrt(dt) * e for e in eta.tolist()]
    out = [cfg["y0"]]
    if scheme in ("AVE", "TE", "SE"):
        y = cfg["y0"]
        for w in noise:
            if scheme == "AVE":
                y = y + (a - b * y) * dt + math.sqrt(abs(y)) * w
            elif scheme == "TE":
                y = y + (a - b * y) * dt + math.sqrt(max(y, 0.0)) * w
            else:
                y = abs(y + (a - b * y) * dt + math.sqrt(y) * w)
            out.append(y)
        return np.array(out), None
    # Z = sqrt(Y) solves dZ = ((a/2 - s1^2/8)/Z - b Z/2) dt + (s1/2) dW
    level = a / 2 - s1 * s1 / 8
    z = math.sqrt(cfg["y0"])
    lead = 1 + b * dt / 2
    for k, w in enumerate(noise, start=1):
        if scheme == "DESRE":
            z = z + (level / z - b * z / 2) * dt + w / 2
            if z <= 0.0:
                return np.array(out), k
        else:  # DISRE: lead*z^2 - (z_prev + w/2) z - level*dt = 0, positive root
            c = z + w / 2
            z = (c + math.sqrt(c * c + 4 * lead * level * dt)) / (2 * lead)
        out.append(z * z)
    return np.array(out), None


def price_path(cfg: dict, y: np.ndarray, eta: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """X by the Euler step x_k = x_{k-1} + (alpha - beta y) dt + s2 sqrt(y+ dt) dB."""
    dt = cfg["T"] / cfg["N"]
    rho = cfg["rho"]
    y_left = y[:-1]
    inc = (cfg["alpha"] - cfg["beta"] * y_left) * dt + cfg["sigma2"] * np.sqrt(
        np.maximum(y_left, 0.0) * dt) * (rho * eta + math.sqrt(1 - rho * rho) * zeta)
    return cfg["x0"] + np.concatenate([[0.0], np.cumsum(inc)])


def functionals(y: np.ndarray, x: np.ndarray, dt: float) -> dict[str, float]:
    """Left-endpoint sums of a path, named as in `replicates.csv`."""
    yl, dy, dx = y[:-1], np.diff(y), np.diff(x)
    horizon = dt * yl.size
    i1, i2 = dt * yl.sum(), dt * (yl * yl).sum()
    return {
        "y_terminal": y[-1], "x_terminal": x[-1],
        "i1": i1, "i2": i2, "i3": (yl * dy).sum(), "i4": (yl * dx).sum(),
        "e1": i1 / horizon, "e2": i2 / horizon, "e3": dt * (yl ** 3).sum() / horizon,
        "qv_y": (dy * dy).sum(), "denom": horizon * i2 - i1 * i1,
    }


def least_squares(y: np.ndarray, x: np.ndarray, dt: float) -> dict[str, float]:
    """Fit dY and dX on the regressors (dt, -Y_{k-1} dt) by `numpy.linalg.lstsq`."""
    design = np.column_stack([np.full(y.size - 1, dt), -y[:-1] * dt])
    coef = np.linalg.lstsq(design, np.column_stack([np.diff(y), np.diff(x)]), rcond=None)[0]
    return dict(zip(ESTIMATES, (coef[0, 0], coef[1, 0], coef[0, 1], coef[1, 1])))


def _close(got: float, want: float, scale: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), scale)


def _compare(label: str, got: dict, want: dict, scale: float, rtol: float) -> list[str]:
    return [f"{label}: {key} is {got[key]!r}, expected {want[key]!r}"
            for key in want if not _close(got[key], want[key], scale, rtol)]


# ---------------------------------------------------------------------------
# closed forms


def exact_terminal_means(cfg: dict) -> tuple[float, float]:
    """E[Y_T] and E[X_T] of the model, from E[Y_t] = a/b + (y0 - a/b) e^{-bt}."""
    a, b, horizon = cfg["a"], cfg["b"], cfg["T"]
    decay = math.exp(-b * horizon)
    mean_y = a / b + (cfg["y0"] - a / b) * decay
    integral_y = a / b * horizon + (cfg["y0"] - a / b) * (1 - decay) / b
    return mean_y, cfg["x0"] + cfg["alpha"] * horizon - cfg["beta"] * integral_y


def limit_variances(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of S (x) M (sqrt(T) errors) and S (x) I_2 (random scaling).

    S is the diffusion Gram matrix and M the inverse regressor Gram matrix
    times the noise-weighted moment matrix, both from the stationary
    Gamma(2a/s1^2, s1^2/(2b)) law of Y.
    """
    a, b, s1, s2 = cfg["a"], cfg["b"], cfg["sigma1"], cfg["sigma2"]
    shape, scale = 2 * a / (s1 * s1), s1 * s1 / (2 * b)
    m1, m2, m3 = (scale ** k * math.prod(shape + j for j in range(k)) for k in (1, 2, 3))
    gram = np.array([[1.0, -m1], [-m1, m2]])        # E[(1, -Y)^T (1, -Y)]
    noise = np.array([[m1, -m2], [-m2, m3]])        # E[Y (1, -Y)^T (1, -Y)]
    inv = np.linalg.inv(gram)
    m_diag = np.diag(inv @ noise @ inv)
    s_diag = np.array([s1 * s1, s2 * s2])
    return np.kron(s_diag, m_diag), np.kron(s_diag, np.ones(2))


def random_scaling(rows: dict, truth: np.ndarray, horizon: float) -> np.ndarray:
    """The path-moment scaling of the sqrt(T) errors, one row per replicate."""
    err = math.sqrt(horizon) * (np.column_stack([rows[k] for k in ESTIMATES]) - truth)
    e1, e2, e3 = rows["e1"], rows["e2"], rows["e3"]
    r11 = rows["denom"] / horizon ** 2 / np.sqrt(e1 * e3 - e2 * e2)
    return np.column_stack([
        r11 * err[:, 0], -err[:, 0] + e1 * err[:, 1],
        r11 * err[:, 2], -err[:, 2] + e1 * err[:, 3],
    ]) / np.sqrt(e1)[:, None]


# ---------------------------------------------------------------------------
# checks on an `mc` report directory


def check_rows(rows: dict, cfg: dict) -> list[str]:
    """Row identities: Abel summation, the normal equations, denom >= 0."""
    failures = []
    y0, x0, horizon = cfg["y0"], cfg["x0"], cfg["T"]
    yt, xt = rows["y_terminal"], rows["x_terminal"]
    i1, i2, i3, i4, qv, denom = (rows[k] for k in ("i1", "i2", "i3", "i4", "qv_y", "denom"))
    # sum y_{k-1} dy_k + sum dy_k^2 / 2 telescopes to (Y_T^2 - y0^2) / 2
    abel = np.abs(i3 + qv / 2 - (yt * yt - y0 * y0) / 2)
    scale = np.maximum.reduce([np.abs(i3), qv, yt * yt, np.ones_like(qv)])
    bad = np.flatnonzero(abel > ALGEBRA_RTOL * scale)
    failures += [f"row {int(rows['index'][j])}: Abel identity off by {abel[j]:.3g}" for j in bad]
    failures += [f"row {int(rows['index'][j])}: denom {denom[j]!r} < 0"
                 for j in np.flatnonzero(denom < 0)]
    cross = np.abs(denom - (horizon * i2 - i1 * i1))
    failures += [f"row {int(rows['index'][j])}: denom is not T*i2 - i1^2"
                 for j in np.flatnonzero(cross > 1e-8 * horizon * i2)]
    # [[T, -i1], [-i1, i2]] (a, b) = (Y_T - y0, -i3), and the same for X with i4
    fit = {
        "a_hat": (i2 * (yt - y0) - i1 * i3) / denom,
        "b_hat": (i1 * (yt - y0) - horizon * i3) / denom,
        "alpha_hat": (i2 * (xt - x0) - i1 * i4) / denom,
        "beta_hat": (i1 * (xt - x0) - horizon * i4) / denom,
    }
    for key, want in fit.items():
        bad = np.flatnonzero(np.abs(rows[key] - want) > ALGEBRA_RTOL * np.maximum(np.abs(want), 1.0))
        failures += [f"row {int(rows['index'][j])}: {key} {rows[key][j]!r} does not solve "
                     f"the normal equations ({want[j]!r})" for j in bad]
    return failures


def check_accounting(report: dict, rows: dict, cfg: dict) -> list[str]:
    failures = []
    ok = rows["index"].astype(np.int64)
    items = report["failures"]["items"]
    aborted = np.array([item["index"] for item in items], dtype=np.int64)
    if report["failures"]["count"] != len(items):
        failures.append("failure count differs from the failure records")
    if report["summary"]["n_results"] != ok.size:
        failures.append("n_results differs from the rows of replicates.csv")
    if ok.size + aborted.size != cfg["replicates"]:
        failures.append(f"{ok.size} ok + {aborted.size} aborted != {cfg['replicates']} replicates")
    if not np.array_equal(np.sort(np.concatenate([ok, aborted])), np.arange(cfg["replicates"])):
        failures.append("ok and aborted indices do not cover 0..R-1 exactly once")
    return failures


def check_replays(rows: dict, report: dict, cfg: dict, seed: int) -> list[str]:
    """Replay a few replicates, picked from the benchmark seed, and compare."""
    failures = []
    dt = cfg["T"] / cfg["N"]
    pick = np.random.default_rng([seed, 2015])
    ok = rows["index"].astype(np.int64)
    for j in sorted(pick.choice(ok.size, size=min(REPLAYED, ok.size), replace=False)):
        r = int(ok[j])
        eta, zeta = lineage_draws(cfg["seed"], r, cfg["N"])
        y, abort = variance_path(cfg, eta)
        if abort is not None:
            failures.append(f"replicate {r}: replay aborts at step {abort}, program kept it")
            continue
        x = price_path(cfg, y, eta, zeta)
        row = {key: rows[key][j] for key in rows}
        want = functionals(y, x, dt) | least_squares(y, x, dt)
        failures += _compare(f"replicate {r}", row, want, 1.0, REPLAY_RTOL)
    items = report["failures"]["items"]
    for i in sorted(pick.choice(len(items), size=min(REPLAYED, len(items)), replace=False)):
        item = items[i]
        eta, _ = lineage_draws(cfg["seed"], item["index"], cfg["N"])
        _, abort = variance_path(cfg, eta)
        if item["reason"] != "NonPositiveZ" or abort != item["step"]:
            failures.append(f"replicate {item['index']}: recorded {item['reason']} at "
                            f"step {item['step']}, replay aborts at step {abort}")
    return failures


def check_terminal_means(rows: dict, cfg: dict) -> list[str]:
    failures = []
    n = rows["index"].size
    for key, want in zip(("y_terminal", "x_terminal"), exact_terminal_means(cfg)):
        sample = rows[key]
        se = sample.std(ddof=1) / math.sqrt(n)
        if abs(sample.mean() - want) > N_SE * se:
            failures.append(f"mean {key} {sample.mean():.6g} is {abs(sample.mean() - want) / se:.1f} "
                            f"standard errors from the exact {want:.6g}")
    return failures


def _variance_gaps(sample: np.ndarray, limit: np.ndarray, label: str) -> list[str]:
    n = sample.shape[0]
    centered = sample - sample.mean(axis=0)
    var = (centered ** 2).sum(axis=0) / (n - 1)
    # standard error of a sample variance: sqrt((m4 - m2^2) / n)
    se = np.sqrt(((centered ** 4).mean(axis=0) - (centered ** 2).mean(axis=0) ** 2) / n)
    return [f"{label} variance of {TRUTH_KEYS[i]}: {var[i]:.4g} is {abs(var[i] - limit[i]) / se[i]:.1f} "
            f"standard errors from the limit {limit[i]:.4g}"
            for i in range(4) if abs(var[i] - limit[i]) > N_SE * se[i]]


def check_limit_covariances(rows: dict, report: dict, cfg: dict) -> list[str]:
    truth = np.array([cfg[k] for k in TRUTH_KEYS])
    horizon = cfg["T"]
    normalized = math.sqrt(horizon) * (np.column_stack([rows[k] for k in ESTIMATES]) - truth)
    scaled = random_scaling(rows, truth, horizon)
    limit_normalized, limit_scaled = limit_variances(cfg)
    failures = _variance_gaps(normalized, limit_normalized, "sqrt(T)-error")
    failures += _variance_gaps(scaled, limit_scaled, "random-scaling")
    for key, sample in (("cov_normalized", normalized), ("cov_scaled", scaled)):
        got, want = np.array(report["summary"][key]), np.cov(sample, rowvar=False)
        if not np.allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max()):
            failures.append(f"report.json {key} differs from the covariance of the rows")
    return failures


def check_normality_table(rows: dict, table5: dict) -> list[str]:
    failures = []
    for name, key in zip(TRUTH_KEYS, ESTIMATES):
        with warnings.catch_warnings():  # only the statistic is used, not a p-value
            warnings.simplefilter("ignore", FutureWarning)
            ad_stat = stats.anderson(rows[key], dist="norm").statistic
        want = {"jb_stat": stats.jarque_bera(rows[key]).statistic, "ad_stat": ad_stat}
        failures += _compare(f"table5 {name}", table5[name], want, 0.0, 1e-8)
    return failures


def check_rewrite(before: dict, after: dict) -> list[str]:
    """`report` rewrites the tables and figures byte-identical to `mc`."""
    names = [n for n in before if n.startswith(("table", "fig"))]
    if not names:
        return ["mc wrote no tables or figures"]
    return [f"report rewrote {n} differently" for n in names if before[n] != after.get(n)]


def check_mc(work: workloads.Workload, pass_dir: Path, result: dict) -> list[str]:
    cfg = next(iter(work.configs.values()))
    out = pass_dir / workloads.REPORT_DIR
    try:
        report = strict_json(out / "report.json")
    except ValueError as exc:
        return [f"report.json is not strict JSON: {exc}"]
    rows = read_columns(out / "replicates.csv")
    failures = check_accounting(report, rows, cfg)
    failures += check_rows(rows, cfg)
    failures += check_replays(rows, report, cfg, work.seed)
    if work.name == "desk-long":
        failures += check_terminal_means(rows, cfg)
        failures += check_limit_covariances(rows, report, cfg)
    if work.name == "many-short":
        failures += check_terminal_means(rows, cfg)
        prefix = workloads.REPORT_DIR + "/"
        final = {name[len(prefix):]: digest for name, digest in result["files"].items()
                 if name.startswith(prefix)}
        failures += check_rewrite(result["snapshots"]["0"], final)
        failures += check_normality_table(rows, read_table5(out / "table5.csv"))
    return failures


# ---------------------------------------------------------------------------
# checks on `simulate` path files and `estimate` output


def parse_record(stdout: str) -> dict:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def check_path_file(path: Path, cfg: dict, replicate: int, record: dict) -> list[str]:
    label = path.name
    data = read_columns(path)
    t, y, x = data["t"], data["y"], data["x"]
    dt = cfg["T"] / cfg["N"]
    failures = []
    if not np.allclose(t, np.linspace(0.0, cfg["T"], cfg["N"] + 1), rtol=1e-12, atol=0):
        failures.append(f"{label}: time column is not the grid")
    eta, zeta = lineage_draws(cfg["seed"], replicate, cfg["N"])
    y_replay, abort = variance_path(cfg, eta)
    if abort is not None or y_replay.size != y.size:
        return failures + [f"{label}: replay aborts at step {abort}"]
    x_replay = price_path(cfg, y_replay, eta, zeta)
    for name, got, want in (("y", y, y_replay), ("x", x, x_replay)):
        gap = np.abs(got - want) > REPLAY_RTOL * np.maximum(np.abs(want), 1.0)
        if gap.any():
            k = int(np.argmax(gap))
            failures.append(f"{label}: {name}[{k}] = {got[k]!r}, replay gives {want[k]!r}")
    scheme = cfg["scheme"]
    if scheme == "SE" and y.min() < 0.0:
        failures.append(f"{label}: symmetrized Euler path is negative")
    if scheme in ("DESRE", "DISRE") and not y.min() > 0.0:
        failures.append(f"{label}: square-root scheme path is not positive")
    if scheme == "DISRE":
        z = np.sqrt(y)
        level = cfg["a"] / 2 - cfg["sigma1"] ** 2 / 8
        resid = z[1:] - z[:-1] - (level / z[1:] - cfg["b"] * z[1:] / 2) * dt \
            - cfg["sigma1"] / 2 * math.sqrt(dt) * eta
        if np.abs(resid).max() > 1e-12:
            failures.append(f"{label}: implicit step residual {np.abs(resid).max():.3g}")
    want = least_squares(y, x, dt)
    f = functionals(y, x, dt)
    want["qv_ratio"] = f["qv_y"] / (cfg["sigma1"] ** 2 * f["i1"])
    got = {key: float(record.get(key, "nan")) for key in want}
    failures += _compare(f"{label} estimate", got, want, 1.0, 1e-8)
    if record.get("scheme") != scheme or record.get("seed") != str(cfg["seed"]):
        failures.append(f"{label}: estimate names scheme {record.get('scheme')!r}, "
                        f"seed {record.get('seed')!r}")
    return failures


def check_path_files(work: workloads.Workload, pass_dir: Path, result: dict) -> list[str]:
    failures = []
    for command in result["commands"]:
        argv = command["argv"]
        if argv[0] != "estimate":
            continue
        cfg = work.configs[argv[3]]
        replicate = int(argv[1].rsplit("_r", 1)[1].split(".")[0])
        failures += check_path_file(pass_dir / argv[1], cfg, replicate,
                                    parse_record(command["stdout"]))
    expected = {workloads.path_file_name(s, work.seed, r)
                for s in workloads.SCHEMES
                for r in range(work.configs[f"{s}.cfg"]["replicates"])}
    written = {line for c in result["commands"] if c["argv"][0] == "simulate"
               for line in c["stdout"].split()}
    if written != expected:
        failures.append(f"simulate wrote {sorted(written)}, expected {sorted(expected)}")
    return failures


def check(work: workloads.Workload, pass_dir: Path, result: dict) -> list[str]:
    """Every check of the workload on one pass's outputs."""
    if work.name == "path-files":
        return check_path_files(work, pass_dir, result)
    return check_mc(work, pass_dir, result)
