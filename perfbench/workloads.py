"""The benchmark's workloads: config files and `heston-lab` command lists.

A workload is built from the benchmark seed alone; the seed becomes the
master seed of every config it writes.  The sizes are keyword arguments so
that the benchmark's own tests can build the same workloads small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CANONICAL = {
    "a": 0.4, "b": 0.3, "alpha": 0.1, "beta": 0.15,
    "sigma1": 0.4, "sigma2": 0.3, "rho": 0.2, "y0": 0.2, "x0": 0.1,
}

# Close to the positivity boundary: 2a/sigma1^2 = 1.875, started at the
# stationary mean a/b, so the explicit square-root scheme aborts often.
NEAR_BOUNDARY = dict(CANONICAL, a=0.15, b=0.3, sigma1=0.4, y0=0.5)

# The Anderson-Darling statistic of n points stays below (2 ln 2 - 1) n,
# the value approached by n - 1 equal points and one outlier (a numerical
# search over other samples found nothing higher).  Replicates of the
# explicit scheme that pass close to zero without aborting give such
# outliers, so `desre-aborts` keeps n <= 640: the modified statistic then
# stays below 0.3863 * 640 * 1.0012 = 248, short of 306.7, where the
# program's p-value formula climbs back to 1 (it overflows from 401.7).  640
# replicates at N = 25000 make two equal chunks of the program's 8e6
# elements, one for each of the two worker threads.
DESRE_MAX_REPLICATES = 640

SCHEMES = ("AVE", "TE", "SE", "DESRE", "DISRE")
REPORT_DIR = "report"
PATH_DIR = "paths"


@dataclass(frozen=True)
class Workload:
    """Config mappings (file name -> keys) and the commands of one pass.

    Each command is the argument list of one `heston-lab` call, run from the
    pass directory.
    """

    name: str
    seed: int
    configs: dict[str, dict] = field(default_factory=dict)
    commands: tuple[tuple[str, ...], ...] = ()


def _config(params: dict, horizon: float, steps: int, scheme: str,
            replicates: int, seed: int) -> dict:
    return dict(params, T=horizon, N=steps, scheme=scheme,
                replicates=replicates, seed=seed)


def _mc(cfg: str, threads: int) -> tuple[str, ...]:
    return ("mc", "--config", cfg, "--out", REPORT_DIR, "--threads", str(threads))


def desk_long(seed: int, horizon=2000.0, steps=20_000, replicates=1000) -> Workload:
    cfg = "desk-long.cfg"
    return Workload(
        "desk-long", seed,
        {cfg: _config(CANONICAL, horizon, steps, "DISRE", replicates, seed)},
        (_mc(cfg, 1),),
    )


def many_short(seed: int, horizon=100.0, steps=1000, replicates=10_000) -> Workload:
    cfg = "many-short.cfg"
    return Workload(
        "many-short", seed,
        {cfg: _config(CANONICAL, horizon, steps, "DISRE", replicates, seed)},
        (_mc(cfg, 1), ("report", "--out", REPORT_DIR)),
    )


def desre_aborts(seed: int, horizon=1250.0, steps=25_000,
                 replicates=DESRE_MAX_REPLICATES) -> Workload:
    cfg = "desre-aborts.cfg"
    return Workload(
        "desre-aborts", seed,
        {cfg: _config(NEAR_BOUNDARY, horizon, steps, "DESRE", replicates, seed)},
        (_mc(cfg, 2),),
    )


def path_file_name(scheme: str, seed: int, replicate: int) -> str:
    """The name `heston-lab simulate` gives a path CSV."""
    return f"{PATH_DIR}/path_{scheme}_s{seed}_r{replicate:04d}.csv"


def path_files(seed: int, horizon=2000.0, steps=20_000, replicates=2) -> Workload:
    configs = {
        f"{scheme}.cfg": _config(CANONICAL, horizon, steps, scheme, replicates, seed)
        for scheme in SCHEMES
    }
    commands = [("simulate", "--config", f"{s}.cfg", "--out", PATH_DIR) for s in SCHEMES]
    commands += [
        ("estimate", path_file_name(s, seed, r), "--config", f"{s}.cfg")
        for s in SCHEMES
        for r in range(replicates)
    ]
    return Workload("path-files", seed, configs, tuple(commands))


BUILDERS = {
    "desk-long": desk_long,
    "many-short": many_short,
    "desre-aborts": desre_aborts,
    "path-files": path_files,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


def config_text(mapping: dict) -> str:
    """A config file as `heston-lab` reads it: one `key = value` a line."""
    return "".join(f"{key} = {value}\n" for key, value in mapping.items())
