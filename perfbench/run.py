"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: `hestonlab` is imported from its
``src`` directory, never from an installed copy.  The workload's passes run
one after another, each in a fresh Python process (``one_pass.py``), until
``--seconds`` of pass time have been spent; at least three passes always
run, so that every metric is taken over several passes: the median, or
for peak memory the lowest.  The first pass whose commands all succeed is
checked in full (``checks.py``); every later pass must write the same files and print the
same output, byte for byte, since a seeded run is deterministic.

The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts the `heston-lab` commands run and ``failed`` those that
exited non-zero.  With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer totals of a traced pass (see README.md).
Check failures go to standard error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from one_pass import tree_hashes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 3
PASS_TIMEOUT_S = 120
DEADLINE_S = 150  # no new pass starts after this, so a run ends within 180 s

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s",
    "simulate.draws_s": "s",
    **{f"simulate.variance_s.{s}": "s" for s in workloads.SCHEMES},
    "simulate.price_s": "s",
    "simulate.csv_write_s": "s",
    "simulate.csv_read_s": "s",
    "simulate.csv_bytes": "bytes",
    "estimate.functionals_s": "s",
    "estimate.lse_s": "s",
    "montecarlo.run_replicates_s": "s",
    "montecarlo.cpu_per_wall": "ratio",
    "montecarlo.replicates_ok": "count",
    "montecarlo.replicates_aborted": "count",
    "montecarlo.summarize_s": "s",
    "montecarlo.normality_s": "s",
    "reports.write_s": "s",
    "reports.regenerate_s": "s",
    "reports.bytes": "bytes",
}

# One BLAS thread: the only worker threads are those of `mc --threads`.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_pass(name: str, seed: int, pass_dir: Path, trace: bool) -> dict:
    """Run one pass in a fresh process and return its result, with the
    hashes of the files it left and its total wall time added."""
    pass_dir.mkdir(parents=True)
    result_file = pass_dir.parent / f"{pass_dir.name}.json"
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    argv = [sys.executable, str(HERE / "one_pass.py"), "--workload", name,
            "--seed", str(seed), "--dir", str(pass_dir), "--src", str(SRC),
            "--result", str(result_file)]
    if trace:
        argv.append("--trace")
    started = time.monotonic()
    proc = subprocess.run(argv + ["--spawned", repr(started)], env=env,
                          stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
    wall = time.monotonic() - started
    if proc.returncode != 0 or not result_file.is_file():
        raise RuntimeError(f"pass process exited with code {proc.returncode}")
    result = json.loads(result_file.read_text())
    result["wall_s"] = wall
    result["files"] = tree_hashes(pass_dir)
    return result


def outputs(result: dict) -> list:
    """What a pass must reproduce exactly: exit codes, stdout and files."""
    return [result["commands"], result["snapshots"], result["files"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1,
                        help="benchmark seed; becomes each config's master seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="pass time to spend before the last pass starts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hestonlab" / "__init__.py").is_file():
        print(f"no hestonlab source under {SRC}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = workloads.build(args.workload, args.seed)
    began = time.monotonic()
    spent, passes, problems = 0.0, [], []
    reference = None
    try:
        while len(passes) < MIN_PASSES or (
                spent < args.seconds and time.monotonic() - began < DEADLINE_S):
            pass_dir = run_dir / f"pass{len(passes)}"
            result = run_pass(args.workload, args.seed, pass_dir, bool(args.trace))
            spent += result["wall_s"]
            passes.append(result)
            print(f"pass {len(passes) - 1}: " + " ".join(
                f"{name}={result[name]:.4f}" for name in END_TO_END), file=sys.stderr)
            # a pass with a failed command is counted in `failed`, not checked
            ok = all(c["code"] == 0 for c in result["commands"])
            if ok and reference is None:
                reference = result
                problems += checks.check(work, pass_dir, result)
            elif ok and outputs(result) != outputs(reference):
                problems.append(f"pass {len(passes) - 1} did not reproduce the "
                                "outputs of the first checked pass")
            shutil.rmtree(pass_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    if reference is None:
        problems.append("no pass ran all its commands successfully, "
                        "so no output was checked")
    for line in problems[:40]:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = sum(len(r["commands"]) for r in passes)
    failed = sum(c["code"] != 0 for r in passes for c in r["commands"])
    if args.trace:
        values = {name: statistics.median(r["layers"].get(name, 0.0) for r in passes)
                  for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {name: statistics.median(r[name] for r in passes) for name in END_TO_END}
        # With two worker threads a pass's peak also depends on whether the
        # threads' largest temporaries happen to coincide (667 to 912 MB from
        # pass to pass on desre-aborts).  The lowest peak is the memory the
        # work itself needs, and it stays within 0.5% from run to run.
        values["peak_rss_mb"] = min(r["peak_rss_mb"] for r in passes)
        units = END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
