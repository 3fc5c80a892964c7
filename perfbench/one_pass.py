"""One pass of a workload, in a fresh process.

    python3 perfbench/one_pass.py --workload NAME --seed N --dir DIR \
        --src SRC --spawned T --result FILE [--trace]

Imports `hestonlab` from SRC, writes the workload's config files into DIR,
then runs each of the workload's commands through `hestonlab.cli.main` from
DIR.  The result file holds the set-up time (from ``--spawned``, the
parent's ``time.monotonic()`` just before it started this process), the
wall time of the commands, the peak RSS, each command's exit code and
standard output, and the sha256 of every report file after each `mc`
command.

With ``--trace`` the public names of each `hestonlab` module are wrapped with
timers, from this file, before the commands run; the result then also holds
the per-layer totals of the pass.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

import workloads


def tree_hashes(root: Path) -> dict:
    """sha256 of every file under ``root``, keyed by its relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class Tracer:
    """Per-layer totals of one pass, filled in by wrappers around public names."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.lock = threading.Lock()  # worker threads of `mc --threads` add too

    def timed(self, name, fn, after=None):
        """Wrap ``fn`` so that each call adds its wall time to ``name``.

        ``name`` may be a callable of the call's arguments.  ``after(result,
        args)`` runs outside the timed region and may add counts.
        """
        totals, lock = self.totals, self.lock

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            with lock:
                totals[name(*args) if callable(name) else name] += elapsed
            if after is not None:
                after(out, args)
            return out

        return wrapper

    def install(self):
        """Replace the public names each module calls with timed wrappers.

        A name is replaced in every module that imported it, since each
        module calls its own binding.
        """
        import hestonlab.cli as cli
        import hestonlab.estimate as estimate
        import hestonlab.montecarlo as montecarlo
        import hestonlab.reports as reports
        import hestonlab.simulate as simulate

        totals = self.totals
        draws = simulate.GaussianDraws.from_lineage.__func__
        simulate.GaussianDraws.from_lineage = classmethod(
            self.timed("simulate.draws_s", draws))
        simulate.simulate_y = self.timed(
            lambda params, grid, scheme, d: f"simulate.variance_s.{scheme.value}",
            simulate.simulate_y)
        simulate.simulate_x = self.timed("simulate.price_s", simulate.simulate_x)

        def csv_bytes(_, args):
            totals["simulate.csv_bytes"] += os.path.getsize(args[1])

        cli.write_path_csv = self.timed("simulate.csv_write_s", cli.write_path_csv,
                                        csv_bytes)
        cli.read_path_csv = self.timed("simulate.csv_read_s", cli.read_path_csv)

        for module in (cli, montecarlo):
            module.path_functionals = self.timed(
                "estimate.functionals_s", estimate.path_functionals)
        for module in (cli, montecarlo, reports):
            for fn in ("lse_from_functionals", "normalized_error",
                       "random_scaling_transform"):
                if hasattr(module, fn):
                    setattr(module, fn, self.timed("estimate.lse_s", getattr(module, fn)))

        def run_replicates(config, threads=1):
            c0, w0 = time.process_time(), time.perf_counter()
            run = montecarlo.run_replicates(config, threads=threads)
            totals["montecarlo.run_replicates_s"] += time.perf_counter() - w0
            totals["montecarlo.cpu_s"] += time.process_time() - c0
            totals["montecarlo.replicates_ok"] += len(run.results)
            totals["montecarlo.replicates_aborted"] += len(run.failures)
            return run

        cli.run_replicates = run_replicates
        reports.summarize = self.timed("montecarlo.summarize_s", reports.summarize)
        for fn in ("jarque_bera", "anderson_darling"):
            setattr(montecarlo, fn, self.timed("montecarlo.normality_s",
                                               getattr(montecarlo, fn)))

        def report_bytes(_, args):
            totals["reports.bytes"] += sum(
                p.stat().st_size for p in Path(args[0]).iterdir() if p.is_file())

        cli.write_report = self.timed("reports.write_s", cli.write_report, report_bytes)
        cli.regenerate_report = self.timed("reports.regenerate_s", cli.regenerate_report)

    def layers(self) -> dict:
        out = dict(self.totals)
        cpu = out.pop("montecarlo.cpu_s", 0.0)
        wall = out.get("montecarlo.run_replicates_s", 0.0)
        out["montecarlo.cpu_per_wall"] = cpu / wall if wall > 0 else 0.0
        return out


def run_command(cli, argv) -> tuple[int, str, float]:
    """Run one `heston-lab` command; return its exit code, stdout and wall time."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # any other escape is a failed operation, not a crash
        traceback.print_exc()
        code = 1
    return code, buf.getvalue(), time.perf_counter() - t0


def run_commands(cli, commands) -> dict:
    """Run a workload's commands from the current directory.

    Returns each command's argv, exit code and stdout, the summed wall time
    of the commands, and the report file hashes after each successful `mc`
    that a later command follows (the pass's final files are hashed anyway).
    """
    done, snapshots, run_s = [], {}, 0.0
    for i, argv in enumerate(commands):
        code, out, wall = run_command(cli, argv)
        run_s += wall
        done.append({"argv": list(argv), "code": code, "stdout": out})
        if argv[0] == "mc" and code == 0 and i + 1 < len(commands):
            snapshots[str(i)] = tree_hashes(Path(workloads.REPORT_DIR))
    return {"commands": done, "snapshots": snapshots, "run_s": run_s}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import hestonlab.cli as cli
    import_s = time.perf_counter() - t0
    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"hestonlab was imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    work = workloads.build(args.workload, args.seed)
    pass_dir = Path(args.dir)
    for file_name, mapping in work.configs.items():
        (pass_dir / file_name).write_text(workloads.config_text(mapping))
    setup_s = time.monotonic() - args.spawned

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.totals["cli.import_s"] = import_s
        tracer.install()

    os.chdir(pass_dir)
    result = run_commands(cli, work.commands)
    result.update(
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        layers=tracer.layers() if tracer else {},
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
