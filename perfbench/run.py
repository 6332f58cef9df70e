"""One seeded benchmark over two workloads of the lake discovery system.

Run from the repository root::

    python3 perfbench/run.py --workload wide-lake-served --seed 1 --seconds 40 --trace 0

Every workload runs the same three phases (see ``phases.py``) with its own
input sizes and its own split of the measured seconds, so every
end-to-end metric is measured on every workload.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` is the separate traced run that
reports the per-layer metrics.  Correctness gates run in both; a failed
gate fails the run.  Human-readable lines (provenance, per-phase
operation counts, every metric with its unit) come first; the last line
of standard output is the JSON result.  See ``README.md`` for the
metric glossary and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Each phase's share of the measured time is spent in slices that take
#: turns with the other phases' slices, so each metric's samples spread over
#: the whole run: this machine's speed drifts from one second to the next.
#: A kernel slice runs at least one query per matcher, a churn slice at
#: least one round.
SLICE_S = {"kernels": 0.4, "served": 1.0, "churn": 1.0}

#: Kernel lake sizes: candidates and queries are per seed source.  EmbDI
#: trains word2vec per pair, so its sub-lake has one candidate per source.
KERNELS_FULL = {
    "rows": 20, "columns": 6, "candidates": 3, "queries": 2,
    "embdi_rows": 6, "embdi_candidates": 1, "min_passes": 3,
}
#: Where the kernels get less time, they run on the same lake, with fewer
#: passes: a smaller lake's JaccardLevenshtein and DistributionBased
#: timings depend on the seed by up to a quarter.
KERNELS_LIGHT = dict(KERNELS_FULL, min_passes=2)
#: A neutral query's family is as deep as a realistic query's source, so
#: the two cohorts cost alike; a family well over ``top_k`` deep leaves the
#: cascade something to skip.
SERVED_WIDE = {
    "tables": 300, "rows": 30, "columns": 5, "families": 2,
    "queries_per_cohort": 6, "clients": 2, "trace_reps": 2,
}
SERVED_LIGHT = {
    "tables": 150, "rows": 20, "columns": 4, "families": 1,
    "queries_per_cohort": 3, "clients": 2, "trace_reps": 1,
}
CHURN_FULL = {
    "tables": 200, "rows": 30, "columns": 6, "changed_tables": 3,
    "appended_rows": 5,
}
CHURN_LIGHT = {
    "tables": 40, "rows": 20, "columns": 5, "changed_tables": 2,
    "appended_rows": 3,
}

#: workload -> phase -> (share of --seconds, input sizes).  Each workload
#: gives most of its time and its largest inputs to the phase whose layers it
#: is meant to stress; wide-lake-served also runs the large churn lake (see
#: README.md for why each was chosen).
WORKLOADS = {
    "matcher-kernels": {
        "kernels": (0.60, KERNELS_FULL),
        "served": (0.20, SERVED_LIGHT),
        "churn": (0.20, CHURN_LIGHT),
    },
    "wide-lake-served": {
        "kernels": (0.30, KERNELS_LIGHT),
        "served": (0.50, SERVED_WIDE),
        "churn": (0.20, CHURN_FULL),
    },
}


def provenance(args: argparse.Namespace) -> dict:
    import numpy

    def git(*command: str) -> str:
        try:
            return subprocess.run(
                ["git", *command], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    # Only this checkout's own repository counts, not one it sits inside.
    inside = git("rev-parse", "--show-toplevel") == str(ROOT)
    sha = git("rev-parse", "HEAD") if inside else ""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha or "unknown",
        "git_dirty": bool(git("status", "--porcelain")) if sha else None,
    }


def child_pids() -> list[int]:
    """This process's live children, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            # The fields after the parenthesised command: state, ppid, ...
            fields = stat[stat.rindex(")") + 2:].split()
            if int(fields[1]) == me and fields[0] != "Z":
                pids.append(int(entry.name))
    return pids


def reap_descendants(timeout_s: float = 20.0) -> None:
    """Wait until no child of this process is left, killing any still
    alive after *timeout_s*.  As a child subreaper this process also
    inherits the descendants whose parents ended first (the daemon's pool
    workers and resource tracker), so nothing the run started outlives it,
    not even as a zombie.  The multiprocessing resource tracker of this
    process would only end after it does, so it is stopped first."""
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError, ChildProcessError):
        pass
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def run_workload(run, args: argparse.Namespace) -> None:
    from phases import REFERENCE_LOOP_S, ChurnPhase, KernelPhase, ServedPhase

    plan = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    phases = {
        "kernels": KernelPhase(run, rng, plan["kernels"][1]),
        "served": ServedPhase(run, rng, plan["served"][1]),
        "churn": ChurnPhase(run, rng, plan["churn"][1]),
    }
    try:
        # (measured, reference-speed) seconds of each set-up
        setups = []
        for repeat in range(SETUP_REPEATS):
            store_dir = run.workdir / f"stores{repeat}"
            store_dir.mkdir()
            factor = run.calibrate()
            started = time.perf_counter()
            for phase in phases.values():
                phase.setup(store_dir)
            seconds = time.perf_counter() - started
            setups.append((seconds, seconds * factor))
            if repeat:
                shutil.rmtree(run.workdir / f"stores{repeat - 1}")
        phases["served"].check_plans()
        factor = run.calibrate()
        started = time.perf_counter()
        phases["served"].start_daemon()
        daemon_s = time.perf_counter() - started
        run.metric(
            "setup_s", statistics.median(s for _, s in setups) + daemon_s * factor, "s"
        )
        print(
            "setup: measured " + ", ".join(f"{s:.2f}s" for s, _ in setups)
            + f" (median of {SETUP_REPEATS}) + daemon start {daemon_s:.2f}s",
            flush=True,
        )
        budgets = {name: plan[name][0] * args.seconds for name in phases}
        used = dict.fromkeys(phases, 0.0)
        steps = dict.fromkeys(phases, 0)
        for phase in phases.values():
            phase.start()
        while True:
            active = [
                name for name, phase in phases.items()
                if used[name] < budgets[name] or not phase.has_minimum()
            ]
            if not active:
                break
            for name in active:
                started = time.perf_counter()
                phases[name].step(SLICE_S[name])
                used[name] += time.perf_counter() - started
                steps[name] += 1
        for name, phase in phases.items():
            phase.finish()
            print(f"  {name}: {steps[name]} slices, {used[name]:.2f}s", flush=True)
        loops = run.loops
        print(
            f"machine: calibration loop {statistics.median(loops) * 1e3:.3f} ms median, "
            f"{min(loops) * 1e3:.3f} to {max(loops) * 1e3:.3f} ms over "
            f"{len(loops)} calibrations (reference "
            f"{REFERENCE_LOOP_S * 1e3:.3f} ms)",
            flush=True,
        )
    finally:
        for phase in phases.values():
            phase.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import repro.lake  # noqa: F401  (the program must be beside us)
        import phases
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2

    # Everything the run writes, temporary files included, stays in the
    # checkout and is removed at the end.
    workdir = Path.cwd() / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    (workdir / "tmp").mkdir()
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir / "tmp")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    phases.prctl(phases.PR_SET_CHILD_SUBREAPER, 1)

    run = phases.Run(workdir=workdir, src_dir=SRC, trace=bool(args.trace))
    info = provenance(args)
    print("provenance " + json.dumps(info), flush=True)
    try:
        run_workload(run, args)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        reap_descendants()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(counts[0] for counts in run.operations.values())
    failed = sum(counts[2] for counts in run.operations.values())
    run.metric("succeeded_frac", (attempted - failed) / max(1, attempted), "ratio")
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run.metric("peak_rss_mb", (usage + children) / 1024.0, "MB")

    for phase, (sent, succeeded, phase_failed) in run.operations.items():
        print(f"operations {phase}: sent {sent}, succeeded {succeeded}, failed {phase_failed}")
    print("sizes " + json.dumps(run.sizes))
    reported = run.layers if args.trace else run.metrics
    for name, (value, unit) in sorted(reported.items()):
        print(f"metric {name} = {value:.6g} {unit}")
    correct = not run.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(reported.items())
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
