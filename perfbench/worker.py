"""One benchmark process: set up a workload, run its passes, report JSON.

Started by run.py, never by hand. It writes ``ready`` to stdout once set-up
is done (imports, input generation, the Philox known-answer check), so the
parent can time set-up from its side, then one JSON line with the job
accounting, the metric values and the environment stamp.

Untraced (--trace 0): the jobs round-robin until --seconds is spent (at
least the workload's minimum passes), giving peak_rss_mb and wall_s, the
sum of each job's fastest run. Traced (--trace 1): one untraced pass,
then whole traced passes, giving the per-layer metrics and the tracing
overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import workloads


class Ledger:
    """Attempted and failed jobs; a job's output must repeat on every run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.route_mismatch = set()  # jobs whose exact routes disagreed
        self.exact_mismatch = set()  # jobs whose library closed form is wrong
        self._keys = {}

    def run(self, job) -> float:
        """Run one job, judge its outcome, return its wall time."""
        t0 = perf_counter()
        try:
            outcome = job.run()
        except Exception:  # a job that raises is a failed job; keep going
            outcome = workloads.Outcome(False, traceback.format_exc())
        wall = perf_counter() - t0
        self._record(job.name, outcome)
        return wall

    def run_pass(self, jobs) -> list[float]:
        """Run every job once in order; return each job's wall time."""
        return [self.run(job) for job in jobs]

    def _record(self, name, outcome):
        self.attempted += 1
        if outcome.route_mismatch:
            self.route_mismatch.add(name)
        if outcome.exact_mismatch:
            self.exact_mismatch.add(name)
        ok = outcome.ok
        first = self._keys.setdefault(name, outcome.key)
        if outcome.key != first:
            ok = False
            outcome.note += f"; output differs from the first run: {first!r}"
        if not ok:
            self.failed += 1
            print(f"FAILED {name}: {outcome.note}", file=sys.stderr)


def _cycle(ledger, jobs, seconds, min_passes):
    """Each job's wall times, running the jobs round-robin for ``seconds``.

    Every job runs ``min_passes`` times; after that a job runs again only
    while its median so far still fits in the time left, so heavy and
    light jobs both get as many runs as the time allows.
    """
    start = perf_counter()
    walls = [[] for _ in jobs]
    for _ in range(min_passes):
        for job, w in zip(jobs, walls):
            w.append(ledger.run(job))
    while True:
        ran = False
        for job, w in zip(jobs, walls):
            if perf_counter() - start + statistics.median(w) <= seconds:
                w.append(ledger.run(job))
                ran = True
        if not ran:
            return walls


def _passes(ledger, jobs, seconds) -> int:
    """Whole passes, at least one, until another would overrun ``seconds``."""
    start = perf_counter()
    done = 0
    while True:
        ledger.run_pass(jobs)
        done += 1
        if (perf_counter() - start) * (done + 1) / done > seconds:
            return done


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def untraced(workload, ledger, seconds):
    walls = _cycle(ledger, workload.jobs, seconds, workload.min_passes)
    # Each job is deterministic, so its spread across runs is interference
    # from other tenants of the machine, which only ever adds time: a job's
    # fastest run is its steadiest measure.
    return {
        "wall_s": sum(min(w) for w in walls),
        "peak_rss_mb": _peak_rss_mb(workload.children),
    }


def _import_seconds(probes=3):
    """Median wall of a process that only imports commdeg.cli."""
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import commdeg.cli"], check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def traced(workload, ledger, seconds):
    from spans import Tracer

    metrics = {}
    start = perf_counter()
    if workload.children:
        # Process wall per command against main() in-process, untraced.
        proc_walls = ledger.run_pass(workload.jobs)
        ledger.run_pass(workload.traced_jobs)  # the first calls import lazily
        main_walls = ledger.run_pass(workload.traced_jobs)
        metrics["cli.import_s"] = _import_seconds()
        metrics["cli.main_s"] = statistics.fmean(main_walls)
        metrics["cli.overhead_s"] = statistics.fmean(
            p - m for p, m in zip(proc_walls, main_walls))
        base_wall = sum(main_walls)
    else:
        base_wall = sum(ledger.run_pass(workload.traced_jobs))
    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        n = _passes(ledger, workload.traced_jobs, seconds - (t0 - start))
        traced_wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    # Per-layer figures are per traced pass, so they add up to trace.wall_s.
    metrics.update(tracer.layer_metrics(n))
    metrics["degrees.route_mismatch"] = len(ledger.route_mismatch)
    metrics["sampler.exact_mismatch"] = len(ledger.exact_mismatch)
    metrics["trace.wall_s"] = traced_wall / n
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - base_wall
    if metrics["trace.self_s"] > metrics["trace.wall_s"]:
        raise AssertionError("layer self times exceed the traced wall time")
    return metrics


def environment() -> dict:
    import numpy

    from commdeg import kernels

    return {
        "kernels_backend": kernels.BACKEND,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import commdeg  # noqa: F401  (set-up covers importing the package)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return
    ledger = Ledger()
    run = traced if args.trace else untraced
    metrics = run(workload, ledger, args.seconds)
    print(json.dumps({
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "route_mismatch": sorted(ledger.route_mismatch),
        "exact_mismatch": sorted(ledger.exact_mismatch),
        "metrics": metrics,
        "env": environment(),
    }), flush=True)


if __name__ == "__main__":
    main()
