"""Benchmark for commdeg: run one workload, check its outputs, print metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each exists): spec-to-degree,
power-sweep, monte-carlo, cli. Only monte-carlo uses the seed.

With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json: setup_s, wall_s (the job list once, as the sum of each
job's fastest run; on cli a job is one process from spawn to exit) and
peak_rss_mb. With --trace 1 it carries the per-layer metrics from a
separate, traced run; a layer the workload never calls reads 0. The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics. The lines before it give the environment stamp (kernel
backend, Python and numpy versions, nproc, BLAS thread cap), which says
which runs may be compared, and the failed ratio with the jobs whose
routes or library closed forms disagree.

The work runs in a fresh child process (worker.py), so peak RSS is that
process's own (for cli, that of its largest CLI process). Set-up time is
measured from spawning a process to its ``ready`` line, over several
processes, and reported as the median. Everything runs from the
checkout's own ``src``; nothing is installed. ``selfcheck.py`` shows that
the checks count wrong outputs as failed jobs.
"""
from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 9  # set-up-only processes, plus the measured worker itself
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _environment() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _kill(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _spawn_until_ready(cmd, env, deadline):
    """Start ``cmd``; return the process and seconds until it said ready."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(max(0.0, deadline - perf_counter())):
                raise BenchError("worker did not finish set-up in time")
        line = proc.stdout.readline()
        ready = perf_counter() - start
        if line.strip() != "ready":
            proc.wait()
            raise BenchError(f"worker set-up failed (exit {proc.returncode})")
    except BaseException:
        _kill(proc)
        raise
    return proc, ready


def _run(args, bench) -> dict:
    deadline = perf_counter() + DEADLINE_S
    env = _environment()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, ready = _spawn_until_ready(cmd + ["--setup-only"], env, deadline)
            proc.wait()
            setups.append(ready)
    proc, ready = _spawn_until_ready(cmd, env, deadline)
    setups.append(ready)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    values = report["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    section = bench["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in section}
    if set(values) - names:
        raise BenchError(f"metrics BENCHMARK.json lacks: {set(values) - names}")
    # A layer the workload never calls reads 0; every end-to-end metric
    # must be measured.
    if not args.trace and names - set(values):
        raise BenchError(f"worker did not report {names - set(values)}")
    report["metrics"] = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in section
    }
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "commdeg" / "__init__.py").is_file():
        print(f"no commdeg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        report = _run(args, bench)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = report["attempted"], report["failed"]
    print("env " + json.dumps(report["env"], sort_keys=True))
    print(f"jobs attempted {attempted} failed {failed}"
          f" (failed_ratio {failed / attempted:.4g});"
          f" jobs whose exact routes disagree: {report['route_mismatch']};"
          f" jobs whose library closed form differs from the oracle:"
          f" {report['exact_mismatch']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
