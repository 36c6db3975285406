"""Self-test of the benchmark's checks: wrong oracles must count as failures.

Usage, from the root of a checkout:  python3 perfbench/selfcheck.py

Runs a few cheap jobs through the same Ledger the benchmark uses, once with
the true oracle and once with a deliberately wrong one, and requires the
wrong ones, and an output that changes between passes, to be counted in
``failed``. Also checks that a wrong Philox known-answer vector stops
set-up and that the tracer restores every function it wraps.
Exits 0 and prints ``selfcheck: ok`` when every check holds.
"""
from __future__ import annotations

import os
import sys
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = str(SRC)

import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import Ledger  # noqa: E402


def _failed(jobs, passes=1) -> int:
    ledger = Ledger()
    for _ in range(passes):
        ledger.run_pass(jobs)
    return ledger.failed


def main() -> int:
    table = {"kind": "cayley", "table": oracles.dihedral_cayley(9)}
    good = oracles.dihedral_odd(9)
    wrong = good + Fraction(1, 18)
    trials = 20_000
    flips = iter(range(10))
    checks = {
        "exact job, true oracle passes":
            _failed([workloads.spec_job("D9", table, 18, good)]) == 0,
        "exact job, wrong oracle fails":
            _failed([workloads.spec_job("D9", table, 18, wrong)]) == 1,
        "exact job, wrong order fails":
            _failed([workloads.spec_job("D9", table, 19, good)]) == 1,
        "estimate, true oracle passes": _failed([workloads.estimate_job(
            "dihedral", lambda: _estimate("dihedral", 1, 1, trials),
            oracles.continuous_dihedral(1, 1), trials)]) == 0,
        "estimate, the library's 1/2 for dihedral (2, 3) fails": _failed([
            workloads.estimate_job(
                "dihedral", lambda: _estimate("dihedral", 2, 3, trials),
                Fraction(1, 2), trials)]) == 1,
        "cli, true oracle passes": _failed([workloads.cli_process_job(
            "degree --preset quaternion8", workloads._check_degree(oracles.Q8))]) == 0,
        "cli, wrong oracle fails": _failed([workloads.cli_process_job(
            "degree --preset quaternion8", workloads._check_degree(Fraction(1, 2)))]) == 1,
        "output that changes between passes fails": _failed([workloads.Job(
            "drift", lambda: workloads.Outcome(True, key=next(flips)))], passes=3) == 2,
        "a wrong Philox known-answer vector stops set-up": _kat_mismatch_raises(),
        "tracer restores what it wraps": _tracer_restores(),
    }
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if all(checks.values()):
        print("selfcheck: ok")
        return 0
    return 1


def _estimate(preset, m, n, trials):
    from commdeg import sampler

    return sampler.estimate_degree_mn(preset, m, n, trials, 7)


def _kat_mismatch_raises() -> bool:
    counter, key, want = workloads.PHILOX_KAT[0]
    saved = workloads.PHILOX_KAT[:]
    workloads.PHILOX_KAT[0] = (counter, key, ("00000000",) + want[1:])
    try:
        workloads.check_philox_kat()
    except workloads.KnownAnswerMismatch:
        return True
    finally:
        workloads.PHILOX_KAT[:] = saved
    return False


def _tracer_restores() -> bool:
    from commdeg import degrees, groups, towers

    before = (degrees.degree_mn, towers.degree_mn, groups.GroupTable.__init__)
    tracer = Tracer()
    tracer.install()
    wrapped = (degrees.degree_mn, towers.degree_mn, groups.GroupTable.__init__)
    towers.tower_degrees(towers.heisenberg_tower(2, 2))
    tracer.uninstall()
    after = (degrees.degree_mn, towers.degree_mn, groups.GroupTable.__init__)
    seen = tracer.seconds["degrees.mn_s"] > 0 and tracer.counts["kernels.pair_evals"] > 0
    return seen and all(w is not b for w, b in zip(wrapped, before)) and after == before


if __name__ == "__main__":
    sys.exit(main())
