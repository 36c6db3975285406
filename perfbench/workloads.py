"""The benchmark's four workloads: job lists with an oracle check per job.

Each job calls the public commdeg API, or starts the commdeg CLI, and
returns an Outcome saying whether every output matched its oracle. The
commdeg functions are looked up on their modules when a job runs, so the
traced run's wrappers (spans.py) see every call.

Why these workloads:
  spec-to-degree  spec elaboration, closure and table validation dominate,
                  on both validation branches (orders 302 and 512 are
                  above the exhaustive limit of 256). Every job takes
                  well under a second, so that each gets many runs in a
                  benchmark run: on a shared host a job's fastest run is
                  steady only when it is short. For that reason no input
                  reaches the bruteforce route's pairwise limit (order
                  2000): S6 x C3, the cheapest such group, takes 6-13 s.
  power-sweep     one product group built in each pass, then the counting
                  kernels for every (m, n) in {1..4}^2; no generator
                  closure at all.
  monte-carlo     only the RNG and the sampler's predicates work; the one
                  workload that uses the seed.
  cli             the README commands as processes: tables of order <= 256
                  (exhaustive associativity branch), process start and
                  import dominate.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles

# Monte Carlo estimates must sit within this many standard deviations of
# the closed form; a correct sampler misses that with probability below
# 1e-6 per job.
SIGMA_LIMIT = 5.0
# Four of the sampler's 65536-trial chunks per job. The work per trial is
# the same at any count; short jobs give each job about a dozen timed runs
# in one benchmark run, where 1e6 trials would give three or four.
MC_TRIALS = 1 << 18
CLI_TIMEOUT_S = 60


@dataclass
class Outcome:
    """What one job produced, judged against its oracle."""

    ok: bool
    note: str = ""
    key: object = None  # output that must repeat exactly on every pass
    route_mismatch: bool = False  # independent exact routes disagreed
    exact_mismatch: bool = False  # the library's closed form != oracle


@dataclass
class Job:
    name: str
    run: Callable[[], Outcome]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    min_passes: int = 1
    # Jobs the traced run executes; the cli workload runs main() in-process
    # there because spans can only be recorded inside this process.
    traced_jobs: list[Job] = field(default_factory=list)
    # Only the cli workload's pass consists of child processes.
    children: bool = False

    def __post_init__(self):
        if not self.traced_jobs:
            self.traced_jobs = self.jobs


# ---------------------------------------------------------------------------
# spec-to-degree


def _cyclic(n):
    return {"kind": "preset", "name": "cyclic", "params": {"n": n}}


def _product(a, b):
    return {"kind": "product", "a": a, "b": b}


_S5 = {
    "kind": "permgen",
    "degree": 5,
    "generators": [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]],
}
# SL(2, Z) is generated by [[1,1],[0,1]] and [[0,-1],[1,0]] and maps onto
# SL(2, q); diag(2, 1) adds a generator of the determinant group F_q*.
_SL25 = {"kind": "matmodgen", "mod": 5, "dim": 2,
         "generators": [[1, 1, 0, 1], [0, 4, 1, 0]]}
_GL23 = {"kind": "matmodgen", "mod": 3, "dim": 2,
         "generators": [[2, 0, 0, 1], [1, 1, 0, 1], [0, 2, 1, 0]]}
_D4C4_3 = _product(
    {"kind": "preset", "name": "dihedral", "params": {"n": 4}},
    _product(_cyclic(4), _product(_cyclic(4), _cyclic(4))),
)
_CAYLEY_N = 63
_SEMIDIRECT_N = 151


def spec_jobs() -> list[tuple[str, dict, int, Fraction]]:
    """(name, spec, order, oracle) for every spec kind."""
    inversion = [list(range(_SEMIDIRECT_N)),
                 [(-i) % _SEMIDIRECT_N for i in range(_SEMIDIRECT_N)]]
    return [
        ("permgen-S5", _S5, 120, oracles.symmetric(5)),
        ("matmodgen-GL(2,3)", _GL23, 48, oracles.gl2(3)),
        ("matmodgen-SL(2,5)", _SL25, 120, oracles.sl2(5)),
        ("cayley-D63", {"kind": "cayley", "table": oracles.dihedral_cayley(_CAYLEY_N)},
         2 * _CAYLEY_N, oracles.dihedral_odd(_CAYLEY_N)),
        ("product-D4xC4^3", _D4C4_3, 512, oracles.D4),
        ("semidirect-C151xC2", {"kind": "semidirect", "normal": _cyclic(_SEMIDIRECT_N),
                                "acting": _cyclic(2), "action": inversion},
         2 * _SEMIDIRECT_N, oracles.dihedral_odd(_SEMIDIRECT_N)),
        # members 0..3 are the last C4 factor: every other coordinate is 0
        ("quotient-D4xC4^3/C4", {"kind": "quotient", "group": _D4C4_3,
                                 "normal": [0, 1, 2, 3]}, 128, oracles.D4),
    ]


def spec_job(name: str, spec: dict, order: int, oracle: Fraction) -> Job:
    """Spec -> group -> three exact routes, all equal to the oracle."""
    from commdeg import degrees, specs

    def run():
        G = specs.build_group(spec)
        reports = [
            degrees.degree_bruteforce(G),
            degrees.degree_centralizer_sum(G),
            degrees.degree_structural(G),
        ]
        values = {r.value for r in reports}
        mismatch = len(values) != 1
        ok = G.order == order and values == {oracle}
        note = (f"order {G.order} (oracle {order}); "
                + ", ".join(f"{r.method}={r.value}" for r in reports)
                + f"; oracle {oracle}")
        return Outcome(ok, note, key=(G.order, tuple(r.value for r in reports)),
                       route_mismatch=mismatch)

    return Job(name, run)


def spec_to_degree() -> Workload:
    # Specs reach the library as a JSON document would give them.
    return Workload("spec-to-degree", [
        spec_job(name, json.loads(json.dumps(spec)), order, oracle)
        for name, spec, order, oracle in spec_jobs()
    ])


# ---------------------------------------------------------------------------
# power-sweep

# D4 x C4^2 x C3 x C2, order 768: large enough for the counting kernels
# to dominate, small enough for several samples of each job in one run.
_SWEEP_FACTORS = (4, 4, 3, 2)
_SWEEP_ORDER = 768
_TOWER_P, _TOWER_DEPTH = 2, 4


def power_sweep() -> Workload:
    from commdeg import actions, degrees, groups, presets, towers

    state = {}
    s5_table = oracles.symmetric_cayley(5)

    def build():
        G = presets.dihedral(4)
        for k in _SWEEP_FACTORS:
            G = groups.direct_product(G, presets.cyclic(k))
        state["G"] = G
        return Outcome(G.order == _SWEEP_ORDER, f"order {G.order}", key=G.order)

    def mn_job(m, n):
        def run():
            G = state["G"]
            direct = degrees.degree_mn(G, m, n).value
            pushed = degrees.degree_mn_pushforward(G, m, n).value
            want = oracles.d4_power(m, n)
            return Outcome(direct == pushed == want,
                           f"pair count {direct}, pushforward {pushed}, oracle {want}",
                           key=(direct, pushed), route_mismatch=direct != pushed)
        return Job(f"d_{m}{n}", run)

    def tower():
        t = towers.heisenberg_tower(_TOWER_P, _TOWER_DEPTH)
        report = towers.tower_degrees(t)
        straight = towers.straightness_fraction(t, 2, "trivial")
        levels = range(1, _TOWER_DEPTH + 1)
        orders = tuple(oracles.heisenberg_level_order(_TOWER_P, k) for k in levels)
        want_d = (oracles.heisenberg(_TOWER_P),) * _TOWER_DEPTH
        want_f = tuple(oracles.heisenberg2_squares_trivial(k) for k in levels)
        ok = (report.per_level_orders == orders and report.degrees == want_d
              and straight.fractions == want_f)
        note = (f"orders {report.per_level_orders} degrees {report.degrees}"
                f" fractions {straight.fractions}")
        return Outcome(ok, note, key=(report.degrees, straight.fractions))

    def fubini():
        H = groups.direct_product(groups.GroupTable(s5_table, name="S5"),
                                  presets.cyclic(2))
        action = actions.conjugation_action(H)
        mu = degrees.haar(H)
        nu = [Fraction(1, H.order)] * H.order
        via_points = actions.equalizer_prob_via_points(action, mu, nu)
        via_group = actions.equalizer_prob_via_group(action, mu, nu)
        want = oracles.symmetric(5)
        return Outcome(via_points == via_group == want,
                       f"via points {via_points}, via group {via_group}, oracle {want}",
                       key=(via_points, via_group))

    jobs = [Job("build-D4xC4^2xC3xC2", build)]
    jobs += [mn_job(m, n) for m in range(1, 5) for n in range(1, 5)]
    jobs += [Job("heisenberg-tower", tower), Job("fubini-S5xC2", fubini)]
    return Workload("power-sweep", jobs)


# ---------------------------------------------------------------------------
# monte-carlo

# Random123 known-answer vectors for Philox4x32-10: (counter, key, output).
PHILOX_KAT = [
    ((0, 0, 0, 0), (0, 0), ("6627e8d5", "e169c58d", "bc57ac4c", "9b00dbd8")),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF, 0xFFFFFFFF),
     ("408f276d", "41c83b0e", "a20bc7c6", "6d5451fd")),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     ("d16cfe09", "94fdcceb", "5001e420", "24126ea1")),
]


class KnownAnswerMismatch(RuntimeError):
    pass


def check_philox_kat() -> None:
    from commdeg import rng

    for counter, key, want in PHILOX_KAT:
        block = rng.philox4x32(np.array([counter], dtype=np.uint32), *key)[0]
        got = tuple(f"{int(w):08x}" for w in block)
        if got != want:
            raise KnownAnswerMismatch(
                f"philox4x32 counter {counter} key {key}: got {got}, want {want}")


def bernoulli_ok(successes: int, trials: int, p: Fraction) -> bool:
    """Exact count for p in {0, 1}; within SIGMA_LIMIT deviations otherwise."""
    if p in (0, 1):
        return successes == p * trials
    sd = math.sqrt(trials * p * (1 - p))
    return abs(successes - trials * p) <= SIGMA_LIMIT * sd


# (preset, m, n) with the true probability; the dihedral (2, 3) case is
# where the library's own closed form is known to disagree with it.
MC_PRESETS = [
    ("dihedral", 1, 1, oracles.continuous_dihedral(1, 1)),
    ("dihedral", 2, 2, oracles.continuous_dihedral(2, 2)),
    ("dihedral", 2, 3, oracles.continuous_dihedral(2, 3)),
    ("so3", 1, 1, Fraction(0)),
    ("su2", 2, 2, Fraction(0)),
    ("torus", 1, 1, oracles.ABELIAN),
    ("torus-x-quaternion8", 1, 1, oracles.q8_power(1, 1)),
    ("torus-x-quaternion8", 1, 2, oracles.q8_power(1, 2)),
]


def estimate_job(name, estimate, oracle, trials) -> Job:
    def run():
        est = estimate()
        ok = (est.trials == trials and est.mean == est.successes / trials
              and bernoulli_ok(est.successes, trials, oracle))
        note = (f"{est.successes}/{trials} successes, oracle {oracle},"
                f" library exact {est.exact}")
        return Outcome(ok, note, key=est.successes,
                       exact_mismatch=est.exact != oracle)
    return Job(name, run)


def monte_carlo(seed: int) -> Workload:
    from commdeg import groups, presets, sampler

    check_philox_kat()
    trials = MC_TRIALS
    jobs = [
        estimate_job(f"{name}({m},{n})",
                     lambda name=name, m=m, n=n:
                     sampler.estimate_degree_mn(name, m, n, trials, seed),
                     oracle, trials)
        for name, m, n, oracle in MC_PRESETS
    ]
    S4xC3 = groups.direct_product(presets.symmetric(4), presets.cyclic(3))
    jobs.append(estimate_job(
        "finite-S4xC3(1,1)",
        lambda: sampler.estimate_finite(S4xC3, 1, 1, trials, seed),
        oracles.symmetric(4), trials))
    return Workload("monte-carlo", jobs)


# ---------------------------------------------------------------------------
# cli

_FRACTION = r"(\d+(?:/\d+)?)"


def _degree_lines(out: str) -> dict[str, Fraction]:
    found = re.findall(r"^\s+(bruteforce|centralizer_sum|structural)\s+" + _FRACTION,
                       out, re.M)
    return {method: Fraction(value) for method, value in found}


def _check_degree(oracle):
    def check(out):
        values = _degree_lines(out)
        return len(values) == 3 and set(values.values()) == {oracle}
    return check


def _check_degree_mn(oracle):
    def check(out):
        found = re.search(r"d_mn = " + _FRACTION + r" .*\[both routes\]", out)
        return bool(found) and Fraction(found.group(1)) == oracle
    return check


def _check_tower(p, depth):
    def check(out):
        levels = [(int(k), int(order), Fraction(d)) for k, order, d in re.findall(
            r"level (\d+): order (\d+)\s+d = " + _FRACTION, out)]
        want = [(k, oracles.heisenberg_level_order(p, k), oracles.heisenberg(p))
                for k in range(1, depth + 1)]
        stable = f"stabilized at {oracles.heisenberg(p)}" in out
        return levels == want and "antitone: OK" in out and stable
    return check


def _check_not_straight_flips(out):
    # Every flip of O(2) has order 2 and adjoint -1: each of the preset's
    # 360 flip certificates (one per grid angle) is a witness for n = 2,
    # and no rotation is.
    found = re.search(r"NOT n-straight for n=2; witnesses: (\d+) certificate\(s\),"
                      r" e\.g\. flip\(", out)
    return bool(found) and int(found.group(1)) == 360


def _check_straight_so3(out):
    # Ad of a rotation fixes its axis, so eigenvalue 1 blocks total
    # singularity for every n.
    return out.startswith("so3: straight for n=3")


def _check_estimate(trials, oracle):
    def check(out):
        found = re.search(r"mean = ([0-9.]+)", out)
        exact = re.search(r"exact = " + _FRACTION, out)
        if not (found and exact):
            return False
        successes = round(float(found.group(1)) * trials)
        return (bernoulli_ok(successes, trials, oracle)
                and Fraction(exact.group(1)) == oracle)
    return check


def _check_info_s4(out):
    want = [
        "order: 24  abelian: False",
        "center order:            1",
        f"conjugacy classes:       5  sizes {oracles.s4_class_sizes()}",
        "commutator subgroup:     12",
        "char. abelian subgroup:  1",
        f"commutativity degree:    {oracles.symmetric(4)} ",
    ]
    return all(line in out for line in want)


# The eight README commands with the oracle for each printed result.
CLI_COMMANDS = [
    ("degree --preset quaternion8", _check_degree(oracles.Q8)),
    ("degree --preset heisenberg-mod --p 3", _check_degree(oracles.heisenberg(3))),
    ("degree-mn --preset s3 -m 2 -n 1", _check_degree_mn(oracles.s3_power(2, 1))),
    ("tower --preset heisenberg --p 2 --depth 2", _check_tower(2, 2)),
    ("straight --preset continuous-dihedral --n 2", _check_not_straight_flips),
    ("straight --preset so3 --n 3", _check_straight_so3),
    ("estimate --preset dihedral -m 1 -n 1 --trials 100000 --seed 7",
     _check_estimate(100_000, oracles.continuous_dihedral(1, 1))),
    ("info --preset s4", _check_info_s4),
]
CLI_MIN_LAUNCHES = 40


def _judge(rc, out, check) -> Outcome:
    # exit 2 is the CLI's report of exact routes that disagree
    return Outcome(rc == 0 and check(out), f"exit {rc}: {out.strip()[:200]!r}",
                   key=(rc, out), route_mismatch=rc == 2)


def cli_process_job(command: str, check) -> Job:
    argv = command.split()

    def run():
        proc = subprocess.run([sys.executable, "-m", "commdeg.cli", *argv],
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return _judge(proc.returncode, proc.stdout, check)

    return Job(command, run)


def cli_inprocess_job(command: str, check) -> Job:
    from commdeg import cli

    argv = command.split()

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return _judge(rc, buf.getvalue(), check)

    return Job(command, run)


def cli_workload() -> Workload:
    return Workload(
        "cli",
        [cli_process_job(c, check) for c, check in CLI_COMMANDS],
        min_passes=math.ceil(CLI_MIN_LAUNCHES / len(CLI_COMMANDS)),
        traced_jobs=[cli_inprocess_job(c, check) for c, check in CLI_COMMANDS],
        children=True,
    )


WORKLOADS = {
    "spec-to-degree": lambda seed: spec_to_degree(),
    "power-sweep": lambda seed: power_sweep(),
    "monte-carlo": monte_carlo,
    "cli": lambda seed: cli_workload(),
}
