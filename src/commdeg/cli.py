"""Command-line surface.

Subcommands: degree, degree-mn, tower, straight, estimate, info.

Shared flags: ``--group FILE`` or ``--preset NAME`` select the input
(exactly one); ``--p/--n/--depth/--dim`` are preset parameters, while
``-m/-n`` are the power exponents. ``--csv FILE`` switches from the table
renderer to CSV emission. For ``straight`` the power comes from ``--n``
(or ``-n``), defaulting to 2.

CSV schemas:
  degree family: group,order,method,num,den,approx
  estimate:      preset,m,n,trials,seed,mean,stderr,exact_num,exact_den

Exit codes: 0 success, 1 input/parse errors, 2 exact cross-check mismatch,
3 numeric non-convergence.

A subcommand imports only its own modules: each ``cmd_*`` function
imports what it runs when it is called, so ``import commdeg.cli`` loads
no numpy and, for example, ``straight`` loads ``lie`` alone.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from commdeg.errors import (
    DEFAULT_ORDER_CAP,
    AntitoneViolation,
    CommdegError,
    CrossCheckMismatch,
    ModulusViolation,
    NonConvergence,
    UnknownPreset,
)


@dataclass
class RunConfig:
    """Parsed invocation: one input source, powers, sampling, rendering."""

    subcommand: str
    group_file: str | None = None
    preset: str | None = None
    params: dict = field(default_factory=dict)
    m: int = 1
    n: int = 1
    trials: int = 100000
    seed: int = 0
    csv_path: str | None = None
    order_cap: int = DEFAULT_ORDER_CAP
    tol: float = 1e-9

    def __post_init__(self):
        if (self.group_file is None) == (self.preset is None):
            raise ValueError("exactly one of --group FILE or --preset NAME is required")
        if self.m < 1 or self.n < 1:
            raise ValueError("powers must be >= 1")
        if self.subcommand == "estimate" and self.trials < 100:
            raise ValueError("--trials must be at least 100")


def _fmt(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(
        value.numerator
    )


def _approx(value: Fraction) -> str:
    return f"{float(value):.12g}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _degree_rows(reports):
    return [
        (r.group_name, r.group_order, r.method, r.value.numerator,
         r.value.denominator, _approx(r.value))
        for r in reports
    ]


_DEGREE_HEADER = ["group", "order", "method", "num", "den", "approx"]
_ESTIMATE_HEADER = [
    "preset", "m", "n", "trials", "seed", "mean", "stderr", "exact_num", "exact_den",
]


def _load_group(cfg: RunConfig):
    from commdeg.specs import build_group, load_group_spec

    if cfg.group_file is not None:
        spec = load_group_spec(cfg.group_file)
    else:
        spec = {"kind": "preset", "name": cfg.preset, "params": cfg.params}
    return build_group(spec, cfg.order_cap)


def cmd_degree(cfg: RunConfig) -> int:
    from commdeg.degrees import degree_bruteforce, degree_centralizer_sum, degree_structural

    G = _load_group(cfg)
    reports = [
        degree_bruteforce(G),
        degree_centralizer_sum(G),
        degree_structural(G),
    ]
    values = {r.value for r in reports}
    if len(values) != 1:
        raise CrossCheckMismatch(
            "exact methods disagree: "
            + ", ".join(f"{r.method}={_fmt(r.value)}" for r in reports)
        )
    if cfg.csv_path:
        _write_csv(cfg.csv_path, _DEGREE_HEADER, _degree_rows(reports))
        return 0
    print(f"group: {G.name}  order: {G.order}")
    for r in reports:
        print(f"  {r.method:<16} {_fmt(r.value)}  ({_approx(r.value)})")
    return 0


def cmd_degree_mn(cfg: RunConfig) -> int:
    from commdeg.degrees import degree_mn, degree_mn_pushforward

    G = _load_group(cfg)
    direct = degree_mn(G, cfg.m, cfg.n)
    pushed = degree_mn_pushforward(G, cfg.m, cfg.n)
    if direct.value != pushed.value:
        raise CrossCheckMismatch(
            f"pair count {_fmt(direct.value)} != pushforward {_fmt(pushed.value)}"
        )
    if cfg.csv_path:
        _write_csv(cfg.csv_path, _DEGREE_HEADER, _degree_rows([direct, pushed]))
        return 0
    print(f"group: {G.name}  order: {G.order}  m={cfg.m} n={cfg.n}")
    print(f"  d_mn = {_fmt(direct.value)}  ({_approx(direct.value)})  [both routes]")
    return 0


# Tower presets by name; ``NAME`` is built by ``towers.NAME_tower``.
_TOWER_PRESETS = ("cyclic", "elementary", "heisenberg")


def cmd_tower(cfg: RunConfig) -> int:
    from commdeg import schemas, towers

    if cfg.group_file is not None:
        tower = schemas.load_tower(cfg.group_file, cfg.order_cap)
    else:
        if cfg.preset not in _TOWER_PRESETS:
            raise UnknownPreset(
                f"unknown tower preset {cfg.preset!r}; known: " + ", ".join(_TOWER_PRESETS)
            )
        builder = getattr(towers, f"{cfg.preset}_tower")
        p = cfg.params.get("p")
        if p is None:
            raise ValueError("tower presets need --p")
        depth = cfg.params.get("depth", 2)
        tower = builder(int(p), int(depth), order_cap=cfg.order_cap)
    report = towers.tower_degrees(tower, cfg.m, cfg.n)
    if cfg.csv_path:
        rows = [
            (f"{tower.name}:L{k + 1}", order, "bruteforce",
             d.numerator, d.denominator, _approx(d))
            for k, (order, d) in enumerate(zip(report.per_level_orders, report.degrees))
        ]
        _write_csv(cfg.csv_path, _DEGREE_HEADER, rows)
        return 0
    print(f"tower: {tower.name}  m={cfg.m} n={cfg.n}")
    for k, (order, d) in enumerate(zip(report.per_level_orders, report.degrees)):
        print(f"  level {k + 1}: order {order:<6} d = {_fmt(d)}  ({_approx(d)})")
    print("  antitone: OK")
    if report.stabilized_value is not None:
        print(f"  stabilized at {_fmt(report.stabilized_value)}"
              f" (last {towers.STABILIZATION_LEVELS} levels agree)")
    return 0


def cmd_straight(cfg: RunConfig) -> int:
    from commdeg.lie import build_lie_preset, straightness_verdict

    if cfg.group_file is not None:
        from commdeg import schemas

        preset = schemas.load_certificates(cfg.group_file)
    else:
        preset = build_lie_preset(cfg.preset, cfg.params)
    n = cfg.n
    verdict = straightness_verdict(preset, n, cfg.tol)
    if cfg.csv_path:
        rows = [(preset.name, n, int(verdict.straight), len(verdict.witnesses),
                 verdict.witnesses[0][0].label if verdict.witnesses else "")]
        _write_csv(cfg.csv_path, ["preset", "n", "straight", "witnesses", "first_witness"], rows)
        return 0
    if verdict.straight:
        print(f"{preset.name}: straight for n={n} ({verdict.caveat})")
    else:
        first = verdict.witnesses[0][0]
        print(
            f"{preset.name}: NOT n-straight for n={n};"
            f" witnesses: {len(verdict.witnesses)} certificate(s), e.g. {first.label}"
        )
        print(f"  reason: {verdict.witnesses[0][2]}")
        print(f"  ({verdict.caveat})")
    for note in verdict.notes[:3]:
        print(f"  note: {note}")
    return 0


def cmd_estimate(cfg: RunConfig) -> int:
    from commdeg.sampler import estimate_degree_mn, estimate_finite, get_sampler_preset

    est = None
    if cfg.preset is not None:
        try:
            sampler_preset = get_sampler_preset(cfg.preset, dim=cfg.params.get("dim", 1))
        except UnknownPreset:
            sampler_preset = None
        if sampler_preset is not None:
            est = estimate_degree_mn(sampler_preset, cfg.m, cfg.n, cfg.trials, cfg.seed)
    if est is None:
        G = _load_group(cfg)
        est = estimate_finite(G, cfg.m, cfg.n, cfg.trials, cfg.seed)
    if cfg.csv_path:
        row = (est.preset, est.m, est.n, est.trials, est.seed,
               f"{est.mean:.12g}", f"{est.stderr:.12g}",
               est.exact.numerator if est.exact is not None else "",
               est.exact.denominator if est.exact is not None else "")
        _write_csv(cfg.csv_path, _ESTIMATE_HEADER, [row])
        return 0
    print(f"preset: {est.preset}  m={est.m} n={est.n}  trials={est.trials} seed={est.seed}")
    print(f"  mean = {est.mean:.6f}  stderr = {est.stderr:.6f}")
    if est.exact is not None:
        print(f"  exact = {_fmt(est.exact)}  ({_approx(est.exact)})"
              f"  deviation = {est.sigma_off:.2f} sigma [{est.consistency}]")
    return 0


def cmd_info(cfg: RunConfig) -> int:
    from commdeg.degrees import degree_bruteforce
    from commdeg.groups import (
        center,
        characteristic_abelian_subgroup,
        commutator_subgroup,
        conjugacy_classes,
    )

    G = _load_group(cfg)
    classes = conjugacy_classes(G)
    z = center(G)
    gp = commutator_subgroup(G)
    ag = characteristic_abelian_subgroup(G)
    d = degree_bruteforce(G).value
    if cfg.csv_path:
        _write_csv(
            cfg.csv_path,
            ["group", "order", "abelian", "center", "classes", "commutator",
             "char_abelian", "num", "den", "approx"],
            [(G.name, G.order, int(G.is_abelian()), z.order, len(classes),
              gp.order, ag.order, d.numerator, d.denominator, _approx(d))],
        )
        return 0
    print(f"group: {G.name}  order: {G.order}  abelian: {G.is_abelian()}")
    print(f"  center order:            {z.order}")
    print(f"  conjugacy classes:       {len(classes)}  sizes {sorted(len(c) for c in classes)}")
    print(f"  commutator subgroup:     {gp.order}")
    print(f"  char. abelian subgroup:  {ag.order}")
    print(f"  commutativity degree:    {_fmt(d)}  ({_approx(d)})")
    return 0


_COMMANDS = {
    "degree": cmd_degree,
    "degree-mn": cmd_degree_mn,
    "tower": cmd_tower,
    "straight": cmd_straight,
    "estimate": cmd_estimate,
    "info": cmd_info,
}


def _add_common(sub):
    sub.add_argument("--group", metavar="FILE", help="JSON input document")
    sub.add_argument("--preset", metavar="NAME", help="named preset")
    sub.add_argument("--p", type=int, dest="param_p", help="preset parameter p")
    sub.add_argument("--n", type=int, dest="param_n", help="preset parameter n")
    sub.add_argument("--depth", type=int, dest="param_depth", help="tower depth")
    sub.add_argument("--dim", type=int, dest="param_dim", help="preset dimension")
    sub.add_argument("-m", type=int, default=1, dest="power_m", help="first power")
    sub.add_argument("-n", type=int, dest="power_n", help="second power")
    sub.add_argument("--trials", type=int, default=100000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--csv", metavar="FILE", dest="csv_path")
    sub.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP, dest="order_cap",
                     help="lower the order cap for the loaded group")
    sub.add_argument("--tol", type=float, default=1e-9)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commdeg",
        description="Exact and Monte Carlo commuting probabilities on groups",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        _add_common(subs.add_parser(name))
    return parser


def _config_from_args(args) -> RunConfig:
    params = {}
    if args.param_p is not None:
        params["p"] = args.param_p
    if args.param_n is not None:
        params["n"] = args.param_n
    if args.param_depth is not None:
        params["depth"] = args.param_depth
    if args.param_dim is not None:
        params["dim"] = args.param_dim
    if args.subcommand == "straight":
        # the straightness power is conventionally given as --n
        n = args.param_n if args.param_n is not None else args.power_n
        n = 2 if n is None else n
    else:
        n = args.power_n if args.power_n is not None else 1
    return RunConfig(
        subcommand=args.subcommand,
        group_file=args.group,
        preset=args.preset,
        params=params,
        m=args.power_m,
        n=n,
        trials=args.trials,
        seed=args.seed,
        csv_path=args.csv_path,
        order_cap=args.order_cap,
        tol=args.tol,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.subcommand](cfg)
    except (CrossCheckMismatch, AntitoneViolation) as exc:
        print(f"cross-check error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, ModulusViolation) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (CommdegError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
