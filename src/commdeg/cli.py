"""Command-line surface.

Subcommands: degree, degree-mn, tower, straight, estimate, info.

Flags: every subcommand takes ``--group FILE`` or ``--preset NAME``
(exactly one) and ``--csv FILE``, which switches from the table renderer
to CSV emission; ``_TABLE`` gives each subcommand the other flags it
reads and no more, so a flag it would ignore is a usage error.
``--p/--n/--depth/--dim`` are preset parameters: ``--group`` refuses them
all, and every preset (group, tower, sampler, Lie) refuses one it does not
read. ``-m/-n`` are the power exponents. ``straight`` reads its power from
one option spelled ``-n`` or ``--n``, defaulting to 2.

CSV schemas:
  degree family: group,order,method,num,den,approx
  estimate:      preset,m,n,trials,seed,mean,stderr,exact_num,exact_den

Exit codes: 0 success, 1 input and usage errors, 2 exact cross-check
mismatch, 3 numeric non-convergence.

A subcommand imports only its own modules: each ``cmd_*`` function
imports what it runs when it is called, so ``import commdeg.cli`` loads
no numpy and, for example, ``straight`` loads ``lie`` and no group code.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from commdeg.errors import (
    DEFAULT_ORDER_CAP,
    AntitoneViolation,
    CommdegError,
    CrossCheckMismatch,
    ModulusViolation,
    NonConvergence,
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


def _load_group(args):
    from commdeg.specs import build_group, load_group_spec

    if args.group is not None:
        spec = load_group_spec(args.group)
    else:
        spec = {"kind": "preset", "name": args.preset, "params": args.params}
    return build_group(spec, args.order_cap)


def cmd_degree(args) -> int:
    from commdeg.degrees import degree_bruteforce, degree_centralizer_sum, degree_structural

    G = _load_group(args)
    reports = [
        degree_bruteforce(G),
        degree_centralizer_sum(G),
        degree_structural(G),
    ]
    values = {r.value for r in reports}
    if len(values) != 1:
        raise CrossCheckMismatch(
            "exact methods disagree: "
            + ", ".join(f"{r.method}={r.value!s}" for r in reports)
        )
    if args.csv_path:
        _write_csv(args.csv_path, _DEGREE_HEADER, _degree_rows(reports))
        return 0
    print(f"group: {G.name}  order: {G.order}")
    for r in reports:
        print(f"  {r.method:<16} {r.value!s}  ({_approx(r.value)})")
    return 0


def cmd_degree_mn(args) -> int:
    from commdeg.degrees import degree_mn, degree_mn_pushforward

    G = _load_group(args)
    direct = degree_mn(G, args.m, args.n)
    pushed = degree_mn_pushforward(G, args.m, args.n)
    if direct.value != pushed.value:
        raise CrossCheckMismatch(
            f"pair count {direct.value!s} != pushforward {pushed.value!s}"
        )
    if args.csv_path:
        _write_csv(args.csv_path, _DEGREE_HEADER, _degree_rows([direct, pushed]))
        return 0
    print(f"group: {G.name}  order: {G.order}  m={args.m} n={args.n}")
    print(f"  d_mn = {direct.value!s}  ({_approx(direct.value)})  [both routes]")
    return 0


def cmd_tower(args) -> int:
    from commdeg import schemas, towers

    if args.group is not None:
        tower = schemas.load_tower(args.group, args.order_cap)
    else:
        tower = towers.build_tower_preset(args.preset, args.params, args.order_cap)
    report = towers.tower_degrees(tower, args.m, args.n)
    if args.csv_path:
        rows = [
            (f"{tower.name}:L{k + 1}", order, "bruteforce",
             d.numerator, d.denominator, _approx(d))
            for k, (order, d) in enumerate(zip(report.per_level_orders, report.degrees))
        ]
        _write_csv(args.csv_path, _DEGREE_HEADER, rows)
        return 0
    print(f"tower: {tower.name}  m={args.m} n={args.n}")
    for k, (order, d) in enumerate(zip(report.per_level_orders, report.degrees)):
        print(f"  level {k + 1}: order {order:<6} d = {d!s}  ({_approx(d)})")
    print("  antitone: OK")
    if report.stabilized_value is not None:
        print(f"  stabilized at {report.stabilized_value!s}"
              f" (last {towers.STABILIZATION_LEVELS} levels agree)")
    return 0


def cmd_straight(args) -> int:
    from commdeg.lie import build_lie_preset, straightness_verdict
    from commdeg.schemas import load_certificates

    if args.group is not None:
        preset = load_certificates(args.group)
    else:
        preset = build_lie_preset(args.preset, args.params)
    n = args.n
    verdict = straightness_verdict(preset, n, args.tol)
    if args.csv_path:
        rows = [(preset.name, n, int(verdict.straight), len(verdict.witnesses),
                 verdict.witnesses[0][0].label if verdict.witnesses else "")]
        _write_csv(args.csv_path, ["preset", "n", "straight", "witnesses", "first_witness"], rows)
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


def cmd_estimate(args) -> int:
    from commdeg import sampler

    # a sampler preset name wins: "dihedral" here is O(2), not the finite D_n
    if args.preset in sampler._PRESETS:
        preset = sampler.get_sampler_preset(args.preset, **args.params)
        est = sampler.estimate_degree_mn(preset, args.m, args.n, args.trials, args.seed)
    else:
        G = _load_group(args)
        est = sampler.estimate_finite(G, args.m, args.n, args.trials, args.seed)
    if args.csv_path:
        row = (est.preset, est.m, est.n, est.trials, est.seed,
               f"{est.mean:.12g}", f"{est.stderr:.12g}",
               est.exact.numerator if est.exact is not None else "",
               est.exact.denominator if est.exact is not None else "")
        _write_csv(args.csv_path, _ESTIMATE_HEADER, [row])
        return 0
    print(f"preset: {est.preset}  m={est.m} n={est.n}  trials={est.trials} seed={est.seed}")
    print(f"  mean = {est.mean:.6f}  stderr = {est.stderr:.6f}")
    if est.exact is not None:
        print(f"  exact = {est.exact!s}  ({_approx(est.exact)})"
              f"  deviation = {est.sigma_off:.2f} sigma [{est.consistency}]")
    return 0


def cmd_info(args) -> int:
    from commdeg.degrees import degree_bruteforce
    from commdeg.groups import (
        center,
        characteristic_abelian_subgroup,
        commutator_subgroup,
        conjugacy_classes,
    )

    G = _load_group(args)
    classes = conjugacy_classes(G)
    z = center(G)
    gp = commutator_subgroup(G)
    ag = characteristic_abelian_subgroup(G)
    d = degree_bruteforce(G).value
    if args.csv_path:
        _write_csv(
            args.csv_path,
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
    print(f"  commutativity degree:    {d!s}  ({_approx(d)})")
    return 0


_COMMANDS = {
    "degree": cmd_degree,
    "degree-mn": cmd_degree_mn,
    "tower": cmd_tower,
    "straight": cmd_straight,
    "estimate": cmd_estimate,
    "info": cmd_info,
}


# Every subcommand takes --group, --preset and --csv, then its flags in
# _TABLE; one option may have several spellings, joined by "/".
_FLAGS = {
    "--group": dict(metavar="FILE", help="JSON input document"),
    "--preset": dict(metavar="NAME", help="named preset"),
    "--csv": dict(metavar="FILE", dest="csv_path"),
    "--p": dict(type=int, dest="param_p", help="preset parameter p"),
    "--n": dict(type=int, dest="param_n", help="preset parameter n"),
    "--depth": dict(type=int, dest="param_depth", help="tower depth"),
    "--dim": dict(type=int, dest="param_dim", help="preset dimension"),
    "-m": dict(type=int, default=1, help="first power"),
    "-n": dict(type=int, default=1, help="second power"),
    "-n/--n": dict(type=int, default=2, help="power"),
    "--trials": dict(type=int, default=100000),
    "--seed": dict(type=int, default=0),
    "--order-cap": dict(type=int, default=DEFAULT_ORDER_CAP,
                        help="lower the order cap for the loaded group"),
    "--tol": dict(type=float, default=1e-9),
}
_TABLE = {
    "degree": ("--p", "--n", "--order-cap"),
    "degree-mn": ("--p", "--n", "-m", "-n", "--order-cap"),
    "tower": ("--p", "--depth", "-m", "-n", "--order-cap"),
    "straight": ("--dim", "--tol", "-n/--n"),
    "estimate": ("--p", "--n", "--dim", "-m", "-n", "--trials", "--seed", "--order-cap"),
    "info": ("--p", "--n", "--order-cap"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so ``main`` returns 1 for them; argparse
    would exit 2, the cross-check code."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: --d would be --depth under tower and --dim under estimate
    parser = _Parser(
        prog="commdeg",
        description="Exact and Monte Carlo commuting probabilities on groups",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        sub = subs.add_parser(name, allow_abbrev=False)
        for flag in ("--group", "--preset", "--csv") + _TABLE[name]:
            sub.add_argument(*flag.split("/"), **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise ValueError(
                f"commdeg {args.subcommand}: unrecognized arguments: {' '.join(extra)}"
            )
        args.params = {name.removeprefix("param_"): value
                       for name, value in vars(args).items()
                       if name.startswith("param_") and value is not None}
        if (args.group is None) == (args.preset is None):
            raise ValueError("exactly one of --group FILE or --preset NAME is required")
        if args.group is not None and args.params:
            raise ValueError(
                "a --group file reads no preset parameters: "
                + ", ".join(f"--{name}" for name in args.params)
            )
        if min(getattr(args, "m", 1), getattr(args, "n", 1)) < 1:
            raise ValueError("powers must be >= 1")
        if getattr(args, "trials", 100) < 100:
            raise ValueError("--trials must be at least 100")
        return _COMMANDS[args.subcommand](args)
    except (CrossCheckMismatch, AntitoneViolation) as exc:
        print(f"cross-check error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, ModulusViolation) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except KeyError as exc:
        print(f"error: input is missing key {exc}", file=sys.stderr)
        return 1
    except (CommdegError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
