"""Command-line surface.

Subcommands: degree, degree-mn, tower, straight, estimate, info.

Flags: every subcommand takes ``--group FILE`` or ``--preset NAME``
(exactly one) and ``--csv FILE``, which switches from the table renderer
to CSV emission; ``_COMMANDS`` gives each subcommand the other flags it
reads and no more, so a flag it would ignore is a usage error.
``--p/--n/--depth/--dim`` are preset parameters: ``--group`` refuses them
all, and every preset (group, tower, sampler, Lie) refuses one it does not
read. ``-m/-n`` are the power exponents. ``straight`` reads its power from
one option spelled ``-n`` or ``--n``, defaulting to 2.

Each ``cmd_*`` function writes nothing: it returns its CSV header, its CSV
rows and its text lines, and ``main`` writes the CSV or prints the lines.

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
    order_cap,
)


def _approx(value: Fraction) -> str:
    return f"{float(value):.12g}"


_DEGREE_HEADER = ["group", "order", "method", "num", "den", "approx"]


def _degree_row(name, order, method, value: Fraction):
    return (name, order, method, value.numerator, value.denominator, _approx(value))


def _source(args, from_file, from_preset):
    """``from_file(path)`` for ``--group`` or ``from_preset(name, params)``
    for ``--preset``: the one choice between the two sources."""
    if args.group is not None:
        return from_file(args.group)
    return from_preset(args.preset, args.params)


def _load_group(args):
    from commdeg.specs import build_group, load_group_spec

    spec = _source(args, load_group_spec,
                   lambda name, params: {"kind": "preset", "name": name, "params": params})
    return build_group(spec)


def _agree(reports):
    """The exact routes' reports, if they all give one value; otherwise
    CrossCheckMismatch naming the group, every route and its value."""
    if len({r.value for r in reports}) != 1:
        raise CrossCheckMismatch(
            f"exact routes disagree on {reports[0].group_name}"
            f" (order {reports[0].group_order}): "
            + ", ".join(f"{r.method}={r.value!s}" for r in reports)
        )
    return reports


def cmd_degree(args):
    from commdeg.degrees import degree_bruteforce, degree_centralizer_sum, degree_structural

    G = _load_group(args)
    reports = _agree([degree_bruteforce(G), degree_centralizer_sum(G), degree_structural(G)])
    return _DEGREE_HEADER, [_degree_row(G.name, G.order, r.method, r.value) for r in reports], [
        f"group: {G.name}  order: {G.order}",
        *(f"  {r.method:<16} {r.value!s}  ({_approx(r.value)})" for r in reports)]


def cmd_degree_mn(args):
    from commdeg.degrees import degree_mn, degree_mn_pushforward

    G = _load_group(args)
    reports = _agree([degree_mn(G, args.m, args.n), degree_mn_pushforward(G, args.m, args.n)])
    d = reports[0].value
    return _DEGREE_HEADER, [_degree_row(G.name, G.order, r.method, r.value) for r in reports], [
        f"group: {G.name}  order: {G.order}  m={args.m} n={args.n}",
        f"  d_mn = {d!s}  ({_approx(d)})  [both routes]"]


def cmd_tower(args):
    from commdeg import schemas, towers

    tower = _source(args, schemas.load_tower, towers.build_tower_preset)
    report = towers.tower_degrees(tower, args.m, args.n)
    levels = list(enumerate(zip(report.per_level_orders, report.degrees), start=1))
    lines = [f"tower: {tower.name}  m={args.m} n={args.n}"]
    lines += [f"  level {k}: order {order:<6} d = {d!s}  ({_approx(d)})"
              for k, (order, d) in levels]
    lines.append("  antitone: OK")
    if report.stabilized_value is not None:
        lines.append(f"  stabilized at {report.stabilized_value!s}"
                     f" (last {towers.STABILIZATION_LEVELS} levels agree)")
    return _DEGREE_HEADER, [_degree_row(f"{tower.name}:L{k}", order, "bruteforce", d)
                            for k, (order, d) in levels], lines


def cmd_straight(args):
    from commdeg.lie import build_lie_preset, straightness_verdict
    from commdeg.schemas import load_certificates

    preset = _source(args, load_certificates, build_lie_preset)
    n = args.n
    verdict = straightness_verdict(preset, n, args.tol)
    if verdict.straight:
        first = ""
        lines = [f"{preset.name}: straight for n={n} ({verdict.caveat})"]
    else:
        first = verdict.witnesses[0][0].label
        lines = [
            f"{preset.name}: NOT n-straight for n={n};"
            f" witnesses: {len(verdict.witnesses)} certificate(s), e.g. {first}",
            f"  reason: {verdict.witnesses[0][2]}",
            f"  ({verdict.caveat})",
        ]
    lines += [f"  note: {note}" for note in verdict.notes[:3]]
    return (["preset", "n", "straight", "witnesses", "first_witness"],
            [(preset.name, n, int(verdict.straight), len(verdict.witnesses), first)], lines)


def cmd_estimate(args):
    from commdeg import sampler

    # a sampler preset name wins: "dihedral" here is O(2), not the finite D_n
    if args.preset in sampler._PRESETS:
        preset = sampler.get_sampler_preset(args.preset, **args.params)
        est = sampler.estimate_degree_mn(preset, args.m, args.n, args.trials, args.seed)
    else:
        G = _load_group(args)
        est = sampler.estimate_finite(G, args.m, args.n, args.trials, args.seed)
    exact = est.exact
    lines = [f"preset: {est.preset}  m={est.m} n={est.n}  trials={est.trials} seed={est.seed}",
             f"  mean = {est.mean:.6f}  stderr = {est.stderr:.6f}"]
    if exact is not None:
        lines.append(f"  exact = {exact!s}  ({_approx(exact)})"
                     f"  deviation = {est.sigma_off:.2f} sigma [{est.consistency}]")
    row = (est.preset, est.m, est.n, est.trials, est.seed, f"{est.mean:.12g}", f"{est.stderr:.12g}",
           *((exact.numerator, exact.denominator) if exact is not None else ("", "")))
    return (["preset", "m", "n", "trials", "seed", "mean", "stderr", "exact_num", "exact_den"],
            [row], lines)


def cmd_info(args):
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
    return (
        ["group", "order", "abelian", "center", "classes", "commutator",
         "char_abelian", "num", "den", "approx"],
        [(G.name, G.order, int(G.is_abelian()), z.order, len(classes),
          gp.order, ag.order, d.numerator, d.denominator, _approx(d))],
        [f"group: {G.name}  order: {G.order}  abelian: {G.is_abelian()}",
         f"  center order:            {z.order}",
         f"  conjugacy classes:       {len(classes)}  sizes {sorted(len(c) for c in classes)}",
         f"  commutator subgroup:     {gp.order}",
         f"  char. abelian subgroup:  {ag.order}",
         f"  commutativity degree:    {d!s}  ({_approx(d)})"],
    )


# Every subcommand takes --group, --preset and --csv, then the flags listed
# in _COMMANDS; one option may have several spellings, joined by "/".
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
# subcommand -> (its function, its flags besides --group, --preset and --csv)
_COMMANDS = {
    "degree": (cmd_degree, ("--p", "--n", "--order-cap")),
    "degree-mn": (cmd_degree_mn, ("--p", "--n", "-m", "-n", "--order-cap")),
    "tower": (cmd_tower, ("--p", "--depth", "-m", "-n", "--order-cap")),
    "straight": (cmd_straight, ("--dim", "--tol", "-n/--n")),
    "estimate": (cmd_estimate,
                 ("--p", "--n", "--dim", "-m", "-n", "--trials", "--seed", "--order-cap")),
    "info": (cmd_info, ("--p", "--n", "--order-cap")),
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
    for name, (_, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, allow_abbrev=False)
        for flag in ("--group", "--preset", "--csv") + flags:
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
        # straight builds no group table, so it takes no --order-cap
        with order_cap(getattr(args, "order_cap", DEFAULT_ORDER_CAP)):
            header, rows, lines = _COMMANDS[args.subcommand][0](args)
        if args.csv_path:
            with open(args.csv_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        else:
            print("\n".join(lines))
        return 0
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
