"""Shared fixtures: the group corpus and independent brute-force oracles.

Oracles here deliberately avoid the library's own code paths (plain Python
loops, independent constructions) so expected values are computed twice.
"""
from __future__ import annotations

import itertools
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import commdeg
from commdeg.errors import InvalidAction, NonAssociative, NotLatin
from commdeg.groups import GroupTable, Subgroup, quotient
from commdeg.specs import build_group

# ---------------------------------------------------------------------------
# subprocess environment


def _subprocess_env() -> dict:
    """This process's environment with the directory ``commdeg`` was imported
    from put first on ``PYTHONPATH``.

    A spawned ``python`` then finds the same package whether it was
    installed, reached through ``PYTHONPATH=src`` or added to ``sys.path``.
    """
    root = str(Path(commdeg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return env


# environment for every test that spawns a ``commdeg`` process
SUBPROCESS_ENV = _subprocess_env()


# ---------------------------------------------------------------------------
# independent oracles


def oracle_commuting_count(table) -> int:
    n = len(table)
    return sum(
        1 for x in range(n) for y in range(n) if table[x][y] == table[y][x]
    )


def oracle_commuting_count_mn(table, m, n_pow) -> int:
    n = len(table)

    def power(g, k):
        acc = 0
        for _ in range(k):
            acc = table[acc][g]
        return acc

    pm = [power(g, m) for g in range(n)]
    pn = [power(g, n_pow) for g in range(n)]
    return oracle_commuting_count_maps(table, pm, pn)


def oracle_commuting_count_maps(table, pm, pn) -> int:
    """Pairs (x, y) with pm[x] and pn[y] commuting, one pair at a time."""
    return sum(1 for u in pm for v in pn if table[u][v] == table[v][u])


def oracle_is_associative(table) -> bool:
    """(x y) z == x (y z) for every triple, one triple at a time."""
    n = len(table)
    return all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def swap_intercalate(table):
    """Copy of a Latin table with its first intercalate off row and column 0
    swapped, or None when it has none.

    An intercalate is a 2x2 subsquare: rows a, b and columns c, d with
    table[a][c] == table[b][d] and table[a][d] == table[b][c]. Exchanging
    its two symbols keeps the square Latin and the identity at 0; a group
    table has one only if the group has an involution (c d^-1).
    """
    n = len(table)
    pos = [{v: j for j, v in enumerate(row)} for row in table]
    for a in range(1, n):
        for b in range(a + 1, n):
            for c in range(1, n):
                d = pos[a][table[b][c]]
                if d > c and table[b][d] == table[a][c]:
                    out = [list(row) for row in table]
                    out[a][c], out[a][d] = out[a][d], out[a][c]
                    out[b][c], out[b][d] = out[b][d], out[b][c]
                    return out
    return None


def oracle_inverse(table, g) -> int:
    return next(h for h in range(len(table)) if table[g][h] == 0)


def oracle_centralizer(table, g):
    return [h for h in range(len(table)) if table[g][h] == table[h][g]]


def oracle_classes(table):
    n = len(table)
    seen = set()
    classes = []
    for x in range(n):
        if x in seen:
            continue
        orbit = set()
        for g in range(n):
            orbit.add(table[table[g][x]][oracle_inverse(table, g)])
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def oracle_right_closure(table, gens, start=(0,)):
    """The least set holding ``start`` and holding x g for each of its x and
    each g in ``gens``: a breadth-first search on the table as lists, one
    element at a time."""
    members = set(start)
    frontier = list(start)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = table[x][g]
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(members)


def oracle_subgroup_closure(table, gens):
    """The subgroup the elements generate: the right closure of the
    identity under them and their inverses."""
    inverses = {oracle_inverse(table, g) for g in gens}
    return oracle_right_closure(table, set(gens) | inverses)


def oracle_commutator_subgroup(table):
    """G' as the closure of every commutator x^-1 y^-1 x y, plain loops."""
    n = len(table)
    comms = {
        table[table[oracle_inverse(table, x)][oracle_inverse(table, y)]][table[x][y]]
        for x in range(n)
        for y in range(n)
    }
    return oracle_subgroup_closure(table, comms)


def oracle_char_abelian(table):
    """Z(Z(G', G)) straight from its definition, all plain loops."""
    n = len(table)
    gprime = oracle_commutator_subgroup(table)
    zc = [g for g in range(n) if all(table[g][c] == table[c][g] for c in gprime)]
    return [c for c in zc if all(table[c][d] == table[d][c] for d in zc)]


def oracle_is_normal(table, members):
    """g h g^-1 lies in the member set for every g in G and h in it."""
    inside = set(members)
    for g in range(len(table)):
        g_inv = oracle_inverse(table, g)
        if any(table[table[g][h]][g_inv] not in inside for h in members):
            return False
    return True


def oracle_is_closed(table, members) -> bool:
    """a b lies in the member set for every pair of members."""
    inside = set(members)
    return all(table[a][b] in inside for a in members for b in members)


def oracle_generating_picks(table, members) -> tuple[int, ...]:
    """Generators of a subgroup picked one at a time: each is the least
    member outside the subgroup the picks before it generate."""
    picks, reached = [], {0}
    while left := sorted(set(members) - reached):
        picks.append(left[0])
        reached = set(oracle_subgroup_closure(table, picks))
    return tuple(picks)


def oracle_equalizer_via_points(act, mu, nu) -> Fraction:
    """sum_x nu(x) * mu(G_x) as a Fraction loop over the action table's
    rows as lists, one point at a time."""
    total = Fraction(0)
    for x in range(len(act[0])):
        if nu[x] == 0:
            continue
        total += nu[x] * sum((mu[g] for g, row in enumerate(act) if row[x] == x), Fraction(0))
    return total


def oracle_equalizer_via_group(act, mu, nu) -> Fraction:
    """sum_g mu(g) * nu(X_g) as a Fraction loop, one group element at a time."""
    total = Fraction(0)
    for g, row in enumerate(act):
        if mu[g] == 0:
            continue
        total += mu[g] * sum((nu[x] for x, y in enumerate(row) if y == x), Fraction(0))
    return total


def oracle_orbits(act):
    """Orbits of an action table, each the set of images of its least
    point under every group element, ordered by least point."""
    act = [list(row) for row in act]
    seen, out = set(), []
    for x in range(len(act[0])):
        if x not in seen:
            orbit = sorted({row[x] for row in act})
            seen.update(orbit)
            out.append(tuple(orbit))
    return out


def oracle_sign_flip_forms(n):
    """(t, (1 + 3t)/4, ((1 + t)/2)^2) for A = C_n, t the fraction of a in A
    with 2a = 0. These are the two closed forms offered for d(C_n x| C_2)
    under inversion: the pair count gives the linear one, and the squared
    one, which agrees with it only at t = 0, overcounts the flip-flip
    pairs (they commute when 2(a - a') = 0, a set of measure t, not when
    both a and a' are 2-torsion)."""
    t = Fraction(sum(1 for a in range(n) if 2 * a % n == 0), n)
    return t, (1 + 3 * t) / 4, ((1 + t) / 2) ** 2


def inversion_semidirect(n):
    """C_n x| C_2, the generator of C_2 acting on C_n by inversion."""
    from commdeg.groups import semidirect_product
    from commdeg.presets import cyclic

    return semidirect_product(cyclic(n), cyclic(2), _inversion_action(n))


def oracle_q8_table():
    """Q8 as signed integer quaternions under the quaternion product.

    Independent of the package's symbol-table construction; elements are
    4-tuples over {-1,0,1} ordered 1,-1,i,-i,j,-j,k,-k.
    """

    def qmul(a, b):
        w1, x1, y1, z1 = a
        w2, x2, y2, z2 = b
        return (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    elems = [
        (1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
        (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1),
    ]
    pos = {e: i for i, e in enumerate(elems)}
    return [[pos[qmul(a, b)] for b in elems] for a in elems]


def oracle_s3_table():
    """S3 from itertools.permutations with (p*q)(i) = p(q(i))."""
    perms = [(0, 1, 2)] + [p for p in itertools.permutations(range(3)) if p != (0, 1, 2)]
    pos = {p: i for i, p in enumerate(perms)}
    return [
        [pos[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms
    ]


def oracle_normal_subgroups(G: GroupTable, max_classes=12):
    """All normal subgroups as class-union subsets (None if too many classes)."""
    table = G.mult.tolist()
    classes = oracle_classes(table)
    if len(classes) > max_classes:
        return None
    rest = [c for c in classes if 0 not in c]
    out = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            members = set(classes[0][:1])
            members.add(0)
            for c in combo:
                members |= set(c)
            if G.order % len(members) != 0:
                continue
            if all(table[a][b] in members for a in members for b in members):
                out.append(tuple(sorted(members)))
    return out


def oracle_philox4x32(counter, key):
    """Philox4x32-10 on one counter (four ints) under one key (two ints).

    Plain Python ints throughout: each round's 32x32 -> 64-bit product is
    split into its high and low words by shift and mask (Salmon et al.,
    SC'11, the Random123 reference round).
    """
    mask = 0xFFFFFFFF
    x0, x1, x2, x3 = counter
    k0, k1 = key
    for _ in range(10):
        p0 = 0xD2511F53 * x0
        p1 = 0xCD9E8D57 * x2
        x0, x1, x2, x3 = (p1 >> 32) ^ x1 ^ k0, p1 & mask, (p0 >> 32) ^ x3 ^ k1, p0 & mask
        k0 = (k0 + 0x9E3779B9) & mask
        k1 = (k1 + 0xBB67AE85) & mask
    return x0, x1, x2, x3


def oracle_torus_power(angles, k):
    """x^k on the torus, reduced mod 1 by ``%``."""
    return (k * angles) % 1.0


def oracle_dihedral_power(arrays, k):
    """x^k on the continuous dihedral group, reduced mod 1 by ``%``."""
    angles, signs = arrays
    if k % 2 == 0:
        pos = (k * angles) % 1.0
        return np.where(signs == 1, pos, 0.0), np.ones_like(signs)
    return np.where(signs == 1, (k * angles) % 1.0, angles), signs


def oracle_dihedral_commute(xa, ya):
    """The dihedral predicate with each doubling condition as ``% 1.0 == 0``."""
    ax, sx = xa
    ay, sy = ya
    both_rot = (sx == 1) & (sy == 1)
    flip_rot = (sx == -1) & (sy == 1) & ((2.0 * ay) % 1.0 == 0.0)
    rot_flip = (sx == 1) & (sy == -1) & ((2.0 * ax) % 1.0 == 0.0)
    both_flip = (sx == -1) & (sy == -1) & ((2.0 * (ax - ay)) % 1.0 == 0.0)
    return both_rot | flip_rot | rot_flip | both_flip


def oracle_dihedral_commute_exact(xa, ya):
    """The dihedral predicate in exact rational arithmetic: two flips
    commute iff 2(a - a') is an integer, a flip and a rotation iff twice
    the rotation's angle is."""
    def integral(t):
        return t.denominator == 1

    out = []
    for ax, sx, ay, sy in zip(*xa, *ya):
        a, b = Fraction(float(ax)), Fraction(float(ay))
        if sx == 1 and sy == 1:
            out.append(True)
        elif sx == -1 and sy == -1:
            out.append(integral(2 * (a - b)))
        else:
            out.append(integral(2 * (b if sx == -1 else a)))
    return np.array(out, dtype=bool)


def oracle_quaternion_power(q, k):
    """q^k for an (N, 4) array of (w, x, y, z): k Hamilton products
    starting from the identity."""
    def mul(a, b):
        w1, x1, y1, z1 = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
        w2, x2, y2, z2 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
        return np.stack([
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ], axis=-1)

    acc = np.zeros_like(q)
    acc[:, 0] = 1.0
    for _ in range(k):
        acc = mul(acc, q)
    return acc


def oracle_closure_elements(identity, gens, compose):
    """Scalar breadth-first closure: take one element off the queue at a
    time, apply the generators in input order, number each product not
    seen before. Returns the elements in that order."""
    elems = [identity]
    index = {identity: 0}
    qi = 0
    while qi < len(elems):
        x = elems[qi]
        qi += 1
        for g in gens:
            y = compose(x, g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    return elems


def oracle_closure(identity, gens, compose):
    """The elements of ``oracle_closure_elements`` and the table as lists."""
    elems = oracle_closure_elements(identity, gens, compose)
    index = {e: i for i, e in enumerate(elems)}
    return elems, [[index[compose(x, y)] for y in elems] for x in elems]


def compose_permutations(p, q):
    """(p * q)(i) = p(q(i)) on image tuples."""
    return tuple(p[i] for i in q)


def oracle_permutation_closure(degree, generators):
    """(table, labels, default name) of the group the permutations generate,
    composed as (p * q)(i) = p(q(i))."""
    gens = [tuple(int(v) for v in g) for g in generators]
    elems, table = oracle_closure(tuple(range(degree)), gens, compose_permutations)
    return table, tuple(str(e) for e in elems), f"perm{degree}#{len(elems)}"


def oracle_matrix_closure(mod, dim, generators):
    """(table, None, default name) of the group the matrices generate mod m."""

    def compose(a, b):
        return tuple(
            tuple(sum(a[r][k] * b[k][c] for k in range(dim)) % mod for c in range(dim))
            for r in range(dim)
        )

    gens = [tuple(tuple(int(v) % mod for v in flat[r * dim:(r + 1) * dim])
                  for r in range(dim)) for flat in generators]
    ident = tuple(tuple(int(r == c) for c in range(dim)) for r in range(dim))
    elems, table = oracle_closure(ident, gens, compose)
    return table, None, f"mat{dim}mod{mod}#{len(elems)}"


def oracle_structural_breakdown(table):
    """(g, 1/[G : Z(g)]) for the least member g of each coset of the center,
    ascending, all plain loops."""
    n = len(table)
    zcenter = [x for x in range(n) if all(table[x][y] == table[y][x] for y in range(n))]
    seen, out = set(), []
    for g in range(n):
        if g in seen:
            continue
        seen |= {table[g][z] for z in zcenter}
        out.append((g, Fraction(len(oracle_centralizer(table, g)), n)))
    return tuple(out)


# ---------------------------------------------------------------------------
# validation oracles: every axiom checked in full, rows sorted first


def oracle_validate_table(table):
    """The rejection ``GroupTable(table)`` must raise, as (type, message),
    or None for a group table. Checks run in order on the table as lists:
    square and non-empty, entries in range, every row a permutation,
    element 0 a two-sided identity, then Light's test on the greedy picks,
    each the least element outside the right closure of the picks before
    it, at most n.bit_length() of them. The failing triple named is the
    first (x, g, y), g in pick order and then (x, y) row-major."""
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        return NotLatin, "multiplication table must be square"
    rows, n = arr.tolist(), len(arr)
    if n == 0:
        return NotLatin, "empty table"
    if any(not 0 <= v < n for row in rows for v in row):
        return NotLatin, "table entries out of range"
    if any(sorted(row) != list(range(n)) for row in rows):
        return NotLatin, "some row is not a permutation"
    if rows[0] != list(range(n)) or [row[0] for row in rows] != list(range(n)):
        return NotLatin, "element 0 is not a two-sided identity"
    picks, reached = [], [0]
    while len(picks) < n.bit_length() and len(reached) < n:
        picks.append(min(set(range(n)) - set(reached)))
        reached = oracle_right_closure(rows, picks)
    for g in picks:
        for x in range(n):
            for y in range(n):
                if rows[rows[x][g]][y] != rows[x][rows[g][y]]:
                    return NonAssociative, f"associativity fails at triple {(x, g, y)}"
    return None


def oracle_check_action(G, act):
    """The rejection ``check_action(G, act)`` must raise, as (type,
    message), or None for an action. Checks run in order on the rows as
    lists: one row per element, every row a permutation of the points, the
    identity row fixing every point, then act[x g] = act[x] o act[g] for
    every x, naming the first g of ``G.generators`` that fails."""
    arr = np.asarray(act)
    if arr.ndim != 2 or arr.shape[0] != G.order:
        return InvalidAction, "action table must have one row per group element"
    rows, points, mult = arr.tolist(), list(range(arr.shape[1])), G.mult.tolist()
    if any(sorted(row) != points for row in rows):
        return InvalidAction, "some action row is not a permutation of the points"
    if rows[0] != points:
        return InvalidAction, "the identity must act trivially"
    for g in G.generators:
        if any(rows[mult[x][g]][y] != rows[x][rows[g][y]] for x in range(G.order) for y in points):
            return InvalidAction, f"action law fails against element {g}"
    return None


# a 5x5 Latin square with two-sided identity that is not associative
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


# ---------------------------------------------------------------------------
# corpus


def _preset(name, **params):
    return {"kind": "preset", "name": name, "params": params}


def _mult_action(modulus, multiplier, acting_order):
    """C_{acting_order} acting on Z/modulus by repeated multiplication."""
    act = []
    m = 1
    for _ in range(acting_order):
        act.append([(x * m) % modulus for x in range(modulus)])
        m = (m * multiplier) % modulus
    return act


def _inversion_action(n):
    return [list(range(n)), [(-x) % n for x in range(n)]]


def corpus_specs():
    specs = {}
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24, 32, 64, 128):
        specs[f"C{n}"] = _preset("cyclic", n=n)
    specs["V4"] = _preset("klein4")
    specs["E2^3"] = _preset("elementary", p=2, k=3)
    specs["E3^2"] = _preset("elementary", p=3, k=2)
    specs["Q8"] = _preset("quaternion8")
    for n in (3, 4, 5, 6, 7, 8):
        specs[f"D{n}"] = _preset("dihedral", n=n)
    specs["S3"] = _preset("s3")
    specs["S4"] = _preset("s4")
    specs["A4"] = _preset("a4")
    specs["H2"] = _preset("heisenberg-mod", p=2)
    specs["H3"] = _preset("heisenberg-mod", p=3)
    specs["C3xQ8"] = {"kind": "product", "a": _preset("cyclic", n=3), "b": _preset("quaternion8")}
    specs["Q8xQ8"] = {"kind": "product", "a": _preset("quaternion8"), "b": _preset("quaternion8")}
    specs["D4xD4"] = {"kind": "product", "a": _preset("dihedral", n=4), "b": _preset("dihedral", n=4)}
    specs["Q8xD4"] = {"kind": "product", "a": _preset("quaternion8"), "b": _preset("dihedral", n=4)}
    specs["S3xS3"] = {"kind": "product", "a": _preset("s3"), "b": _preset("s3")}
    specs["C2xD4"] = {"kind": "product", "a": _preset("cyclic", n=2), "b": _preset("dihedral", n=4)}
    specs["F20"] = {
        "kind": "semidirect", "normal": _preset("cyclic", n=5),
        "acting": _preset("cyclic", n=4), "action": _mult_action(5, 2, 4),
    }
    specs["C7:C3"] = {
        "kind": "semidirect", "normal": _preset("cyclic", n=7),
        "acting": _preset("cyclic", n=3), "action": _mult_action(7, 2, 3),
    }
    specs["C9:C3"] = {
        "kind": "semidirect", "normal": _preset("cyclic", n=9),
        "acting": _preset("cyclic", n=3), "action": _mult_action(9, 4, 3),
    }
    specs["C8:C2"] = {
        "kind": "semidirect", "normal": _preset("cyclic", n=8),
        "acting": _preset("cyclic", n=2), "action": _inversion_action(8),
    }
    specs["Q8/Z"] = {"kind": "quotient", "group": _preset("quaternion8"), "normal": [0, 1]}
    specs["S3viaPerm"] = {"kind": "permgen", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
    return specs


@pytest.fixture(scope="session")
def corpus():
    """name -> GroupTable for every corpus spec (>= 30 groups, order <= 128)."""
    built = {name: build_group(spec) for name, spec in corpus_specs().items()}
    assert len(built) >= 30
    assert all(g.order <= 128 for g in built.values())
    return built


@pytest.fixture(scope="session")
def q8(corpus):
    return corpus["Q8"]


def build_action_suite():
    """Ten-plus validated actions: conjugations, translations, custom tables."""
    from commdeg.actions import FiniteAction, conjugation_action, translation_action
    from commdeg.presets import cyclic, elementary, quaternion8, symmetric

    return [
        conjugation_action(quaternion8()),
        conjugation_action(symmetric(3)),
        conjugation_action(symmetric(4)),
        conjugation_action(elementary(2, 2)),
        conjugation_action(cyclic(6)),
        translation_action(cyclic(5)),
        translation_action(symmetric(3)),
        FiniteAction(cyclic(2), [[0, 1, 2], [0, 2, 1]]),  # inversion on 3 points
        FiniteAction(cyclic(4), [list(range(3))] * 4),  # trivial
        FiniteAction(cyclic(4), [[0, 1, 2], [1, 0, 2], [0, 1, 2], [1, 0, 2]]),
        FiniteAction(cyclic(2), [list(range(6)), [1, 0, 3, 2, 5, 4]]),
    ]


def pytest_runtest_logreport(report):
    # acceptance criteria print their own [PASS] lines; surface failures too
    if report.when == "call" and "test_acceptance" in report.nodeid and report.failed:
        name = report.nodeid.split("::")[-1]
        print(f"\n[FAIL] {name}")


def quotient_by_members(G, members):
    return quotient(G, Subgroup(G, members))[0]


def degree_fraction_oracle(table) -> Fraction:
    return Fraction(oracle_commuting_count(table), len(table) ** 2)
