"""Finite group actions: orbits, isotropy, fixed sets, and the two exact
evaluations of the probability that a random (g, x) pair satisfies g.x = x.

Both read the fixed-point mask ``act[g, x] == x`` a tile at a time and
reduce it in opposite orders (the discrete Fubini identity): per point x
to mu(G_x), or per element g to nu(X_g). Each measure enters as integer
numerators over its least common denominator D, summed in int64 when
D < 2**63 (the numerators sum to D) and in Python ints otherwise.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul

import numpy as np

from commdeg.degrees import Distribution, _probability_vector
from commdeg.groups import GroupTable, Subgroup, _frozen, check_action, orbit_partition
from commdeg.kernels import row_tiles


class FiniteAction:
    """A finite group acting on a finite set via a |G| x setSize table,
    validated by ``groups.check_action`` (InvalidAction, a ValueError).
    Like a group table, a writable array is copied and a read-only one is
    shared."""

    __slots__ = ("group", "set_size", "act")

    def __init__(self, group: GroupTable, act):
        act = check_action(group, act)
        self.group = group
        self.set_size = act.shape[1]
        self.act = _frozen(act)

    def __repr__(self):
        return f"FiniteAction({self.group.name} on {self.set_size} points)"


def conjugation_action(G: GroupTable) -> FiniteAction:
    """G acting on itself by g.x = g x g^-1, filled one row tile at a time."""
    act = np.empty((G.order, G.order), dtype=np.int32)
    for s, e in row_tiles(G.order, G.order):
        act[s:e] = G.mult[G.mult[s:e], G.inv[s:e, None]]
    return FiniteAction(G, _frozen(act))


def translation_action(G: GroupTable) -> FiniteAction:
    """The regular action g.x = g x. Its table is ``G.mult``, which
    GroupTable has already proved to be a group law, so the action shares
    it without a second check."""
    a = FiniteAction.__new__(FiniteAction)
    a.group, a.set_size, a.act = G, G.order, G.mult
    return a


def orbits(a: FiniteAction) -> list[tuple[int, ...]]:
    """Orbit partition of the point set, ordered by least point: the orbits
    of the rows of ``act`` for the generators of the group."""
    return orbit_partition(a.set_size, [a.act[g] for g in a.group.generators])


def isotropy(a: FiniteAction, x: int) -> Subgroup:
    """G_x, the stabilizer of point x."""
    if not 0 <= x < a.set_size:
        raise IndexError(f"point index {x} out of range")
    return Subgroup(a.group, np.flatnonzero(a.act[:, x] == x))


def fixed_set(a: FiniteAction, g: int) -> tuple[int, ...]:
    """X_g, the points fixed by g."""
    if not 0 <= g < a.group.order:
        raise IndexError(f"group index {g} out of range")
    return tuple(np.flatnonzero(a.act[g] == np.arange(a.set_size)).tolist())


def _numerators(weights, size):
    """(numerators, D) of a validated measure on ``size`` points, the
    numerators in int64 when D < 2**63 and in Python ints otherwise."""
    nums, d = _probability_vector(weights, size)
    return np.array(nums, dtype=np.int64 if d < 2**63 else object), d


def _measures(a: FiniteAction, mu: Distribution, nu):
    """(mu numerators, D_mu, nu numerators, D_nu) of two validated measures."""
    if mu.group is not a.group:
        raise ValueError("mu must be a distribution on the acting group")
    return (*_numerators(mu.weights, a.group.order), *_numerators(nu, a.set_size))


def equalizer_prob_via_points(a: FiniteAction, mu: Distribution, nu) -> Fraction:
    """P(g.x = x) integrated over points: sum_x nu(x) * mu(G_x)."""
    mu_num, d_mu, nu_num, d_nu = _measures(a, mu, nu)
    stab = np.concatenate([mu_num @ (a.act[:, s:e] == np.arange(s, e))
                           for s, e in row_tiles(a.set_size, a.group.order)])
    return Fraction(sum(map(mul, nu_num.tolist(), stab.tolist())), d_mu * d_nu)


def equalizer_prob_via_group(a: FiniteAction, mu: Distribution, nu) -> Fraction:
    """Same probability integrated over the group: sum_g mu(g) * nu(X_g)."""
    mu_num, d_mu, nu_num, d_nu = _measures(a, mu, nu)
    points = np.arange(a.set_size)
    fixed = np.concatenate([(a.act[s:e] == points) @ nu_num
                            for s, e in row_tiles(a.group.order, a.set_size)])
    return Fraction(sum(map(mul, mu_num.tolist(), fixed.tolist())), d_mu * d_nu)

