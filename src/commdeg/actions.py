"""Finite group actions: orbits, isotropy, fixed sets, and the two exact
evaluations of the probability that a random (g, x) pair satisfies g.x = x.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from commdeg.degrees import Distribution
from commdeg.groups import GroupTable, Subgroup, _frozen, _private, check_action, orbit_partition
from commdeg.kernels import row_tiles


class FiniteAction:
    """A finite group acting on a finite set via a |G| x setSize table,
    validated by ``groups.check_action`` (InvalidAction, a ValueError).
    Like a group table, a writable array is copied and a read-only one is
    shared."""

    __slots__ = ("group", "set_size", "act")

    def __init__(self, group: GroupTable, act):
        act = check_action(group, _private(act))
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
    pts = np.flatnonzero(a.act[g] == np.arange(a.set_size))
    return tuple(int(v) for v in pts)


def point_measure(weights) -> tuple[Fraction, ...]:
    """Validate a rational probability vector on the point set."""
    ws = tuple(Fraction(w) for w in weights)
    if any(w < 0 for w in ws):
        raise ValueError("point weights must be nonnegative")
    if sum(ws) != 1:
        raise ValueError("point weights must sum to exactly 1")
    return ws


def _check_measures(a: FiniteAction, mu: Distribution, nu) -> tuple[Fraction, ...]:
    if mu.group is not a.group:
        raise ValueError("mu must be a distribution on the acting group")
    nu = point_measure(nu)
    if len(nu) != a.set_size:
        raise ValueError("nu length must equal the point-set size")
    return nu


def equalizer_prob_via_points(a: FiniteAction, mu: Distribution, nu) -> Fraction:
    """P(g.x = x) integrated over points: sum_x nu(x) * mu(G_x)."""
    nu = _check_measures(a, mu, nu)
    total = Fraction(0)
    for x in range(a.set_size):
        if nu[x] == 0:
            continue
        total += nu[x] * mu.mass(isotropy(a, x).members)
    return total


def equalizer_prob_via_group(a: FiniteAction, mu: Distribution, nu) -> Fraction:
    """Same probability integrated over the group: sum_g mu(g) * nu(X_g)."""
    nu = _check_measures(a, mu, nu)
    total = Fraction(0)
    for g in range(a.group.order):
        if mu.weights[g] == 0:
            continue
        total += mu.weights[g] * sum((nu[x] for x in fixed_set(a, g)), Fraction(0))
    return total


@dataclass(frozen=True)
class FiniteOrbitReport:
    """All points with finite orbit (everything, here) plus orbit sizes."""

    points: tuple[int, ...]
    orbit_sizes: tuple[int, ...]


def finite_orbit_set(a: FiniteAction) -> FiniteOrbitReport:
    """Per-point orbit sizes; in the finite setting every orbit is finite.

    Kept for interface symmetry with the tower module, where orbit growth
    across levels is the interesting signal.
    """
    size_of = {x: len(orb) for orb in orbits(a) for x in orb}
    pts = tuple(range(a.set_size))
    return FiniteOrbitReport(points=pts, orbit_sizes=tuple(size_of[x] for x in pts))


def orbit_count(a: FiniteAction) -> int:
    return len(orbits(a))
