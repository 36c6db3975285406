"""Commuting probabilities with exact rational arithmetic.

Three independent exact routes to the same number (pair count, centralizer
index sum, central-coset decomposition) plus the power-pair variants and
their pushforward cross-check. No floating point anywhere in this module:
every value is a reduced Fraction whose denominator divides |G|^2.

The routes stay different computations, so that they check each other.
One loop, ``kernels.count_commuting_pairs_mn``, counts the commuting pairs
for d and for d_{m,n}: the pair count of d is its count with both maps the
identity. The centralizer sum stays a separate computation: it runs
``kernels.centralizer_sizes`` over all pairs. The structural route finds
the center from the generators alone (``groups.centralizer_mask`` of
``G.generators``), takes the least member of each central coset and
counts a centralizer mask for each of those representatives only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from commdeg import kernels
from commdeg.errors import CrossCheckMismatch
from commdeg.groups import (
    GroupTable,
    centralizer_mask,
    coset_minima,
    direct_product,
    distinct,
    power_map,
)


def _probability_vector(weights, size) -> tuple[list[int], int]:
    """(numerators, D): ``weights`` over their least common denominator D,
    checked to be a probability vector on ``size`` points: that many, none
    negative, numerators summing to D."""
    ws = [Fraction(w) for w in weights]
    if len(ws) != size:
        raise ValueError(f"{len(ws)} weights given for {size} points")
    d = math.lcm(*(w.denominator for w in ws))
    nums = [w.numerator * (d // w.denominator) for w in ws]
    if any(v < 0 for v in nums):
        raise ValueError("weights must be nonnegative")
    if sum(nums) != d:
        raise ValueError("weights must sum to exactly 1")
    return nums, d


@dataclass(frozen=True)
class Distribution:
    """Probability measure on a finite group with exact rational weights."""

    group: GroupTable
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        _probability_vector(self.weights, self.group.order)


@dataclass(frozen=True)
class DegreeReport:
    """An exact commuting probability plus how it was obtained."""

    value: Fraction
    method: str
    group_name: str
    group_order: int
    m: int = 1
    n: int = 1
    breakdown: tuple[tuple[int, Fraction], ...] | None = None

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise ValueError("degree must lie in [0, 1]")
        if (self.group_order**2) % self.value.denominator != 0:
            raise ValueError("denominator must divide |G|^2")


def haar(G: GroupTable) -> Distribution:
    """Uniform distribution: the Haar measure of a finite group."""
    w = Fraction(1, G.order)
    return Distribution(G, (w,) * G.order)


def degree_bruteforce(G: GroupTable) -> DegreeReport:
    """d(G) by exhaustive ordered-pair counting."""
    count = kernels.count_commuting_pairs(G.mult)
    return DegreeReport(
        value=Fraction(count, G.order**2),
        method="bruteforce",
        group_name=G.name,
        group_order=G.order,
    )


def degree_centralizer_sum(G: GroupTable) -> DegreeReport:
    """d(G) = (1/|G|) * sum over g of 1/[G : Z(g, G)], one term per
    distinct centralizer size, weighted by how many g have that size."""
    sizes, counts = np.unique(kernels.centralizer_sizes(G.mult), return_counts=True)
    acc = Fraction(0)
    for size, count in zip(sizes.tolist(), counts.tolist()):
        acc += Fraction(count, G.order // size)
    return DegreeReport(
        value=acc / G.order,
        method="centralizer_sum",
        group_name=G.name,
        group_order=G.order,
    )


def central_coset_representatives(G: GroupTable) -> np.ndarray:
    """Least-index representatives of the cosets of the center, ascending:
    the x that are the least element of x Z(G)."""
    least = coset_minima(G, np.flatnonzero(centralizer_mask(G, G.generators)))
    return np.flatnonzero(least == np.arange(G.order))


def degree_structural(G: GroupTable) -> DegreeReport:
    """d(G) from the central-coset decomposition.

    One representative g_j per coset of the center contributes
    1/[G : Z(g_j, G)]; the total is averaged over the coset count. The
    value is representative-independent because the centralizer index is
    constant on each coset. Each |Z(g_j, G)| counts the x with
    g_j x == x g_j, for a tile of representatives at a time.
    """
    reps = central_coset_representatives(G)
    sizes = np.empty(len(reps), dtype=np.int64)
    for s, e in kernels.row_tiles(len(reps), G.order):
        r = reps[s:e]
        sizes[s:e] = (G.mult[r] == G.mult.take(r, axis=1).T).sum(axis=1)
    terms = {int(z): Fraction(1, G.order // int(z)) for z in distinct(sizes)}
    breakdown = tuple((int(g), terms[int(z)]) for g, z in zip(reps, sizes))
    return DegreeReport(
        value=Fraction(int(sizes.sum()), G.order * len(reps)),  # each term is z / |G|
        method="structural",
        group_name=G.name,
        group_order=G.order,
        breakdown=breakdown,
    )


def power_counts(G: GroupTable, n: int) -> np.ndarray:
    """How many x in G have x^n == g, for every g (int64, sums to |G|)."""
    return np.bincount(power_map(G, n), minlength=G.order)


def pushforward_power(G: GroupTable, n: int) -> Distribution:
    """Distribution of x^n when x is Haar-distributed."""
    counts = power_counts(G, n)
    return Distribution(G, tuple(Fraction(int(c), G.order) for c in counts))


def degree_mn(G: GroupTable, m: int, n: int) -> DegreeReport:
    """Probability that x^m and y^n commute, by exhaustive pair count."""
    if m < 1 or n < 1:
        raise ValueError("powers must be >= 1")
    pm = power_map(G, m)
    pn = pm if m == n else power_map(G, n)
    count = int(kernels.count_commuting_pairs_mn(G.mult, pm, pn))
    return DegreeReport(
        value=Fraction(count, G.order**2),
        method="bruteforce",
        group_name=G.name,
        group_order=G.order,
        m=m,
        n=n,
    )


def degree_mn_pushforward(G: GroupTable, m: int, n: int) -> DegreeReport:
    """Same probability evaluated on the pushforward measures.

    Sums c_m(u) * c_n(v) over the commuting pairs (u, v), where c_m and c_n
    count the preimages of the m-th and n-th power maps (|G| times their
    pushforwards of Haar measure). Only u in the image of x -> x^m and v in
    the image of y -> y^n carry weight, so the table is read on those two
    supports alone, in tiles of ``kernels.tile_shape`` over the sorted
    supports with the weights applied per tile. A tile side whose support
    values are a run of consecutive indices is read as a slice; any other
    is gathered inside the tile. Weighting powers instead of visiting the
    n^2 pairs keeps this route independent of the pair count in
    ``degree_mn``.
    """
    if m < 1 or n < 1:
        raise ValueError("powers must be >= 1")
    n_ord = G.order
    cm, cn = power_counts(G, m), power_counts(G, n)
    us, vs = np.flatnonzero(cm), np.flatnonzero(cn)
    height, width = kernels.tile_shape(len(us))
    v_tiles = [(_run_or_gather(vs[q:q + height]), cn[vs[q:q + height]])
               for q in range(0, len(vs), height)]
    total = 0
    for p in range(0, len(us), width):
        iu = _run_or_gather(us[p:p + width])
        wu = cm[us[p:p + width]]
        for iv, wv in v_tiles:
            same = _block(G.mult, iu, iv) == _block(G.mult, iv, iu).T
            total += int(wu @ (same @ wv))
    return DegreeReport(
        value=Fraction(total, n_ord**2),
        method="pushforward",
        group_name=G.name,
        group_order=G.order,
        m=m,
        n=n,
    )


def _run_or_gather(support):
    """The sorted indices ``support`` as a slice when they are a run of
    consecutive indices, else as they are."""
    lo, hi = int(support[0]), int(support[-1]) + 1
    return slice(lo, hi) if hi - lo == len(support) else support


def _block(mult, rows, cols):
    """mult restricted to rows x cols, read as a slice along any side that is
    one and gathered entry by entry where both are index arrays."""
    if isinstance(rows, slice) or isinstance(cols, slice):
        return mult[rows, cols]
    return mult[np.ix_(rows, cols)]


def degree_of_product(A: GroupTable, B: GroupTable, verify: bool = False) -> Fraction:
    """d(A x B) = d(A) * d(B); optionally re-counted on the explicit product."""
    value = degree_bruteforce(A).value * degree_bruteforce(B).value
    if verify:
        direct = degree_bruteforce(direct_product(A, B)).value
        if direct != value:
            raise CrossCheckMismatch(
                f"product degree {value} != explicit product count {direct}"
            )
    return value

