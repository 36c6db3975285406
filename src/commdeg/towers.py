"""Truncated inverse systems of finite groups.

A profinite group is represented here by finitely many finite quotients
with surjective bonding maps; limit statements are reported as
stabilization-plus-monotonicity evidence over the computed levels, never
asserted as proven.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from commdeg.degrees import degree_bruteforce, degree_mn
from commdeg.errors import (
    AntitoneViolation,
    CrossCheckMismatch,
    IncompatiblePath,
    IncompatibleSelector,
)
from commdeg.groups import (
    GroupTable,
    Homomorphism,
    Subgroup,
    center,
    commutator_subgroup,
    conjugacy_classes,
    direct_product,
    power_map,
)
from commdeg.presets import cyclic, elementary, heisenberg_level, require_prime
from commdeg.schemas import build_named

# A tower has stabilized when this many of its last levels share a value.
STABILIZATION_LEVELS = 2


def _stabilized(values) -> bool:
    """Whether the last STABILIZATION_LEVELS per-level ``values`` exist and agree."""
    return len(values) >= STABILIZATION_LEVELS and len(set(values[-STABILIZATION_LEVELS:])) == 1


@dataclass(frozen=True)
class Tower:
    """Finite levels, coarsest first, with bonds[k]: levels[k+1] -> levels[k]."""

    levels: tuple[GroupTable, ...]
    bonds: tuple[Homomorphism, ...]
    name: str = "tower"

    def __post_init__(self):
        if len(self.bonds) != len(self.levels) - 1:
            raise ValueError("need exactly one bond per adjacent level pair")
        for k, bond in enumerate(self.bonds):
            if bond.source is not self.levels[k + 1] or bond.target is not self.levels[k]:
                raise ValueError(f"bond {k} does not connect level {k + 2} to {k + 1}")
            if not bond.is_surjective():
                raise ValueError(f"bond {k} is not surjective")

    @property
    def depth(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class TowerReport:
    """Per-level degrees of a tower, non-increasing (``tower_degrees``
    raises otherwise), and the value they stabilized at, if they did."""

    degrees: tuple[Fraction, ...]
    stabilized_value: Fraction | None
    per_level_orders: tuple[int, ...]
    m: int = 1
    n: int = 1


def _tower(name, p, depth, level, image) -> Tower:
    """The tower ``name(p=p)`` of levels level(1) .. level(depth), with level
    k + 1 mapped onto level k by image(k, idx) of its indices idx. The
    prime and the depth are checked first. Levels are built from the top,
    the largest, down, so the top level's own cap check refuses an
    oversize tower before any level exists."""
    require_prime(p)
    if depth < 1 or depth > 4:
        raise ValueError("depth must be between 1 and 4")
    levels = [level(k) for k in range(depth, 0, -1)][::-1]
    bonds = [Homomorphism(levels[k], levels[k - 1], image(k, np.arange(levels[k].order)))
             for k in range(1, depth)]
    return Tower(tuple(levels), tuple(bonds), name=f"{name}(p={p})")


def heisenberg_tower(p: int, depth: int) -> Tower:
    """Levels of triples (a, b, z), a and b mod p^k, z mod p.

    Bonds reduce a and b mod p^(k-1); the cocycle a*b' mod p only depends
    on a, b' mod p, so every bond is a homomorphism.
    """
    def image(k, idx):
        qhi, qlo = p**(k + 1), p**k
        a, b, z = idx // (qhi * p), (idx // p) % qhi, idx % p
        return ((a % qlo) * qlo + (b % qlo)) * p + z

    return _tower("heisenberg", p, depth, lambda k: heisenberg_level(p, k), image)


def elementary_tower(p: int, depth: int) -> Tower:
    """Levels (Z/p)^k with coordinate-forgetting bonds."""
    return _tower("elementary", p, depth, lambda k: elementary(p, k),
                  lambda k, idx: idx % p**k)


def cyclic_tower(p: int, depth: int, start: int = 1) -> Tower:
    """Levels Z/p^k for k = start .. start+depth-1, with reduction bonds.

    ``start`` picks where the truncation begins; the inverse system of all
    cyclic p-power quotients contains every such window.
    """
    if start < 1:
        raise ValueError("start exponent must be >= 1")
    return _tower("cyclic", p, depth, lambda k: cyclic(p ** (start + k - 1)),
                  lambda k, idx: idx % p ** (start + k - 1))


# name -> (the parameters it reads, builder from the params)
_PRESETS = {
    name: (("p", "depth"), lambda params, build=build: build(
        params["p"], params.get("depth", 2)))
    for name, build in (("cyclic", cyclic_tower), ("elementary", elementary_tower),
                        ("heisenberg", heisenberg_tower))
}


def build_tower_preset(name: str, params: dict | None = None) -> Tower:
    """A named tower: each reads the prime ``p`` and ``depth`` (default 2)."""
    return build_named("tower", _PRESETS, name, params)


def tower_degrees(t: Tower, m: int = 1, n: int = 1) -> TowerReport:
    """Per-level exact degrees; raises AntitoneViolation if they increase.

    Level k is a quotient of level k+1, so the sequence must be
    non-increasing; a violation signals a construction bug, not a
    mathematical possibility.
    """
    degs = tuple(degree_mn(level, m, n).value for level in t.levels)
    for k in range(1, len(degs)):
        if degs[k] > degs[k - 1]:
            raise AntitoneViolation(
                f"degree rose from level {k} to {k + 1}: {degs[k - 1]} -> {degs[k]}"
            )
    return TowerReport(
        degrees=degs,
        stabilized_value=degs[-1] if _stabilized(degs) else None,
        per_level_orders=tuple(level.order for level in t.levels),
        m=m,
        n=n,
    )


_SELECTORS = {
    "trivial": lambda G: Subgroup(G, (0,)),
    "center": center,
    "commutator": commutator_subgroup,
}


@dataclass(frozen=True)
class StraightnessReport:
    """Per-level fraction of elements whose n-th power lands in H_k.

    ``non_straight_evidence`` flags the desk-scale shadow of a positive-
    measure witness: the fractions stabilize at a positive value while
    the index of H_k keeps growing. Finitely many levels can only exhibit
    evidence, not certify the topological property.
    """

    power: int
    fractions: tuple[Fraction, ...]
    subgroup_indices: tuple[int, ...]
    non_straight_evidence: bool


def straightness_fraction(t: Tower, n: int, selector) -> StraightnessReport:
    """Fractions |{g : g^n in H_k}| / |G_k| for a bond-compatible selector.

    ``selector`` is "trivial", "center", "commutator", or a callable
    mapping a level to one of its Subgroups.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    if isinstance(selector, str):
        try:
            selector_fn = _SELECTORS[selector]
        except KeyError:
            raise IncompatibleSelector(
                f"unknown selector {selector!r}; known: {sorted(_SELECTORS)}"
            ) from None
    else:
        selector_fn = selector
    subs = [selector_fn(level) for level in t.levels]
    for k, bond in enumerate(t.bonds):
        if not subs[k].mask[bond.image[subs[k + 1].mask]].all():
            raise IncompatibleSelector(
                f"bond {k} maps the selected subgroup outside its lower-level image"
            )
    fractions = []
    indices = []
    for level, sub in zip(t.levels, subs):
        count = int(sub.mask[power_map(level, n)].sum())
        fractions.append(Fraction(count, level.order))
        indices.append(level.order // sub.order)
    growing = all(indices[k] < indices[k + 1] for k in range(len(indices) - 1))
    evidence = len(indices) >= 2 and growing and _stabilized(fractions) and fractions[-1] > 0
    return StraightnessReport(
        power=n,
        fractions=tuple(fractions),
        subgroup_indices=tuple(indices),
        non_straight_evidence=evidence,
    )


@dataclass(frozen=True)
class ClassGrowthReport:
    """Conjugacy class sizes of one element tracked along the tower."""

    element_path: tuple[int, ...]
    class_sizes: tuple[int, ...]
    stable: bool


def fc_class_growth(t: Tower, element_path) -> ClassGrowthReport:
    """Class size of a bond-compatible element at each level."""
    path = tuple(int(e) for e in element_path)
    if len(path) != t.depth:
        raise IncompatiblePath(
            f"path length {len(path)} does not match tower depth {t.depth}"
        )
    for level, g in zip(t.levels, path):
        if not 0 <= g < level.order:
            raise IncompatiblePath(f"element {g} out of range at order {level.order}")
    for k, bond in enumerate(t.bonds):
        if int(bond.image[path[k + 1]]) != path[k]:
            raise IncompatiblePath(
                f"bond {k} maps element {path[k + 1]} to"
                f" {int(bond.image[path[k + 1]])}, expected {path[k]}"
            )
    sizes = tuple(next(len(c) for c in conjugacy_classes(level) if g in c)
                  for level, g in zip(t.levels, path))
    return ClassGrowthReport(element_path=path, class_sizes=sizes, stable=_stabilized(sizes))


def product_degree_partials(factors, factor_groups=None) -> tuple[Fraction, ...]:
    """Partial products d1, d1*d2, ... of per-factor degrees.

    When ``factor_groups`` is supplied, the first two partials are
    re-counted by brute force on the explicit direct products and a
    mismatch raises CrossCheckMismatch.
    """
    fs = [Fraction(f) for f in factors]
    if any(not 0 <= f <= 1 for f in fs):
        raise ValueError("factors must lie in [0, 1]")
    partials = []
    acc = Fraction(1)
    for f in fs:
        acc *= f
        partials.append(acc)
    if factor_groups is not None:
        groups = list(factor_groups)[:2]
        prod = None
        for k, g in enumerate(groups):
            prod = g if prod is None else direct_product(prod, g)
            direct = degree_bruteforce(prod).value
            if direct != partials[k]:
                raise CrossCheckMismatch(
                    f"partial {k + 1} is {partials[k]} but the explicit"
                    f" product brute-forces to {direct}"
                )
    return tuple(partials)
