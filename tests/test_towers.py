"""Tower construction, limit evidence, straightness fractions, FC growth."""
from fractions import Fraction

import numpy as np
import pytest

import commdeg.towers as towers_mod
from commdeg.degrees import degree_bruteforce
from commdeg.errors import (
    AntitoneViolation,
    CrossCheckMismatch,
    IncompatiblePath,
    IncompatibleSelector,
    NotPrime,
    OrderCapExceeded,
)
from commdeg.groups import Homomorphism, Subgroup
from commdeg.presets import dihedral, quaternion8
from commdeg.towers import (
    Tower,
    cyclic_tower,
    elementary_tower,
    fc_class_growth,
    heisenberg_tower,
    product_degree_partials,
    straightness_fraction,
    tower_degrees,
)

from conftest import degree_fraction_oracle


def test_heisenberg_depth1_value():
    t = heisenberg_tower(3, 1)
    assert t.levels[0].order == 27
    assert degree_bruteforce(t.levels[0]).value == Fraction(11, 27)


def test_heisenberg_p2_two_levels_both_five_eighths():
    t = heisenberg_tower(2, 2)
    assert [g.order for g in t.levels] == [8, 32]
    for level in t.levels:
        assert degree_fraction_oracle(level.mult.tolist()) == Fraction(5, 8)


def test_heisenberg_rejects_composite_p():
    with pytest.raises(NotPrime):
        heisenberg_tower(4, 1)


def test_heisenberg_depth_and_cap():
    with pytest.raises(ValueError):
        heisenberg_tower(2, 5)
    with pytest.raises(OrderCapExceeded):
        heisenberg_tower(5, 3)  # 5^7 = 78125 > 20000


def test_elementary_tower_shape():
    t = elementary_tower(2, 3)
    assert [g.order for g in t.levels] == [2, 4, 8]
    assert all(g.is_abelian() for g in t.levels)
    assert all(b.is_surjective() for b in t.bonds)


def test_elementary_tower_odd_prime():
    t = elementary_tower(3, 2)
    assert [g.order for g in t.levels] == [3, 9]


def test_bond_validation_rejects_non_surjective():
    t = elementary_tower(2, 2)
    constant = np.zeros(t.levels[1].order, dtype=np.int32)
    with pytest.raises(ValueError):
        Tower(t.levels, (Homomorphism(t.levels[1], t.levels[0], constant),))


def test_tower_degrees_heisenberg_stabilizes():
    rep = tower_degrees(heisenberg_tower(2, 2))
    assert rep.degrees == (Fraction(5, 8), Fraction(5, 8))
    assert rep.stabilized_value == Fraction(5, 8)
    assert rep.per_level_orders == (8, 32)


def test_every_stabilization_rule_reads_the_one_constant(monkeypatch):
    monkeypatch.setattr(towers_mod, "STABILIZATION_LEVELS", 3)
    assert tower_degrees(heisenberg_tower(2, 2)).stabilized_value is None
    assert tower_degrees(heisenberg_tower(2, 3)).stabilized_value == Fraction(5, 8)
    assert not straightness_fraction(elementary_tower(2, 2), 2, "trivial").non_straight_evidence
    assert straightness_fraction(elementary_tower(2, 3), 2, "trivial").non_straight_evidence
    assert not fc_class_growth(heisenberg_tower(3, 2), [9, 27]).stable
    assert fc_class_growth(heisenberg_tower(2, 3), [4, 8, 16]).stable


def test_tower_degrees_elementary_all_one():
    rep = tower_degrees(elementary_tower(2, 3))
    assert rep.degrees == (1, 1, 1)


def test_tower_degrees_antitone_for_small_powers():
    towers = [
        heisenberg_tower(2, 2),
        heisenberg_tower(3, 2),
        elementary_tower(2, 3),
        cyclic_tower(2, 3),
        cyclic_tower(2, 3, start=2),
    ]
    for t in towers:
        for m in (1, 2):
            for n in (1, 2):
                rep = tower_degrees(t, m, n)
                for lo, hi in zip(rep.degrees, rep.degrees[1:]):
                    assert hi <= lo


def test_antitone_violation_branch(monkeypatch):
    calls = iter([Fraction(1, 2), Fraction(3, 4)])

    class FakeReport:
        def __init__(self, value):
            self.value = value

    monkeypatch.setattr(
        towers_mod, "degree_mn", lambda level, m, n: FakeReport(next(calls))
    )
    with pytest.raises(AntitoneViolation):
        tower_degrees(elementary_tower(2, 2))


def test_straightness_elementary_two_tower():
    rep = straightness_fraction(elementary_tower(2, 3), 2, "trivial")
    assert rep.fractions == (1, 1, 1)
    assert rep.subgroup_indices == (2, 4, 8)
    assert rep.non_straight_evidence


def test_straightness_cyclic_two_tower_vanishes():
    rep = straightness_fraction(cyclic_tower(2, 3, start=2), 2, "trivial")
    assert rep.fractions == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
    assert not rep.non_straight_evidence


def test_straightness_power_one_trivial_subgroup():
    t = heisenberg_tower(2, 2)
    rep = straightness_fraction(t, 1, "trivial")
    assert rep.fractions == (Fraction(1, 8), Fraction(1, 32))


def test_straightness_center_and_commutator_selectors():
    t = heisenberg_tower(3, 2)
    for sel in ("center", "commutator"):
        rep = straightness_fraction(t, 3, sel)
        assert len(rep.fractions) == 2
        assert all(0 <= f <= 1 for f in rep.fractions)


def test_straightness_rejects_incompatible_selector():
    t = elementary_tower(2, 3)

    def bad(level):
        if level.order == 2:
            return Subgroup(level, (0,))
        return Subgroup(level, range(level.order))

    with pytest.raises(IncompatibleSelector):
        straightness_fraction(t, 2, bad)
    with pytest.raises(IncompatibleSelector):
        straightness_fraction(t, 2, "nope")


def test_fc_class_growth_heisenberg_generator():
    t = heisenberg_tower(3, 2)
    # the (1,0,0) generator has index q*p at level with a,b mod q = 3^k
    rep = fc_class_growth(t, [9, 27])
    assert rep.class_sizes == (3, 3)
    assert rep.stable
    assert all(s <= 9 for s in rep.class_sizes)  # bounded by p^2


def test_fc_class_sizes_bounded_by_p_squared_everywhere():
    for p in (2, 3):
        t = heisenberg_tower(p, 2)
        from commdeg.groups import conjugacy_classes

        for level in t.levels:
            assert max(len(c) for c in conjugacy_classes(level)) <= p * p


def test_fc_class_growth_identity_path():
    t = heisenberg_tower(2, 2)
    rep = fc_class_growth(t, [0, 0])
    assert rep.class_sizes == (1, 1)


def test_fc_class_growth_abelian_tower():
    t = elementary_tower(3, 2)
    rep = fc_class_growth(t, [1, 1])
    assert rep.class_sizes == (1, 1)


def test_fc_class_growth_rejects_non_path():
    t = heisenberg_tower(2, 2)
    with pytest.raises(IncompatiblePath):
        fc_class_growth(t, [1, 0])
    with pytest.raises(IncompatiblePath):
        fc_class_growth(t, [0])
    with pytest.raises(IncompatiblePath):  # out of range, checked before any bond
        fc_class_growth(cyclic_tower(2, 3), [1, 3, 99])


def test_product_partials_five_eighths():
    partials = product_degree_partials([Fraction(5, 8)] * 4)
    assert partials == (
        Fraction(5, 8), Fraction(25, 64), Fraction(125, 512), Fraction(625, 4096),
    )
    assert partials[-1] < Fraction(1, 6)


def test_product_partials_all_ones():
    assert product_degree_partials([Fraction(1)] * 3) == (1, 1, 1)


def test_product_partials_verified_against_explicit_products():
    d4 = dihedral(4)
    partials = product_degree_partials(
        [Fraction(5, 8), Fraction(5, 8)], factor_groups=[d4, d4]
    )
    assert partials == (Fraction(5, 8), Fraction(25, 64))


def test_product_partials_crosscheck_failure():
    with pytest.raises(CrossCheckMismatch):
        product_degree_partials(
            [Fraction(1, 2), Fraction(1, 2)], factor_groups=[quaternion8(), quaternion8()]
        )


def test_product_partials_validate_range():
    with pytest.raises(ValueError):
        product_degree_partials([Fraction(3, 2)])


def test_heisenberg_bond_maps_triples_correctly():
    t = heisenberg_tower(3, 2)
    hi, lo = t.levels[1], t.levels[0]
    bond = t.bonds[0]
    for idx in range(hi.order):
        a, b, z = idx // 27, (idx // 3) % 9, idx % 3
        expect = ((a % 3) * 3 + (b % 3)) * 3 + z
        assert bond(idx) == expect
