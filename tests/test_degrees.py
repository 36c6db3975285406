"""Exact degree computations: three routes, power pairs, pushforwards."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from commdeg import kernels
from commdeg.degrees import (
    DegreeReport,
    Distribution,
    degree_bruteforce,
    degree_centralizer_sum,
    degree_mn,
    degree_mn_pushforward,
    degree_of_product,
    degree_structural,
    haar,
    power_counts,
    pushforward_power,
)
from commdeg.groups import center, direct_product
from commdeg.presets import cyclic, dihedral, elementary, quaternion8, symmetric

from conftest import (
    degree_fraction_oracle,
    inversion_semidirect,
    oracle_commuting_count_mn,
    oracle_normal_subgroups,
    oracle_sign_flip_forms,
    oracle_structural_breakdown,
    quotient_by_members,
)


def test_haar_is_uniform(q8):
    d = haar(q8)
    assert d.weights == (Fraction(1, 8),) * 8
    assert haar(cyclic(1)).weights == (Fraction(1),)


def test_bruteforce_q8_five_eighths(q8):
    assert degree_bruteforce(q8).value == Fraction(5, 8)


def test_bruteforce_abelian_is_one():
    assert degree_bruteforce(elementary(2, 3)).value == 1


def test_bruteforce_s3_matches_pair_oracle():
    G = symmetric(3)
    assert degree_bruteforce(G).value == Fraction(1, 2)
    assert degree_bruteforce(G).value == degree_fraction_oracle(G.mult.tolist())


def test_centralizer_sum_q8_summand_structure(q8):
    from commdeg.groups import centralizer

    orders = sorted(centralizer(q8, g).order for g in range(8))
    assert orders == [4, 4, 4, 4, 4, 4, 8, 8]
    assert degree_centralizer_sum(q8).value == Fraction(5, 8)


def test_centralizer_sum_s3():
    G = symmetric(3)
    from commdeg.groups import centralizer

    assert sorted(centralizer(G, g).order for g in range(6)) == [2, 2, 2, 3, 3, 6]
    assert degree_centralizer_sum(G).value == Fraction(1, 2)


def test_structural_q8_breakdown(q8):
    rep = degree_structural(q8)
    assert rep.value == Fraction(5, 8)
    assert len(rep.breakdown) == 4  # |G / Z(G)|
    assert sorted(t for _, t in rep.breakdown) == [
        Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1),
    ]


def test_structural_heisenberg3():
    from commdeg.presets import heisenberg_level

    assert degree_structural(heisenberg_level(3, 1)).value == Fraction(11, 27)


def test_structural_abelian_single_coset():
    rep = degree_structural(cyclic(7))
    assert rep.value == 1
    assert rep.breakdown == ((0, Fraction(1)),)


def test_structural_is_representative_independent(q8):
    """Each summand depends only on the coset, not the chosen representative."""
    from commdeg.groups import centralizer

    z = center(q8).members
    cosets = {}
    for g in range(8):
        cosets.setdefault(frozenset(int(q8.mult[g, m]) for m in z), []).append(g)
    expected = degree_structural(q8).value
    for picks in ([c[-1] for c in cosets.values()], [c[0] for c in cosets.values()]):
        total = sum(Fraction(1, centralizer(q8, g).index) for g in picks)
        assert total / len(picks) == expected


@pytest.mark.parametrize("block", [1, 100, kernels.BLOCK_ENTRIES])
def test_structural_breakdown_center_and_abelian_match_the_loops(corpus, monkeypatch, block):
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
    for name, G in corpus.items():
        table = G.mult.tolist()
        n = G.order
        want = oracle_structural_breakdown(table)
        rep = degree_structural(G)
        assert rep.breakdown == want, name
        assert rep.value == sum(t for _, t in want) / len(want), name
        zcenter = [x for x in range(n) if all(table[x][y] == table[y][x] for y in range(n))]
        assert list(center(G).members) == zcenter, name
        assert G.is_abelian() == (len(zcenter) == n), name


def test_three_way_equality_sample(corpus):
    for name in ("Q8", "S4", "D6", "H3", "F20", "C9:C3", "Q8xD4"):
        G = corpus[name]
        a = degree_bruteforce(G).value
        b = degree_centralizer_sum(G).value
        c = degree_structural(G).value
        assert a == b == c, name


def test_pushforward_power_z4_squares():
    d = pushforward_power(cyclic(4), 2)
    assert d.weights == (Fraction(1, 2), 0, Fraction(1, 2), 0)


def test_pushforward_power_one_is_haar(q8):
    assert pushforward_power(q8, 1).weights == haar(q8).weights


def test_pushforward_exponent_two_point_mass():
    d = pushforward_power(elementary(2, 3), 2)
    assert d.weights[0] == 1 and sum(d.weights) == 1


def test_pushforward_weights_are_the_power_counts(corpus):
    for name, G in corpus.items():
        for n in (1, 2, 3, 4):
            counts = power_counts(G, n)
            assert counts.sum() == G.order, (name, n)
            want = tuple(Fraction(int(c), G.order) for c in counts)
            assert pushforward_power(G, n).weights == want, (name, n)


def test_degree_mn_s3_squares():
    G = symmetric(3)
    assert degree_mn(G, 2, 1).value == Fraction(5, 6)
    assert degree_mn(G, 2, 1).value == Fraction(
        oracle_commuting_count_mn(G.mult.tolist(), 2, 1), 36
    )


def test_degree_mn_definitional_base_case(corpus):
    for name in ("Q8", "S3", "D5", "H2"):
        G = corpus[name]
        assert degree_mn(G, 1, 1).value == degree_bruteforce(G).value


def test_degree_mn_d4_squares_central():
    assert degree_mn(dihedral(4), 2, 2).value == 1


def test_degree_mn_pushforward_examples(q8):
    assert degree_mn_pushforward(symmetric(3), 2, 1).value == Fraction(5, 6)
    assert degree_mn_pushforward(q8, 1, 1).value == Fraction(5, 8)
    assert degree_mn_pushforward(cyclic(4), 2, 2).value == 1


def test_degree_mn_equals_pushforward_small_grid(corpus):
    for name in ("Q8", "S3", "A4", "C9:C3"):
        G = corpus[name]
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                assert degree_mn(G, m, n).value == degree_mn_pushforward(G, m, n).value


def test_pushforward_never_calls_the_power_pair_count(corpus, monkeypatch):
    def refuse(*args):
        raise AssertionError("the pushforward route used the pair count")

    monkeypatch.setattr(kernels, "count_commuting_pairs_mn", refuse)
    for name in ("Q8", "S4", "D8", "H3", "C9:C3"):
        G = corpus[name]
        table = G.mult.tolist()
        for m, n in ((1, 1), (2, 3), (3, 2), (4, 4)):
            want = Fraction(oracle_commuting_count_mn(table, m, n), G.order**2)
            assert degree_mn_pushforward(G, m, n).value == want, (name, m, n)
    with pytest.raises(AssertionError, match="pair count"):
        degree_mn(corpus["Q8"], 2, 1)


def test_degree_of_product_examples(q8):
    assert degree_of_product(cyclic(3), q8) == Fraction(5, 8)
    assert degree_of_product(q8, q8, verify=True) == Fraction(25, 64)
    assert degree_of_product(cyclic(6), elementary(2, 2)) == 1


def test_rationality_denominator_divides_order_squared(corpus):
    for name, G in corpus.items():
        for rep in (degree_bruteforce(G), degree_centralizer_sum(G), degree_structural(G)):
            assert (G.order**2) % rep.value.denominator == 0, name


def test_degree_one_iff_abelian_and_five_eighths_gap(corpus):
    for name, G in corpus.items():
        d = degree_bruteforce(G).value
        if G.is_abelian():
            assert d == 1, name
        else:
            assert d <= Fraction(5, 8), name


def test_quotient_monotonicity_over_all_normal_subgroups(corpus):
    checked = 0
    for name, G in corpus.items():
        if G.is_abelian():
            continue
        normals = oracle_normal_subgroups(G)
        if normals is None:
            continue
        d = degree_bruteforce(G).value
        for members in normals:
            Q = quotient_by_members(G, members)
            assert degree_bruteforce(Q).value >= d, (name, members)
            checked += 1
    assert checked > 20


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_product_law_random_pairs(data):
    from conftest import corpus_specs
    from commdeg.specs import build_group

    small = [
        ("C4", "S3"), ("Q8", "C3"), ("D4", "D4"), ("S3", "S3"), ("H2", "C2"),
        ("A4", "C2"), ("D5", "C4"), ("Q8", "Q8"), ("H3", "C2"), ("F20", "C3"),
    ]
    name_a, name_b = data.draw(st.sampled_from(small))
    specs = corpus_specs()
    A, B = build_group(specs[name_a]), build_group(specs[name_b])
    lhs = degree_of_product(A, B)
    rhs = degree_bruteforce(direct_product(A, B)).value
    assert lhs == rhs


def test_distribution_validation(q8):
    with pytest.raises(ValueError):
        Distribution(q8, (Fraction(1, 2),) * 8)  # sums to 4
    with pytest.raises(ValueError):
        Distribution(q8, (Fraction(1),) * 1)  # wrong length


def test_degree_report_validation():
    with pytest.raises(ValueError):
        DegreeReport(Fraction(3, 2), "bruteforce", "G", 4)
    with pytest.raises(ValueError):
        DegreeReport(Fraction(1, 7), "bruteforce", "G", 4)  # 7 does not divide 16


# ---------------------------------------------------------------------------
# inversion-flip audit: C_n x| C_2 brute-forced against the closed forms


def _flip_degree(n):
    return degree_bruteforce(inversion_semidirect(n)).value


def test_sign_flip_audit_order4_matches_linear_form_only():
    t, linear, square = oracle_sign_flip_forms(4)
    assert _flip_degree(4) == Fraction(5, 8)
    assert t == Fraction(1, 2)
    assert _flip_degree(4) == linear != square


def test_sign_flip_audit_order6():
    t, linear, square = oracle_sign_flip_forms(6)
    assert _flip_degree(6) == Fraction(1, 2)
    assert t == Fraction(1, 3)
    assert _flip_degree(6) == linear != square


def test_sign_flip_forms_agree_at_t_zero():
    t = Fraction(0)
    assert (1 + 3 * t) / 4 == ((1 + t) / 2) ** 2 == Fraction(1, 4)


def test_sign_flip_audit_odd_order_no_torsion():
    t, linear, _ = oracle_sign_flip_forms(5)
    assert t == Fraction(1, 5)  # only a = 0
    assert _flip_degree(5) == linear
    assert _flip_degree(5) == degree_bruteforce(dihedral(5)).value


def test_large_product_validates_and_degree_exact():
    """An order-512 product passes validation and its degree stays exact."""
    G = direct_product(direct_product(quaternion8(), quaternion8()), cyclic(8))
    assert G.order == 512
    assert degree_bruteforce(G).value == Fraction(25, 64)
