"""Group actions, isotropy/fixed-set bookkeeping, and the two Fubini sums."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commdeg import kernels
from commdeg.actions import (
    FiniteAction,
    conjugation_action,
    equalizer_prob_via_group,
    equalizer_prob_via_points,
    fixed_set,
    isotropy,
    orbits,
    translation_action,
)
from commdeg.degrees import Distribution, degree_bruteforce, haar
from commdeg.errors import InvalidAction
from commdeg.groups import centralizer, check_action
from commdeg.presets import cyclic, elementary, quaternion8, symmetric


def z2_on_z3_inversion():
    return FiniteAction(cyclic(2), [[0, 1, 2], [0, 2, 1]])


def trivial_action(G, set_size):
    return FiniteAction(G, [list(range(set_size))] * G.order)


def test_conjugation_orbits_are_classes(q8):
    act = conjugation_action(q8)
    assert sorted(len(o) for o in orbits(act)) == [1, 1, 2, 2, 2]


def test_trivial_action_singleton_orbits():
    act = trivial_action(cyclic(4), 5)
    assert orbits(act) == [(0,), (1,), (2,), (3,), (4,)]


def test_inversion_orbits():
    assert orbits(z2_on_z3_inversion()) == [(0,), (1, 2)]


def test_orbit_stabilizer_identity(q8):
    act = conjugation_action(q8)
    for x in range(8):
        matching = [o for o in orbits(act) if x in o]
        assert len(matching[0]) * isotropy(act, x).order == q8.order


def test_isotropy_of_conjugation_is_centralizer(q8):
    act = conjugation_action(q8)
    i = q8.labels.index("i")
    assert isotropy(act, i).members == centralizer(q8, i).members
    assert isotropy(act, i).order == 4


def test_fixed_set_of_identity_is_everything(q8):
    act = conjugation_action(q8)
    assert fixed_set(act, 0) == tuple(range(8))


def test_fixed_set_of_flip():
    assert fixed_set(z2_on_z3_inversion(), 1) == (0,)


def test_double_counting_identity(q8):
    act = conjugation_action(q8)
    by_points = sum(isotropy(act, x).order for x in range(act.set_size))
    by_group = sum(len(fixed_set(act, g)) for g in range(q8.order))
    assert by_points == by_group


def test_equalizer_probs_conjugation_q8(q8):
    act = conjugation_action(q8)
    mu = haar(q8)
    nu = [Fraction(1, 8)] * 8
    assert equalizer_prob_via_points(act, mu, nu) == Fraction(5, 8)
    assert equalizer_prob_via_group(act, mu, nu) == Fraction(5, 8)


def test_equalizer_probs_trivial_action():
    G = cyclic(3)
    act = trivial_action(G, 4)
    mu = haar(G)
    nu = [Fraction(1, 4)] * 4
    assert equalizer_prob_via_points(act, mu, nu) == 1
    assert equalizer_prob_via_group(act, mu, nu) == 1


def test_equalizer_probs_inversion_two_thirds():
    act = z2_on_z3_inversion()
    mu = haar(act.group)
    nu = [Fraction(1, 3)] * 3
    assert equalizer_prob_via_points(act, mu, nu) == Fraction(2, 3)
    assert equalizer_prob_via_group(act, mu, nu) == Fraction(2, 3)


def _all_test_actions():
    from conftest import build_action_suite

    acts = build_action_suite()
    assert len(acts) >= 10
    return acts


def test_orbits_match_a_plain_loop_on_the_action_suite():
    from conftest import oracle_orbits

    for act in _all_test_actions():
        assert orbits(act) == oracle_orbits(act.act.tolist()), act


def test_fubini_uniform_on_ten_actions():
    for act in _all_test_actions():
        mu = haar(act.group)
        nu = [Fraction(1, act.set_size)] * act.set_size
        assert equalizer_prob_via_points(act, mu, nu) == equalizer_prob_via_group(
            act, mu, nu
        )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_fubini_with_arbitrary_rational_measures(data):
    acts = _all_test_actions()
    act = acts[data.draw(st.integers(0, len(acts) - 1))]

    def rational_weights(k):
        raw = data.draw(
            st.lists(st.integers(0, 6), min_size=k, max_size=k).filter(
                lambda v: sum(v) > 0
            )
        )
        total = sum(raw)
        return tuple(Fraction(r, total) for r in raw)

    mu = Distribution(act.group, rational_weights(act.group.order))
    nu = rational_weights(act.set_size)
    assert equalizer_prob_via_points(act, mu, nu) == equalizer_prob_via_group(
        act, mu, nu
    )


# two primes whose product is above 2**63
_P1, _P2 = 2**32 - 5, 2**32 - 17


def _random_measure(rng, size, wide):
    """A rational probability vector on ``size`` points with about a third
    of its weights zero. When ``wide``, 1/P1 + 1/P2 of the largest weight
    moves to another point, so the least common denominator is at least
    2**63 and the routes sum in Python ints."""
    raw = [Fraction(rng.randint(1, 9), rng.randint(1, 40)) if rng.random() > 0.3 else 0
           for _ in range(size)]
    raw[rng.randrange(size)] = Fraction(1)
    w = [r / sum(raw) for r in raw]
    if wide:
        i = w.index(max(w))
        j = (i + rng.randrange(1, size)) % size
        eps = Fraction(1, _P1) + Fraction(1, _P2)
        w[i], w[j] = w[i] - eps, w[j] + eps
        assert math.lcm(*(v.denominator for v in w)) >= 2**63
    return tuple(w)


@pytest.mark.parametrize("block", [1, 5, kernels.BLOCK_ENTRIES])
def test_fubini_routes_equal_the_fraction_loops(monkeypatch, block):
    from conftest import oracle_equalizer_via_group, oracle_equalizer_via_points

    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
    rng = random.Random(block)
    for act in _all_test_actions():
        table = act.act.tolist()
        for wide_mu, wide_nu in ((False, False), (False, False), (True, False),
                                 (False, True), (True, True)):
            mu = _random_measure(rng, act.group.order, wide_mu)
            nu = _random_measure(rng, act.set_size, wide_nu)
            want = oracle_equalizer_via_points(table, mu, nu)
            assert oracle_equalizer_via_group(table, mu, nu) == want
            dist = Distribution(act.group, mu)
            assert equalizer_prob_via_points(act, dist, nu) == want, act
            assert equalizer_prob_via_group(act, dist, nu) == want, act


def test_conjugation_equalizer_matches_degree(corpus):
    for name in ("Q8", "S3", "A4", "D5", "H2"):
        G = corpus[name]
        act = conjugation_action(G)
        mu = haar(G)
        nu = [Fraction(1, G.order)] * G.order
        assert equalizer_prob_via_group(act, mu, nu) == degree_bruteforce(G).value, name


def test_burnside_orbit_count(q8):
    for act in (conjugation_action(q8), z2_on_z3_inversion(), translation_action(cyclic(5))):
        total = sum(len(fixed_set(act, g)) for g in range(act.group.order))
        assert Fraction(total, act.group.order) == len(orbits(act))


def _orbit_sizes(act):
    """The size of each point's orbit, point by point."""
    size_of = {x: len(orbit) for orbit in orbits(act) for x in orbit}
    return [size_of[x] for x in range(act.set_size)]


def test_orbit_sizes_q8_conjugation(q8):
    act = conjugation_action(q8)
    assert sorted(x for orbit in orbits(act) for x in orbit) == list(range(8))
    assert sorted(_orbit_sizes(act)) == [1, 1, 2, 2, 2, 2, 2, 2]


def test_orbit_sizes_regular_translation():
    assert _orbit_sizes(translation_action(cyclic(5))) == [5, 5, 5, 5, 5]


def test_translation_action_shares_the_proven_table(corpus):
    for name, G in corpus.items():
        a = translation_action(G)
        assert a.group is G and a.set_size == G.order, name
        assert np.shares_memory(a.act, G.mult) and not a.act.flags.writeable, name
        # the check translation_action skips, as an oracle
        assert np.array_equal(check_action(G, G.mult), a.act), name


def test_action_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        FiniteAction(cyclic(2), [[0, 1, 2], [0, 0, 2]])
    with pytest.raises(ValueError):
        FiniteAction(cyclic(2), [[1, 0, 2], [0, 1, 2]])  # identity row wrong
    with pytest.raises(ValueError):
        # rows are permutations but the composition law fails
        FiniteAction(cyclic(4), [[0, 1, 2], [1, 2, 0], [2, 0, 1], [1, 2, 0]])
    with pytest.raises(ValueError):
        # V4 = <1, 2>: the law holds against element 1, fails against 2
        FiniteAction(elementary(2, 2), [[0, 1, 2], [1, 0, 2], [1, 2, 0], [2, 1, 0]])


@pytest.mark.parametrize("row", [1, 2, 500, 1000])
def test_action_law_caught_in_any_row_at_order_1001(row):
    # the translation action of C1001 with the images of points 3 and 7
    # swapped in one row: every row is still a permutation
    G = cyclic(1001)
    act = G.mult.copy()
    act[row, [3, 7]] = act[row, [7, 3]]
    with pytest.raises(InvalidAction):
        FiniteAction(G, act)
    with pytest.raises(ValueError):
        FiniteAction(G, act)


@pytest.mark.parametrize("block", [1, 100, kernels.BLOCK_ENTRIES])
def test_action_law_rejections_hold_at_every_tile_size(monkeypatch, block):
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
    test_action_validation_rejects_bad_rows()
    for row in (1, 2, 500, 1000):
        test_action_law_caught_in_any_row_at_order_1001(row)


def test_measure_validation(q8):
    act = conjugation_action(q8)
    mu = haar(q8)
    with pytest.raises(ValueError):
        equalizer_prob_via_points(act, mu, [Fraction(1, 4)] * 3)  # wrong length
    with pytest.raises(ValueError):
        equalizer_prob_via_points(act, haar(cyclic(8)), [Fraction(1, 8)] * 8)
    for nu in ([Fraction(1, 4)] * 3 + [0] * 5, [Fraction(-1, 8)] + [Fraction(9, 56)] * 7):
        with pytest.raises(ValueError):  # sum is not 1; a weight is negative
            equalizer_prob_via_group(act, mu, nu)
    with pytest.raises(ValueError):
        Distribution(q8, (Fraction(1, 7),) * 7)


def test_action_table_frozen(q8):
    act = conjugation_action(q8)
    with pytest.raises(ValueError):
        act.act[0, 0] = 3


def test_action_json_document_loads(tmp_path):
    import json

    from commdeg.schemas import load_action

    doc = {
        "group": {"kind": "preset", "name": "cyclic", "params": {"n": 2}},
        "set_size": 3,
        "act": [[0, 1, 2], [0, 2, 1]],
    }
    path = tmp_path / "action.json"
    path.write_text(json.dumps(doc))
    act = load_action(path)
    assert orbits(act) == [(0,), (1, 2)]
    mu = haar(act.group)
    nu = [Fraction(1, 3)] * 3
    assert equalizer_prob_via_points(act, mu, nu) == Fraction(2, 3)
    doc["set_size"] = 4
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_action(path)


@pytest.mark.parametrize("set_size", [2.0, True, "2", None])
def test_action_document_set_size_must_be_an_integer(set_size):
    from commdeg.schemas import action_from_doc

    doc = {"group": {"kind": "preset", "name": "cyclic", "params": {"n": 2}},
           "set_size": set_size, "act": [[0, 1], [1, 0]]}
    message = rf"^action set_size must be an integer, not {set_size!r}$"
    with pytest.raises(ValueError, match=message):
        action_from_doc(doc)
    assert action_from_doc({**doc, "set_size": 2}).set_size == 2


@pytest.mark.parametrize("act, message", [([], "one row per group element"),
                                          ("abc", "'act' must be a list of lists")])
def test_action_document_with_a_malformed_table_raises_value_error(act, message):
    from commdeg.schemas import action_from_doc

    doc = {"group": {"kind": "preset", "name": "cyclic", "params": {"n": 2}},
           "set_size": 3, "act": act}
    with pytest.raises(ValueError, match=message):
        action_from_doc(doc)
