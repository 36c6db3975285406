"""Group construction and subgroup machinery."""
import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from commdeg import groups, kernels
from commdeg.actions import FiniteAction, conjugation_action, translation_action
from commdeg.errors import (
    InvalidAction,
    NonAssociative,
    NotLatin,
    NotNormal,
    OrderCapExceeded,
    order_cap,
)
from commdeg.groups import (
    GroupTable,
    Homomorphism,
    Subgroup,
    center,
    centralizer,
    characteristic_abelian_subgroup,
    check_action,
    commutator_subgroup,
    conjugacy_classes,
    direct_product,
    is_normal,
    orbit_partition,
    power_map,
    quotient,
    semidirect_product,
    subgroup_generated,
)
from commdeg.presets import cyclic, dihedral, elementary, heisenberg_level, quaternion8, symmetric
from commdeg.specs import build_group, permutation_closure

from conftest import (
    NONASSOCIATIVE_LOOP,
    build_action_suite,
    corpus_specs,
    oracle_centralizer,
    oracle_char_abelian,
    oracle_check_action,
    oracle_classes,
    oracle_commutator_subgroup,
    oracle_generating_picks,
    oracle_is_associative,
    oracle_is_closed,
    oracle_is_normal,
    oracle_normal_subgroups,
    oracle_q8_table,
    oracle_right_closure,
    oracle_s3_table,
    oracle_subgroup_closure,
    oracle_validate_table,
    swap_intercalate,
)


# ---------------------------------------------------------------------------
# construction


def test_cyclic4_is_abelian():
    G = cyclic(4)
    assert G.order == 4
    assert G.is_abelian()
    assert G.mul(1, 3) == 0


def test_quaternion8_matches_independent_quaternion_arithmetic():
    G = quaternion8()
    expected = oracle_q8_table()
    assert G.mult.tolist() == expected
    assert not G.is_abelian()
    assert center(G).order == 2


def test_cayley_rejects_non_latin_rows():
    bad = [[0, 1], [1, 1]]
    with pytest.raises(NotLatin):
        GroupTable(bad)


def test_cayley_rejects_shifted_identity():
    # valid Z/2 table but identity at index 1
    with pytest.raises(NotLatin):
        GroupTable([[1, 0], [0, 1]])


def test_cayley_rejects_nonassociative_loop():
    with pytest.raises(NonAssociative):
        GroupTable(NONASSOCIATIVE_LOOP)


def _accepts(table):
    """GroupTable's verdict; a rejection must name a triple that fails."""
    try:
        GroupTable(table)
    except NonAssociative as exc:
        x, g, y = map(int, re.search(r"\((\d+), (\d+), (\d+)\)", str(exc)).groups())
        assert table[table[x][g]][y] != table[x][table[g][y]]
        return False
    return True


@pytest.mark.parametrize("table", [
    [[0, 1, 2], [1, 2, 0], [2, 1, 0]],
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 1, 0]],
])
def test_latin_rows_with_a_repeated_column_are_nonassociative(table):
    assert any(len({row[c] for row in table}) < len(table) for c in range(len(table)))
    assert not _accepts(table)  # NonAssociative, naming a triple that fails


def _with_repeat_in_row(mult, row):
    bad = np.array(mult)
    bad[row, 5] = bad[row, 6]
    return bad


@pytest.mark.parametrize("block", [1, 100, kernels.BLOCK_ENTRIES])
def test_latin_rows_checked_in_row_tiles(monkeypatch, block):
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
    C64 = cyclic(64)
    bad_tables = [[[0, 1], [1, 1]]] + [_with_repeat_in_row(C64.mult, r) for r in (1, 40, 63)]
    for bad in bad_tables:
        with pytest.raises(NotLatin):
            GroupTable(bad)
    with pytest.raises(InvalidAction):
        semidirect_product(cyclic(3), cyclic(2), [[0, 1, 2], [0, 0, 1]])
    act = np.tile(np.arange(40), (8, 1))
    act[7, [3, 4]] = 9
    with pytest.raises(InvalidAction, match="not a permutation"):
        check_action(cyclic(8), act)
    assert np.array_equal(GroupTable(C64.mult).mult, C64.mult)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validation_peak_stays_below_one_byte_per_entry(monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 1024)
    mult = np.array(dihedral(256).mult)
    mult.flags.writeable = False  # shared, not copied: the peak is validation's
    n = len(mult)
    assert n == 512
    tracemalloc.start()
    try:
        GroupTable(mult)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n


def test_constructors_leave_the_callers_arrays_writable():
    m = np.array(cyclic(4).mult)
    G = GroupTable(m)
    image = np.arange(8, dtype=np.int32) % 4
    f = Homomorphism(cyclic(8), G, image)
    assert m.flags.writeable and image.flags.writeable
    assert not G.mult.flags.writeable and not f.image.flags.writeable
    m[:] = 0
    image[:] = 0
    assert np.array_equal(G.mult, cyclic(4).mult)
    assert f(5) == 1
    view = np.array(cyclic(4).mult)[:, :]
    view.flags.writeable = False  # read-only, but the base is still writable
    assert not np.shares_memory(GroupTable(view).mult, view)


def test_tables_are_copied_at_most_once(monkeypatch):
    """A writable int32 table is copied once, a table of another dtype is
    converted once, and a frozen table is shared."""
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 1024)
    G = dihedral(256)
    n = G.order
    for given in (np.array(G.mult), G.mult.astype(np.int64)):
        peak = _traced_peak(lambda: GroupTable(given))
        assert 4 * n * n <= peak < 5 * n * n, given.dtype
    assert GroupTable(G.mult).mult is G.mult
    assert _traced_peak(lambda: GroupTable(G.mult)) < n * n


@pytest.mark.parametrize("block", [1, 100, kernels.BLOCK_ENTRIES])
def test_center_and_is_abelian_in_row_tiles(corpus, monkeypatch, block):
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
    for name, G in corpus.items():
        table = G.mult.tolist()
        n = G.order
        want = [x for x in range(n) if all(table[x][y] == table[y][x] for y in range(n))]
        assert list(center(G).members) == want, name
        assert G.is_abelian() == (len(want) == n), name
    with pytest.raises(ValueError, match="not closed"):
        Subgroup(cyclic(8), [0, 1, 2, 3, 4, 5, 6])


def test_is_abelian_compares_only_the_generators():
    """The check reads the generators' block of the table: under 16 KB, where
    one row tile of these order-512 tables compared whole takes 64 KB."""
    for G, abelian in ((dihedral(256), False), (cyclic(512), True), (elementary(2, 9), True)):
        assert _traced_peak(G.is_abelian) < 1 << 14
        assert G.is_abelian() == abelian


def test_center_and_is_abelian_peaks_stay_below_one_byte_per_entry(monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 1024)
    G = cyclic(512)
    n = G.order
    for call in (lambda: center(G), G.is_abelian):
        assert _traced_peak(call) < n * n


@pytest.mark.parametrize("block", [1, kernels.BLOCK_ENTRIES])
def test_inverse_table_in_row_tiles(corpus, monkeypatch, block):
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
    for name, G in corpus.items():
        inv = GroupTable(G.mult).inv
        assert (G.mult[np.arange(G.order), inv] == 0).all(), name
        assert np.array_equal(inv, G.inv), name


@pytest.mark.parametrize("block", [1, 100, kernels.BLOCK_ENTRIES])
def test_associativity_check_matches_all_triples_oracle(corpus, monkeypatch, block):
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
    tables = [G.mult.tolist() for G in corpus.values() if G.order <= 64]
    swapped = [t for t in map(swap_intercalate, tables) if t is not None]
    assert len(swapped) >= 20
    verdicts = [oracle_is_associative(t) for t in tables + swapped]
    assert [_accepts(t) for t in tables + swapped] == verdicts
    assert not all(verdicts[len(tables):])


def test_intercalate_swap_at_order_512_names_a_failing_triple():
    G = dihedral(4)
    for _ in range(3):
        G = direct_product(G, cyclic(4))
    assert not _accepts(swap_intercalate(G.mult.tolist()))


def test_a_table_with_closed_prefixes_is_rejected_after_few_picks():
    """mult[x, y] = x - y for y <= x, else y has Latin rows, identity 0 and
    every prefix 0..k closed, so each greedy pick adds one element. Picking
    stops at n.bit_length() generators, and the first one fails."""
    n = 1000
    table = _closed_prefix_table(n)
    assert groups._generating_set(table, np.ones(n, dtype=bool)) == tuple(range(1, 11))
    with pytest.raises(NonAssociative, match=r"triple \(2, 1, 1\)$"):
        GroupTable(table)


def _closed_prefix_table(n):
    x, y = np.ogrid[:n, :n]
    return np.where(y <= x, x - y, y).astype(np.int32)


def _verdict(call, *args):
    """None when the call accepts, else the rejection's (type, message)."""
    try:
        call(*args)
    except (NotLatin, NonAssociative, InvalidAction) as exc:
        return type(exc), str(exc)
    return None


def _edits(table, rng, low, high):
    """A copy of ``table`` with one to three edits, each setting an entry to
    a value in low..high-1 or swapping two entries of a row (which keeps a
    permutation a permutation)."""
    out = np.array(table)
    rows, width = out.shape
    for _ in range(rng.randint(1, 3)):
        x, y, z = rng.randrange(rows), rng.randrange(width), rng.randrange(width)
        if rng.random() < 0.5:
            out[x, y] = rng.randrange(low, high)
        else:
            out[x, [y, z]] = out[x, [z, y]]
    return out


_MUTATED_GROUPS = ("C8", "D6", "Q8", "E2^3", "S4", "C64", "H3")

# tables no group construction makes: rows that are not permutations with
# a 0 in each (so every element has a right inverse), and an associative
# monoid whose rows 1 and 2 hold no 0 (so only the right inverses fail)
_ZERO_IN_EVERY_ROW = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]
_MONOID_WITHOUT_INVERSES = [[0, 1, 2], [1, 2, 2], [2, 2, 2]]


@pytest.mark.parametrize("table", [_ZERO_IN_EVERY_ROW, _MONOID_WITHOUT_INVERSES])
def test_a_table_rejected_off_the_latin_check_is_still_not_latin(table):
    assert oracle_is_associative(table) == (table is _MONOID_WITHOUT_INVERSES)
    with pytest.raises(NotLatin, match="^some row is not a permutation$"):
        GroupTable(table)


def test_an_action_row_holding_minus_one_is_not_a_permutation():
    act = np.tile(np.arange(3), (2, 1))
    act[1] = [-1, 1, 2]  # take would read -1 as point 2
    with pytest.raises(InvalidAction, match="not a permutation"):
        check_action(cyclic(2), act)


@pytest.mark.parametrize("block", [1, 100, kernels.BLOCK_ENTRIES])
def test_table_verdicts_match_the_axiom_oracle(corpus, monkeypatch, block):
    """GroupTable gives the verdict, error type and message of the axioms
    checked in full, rows sorted first, on the suite's malformed tables,
    seeded edits of seven groups and all 81 order-3 tables with identity 0."""
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
    C64 = corpus["C64"].mult
    small = [G.mult.tolist() for G in corpus.values() if G.order <= 64]
    D4C4_3 = dihedral(4)
    for _ in range(3):
        D4C4_3 = direct_product(D4C4_3, cyclic(4))
    tables = [
        [[0, 1], [1, 1]], [[1, 0], [0, 1]], [[0, 1]], np.zeros((0, 0), dtype=int),
        [[0, 1], [1, 2]], [[0, 1], [1, -1]], NONASSOCIATIVE_LOOP,
        [[0, 1, 2], [1, 2, 0], [2, 1, 0]],
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 1, 0]],
        _ZERO_IN_EVERY_ROW, _MONOID_WITHOUT_INVERSES, _closed_prefix_table(1000),
        *(_with_repeat_in_row(C64, r) for r in (1, 40, 63)),
        *(t for t in map(swap_intercalate, small) if t is not None),
        swap_intercalate(D4C4_3.mult.tolist()),
    ]
    rng = random.Random(21)
    for name in _MUTATED_GROUPS:
        mult = corpus[name].mult
        tables += [mult] + [_edits(mult, rng, 0, len(mult)) for _ in range(40)]
    for free in itertools.product(range(3), repeat=4):
        tables.append([[0, 1, 2], [1, *free[:2]], [2, *free[2:]]])
    seen = set()
    for table in tables:
        want = oracle_validate_table(table)
        assert _verdict(GroupTable, table) == want, np.asarray(table).tolist()
        seen.add(want and want[1].split(" at ")[0])
    assert seen >= {None, "some row is not a permutation", "associativity fails",
                    "element 0 is not a two-sided identity"}


@pytest.mark.parametrize("block", [1, 100, kernels.BLOCK_ENTRIES])
def test_action_verdicts_match_the_axiom_oracle(monkeypatch, block):
    """The same for check_action: the suite's malformed actions, and seeded
    edits of the action suite with entries from -1 to the point count."""
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
    repeats = np.tile(np.arange(40), (8, 1))
    repeats[7, [3, 4]] = 9
    cases = [
        (cyclic(2), [[0, 1, 2], [0, 0, 1]]), (cyclic(2), [[0, 1, 2], [0, 0, 2]]),
        (cyclic(2), [[1, 0, 2], [0, 1, 2]]), (cyclic(8), repeats),
        (cyclic(4), [[0, 1, 2], [1, 2, 0], [2, 0, 1], [1, 2, 0]]),
        (elementary(2, 2), [[0, 1, 2], [1, 0, 2], [1, 2, 0], [2, 1, 0]]),
        (cyclic(2), [[0, 1, 2, 3], [0, 2, 1, 3]]), (cyclic(3), [[0, 1]] * 2),
        (cyclic(2), [[0, 1], [-1, 0]]), (cyclic(2), [[0, 1], [-3, 0]]),
        (cyclic(2), [[0, 1], [2, 0]]),
        (cyclic(2), np.zeros((2, 0), dtype=int)),
    ]
    rng = random.Random(21)
    for a in build_action_suite() + [translation_action(dihedral(6))]:
        cases.append((a.group, a.act))
        cases += [(a.group, _edits(a.act, rng, -1, a.set_size + 1)) for _ in range(40)]
    seen = set()
    for G, act in cases:
        want = oracle_check_action(G, act)
        assert _verdict(check_action, G, act) == want, np.asarray(act).tolist()
        seen.add(want and want[1].split(" against ")[0])
    assert seen == {None, "some action row is not a permutation of the points",
                    "the identity must act trivially", "action law fails",
                    "action table must have one row per group element"}


def test_accepting_never_sorts_rows(corpus, monkeypatch):
    """Acceptance is proved on the generators, so the row sort runs only to
    classify a rejection: every construction here succeeds without it."""

    def unreachable(table):
        raise AssertionError("rows sorted on a table that is accepted")

    monkeypatch.setattr(groups, "_rows_are_permutations", unreachable)
    built = [build_group(spec) for spec in corpus_specs().values()]
    assert [G.mult.tolist() for G in built] == [G.mult.tolist() for G in corpus.values()]
    assert len(build_action_suite()) >= 10
    for G in (quaternion8(), symmetric(4), dihedral(5)):
        conjugation_action(G)
    F20 = semidirect_product(cyclic(5), cyclic(4), [[x * 2**h % 5 for x in range(5)]
                                                    for h in range(4)])
    assert F20.order == 20 and not F20.is_abelian()


def test_generators_are_few_and_generate(corpus):
    for name, G in corpus.items():
        assert len(G.generators) <= math.log2(G.order), name
        assert subgroup_generated(G, G.generators).order == G.order, name
        for gens in ([G.order - 1], [G.order // 2, G.order // 3]):
            expected = oracle_subgroup_closure(G.mult.tolist(), gens)
            assert list(subgroup_generated(G, gens).members) == expected, name


@pytest.mark.parametrize("block", [1, 7, kernels.BLOCK_ENTRIES])
def test_closure_in_frontier_tiles_matches_the_oracle(corpus, monkeypatch, block):
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
    for name, G in corpus.items():
        if G.order > 64:
            continue
        table = G.mult.tolist()
        for gens in (range(G.order), G.generators, [G.order - 1], [G.order // 2, G.order // 3]):
            want = oracle_subgroup_closure(table, gens)
            assert list(subgroup_generated(G, gens).members) == want, (name, gens)


def _closure(table, gens, start=(0,)):
    reached = np.zeros(len(table), dtype=bool)
    reached[list(start)] = True
    groups._right_closure(np.asarray(table, dtype=np.int32), gens, reached)
    return np.flatnonzero(reached).tolist()


def _closure_cases(n):
    return ([n - 1], [n // 2, n // 3], [n - 1, 1 % n, n // 2], range(n))


def test_right_closure_matches_the_breadth_first_oracle(corpus):
    """On group tables and on intercalate-swapped ones (Latin rows, not
    groups, so a column need not be a permutation), from the identity and
    from two points."""
    tables = [G.mult.tolist() for G in corpus.values() if G.order <= 64]
    swapped = [t for t in map(swap_intercalate, tables) if t is not None]
    assert len(swapped) >= 20
    for table in tables + swapped:
        n = len(table)
        for gens in _closure_cases(n):
            for start in ((0,), (0, n - 1)):
                want = oracle_right_closure(table, gens, start)
                assert _closure(table, gens, start) == want, (n, list(gens), start)


def test_right_closure_on_the_closed_prefix_table():
    n = 1000
    x, y = np.ogrid[:n, :n]
    table = np.where(y <= x, x - y, y).astype(np.int32)
    rows = table.tolist()
    for gens in (*_closure_cases(n), range(1, 11), [999, 500], [7]):
        for start in ((0,), (0, 600)):
            assert _closure(table, gens, start) == oracle_right_closure(rows, gens, start)


def test_a_151_cycle_closes_in_log_rounds():
    """Each doubling step reads the mask once, to test whether f(R) lies in
    R; a breadth-first search would take 150 levels."""
    reads = []

    class CountedMask(np.ndarray):
        def __getitem__(self, key):
            reads.append(key)
            return np.asarray(self)[key]

    reached = (np.arange(151) == 0).view(CountedMask)
    groups._right_closure(cyclic(151).mult, [1], reached)
    assert np.asarray(reached).all()
    assert 0 < len(reads) <= 2 * math.ceil(math.log2(151))


def test_right_closure_skips_generators_closed_since_the_last_growth():
    """R = <1, 2, 4> in E2^5 is closed under all but the last generator, 8.
    The walk starts at 8, which grows R to <1, 2, 4, 8> in two reads (an
    involution), then reads each of 1, 2 and 4 once and stops: no
    generator is read before the growth and again after it."""
    G = elementary(2, 5)
    reads = []

    class CountedMask(np.ndarray):
        def __getitem__(self, key):
            reads.append(key)
            return np.asarray(self)[key]

    reached = subgroup_generated(G, [1, 2, 4]).mask.copy().view(CountedMask)
    groups._right_closure(G.mult, [1, 2, 4, 8], reached)
    assert np.flatnonzero(reached).tolist() == list(range(16))
    assert len(reads) == 2 + 3


def test_permgen_closure_is_deterministic():
    spec = {"kind": "permgen", "degree": 4, "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]}
    a = build_group(spec)
    b = build_group(spec)
    assert a.order == 24
    assert np.array_equal(a.mult, b.mult)
    assert a.labels == b.labels


def test_permgen_rejects_bad_generator():
    with pytest.raises(ValueError):
        permutation_closure(3, [(0, 0, 1)])


def test_order_cap_stops_runaway_closure():
    with order_cap(10), pytest.raises(OrderCapExceeded):
        permutation_closure(30, [tuple(list(range(1, 30)) + [0])])


def test_matmodgen_heisenberg_generators():
    spec = {
        "kind": "matmodgen",
        "mod": 3,
        "dim": 3,
        "generators": [
            [1, 1, 0, 0, 1, 0, 0, 0, 1],
            [1, 0, 0, 0, 1, 1, 0, 0, 1],
        ],
    }
    G = build_group(spec)
    assert G.order == 27
    assert center(G).order == 3
    assert not G.is_abelian()


def test_build_group_determinism_bit_identical(corpus):
    for name, spec in list(__import__("conftest").corpus_specs().items())[:8]:
        again = build_group(spec)
        assert np.array_equal(again.mult, corpus[name].mult), name
    assert (corpus["D5"].name, corpus["V4"].name) == ("D5", "V4")
    assert corpus["V4"].labels == elementary(2, 2).labels
    assert build_group({"kind": "preset", "name": "trivial", "params": {}}).name == "1"


# ---------------------------------------------------------------------------
# centralizers, classes, center, commutator


def test_centralizer_of_i_in_q8(q8):
    i = q8.labels.index("i")
    sub = centralizer(q8, i)
    assert sub.order == 4
    assert sub.members == tuple(oracle_centralizer(q8.mult.tolist(), i))
    assert i in sub and 0 in sub


def test_centralizer_of_identity_is_whole_group(q8):
    assert centralizer(q8, 0).order == q8.order


def test_centralizer_in_abelian_group_is_everything():
    G = cyclic(12)
    assert all(centralizer(G, g).order == 12 for g in range(12))


def test_centralizer_index_out_of_range(q8):
    with pytest.raises(IndexError):
        centralizer(q8, 8)


def test_q8_class_sizes(q8):
    sizes = sorted(len(c) for c in conjugacy_classes(q8))
    assert sizes == [1, 1, 2, 2, 2]
    assert conjugacy_classes(q8) == oracle_classes(q8.mult.tolist())


def test_abelian_classes_are_singletons():
    G = elementary(3, 2)
    assert all(len(c) == 1 for c in conjugacy_classes(G))


def test_s3_class_sizes_match_permutation_oracle():
    G = symmetric(3)
    assert sorted(len(c) for c in conjugacy_classes(G)) == [1, 2, 3]
    assert sorted(len(c) for c in oracle_classes(oracle_s3_table())) == [1, 2, 3]


def test_orbit_stabilizer_over_corpus(corpus):
    for name, G in corpus.items():
        for cls in conjugacy_classes(G):
            assert len(cls) * centralizer(G, cls[0]).order == G.order, name


def test_q8_center_and_commutator(q8):
    z = center(q8)
    gp = commutator_subgroup(q8)
    assert z.members == gp.members == (0, 1)
    assert is_normal(q8, z) and is_normal(q8, gp)


def test_abelian_center_commutator():
    G = cyclic(9)
    assert center(G).order == 9
    assert commutator_subgroup(G).members == (0,)


def test_s3_center_trivial_commutator_a3():
    G = symmetric(3)
    assert center(G).members == (0,)
    gp = commutator_subgroup(G)
    assert gp.order == 3
    # A3 = the rotations: all elements of gp have order dividing 3
    assert all(G.power(g, 3) == 0 for g in gp.members)


def test_commutator_trivial_iff_singleton_classes_iff_symmetric(corpus):
    for name, G in corpus.items():
        trivial = commutator_subgroup(G).order == 1
        singletons = all(len(c) == 1 for c in conjugacy_classes(G))
        assert trivial == singletons == G.is_abelian(), name


def test_classes_match_the_oracle_on_the_corpus(corpus):
    for name, G in corpus.items():
        assert conjugacy_classes(G) == oracle_classes(G.mult.tolist()), name


def test_center_matches_the_oracle_centralizers(corpus):
    for name, G in corpus.items():
        table = G.mult.tolist()
        want = [x for x in range(G.order)
                if all(x in oracle_centralizer(table, g) for g in range(G.order))]
        assert list(center(G).members) == want, name


def test_commutator_subgroup_matches_the_oracle_on_the_corpus(corpus):
    for name, G in corpus.items():
        want = oracle_commutator_subgroup(G.mult.tolist())
        assert list(commutator_subgroup(G).members) == want, name


def test_is_normal_matches_its_definition(corpus):
    checked = 0
    for name, G in corpus.items():
        table = G.mult.tolist()
        members = set(oracle_normal_subgroups(G) or ())
        members |= {centralizer(G, g).members for g in range(G.order)}
        for sub in (Subgroup(G, m) for m in sorted(members)):
            assert is_normal(G, sub) == oracle_is_normal(table, sub.members), (name, sub)
            checked += not is_normal(G, sub)
    assert checked > 0  # some centralizers are not normal


def test_subgroup_generators_are_few_and_generate(corpus):
    for name, G in corpus.items():
        for sub in (center(G), commutator_subgroup(G), centralizer(G, G.order - 1)):
            gens = sub.generators
            assert len(gens) <= math.log2(sub.order), name
            assert subgroup_generated(G, gens).members == sub.members, name


@given(st.integers(0, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=3))))
@settings(max_examples=60, deadline=None)
def test_orbit_partition_matches_a_plain_search(case):
    n, perms = case
    seen, want = set(), []
    for x in range(n):
        if x in seen:
            continue
        orbit, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for p in perms:
                if p[y] not in orbit:
                    orbit.add(p[y])
                    todo.append(p[y])
        seen |= orbit
        want.append(tuple(sorted(orbit)))
    assert orbit_partition(n, [np.array(p, dtype=np.intp) for p in perms]) == want


def test_subgroup_machinery_peaks_far_below_the_table_at_order_2048():
    G = dihedral(4)
    for _ in range(4):
        G = direct_product(G, cyclic(4))
    assert G.order == 2048  # its table is 16 MB
    z = center(G)
    for call in (lambda: commutator_subgroup(G), lambda: characteristic_abelian_subgroup(G),
                 lambda: conjugacy_classes(G), lambda: is_normal(G, z)):
        assert _traced_peak(call) < 2 * 2**20


# ---------------------------------------------------------------------------
# characteristic abelian subgroup


def test_char_abelian_q8_is_center(q8):
    assert characteristic_abelian_subgroup(q8).members == center(q8).members
    assert oracle_char_abelian(q8.mult.tolist()) == [0, 1]


def test_char_abelian_of_abelian_group_is_everything():
    G = cyclic(10)
    assert characteristic_abelian_subgroup(G).order == 10


def test_char_abelian_heisenberg3():
    G = heisenberg_level(3, 1)
    sub = characteristic_abelian_subgroup(G)
    assert sub.members == center(G).members
    assert sub.order == 3
    assert list(sub.members) == oracle_char_abelian(G.mult.tolist())


def test_char_abelian_is_abelian_and_normal_corpuswide(corpus):
    for name, G in corpus.items():
        sub = characteristic_abelian_subgroup(G)
        block = G.mult[np.ix_(sub.members, sub.members)]
        assert np.array_equal(block, block.T), name
        assert is_normal(G, sub), name
        assert set(center(G).members) <= set(sub.members), name


# ---------------------------------------------------------------------------
# quotients and products


def test_q8_mod_center_is_klein_four(q8):
    Q, pi = quotient(q8, center(q8))
    assert Q.order == 4
    assert Q.is_abelian()
    assert all(Q.power(g, 2) == 0 for g in range(4))
    assert pi.is_surjective()
    assert pi.kernel().members == (0, 1)


def test_quotient_by_trivial_is_identity_projection(q8):
    Q, pi = quotient(q8, Subgroup(q8, (0,)))
    assert np.array_equal(Q.mult, q8.mult)
    assert np.array_equal(pi.image, np.arange(8))


def test_quotient_by_whole_group_is_trivial(q8):
    Q, _ = quotient(q8, Subgroup(q8, range(8)))
    assert Q.order == 1


def test_quotient_demands_normality():
    G = symmetric(3)
    flip = next(g for g in range(6) if G.power(g, 2) == 0 and g != 0)
    sub = Subgroup(G, (0, flip))
    with pytest.raises(NotNormal):
        quotient(G, sub)


def test_coset_sizes_cover_group(q8):
    z = center(q8)
    Q, pi = quotient(q8, z)
    counts = np.bincount(pi.image, minlength=Q.order)
    assert counts.sum() == q8.order
    assert set(counts.tolist()) == {z.order}


def test_semidirect_inversion_gives_dihedral():
    G = semidirect_product(cyclic(4), cyclic(2), [[0, 1, 2, 3], [0, 3, 2, 1]])
    assert G.order == 8
    assert not G.is_abelian()
    assert np.array_equal(G.mult, dihedral(4).mult)


def test_semidirect_inversion_on_exponent2_is_abelian():
    G = semidirect_product(cyclic(2), cyclic(2), [[0, 1], [0, 1]])
    assert G.is_abelian()


def test_semidirect_trivial_action_equals_direct_product():
    A, B = cyclic(3), cyclic(4)
    triv = [list(range(3))] * 4
    assert np.array_equal(
        semidirect_product(A, B, triv).mult, direct_product(A, B).mult
    )


def test_direct_product_z2_z3_is_cyclic6():
    G = direct_product(cyclic(2), cyclic(3))
    assert G.order == 6 and G.is_abelian()
    orders = sorted(G.element_order(g) for g in range(6))
    assert orders == [1, 2, 3, 3, 6, 6]


def test_invalid_action_not_permutation():
    with pytest.raises(InvalidAction):
        semidirect_product(cyclic(3), cyclic(2), [[0, 1, 2], [0, 0, 1]])


def test_invalid_action_not_automorphism():
    # swapping 1 and 2 in Z/4 is a permutation but not an automorphism
    with pytest.raises(InvalidAction):
        semidirect_product(cyclic(4), cyclic(2), [[0, 1, 2, 3], [0, 2, 1, 3]])
    # the same swap driven by the second generator of V4, through V4 -> C2
    with pytest.raises(InvalidAction):
        semidirect_product(cyclic(4), elementary(2, 2), [[0, 1, 2, 3]] * 2 + [[0, 2, 1, 3]] * 2)


def test_invalid_action_not_homomorphism():
    # order-4 automorphism (multiplication by 2 mod 5) driven by C2
    with pytest.raises(InvalidAction):
        semidirect_product(
            cyclic(5), cyclic(2),
            [[0, 1, 2, 3, 4], [(2 * x) % 5 for x in range(5)]],
        )
    # C4 acting on C5 by multiplication by 2^h, except that element 2, which
    # is not a generator of C4, acts by the identity automorphism
    rows = [[(x * 2**h) % 5 for x in range(5)] for h in range(4)]
    rows[2] = list(range(5))
    with pytest.raises(InvalidAction):
        semidirect_product(cyclic(5), cyclic(4), rows)


# ---------------------------------------------------------------------------
# power maps


def test_power_map_z4_squares():
    assert power_map(cyclic(4), 2).tolist() == [0, 2, 0, 2]


def test_power_map_identity_power(corpus):
    for G in list(corpus.values())[:10]:
        assert power_map(G, 1).tolist() == list(range(G.order))


def test_power_map_exponent_two_group():
    G = elementary(2, 3)
    assert power_map(G, 2).tolist() == [0] * 8


def test_power_map_matches_scalar_power(q8):
    for n in (2, 3, 5, 8):
        pm = power_map(q8, n)
        assert all(pm[g] == q8.power(g, n) for g in range(8))


# ---------------------------------------------------------------------------
# validation guts


def test_subgroup_rejects_non_closed_set(q8):
    i = q8.labels.index("i")
    with pytest.raises(ValueError):
        Subgroup(q8, (0, i))  # i*i = -1 missing


def test_subgroup_closure_check_matches_the_all_pairs_oracle(corpus):
    verdicts = set()
    for name, G in corpus.items():
        table = G.mult.tolist()
        subs = set(oracle_normal_subgroups(G) or ())
        subs |= {tuple(oracle_centralizer(table, g)) for g in range(G.order)}
        for members in sorted(subs):
            sub = Subgroup(G, members)
            assert sub.generators == oracle_generating_picks(table, members), (name, members)
            outside = sorted(set(range(G.order)) - set(members))
            variants = [set(members) - {m} for m in {*members[1:2], *members[-1:]} - {0}]
            variants += [set(members) | {x} for x in {*outside[:1], *outside[-1:]}]
            for v in variants:
                closed = oracle_is_closed(table, sorted(v))
                verdicts.add(closed)
                if closed:
                    assert Subgroup(G, v).members == tuple(sorted(v)), (name, v)
                else:
                    with pytest.raises(ValueError, match="not closed"):
                        Subgroup(G, v)
    assert verdicts == {True, False}


def test_membership_reads_the_mask_without_wrapping(q8):
    whole = Subgroup(q8, range(q8.order))
    assert -1 not in whole and -q8.order not in whole and q8.order not in whole
    z = center(q8)
    assert [g for g in range(-9, 17) if g in z] == list(z.members)


def test_membership_takes_integers_only():
    S = Subgroup(cyclic(4), [0, 2])
    with pytest.raises(TypeError):
        2.0 in S
    assert (True in S, False in S) == (False, True)  # bools are 1 and 0
    assert np.int64(2) in S and np.int32(0) in S and np.uint8(1) not in S


def test_subgroup_requires_identity(q8):
    with pytest.raises(ValueError):
        Subgroup(q8, (1, 2))


def test_homomorphism_rejects_non_multiplicative_map():
    G = cyclic(4)
    with pytest.raises(ValueError):
        Homomorphism(G, cyclic(2), [0, 1, 1, 0])
    # respects multiplication by the generator 1 of V4 but not by 2
    with pytest.raises(ValueError):
        Homomorphism(elementary(2, 2), G, [0, 0, 1, 1])
    image = [g % 4 for g in range(8)]
    assert Homomorphism(cyclic(8), cyclic(4), image).is_surjective()
    image[5] = 2
    with pytest.raises(ValueError):
        Homomorphism(cyclic(8), cyclic(4), image)


def test_out_of_range_indices_raise_value_error():
    G = cyclic(4)
    for members in ([0, 2, 9], [-1, 0, 2]):
        with pytest.raises(ValueError, match="out of range"):
            Subgroup(G, members)
    for image in ([0, 1, 0, 5], [0, 1, 0, -1]):
        with pytest.raises(ValueError, match="out of range"):
            Homomorphism(G, cyclic(2), image)
    with pytest.raises(ValueError, match="out of range"):
        subgroup_generated(G, [1, 99])


_WRAPS_TO_1 = 2**32 + 1  # an int32 cast would read it as 1


@pytest.mark.parametrize("make", [
    lambda: GroupTable([[0, 1.0], [1.0, 0]]),
    lambda: GroupTable([[0, "1"], ["1", 0]]),
    lambda: GroupTable([[True, False], [False, True]]),
    lambda: GroupTable(np.array([[0, _WRAPS_TO_1], [1, 0]])),
    lambda: Homomorphism(cyclic(2), cyclic(2), [0, 1.5]),
    lambda: Homomorphism(cyclic(4), cyclic(2), np.array([0, _WRAPS_TO_1, 0, 1])),
    lambda: FiniteAction(cyclic(2), [[0, 1], [1.0, 0.0]]),
    lambda: FiniteAction(cyclic(2), np.array([[0, 1], [_WRAPS_TO_1, 0]])),
], ids=["table-floats", "table-strings", "table-bools", "table-wraps",
        "image-floats", "image-wraps", "action-floats", "action-wraps"])
def test_entries_that_are_not_int32_integers_raise_value_error(make):
    with pytest.raises(ValueError, match="integer"):
        make()


def test_tables_are_frozen(q8):
    with pytest.raises(ValueError):
        q8.mult[0, 0] = 1


# ---------------------------------------------------------------------------
# distinct


_INT_DTYPES = st.sampled_from([np.int8, np.int32, np.int64, np.uint16, np.intp])


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(_INT_DTYPES, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                                max_side=40)))
@example(np.array([], dtype=np.int32))
@example(np.zeros((0, 3), dtype=np.int64))
@example(np.array([[3, 1], [1, 3]], dtype=np.int32))
def test_distinct_equals_np_unique(a):
    got, want = groups.distinct(a), np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
