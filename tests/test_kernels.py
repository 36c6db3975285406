"""The counting kernels against the plain-loop oracles in conftest, with the
default tile size and with tiles of a few entries.
"""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import commdeg.kernels as kernels
from commdeg.degrees import degree_mn_pushforward
from commdeg.groups import direct_product, power_map
from commdeg.presets import cyclic, dihedral
from conftest import (
    oracle_centralizer,
    oracle_commuting_count,
    oracle_commuting_count_maps,
    oracle_commuting_count_mn,
    swap_intercalate,
)

POWERS = ((1, 1), (2, 1), (2, 3), (4, 4))

# default tiles (one band of whole rows for the corpus), single entries,
# and sizes that split rows and columns unevenly
BLOCKS = pytest.mark.parametrize(
    "block", [None, 1, 7, 40], ids=["default", "block1", "block7", "block40"]
)


@pytest.fixture
def tiles(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)


@pytest.fixture(scope="module")
def tables(corpus):
    return {name: (G, G.mult.tolist()) for name, G in corpus.items()}


@pytest.fixture(scope="module")
def sweep_group():
    """D4 x C4^2 x C3 x C2, order 768: three default tiles a side."""
    G = dihedral(4)
    for k in (4, 4, 3, 2):
        G = direct_product(G, cyclic(k))
    return G


@pytest.fixture(scope="module")
def sweep_oracle(sweep_group):
    """(m, n) -> the pair count of the oracle, for m and n in 1..4."""
    table = sweep_group.mult.tolist()
    return {(m, n): oracle_commuting_count_mn(table, m, n)
            for m in range(1, 5) for n in range(1, 5)}


def _maps(n):
    """Maps into range(n) that no power map need be: constant, reversed,
    into the first few entries, into the first and last quarter only, so
    that at order 768 the middle tile holds no image, and the identity on
    the first half with three values for the second, so that one tile
    holds every value it can and another only a few."""
    quarter = max(1, n // 4)
    return {
        "identity": list(range(n)),
        "half, then three": [x if x < n // 2 else n - 1 - x % 3 * (n // 8) for x in range(n)],
        "reversed": [n - 1 - x for x in range(n)],
        "constant 0": [0] * n,
        "constant n-1": [n - 1] * n,
        "first five": [x % 5 for x in range(n)],
        "two quarters": [7 * x % quarter + (0 if x % 2 else n - quarter) for x in range(n)],
    }


# each side dense, sparse, all distinct, constant, or dense in one tile and
# sparse in another
MAP_PAIRS = (
    ("identity", "constant 0"), ("constant n-1", "identity"),
    ("constant 0", "constant n-1"), ("first five", "two quarters"),
    ("two quarters", "first five"), ("two quarters", "reversed"),
    ("identity", "reversed"), ("reversed", "reversed"), ("constant 0", "constant 0"),
    ("half, then three", "identity"), ("reversed", "half, then three"),
    ("half, then three", "half, then three"), ("half, then three", "constant 0"),
    ("first five", "half, then three"),
)


def _assert_maps_match_oracle(table, name):
    maps = _maps(len(table))
    for a, b in MAP_PAIRS:
        got = kernels.count_commuting_pairs_mn(np.array(table), maps[a], maps[b])
        assert got == oracle_commuting_count_maps(table, maps[a], maps[b]), (name, a, b)


def test_backend_reports_something():
    assert kernels.BACKEND == "numpy"


@BLOCKS
def test_pair_count_matches_oracle(tables, tiles):
    for name, (G, table) in tables.items():
        assert kernels.count_commuting_pairs(G.mult) == oracle_commuting_count(table), name


@BLOCKS
def test_power_pair_count_matches_oracle(tables, tiles):
    for name, (G, table) in tables.items():
        for m, n in POWERS:
            got = kernels.count_commuting_pairs_mn(G.mult, power_map(G, m), power_map(G, n))
            assert got == oracle_commuting_count_mn(table, m, n), (name, m, n)


def test_power_pair_count_past_one_tile(sweep_group):
    """D151 = C151 x| C2 (order 302) cuts into tiles of 256 and 46 rows."""
    for G in (dihedral(151), sweep_group):
        table = G.mult.tolist()
        for m, n in POWERS:
            got = kernels.count_commuting_pairs_mn(G.mult, power_map(G, m), power_map(G, n))
            assert got == oracle_commuting_count_mn(table, m, n), (G.name, m, n)


@BLOCKS
def test_arbitrary_maps_on_non_group_tables(tables, tiles):
    swapped = {name: swap_intercalate(table) for name, (G, table) in tables.items()
               if name in ("C2xD4", "S3xS3", "Q8xD4")}
    assert None not in swapped.values()
    for name, table in swapped.items():
        _assert_maps_match_oracle(table, name)


@pytest.mark.parametrize("block", [None, 40], ids=["default", "block40"])
def test_sweep_powers_match_oracle_on_both_routes(sweep_group, sweep_oracle, tiles):
    """All 16 (m, n) of the power-sweep benchmark group, whose power maps
    reach 768, 256, 24 and 3 elements. Tiles of one and seven entries
    would take minutes at order 768, so the corpus tests cover those."""
    G = sweep_group
    for (m, n), want in sweep_oracle.items():
        got = kernels.count_commuting_pairs_mn(G.mult, power_map(G, m), power_map(G, n))
        assert got == want, (m, n)
        assert degree_mn_pushforward(G, m, n).value == Fraction(want, G.order**2), (m, n)


def test_arbitrary_maps_past_one_tile(sweep_group):
    table = sweep_group.mult.tolist()
    _assert_maps_match_oracle(table, "768")
    _assert_maps_match_oracle(swap_intercalate(table), "768 swapped")


@pytest.mark.parametrize("pm", [[0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 6, 7, 0],
                                [0, 1, 2, 3, -1, 5, 6, 7], [0, 1, 2, 3, 8, 5, 6, 7],
                                [0.0, 1, 2, 3, 4, 5, 6, 7]],
                         ids=["short", "long", "negative", "n", "float"])
def test_power_pair_count_rejects_maps_off_the_table(q8, pm):
    identity = list(range(8))
    with pytest.raises(ValueError, match="pm"):
        kernels.count_commuting_pairs_mn(q8.mult, pm, identity)
    with pytest.raises(ValueError, match="pn"):
        kernels.count_commuting_pairs_mn(q8.mult, identity, pm)


@BLOCKS
def test_power_pushforward_matches_oracle(tables, tiles):
    for name, (G, table) in tables.items():
        for m, n in POWERS:
            want = Fraction(oracle_commuting_count_mn(table, m, n), G.order**2)
            assert degree_mn_pushforward(G, m, n).value == want, (name, m, n)


@BLOCKS
def test_centralizer_sizes_match_oracle(tables, tiles):
    for name, (G, table) in tables.items():
        want = [len(oracle_centralizer(table, g)) for g in range(G.order)]
        assert kernels.centralizer_sizes(G.mult) == want, name


def test_centralizer_sizes_sum_equals_pair_count(q8):
    assert sum(kernels.centralizer_sizes(q8.mult)) == kernels.count_commuting_pairs(q8.mult)


def test_temporaries_stay_within_block(monkeypatch):
    """With small tiles, no kernel allocates anything near an n x n array."""
    G = cyclic(512)
    pm = power_map(G, 2)
    identity = np.arange(G.order)
    constant = np.zeros(G.order, dtype=int)
    three = identity % 3 * 7
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 1024)
    calls = {
        "pairs": lambda: kernels.count_commuting_pairs(G.mult),
        "power pairs": lambda: kernels.count_commuting_pairs_mn(G.mult, pm, pm),
        "constant pn": lambda: kernels.count_commuting_pairs_mn(G.mult, identity, constant),
        "identity pm": lambda: kernels.count_commuting_pairs_mn(G.mult, identity, pm),
        # one row of a sub-block, gathered by n ranks
        "constant pm": lambda: kernels.count_commuting_pairs_mn(G.mult, constant, identity),
        # n ranks into one row: the columns are gathered first
        "constant pm, power pn": lambda: kernels.count_commuting_pairs_mn(G.mult, constant, pm),
        # a 3 x 32 sub-block of each tile pair
        "three-value pm": lambda: kernels.count_commuting_pairs_mn(G.mult, three, identity),
        "power pushforward": lambda: degree_mn_pushforward(G, 1, 1).value,
        "centralizer sizes": lambda: kernels.centralizer_sizes(G.mult),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            assert call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an n x n boolean alone would take n^2 bytes
        assert peak < G.order**2, (name, peak)
