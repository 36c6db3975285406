"""The counting kernels against the plain-loop oracles in conftest, with the
default tile size and with tiles of a few entries.
"""
import tracemalloc
from fractions import Fraction

import pytest

import commdeg.kernels as kernels
from commdeg.degrees import degree_mn_pushforward
from commdeg.groups import power_map
from commdeg.presets import cyclic
from conftest import (
    oracle_centralizer,
    oracle_commuting_count,
    oracle_commuting_count_mn,
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
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 1024)
    calls = {
        "pairs": lambda: kernels.count_commuting_pairs(G.mult),
        "power pairs": lambda: kernels.count_commuting_pairs_mn(G.mult, pm, pm),
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
