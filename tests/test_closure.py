"""Generator closures: the level-synchronous search in ``specs`` numbers the
elements as the scalar breadth-first search in ``conftest`` does, at every
queue tile size, gathers each row from its parent's row, and stops at the
order cap before it passes it."""
import functools
import random
import sys
import tracemalloc

import numpy as np
import pytest

from commdeg import kernels, presets, specs
from commdeg.errors import OrderCapExceeded, order_cap

from conftest import (
    compose_permutations,
    oracle_closure_elements,
    oracle_matrix_closure,
    oracle_permutation_closure,
)


def _symmetric_gens(n):
    gens = [tuple([1, 0] + list(range(2, n)))] if n > 1 else []
    return gens + ([tuple(list(range(1, n)) + [0])] if n > 2 else [])


def _alternating_gens(n):
    gens = [tuple([1, 2, 0] + list(range(3, n)))]
    if n > 3:
        gens.append(tuple(list(range(1, n)) + [0]) if n % 2
                    else tuple([0] + list(range(2, n)) + [1]))
    return gens


_GL23 = [[2, 0, 0, 1], [1, 1, 0, 1], [0, 2, 1, 0]]
_SL25 = [[1, 1, 0, 1], [0, 4, 1, 0]]
_GL25 = [[2, 0, 0, 1], [1, 1, 0, 1], [0, 4, 1, 0]]
_HEISENBERG3 = [[1, 1, 0, 0, 1, 0, 0, 0, 1], [1, 0, 0, 0, 1, 1, 0, 0, 1]]
# entries up to 256 need two-byte keys; 16 has order 4 mod 257
_MOD257 = [[256, 0, 0, 1], [0, 1, 1, 0], [16, 0, 0, 16]]
# a long cycle and its inverse: 151 elements in 76 breadth-first levels
_CYCLE151 = [list(range(1, 151)) + [0], [150] + list(range(150))]
# entries up to 65536 need four-byte keys; 256 has order 4 mod 65537
_MOD65537 = [[65536, 0, 0, 1], [0, 1, 1, 0], [256, 0, 0, 1]]
# one generator: 500 elements in 500 breadth-first levels
_CYCLE500 = [list(range(1, 500)) + [0]]
_S4 = _symmetric_gens(4)

# name -> (build, oracle arguments, expected name)
_CASES = {
    **{f"S{n}": (lambda n=n: presets.symmetric(n) if n > 1
                 else specs.permutation_closure(1, [], name="S1"),
                 ("perm", n, _symmetric_gens(n)), f"S{n}")
       for n in range(1, 7)},
    **{f"A{n}": (lambda n=n: presets.alternating(n),
                 ("perm", n, _alternating_gens(n)), f"A{n}")
       for n in range(3, 7)},
    "GL(2,3)": (lambda: specs.matrix_mod_closure(3, 2, _GL23), ("mat", 3, 2, _GL23), None),
    "SL(2,5)": (lambda: specs.matrix_mod_closure(5, 2, _SL25), ("mat", 5, 2, _SL25), None),
    "GL(2,5)": (lambda: specs.matrix_mod_closure(5, 2, _GL25), ("mat", 5, 2, _GL25), None),
    "Heisenberg mod 3": (lambda: specs.build_group({"kind": "matmodgen", "mod": 3, "dim": 3,
                                                     "generators": _HEISENBERG3}),
                         ("mat", 3, 3, _HEISENBERG3), None),
    "mod 257": (lambda: specs.matrix_mod_closure(257, 2, _MOD257),
                ("mat", 257, 2, _MOD257), None),
    "151-cycle": (lambda: specs.build_group({"kind": "permgen", "degree": 151,
                                             "generators": _CYCLE151}),
                  ("perm", 151, _CYCLE151), None),
    "500-cycle": (lambda: specs.build_group({"kind": "permgen", "degree": 500,
                                             "generators": _CYCLE500}),
                  ("perm", 500, _CYCLE500), None),
    "mod 65537": (lambda: specs.matrix_mod_closure(65537, 2, _MOD65537),
                  ("mat", 65537, 2, _MOD65537), None),
    "repeated generator": (lambda: specs.permutation_closure(4, _S4 + _S4[:1]),
                           ("perm", 4, _S4 + _S4[:1]), None),
    "identity generator": (lambda: specs.permutation_closure(4, [(0, 1, 2, 3), *_S4]),
                           ("perm", 4, [(0, 1, 2, 3), *_S4]), None),
}


@functools.lru_cache(maxsize=None)
def _oracle(key):
    kind, *args = _CASES[key][1]
    if kind == "perm":
        return oracle_permutation_closure(*args)
    return oracle_matrix_closure(*args)


@pytest.mark.parametrize("block", [1, 7, kernels.BLOCK_ENTRIES])
@pytest.mark.parametrize("key", sorted(_CASES))
def test_closure_matches_the_scalar_search(monkeypatch, key, block):
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
    build, _, name = _CASES[key]
    G = build()
    table, labels, default_name = _oracle(key)
    assert G.mult.tolist() == table
    assert G.labels == labels
    assert G.name == (name or default_name)


def test_mod_257_needs_two_byte_keys():
    assert (specs._unsigned(256), specs._unsigned(257)) == (np.uint8, np.uint16)
    assert max(max(row) for row in _MOD257) == 256


def test_mod_65537_needs_four_byte_keys():
    assert (specs._unsigned(65536), specs._unsigned(65537)) == (np.uint16, np.uint32)
    assert max(max(row) for row in _MOD65537) == 65536


def test_runaway_closure_raises_before_passing_the_cap(monkeypatch):
    checked = []
    require = specs.require_order
    monkeypatch.setattr(specs, "require_order",
                        lambda n: checked.append(n) or require(n))
    cycle = tuple(range(1, 30)) + (0,)
    tracemalloc.start()
    try:
        with order_cap(10), pytest.raises(OrderCapExceeded, match="cap 10"):
            specs.permutation_closure(30, [cycle])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # every check before the failing one let the closure grow to at most 10
    assert checked[-1] > 10 and max(checked[:-1]) <= 10


def test_cycle_closure_peak_is_its_table_elements_and_labels():
    """The generator rows are looked up one tile of elements at a time and
    the search's dict is dropped before the table is filled, so a 1000-cycle
    peaks at what the group keeps (table, element rows, labels) plus one
    intp tile: about 10.6 MB, where a lookup over all elements at once
    peaked at 14.5 MB."""
    n = 1000
    cycle = tuple(range(1, n)) + (0,)
    out = []
    tracemalloc.start()
    try:
        out.append(specs.permutation_closure(n, [cycle]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    G = out[0]
    kept = 4 * n * n + 2 * n * n + sum(map(sys.getsizeof, G.labels))  # uint16 rows
    assert G.order == n
    assert peak <= 1.05 * kept + 8 * kernels.BLOCK_ENTRIES, (peak, kept)


def test_closure_past_the_default_cap_raises():
    with pytest.raises(OrderCapExceeded, match="cap"):
        specs.permutation_closure(8, _symmetric_gens(8))  # |S8| = 40320


@pytest.mark.parametrize("build, gens", [(presets.symmetric, _symmetric_gens(7)),
                                         (presets.alternating, _alternating_gens(7))])
def test_degree_7_presets_match_the_scalar_search(build, gens):
    """The scalar oracle's table would be n^2 Python ints at order 5040, so
    the labels are checked against its element order and sampled rows
    against composition."""
    G = build(7)
    elems = oracle_closure_elements(tuple(range(7)), [tuple(g) for g in gens],
                                    compose_permutations)
    assert G.labels == tuple(str(e) for e in elems)
    index = {e: i for i, e in enumerate(elems)}
    for x in [0, 1, G.order - 1, *random.Random(7).sample(range(G.order), 12)]:
        assert G.mult[x].tolist() == [index[compose_permutations(elems[x], y)]
                                      for y in elems], x


@pytest.mark.parametrize("build, order", [(presets.symmetric, 40320),
                                          (presets.alternating, 20160)])
def test_degree_8_presets_raise_before_the_search_finishes(build, order):
    # n! or n!/2 is checked before the search starts, by either route
    spec = {"kind": "preset", "name": build.__name__, "params": {"n": 8}}
    for call in (lambda: build(8), lambda: specs.build_group(spec)):
        with pytest.raises(OrderCapExceeded, match=f"^order {order} exceeds the order cap 20000$"):
            call()


def test_closure_rejects_empty_degrees_and_huge_moduli():
    with pytest.raises(ValueError, match="degree"):
        specs.permutation_closure(0, [])
    with pytest.raises(ValueError, match="dimension"):
        specs.matrix_mod_closure(3, 0, [])
    with pytest.raises(ValueError, match="int64"):
        specs.matrix_mod_closure(1 << 40, 2, [[1, 0, 0, 1]])
