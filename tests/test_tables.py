"""Table construction: every constructor fills its table through
``groups.table_from_rows``, behind the one cap check ``groups.require_order``."""
import hashlib
import importlib
import inspect
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import commdeg
from commdeg import cli, groups, kernels, lie, presets, sampler, schemas, specs, towers
from commdeg.actions import FiniteAction, conjugation_action, translation_action
from commdeg.degrees import (
    degree_bruteforce,
    degree_mn,
    degree_mn_pushforward,
    degree_of_product,
    degree_structural,
)
from commdeg.errors import DEFAULT_ORDER_CAP, ORDER_CAP, OrderCapExceeded, order_cap
from commdeg.groups import direct_product
from commdeg.specs import build_group


def _cyclic_spec(n):
    return {"kind": "preset", "name": "cyclic", "params": {"n": n}}


def _product_spec(a, b):
    return {"kind": "product", "a": a, "b": b}


_D4C4_3 = _product_spec(
    {"kind": "preset", "name": "dihedral", "params": {"n": 4}},
    _product_spec(_cyclic_spec(4), _product_spec(_cyclic_spec(4), _cyclic_spec(4))),
)
_INVERSION_151 = [list(range(151)), [(-i) % 151 for i in range(151)]]

_BUILDS = {
    "cyclic(1)": lambda: presets.cyclic(1),
    "cyclic(2)": lambda: presets.cyclic(2),
    "cyclic(7)": lambda: presets.cyclic(7),
    "cyclic(300)": lambda: presets.cyclic(300),
    "dihedral(1)": lambda: presets.dihedral(1),
    "dihedral(5)": lambda: presets.dihedral(5),
    "dihedral(151)": lambda: presets.dihedral(151),
    "elementary(2,2)": lambda: presets.elementary(2, 2),
    "elementary(3,3)": lambda: presets.elementary(3, 3),
    "elementary(2,8)": lambda: presets.elementary(2, 8),
    "heisenberg_level(3,1)": lambda: presets.heisenberg_level(3, 1),
    "heisenberg_level(2,3)": lambda: presets.heisenberg_level(2, 3),
    "quaternion8": presets.quaternion8,
    "klein4": presets.klein4,
    "trivial": groups.trivial_group,
    "product": lambda: build_group(_D4C4_3),
    "semidirect": lambda: build_group({"kind": "semidirect", "normal": _cyclic_spec(151),
                                       "acting": _cyclic_spec(2),
                                       "action": _INVERSION_151}),
    "quotient": lambda: build_group({"kind": "quotient", "group": _D4C4_3,
                                     "normal": [0, 1, 2, 3]}),
    "permgen-S5": lambda: build_group({"kind": "permgen", "degree": 5,
                                       "generators": [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]}),
    "matmodgen-GL23": lambda: build_group({"kind": "matmodgen", "mod": 3, "dim": 2,
                                           "generators": [[2, 0, 0, 1], [1, 1, 0, 1],
                                                          [0, 2, 1, 0]]}),
    "symmetric(7)": lambda: presets.symmetric(7),
    "alternating(7)": lambda: presets.alternating(7),
}

# (sha256 of mult.tobytes(), sha256 of the NUL-joined labels, name), each
# digest cut to 16 hex digits; recorded from the int64 full-table builders
# these tiled ones replaced.
_PINS = {
    "cyclic(1)": ("df3f619804a92fdb", "5feceb66ffc86f38", "C1"),
    "cyclic(2)": ("8bd2fa7c6873c97e", "28578a6d4a77ab68", "C2"),
    "cyclic(7)": ("bdcd54e3dba14b50", "7f1211a417fbffcf", "C7"),
    "cyclic(300)": ("fea85883737acbf0", "2cfe330b4a605f9f", "C300"),
    "dihedral(1)": ("8bd2fa7c6873c97e", None, "D1"),
    "dihedral(5)": ("0eda5db841dbf7da", None, "D5"),
    "dihedral(151)": ("1e01b72668efaf22", None, "D151"),
    "elementary(2,2)": ("ae6755f9e0f25932", "e9f052bec5cd9804", "E2^2"),
    "elementary(3,3)": ("fccb855f84f4a7e4", "ea499f6b0827d222", "E3^3"),
    "elementary(2,8)": ("98ea9204da3a2e3b", "011b1680930130a6", "E2^8"),
    "heisenberg_level(3,1)": ("5a006f1ce2a029a0", "e163890e62d34986", "H(p=3,k=1)"),
    "heisenberg_level(2,3)": ("a15b0200e20e8282", "d890e1d01ac29038", "H(p=2,k=3)"),
    "quaternion8": ("ad417e51a0214d79", "a190f59860619687", "Q8"),
    "klein4": ("ae6755f9e0f25932", "e9f052bec5cd9804", "V4"),
    "trivial": ("df3f619804a92fdb", "3f79bb7b435b0532", "1"),
    "product": ("9371c6b42469e69b", "ffa3b9bcc8e7a84c", "D4xC4xC4xC4"),
    "semidirect": ("1e01b72668efaf22", None, "C151x|C2"),
    "quotient": ("390904177f3f0cd4", "a85ea277497bd5ca", "D4xC4xC4xC4/N4"),
    "permgen-S5": ("5e00940fc0f83fe8", "608067d2c5384c1f", "perm5#120"),
    "matmodgen-GL23": ("72d7c83e12d72eab", None, "mat2mod3#48"),
    # recorded from the closure fill that looked up all n^2 products by key
    "symmetric(7)": ("801c88913a6aafb9", "77c6aced052677c3", "S7"),
    "alternating(7)": ("d18e21ed18d4461e", "fb3dd0ece676d92d", "A7"),
}

# sha256 of act.tobytes() for the conjugation and translation actions
_ACTION_PINS = {
    "dihedral(5)": ("bc0ad81fbc796a4b", "0eda5db841dbf7da"),
    "quaternion8": ("5677e883ea545ea8", "ad417e51a0214d79"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _pin(G):
    labels = None if G.labels is None else _sha("\x00".join(G.labels).encode())
    return _sha(G.mult.tobytes()), labels, G.name


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# the tables are the ones the full-table builders made


@pytest.mark.parametrize("block", [1, 100, kernels.BLOCK_ENTRIES])
@pytest.mark.parametrize("key", sorted(_PINS))
def test_tables_labels_and_names_are_pinned_at_every_tile_size(monkeypatch, key, block):
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
    G = _BUILDS[key]()
    assert G.mult.dtype == np.int32 and G.mult.flags.c_contiguous
    assert not G.mult.flags.writeable
    assert _pin(G) == _PINS[key]


@pytest.mark.parametrize("key", sorted(_ACTION_PINS))
def test_action_tables_are_pinned(key):
    G = _BUILDS[key]()
    conj, trans = conjugation_action(G), translation_action(G)
    assert (_sha(conj.act.tobytes()), _sha(trans.act.tobytes())) == _ACTION_PINS[key]
    assert trans.act is G.mult  # the frozen table is shared, not copied
    for a in (conj, trans):
        assert a.act.dtype == np.int32 and not a.act.flags.writeable


def test_action_copies_a_writable_array_and_leaves_it_writable():
    G = presets.cyclic(5)
    mine = np.array(G.mult)
    a = FiniteAction(G, mine)
    assert mine.flags.writeable and not np.shares_memory(mine, a.act)
    mine[0, 0] = 3
    assert a.act[0, 0] == 0


def test_table_from_rows_shares_the_table_it_fills():
    def fill(s, e, mult):
        mult[s:e] = (np.arange(s, e)[:, None] + np.arange(6)) % 6

    G = groups.table_from_rows(6, fill)
    assert np.array_equal(G.mult, presets.cyclic(6).mult)
    assert G.mult.base is None and not G.mult.flags.writeable


# ---------------------------------------------------------------------------
# memory: the table plus one tile's temporaries

def _d4c4_4():
    G = presets.dihedral(4)
    for _ in range(3):
        G = direct_product(G, presets.cyclic(4))
    C4 = presets.cyclic(4)
    return lambda: direct_product(G, C4)


_MEMORY_CASES = {
    "elementary(2,10)": lambda: lambda: presets.elementary(2, 10),
    "heisenberg_level(5,2)": lambda: lambda: presets.heisenberg_level(5, 2),
    "dihedral(1024)": lambda: lambda: presets.dihedral(1024),
    "D4xC4^3 x C4": _d4c4_4,
}


@pytest.mark.parametrize("key", sorted(_MEMORY_CASES))
def test_builder_peak_is_the_table_plus_one_tile(key):
    build = _MEMORY_CASES[key]()  # factors are inputs, built outside the trace
    out = []
    peak = _traced_peak(lambda: out.append(build()))
    table = 4 * out[0].order ** 2
    tile = 4 * 8 * kernels.BLOCK_ENTRIES  # four int64 tiles
    assert peak <= 1.5 * table + tile, (key, peak, table)


def test_dihedral_peak_is_its_table_alone(monkeypatch):
    """dihedral(n) and cyclic(n) fill their own tables from their formulas:
    no C_n table, no second GroupTable, so the peak is the table and one
    tile."""
    built = []
    init = groups.GroupTable.__init__
    monkeypatch.setattr(groups.GroupTable, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    for build in (lambda: presets.dihedral(1024), lambda: presets.cyclic(2048)):
        built.clear()
        out = []
        peak = _traced_peak(lambda: out.append(build()))
        table = 4 * out[0].order ** 2
        tile = 4 * 8 * kernels.BLOCK_ENTRIES  # four int64 tiles
        assert peak <= 1.1 * table + tile, (out[0].name, peak, table)
        assert len(built) == 1, out[0].name


@pytest.mark.parametrize("block", [1, 100, kernels.BLOCK_ENTRIES])
def test_dihedral_is_the_inversion_semidirect_product(monkeypatch, block):
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
    for n in [*range(1, 65), 151]:
        inversion = [list(range(n)), [(-i) % n for i in range(n)]]
        expected = groups.semidirect_product(presets.cyclic(n), presets.cyclic(2), inversion)
        D = presets.dihedral(n)
        assert np.array_equal(D.mult, expected.mult), n
        x, c = np.ogrid[:2 * n, :2 * n]
        assert np.array_equal(D.mult, (x + (-1) ** x * c) % (2 * n)), n
        x, c = np.ogrid[:n, :n]
        assert np.array_equal(presets.cyclic(n).mult, (x + c) % n), n


def test_dihedral_needs_n_at_least_1():
    with pytest.raises(ValueError, match=">= 1"):
        presets.dihedral(0)


def test_every_tiled_pass_follows_the_one_tile_size(monkeypatch):
    """kernels.BLOCK_ENTRIES lowered alone bounds validation, the action law,
    closure and both tiled degree routes on an order-512 group below n^2
    bytes, a quarter of the table, and the conjugation action at its table
    plus one tile's temporaries."""
    G = presets.dihedral(256)
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 1024)
    n = G.order
    conj = conjugation_action(G)
    assert np.array_equal(conj.act, G.mult[G.mult, G.inv[:, None]])
    for call in (lambda: groups.GroupTable(G.mult), lambda: groups.check_action(G, conj.act),
                 lambda: groups.subgroup_generated(G, range(n)),
                 lambda: degree_structural(G), lambda: degree_mn_pushforward(G, 2, 3)):
        assert _traced_peak(call) < n * n
    tile = 4 * 8 * kernels.BLOCK_ENTRIES  # four int64 tiles
    assert _traced_peak(lambda: conjugation_action(G)) <= 4 * n * n + tile


def test_action_and_closure_peaks_at_order_2048():
    G = _d4c4_4()()
    n = G.order
    assert n == 2048  # its table is 16 MB
    out = []
    tile = 4 * 8 * kernels.BLOCK_ENTRIES  # four int64 tiles
    assert _traced_peak(lambda: out.append(conjugation_action(G))) <= 4 * n * n + tile
    assert _traced_peak(lambda: groups.check_action(G, out[0].act)) < 2**20
    assert _traced_peak(lambda: out.append(groups.subgroup_generated(G, range(n)))) < 4 * 2**20
    assert out[1].order == n


# ---------------------------------------------------------------------------
# oversize input fails before anything of its size is allocated

_SQUARE_150_ACTION = [list(range(150))] * 150

_OVERSIZE = {
    "cyclic(20001)": lambda: presets.cyclic(20001),
    "elementary(2,15)": lambda: presets.elementary(2, 15),
    "dihedral(10001)": lambda: presets.dihedral(10001),
    "direct_product(C150, C150)": lambda: direct_product(presets.cyclic(150),
                                                         presets.cyclic(150)),
    "product spec": lambda: build_group(_product_spec(_cyclic_spec(150), _cyclic_spec(150))),
    "semidirect spec": lambda: build_group({"kind": "semidirect",
                                            "normal": _cyclic_spec(150),
                                            "acting": _cyclic_spec(150),
                                            "action": _SQUARE_150_ACTION}),
    "semidirect_product(C150, C150) before its action is read": lambda: (
        groups.semidirect_product(presets.cyclic(150), presets.cyclic(150), None)),
    "product spec under a user cap": lambda: _capped(
        399, lambda: build_group(_product_spec(_cyclic_spec(20), _cyclic_spec(20)))),
    "cayley spec under a user cap": lambda: _capped(
        4, lambda: build_group({"kind": "cayley", "table": presets.cyclic(5).mult.tolist()})),
    "heisenberg_tower(5, 3)": lambda: towers.heisenberg_tower(5, 3),
    "elementary_tower under a user cap": lambda: _capped(
        8, lambda: towers.elementary_tower(2, 4)),
}


def _capped(cap, build):
    with order_cap(cap):
        return build()


@pytest.mark.parametrize("key", sorted(_OVERSIZE))
def test_oversize_input_raises_before_allocating(key):
    def call():
        with pytest.raises(OrderCapExceeded, match="cap"):
            _OVERSIZE[key]()

    assert _traced_peak(call) < 1 << 20


def test_cli_oversize_preset_exits_1_before_allocating(capsys):
    rc = []
    peak = _traced_peak(lambda: rc.append(cli.main(
        ["degree", "--preset", "cyclic", "--n", "30000"])))
    assert rc == [1] and "cap" in capsys.readouterr().err
    assert peak < 1 << 20


def test_cli_order_cap_lowers_the_cap_for_presets(capsys):
    # table_from_rows checks the order before it allocates; the bound
    # still leaves room for the order-300 table (360 KB)
    rc = []
    peak = _traced_peak(lambda: rc.append(cli.main(
        ["degree", "--preset", "cyclic", "--n", "300", "--order-cap", "100"])))
    assert rc == [1] and "cap" in capsys.readouterr().err
    assert peak < (1 << 20) + 4 * 300**2


def test_cli_order_cap_refuses_a_preset_before_building_it(capsys):
    rc = []
    peak = _traced_peak(lambda: rc.append(cli.main(
        ["degree", "--preset", "cyclic", "--n", "20000", "--order-cap", "100"])))
    assert rc == [1] and "cap" in capsys.readouterr().err
    assert peak < 1 << 20


_PRESET_PARAMS = [
    ("trivial", {}), ("cyclic", {"n": 7}), ("klein4", {}), ("quaternion8", {}),
    ("dihedral", {"n": 5}), ("s3", {}), ("s4", {}), ("a4", {}),
    *[("symmetric", {"n": n}) for n in range(1, 8)],
    *[("alternating", {"n": n}) for n in range(1, 8)],
    ("elementary", {"p": 3, "k": 2}), ("elementary", {"p": 2, "n": 3}),
    ("elementary", {"p": 5}), ("heisenberg-mod", {"p": 3}),
]


def test_every_preset_is_refused_below_its_order_before_allocating():
    assert {name for name, _ in _PRESET_PARAMS} == set(presets._PRESETS)
    for name, params in _PRESET_PARAMS:
        order = presets.build_preset(name, params).order
        if order == 1:  # no cap is below it
            continue

        def call():
            with order_cap(order - 1), pytest.raises(OrderCapExceeded,
                                                     match=f"order {order} "):
                presets.build_preset(name, params)

        assert _traced_peak(call) < 1 << 20, (name, params)


def _group_builds(name, params):
    # the parameters are read before the order is checked, even under a cap of 1
    return (lambda: build_group({"kind": "preset", "name": name, "params": params}),
            lambda: _capped(1, lambda: presets.build_preset(name, params)),
            lambda: presets.build_preset(name, params))


@pytest.mark.parametrize("name, params, unread, builds", [
    ("s4", {"n": 5}, "n", _group_builds), ("quaternion8", {"p": 3}, "p", _group_builds),
    ("trivial", {"n": 1}, "n", _group_builds), ("cyclic", {"n": 4, "k": 2}, "k", _group_builds),
    ("dihedral", {"n": 4, "p": 2, "dim": 1}, "dim, p", _group_builds),
    ("heisenberg-mod", {"p": 3, "n": 2}, "n", _group_builds),
    ("elementary", {"p": 3, "k": 2, "dim": 2}, "dim", _group_builds),
    ("so3", {"dim": 2}, "dim",
     lambda name, params: [lambda: sampler.get_sampler_preset(name, **params)]),
    ("su2", {"dim": 3}, "dim", lambda name, params: [lambda: lie.build_lie_preset(name, params)]),
    ("cyclic", {"p": 2, "n": 3}, "n",
     lambda name, params: [lambda: towers.build_tower_preset(name, params)]),
], ids=["s4", "quaternion8", "trivial", "cyclic", "dihedral", "heisenberg-mod", "elementary",
        "sampler-so3", "lie-su2", "tower-cyclic"])
def test_a_preset_spec_refuses_parameters_it_does_not_read(name, params, unread, builds):
    for build in builds(name, params):
        with pytest.raises(ValueError, match=f"^preset '{name}' does not read {unread};"):
            build()


def test_elementary_reads_its_rank_from_k_or_n_not_both():
    assert presets.build_preset("elementary", {"p": 3, "n": 2}).order == 9
    with order_cap(1), pytest.raises(ValueError, match="not both"):
        presets.build_preset("elementary", {"p": 3, "k": 2, "n": 2})


@pytest.mark.parametrize("p,k", [(2, 1), (2, 5), (3, 1), (3, 2), (3, 4), (5, 3), (7, 2),
                                 (11, 2)])
def test_elementary_adds_digit_by_digit(p, k):
    n = p**k

    def digits(i):
        return [i // p**j % p for j in range(k)]

    expected = [[sum((a + b) % p * p**j for j, (a, b) in enumerate(zip(digits(x), digits(y))))
                 for y in range(n)] for x in range(n)]
    assert presets.elementary(p, k).mult.tolist() == expected


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101, 151])
def test_elementary_rank_one_is_the_cyclic_table(p):
    assert np.array_equal(presets.elementary(p, 1).mult, presets.cyclic(p).mult)


def test_order_cap_cannot_be_raised_past_the_default():
    with order_cap(10 * DEFAULT_ORDER_CAP):
        with pytest.raises(OrderCapExceeded, match=str(DEFAULT_ORDER_CAP)):
            groups.require_order(DEFAULT_ORDER_CAP + 1)
        groups.require_order(DEFAULT_ORDER_CAP)


def test_a_nested_block_cannot_raise_the_cap():
    with order_cap(100):
        with order_cap(1000):
            assert ORDER_CAP.get() == 100
            with pytest.raises(OrderCapExceeded, match="order 101 exceeds the order cap 100"):
                groups.require_order(101)
        with order_cap(10):
            assert ORDER_CAP.get() == 10
        assert ORDER_CAP.get() == 100
    assert ORDER_CAP.get() == DEFAULT_ORDER_CAP


def test_the_cap_is_restored_after_a_block_that_raises():
    with pytest.raises(OrderCapExceeded):
        with order_cap(8):
            presets.cyclic(9)
    assert ORDER_CAP.get() == DEFAULT_ORDER_CAP
    assert presets.cyclic(9).order == 9


def test_a_thread_started_inside_a_block_sees_the_default_cap():
    seen = []
    with order_cap(5):
        thread = threading.Thread(target=lambda: seen.append(ORDER_CAP.get()))
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive() and seen == [DEFAULT_ORDER_CAP]


@pytest.mark.parametrize("cap", [0, -5])
def test_a_cap_below_one_is_refused(cap):
    with pytest.raises(ValueError, match=f"at least 1, not {cap}$"):
        with order_cap(cap):
            pass
    assert ORDER_CAP.get() == DEFAULT_ORDER_CAP


@pytest.mark.parametrize("argv, err", [
    (["degree", "--preset", "s4", "--order-cap", "-5"],
     "error: the order cap must be at least 1, not -5\n"),
    (["estimate", "--preset", "torus-x-quaternion8", "--order-cap", "5", "--trials", "100"],
     "error: order 8 exceeds the order cap 5\n"),
])
def test_cli_cap_covers_every_table_and_refuses_a_cap_below_one(capsys, argv, err):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == err


# ---------------------------------------------------------------------------
# one cap check, and none on the counting routes


def test_counting_routes_take_no_order_cap():
    for fn in (degree_bruteforce, degree_mn, degree_of_product, towers.tower_degrees):
        assert "order_cap" not in inspect.signature(fn).parameters, fn.__name__


def test_no_public_function_takes_an_order_cap():
    modules = [importlib.import_module(f"commdeg.{path.stem}")
               for path in sorted(Path(commdeg.__file__).parent.glob("*.py"))
               if path.stem != "__init__"]
    fns = [fn for module in modules for fn in vars(module).values()
           if inspect.isfunction(fn) and fn.__module__ == module.__name__
           and not fn.__name__.startswith("_") and fn is not order_cap]
    fns += [member for module in modules for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
            for member in vars(cls).values() if inspect.isfunction(member)]
    assert len(fns) > 100
    for fn in fns:
        assert not {"order_cap", "cap"} & set(inspect.signature(fn).parameters), fn.__qualname__
    assert list(inspect.signature(groups.require_order).parameters) == ["n"]
    assert cli.build_parser().parse_args(["degree", "--preset", "s3"]).order_cap \
        == DEFAULT_ORDER_CAP


def test_require_order_is_the_only_raise_of_the_cap():
    src = Path(commdeg.__file__).parent
    raises = [(path.name, line) for path in sorted(src.glob("*.py"))
              for line in path.read_text().splitlines()
              if re.search(r"raise OrderCapExceeded\b", line)]
    assert len(raises) == 1 and raises[0][0] == "groups.py"
    assert "raise OrderCapExceeded" in inspect.getsource(groups.require_order)
