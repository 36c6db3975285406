"""Counter-based RNG and Monte Carlo estimator contracts."""
import itertools
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import commdeg.sampler as sampler_mod
from commdeg import rng
from commdeg.errors import PresetMismatch, UnknownPreset
from commdeg.groups import direct_product
from commdeg.presets import cyclic, quaternion8, symmetric
from commdeg.rng import gaussians_from_uniforms, philox4x32, to_uniform, words
from commdeg.sampler import (
    SampledElement,
    commutes,
    estimate_degree_mn,
    estimate_finite,
    get_sampler_preset,
    sample,
)
from conftest import (
    oracle_dihedral_commute,
    oracle_dihedral_commute_exact,
    oracle_dihedral_power,
    oracle_philox4x32,
    oracle_quaternion_power,
    oracle_torus_power,
)


# ---------------------------------------------------------------------------
# RNG


def test_philox_known_answer_vectors():
    # Random123 kat_vectors, philox4x32-10
    zero = philox4x32(np.zeros((1, 4), dtype=np.uint32), 0, 0)[0]
    assert [f"{w:08x}" for w in zero] == ["6627e8d5", "e169c58d", "bc57ac4c", "9b00dbd8"]
    ones = philox4x32(
        np.full((1, 4), 0xFFFFFFFF, dtype=np.uint32), 0xFFFFFFFF, 0xFFFFFFFF
    )[0]
    assert [f"{w:08x}" for w in ones] == ["408f276d", "41c83b0e", "a20bc7c6", "6d5451fd"]
    pi_ctr = np.array(
        [[0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344]], dtype=np.uint32
    )
    digits = philox4x32(pi_ctr, 0xA4093822, 0x299F31D0)[0]
    assert [f"{w:08x}" for w in digits] == ["d16cfe09", "94fdcceb", "5001e420", "24126ea1"]


def test_words_are_substream_sliceable():
    full = words(123, 0, 100, 6, tag=1)
    part = words(123, 40, 60, 6, tag=1)
    assert np.array_equal(full[40:60], part)


def test_words_differ_across_tags_and_seeds():
    a = words(5, 0, 10, 4, tag=0)
    b = words(5, 0, 10, 4, tag=1)
    c = words(6, 0, 10, 4, tag=0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniforms_are_open_interval():
    u = to_uniform(words(9, 0, 1000, 4, tag=0))
    assert u.min() > 0.0 and u.max() < 1.0


def test_gaussians_shape_and_moments():
    g = gaussians_from_uniforms(to_uniform(words(1, 0, 20000, 4, tag=0)))
    assert abs(g.mean()) < 0.02
    assert abs(g.std() - 1.0) < 0.02


_KEY_WORDS = (0, 1, 0xFFFFFFFF)


def _random_counters(rows, seed):
    return np.random.default_rng(seed).integers(0, 1 << 32, size=(rows, 4), dtype=np.uint32)


def _oracle_blocks(counter, key0, key1):
    return [oracle_philox4x32([int(v) for v in row], (key0, key1)) for row in counter]


@pytest.mark.parametrize("key0, key1", itertools.product(_KEY_WORDS, repeat=2))
def test_philox_matches_scalar_reference(key0, key1):
    for rows in (0, 1, 7, 4096):
        ctr = _random_counters(rows, rows + 10 * key0 + key1)
        out = philox4x32(ctr, key0, key1)
        assert out.dtype == np.uint32 and out.shape == (rows, 4)
        assert [tuple(map(int, row)) for row in out] == _oracle_blocks(ctr, key0, key1)


def test_philox_reads_a_non_contiguous_counter_and_leaves_it_unchanged():
    wide = np.random.default_rng(3).integers(0, 1 << 32, size=(500, 8), dtype=np.uint32)
    before = wide.copy()
    for ctr in (wide[:, 2:6], wide[:, ::2], wide[::3, 1::2]):
        assert not ctr.flags.c_contiguous
        out = philox4x32(ctr, 123, 456)
        assert np.array_equal(out, philox4x32(np.ascontiguousarray(ctr), 123, 456))
        assert [tuple(map(int, row)) for row in out] == _oracle_blocks(ctr, 123, 456)
    assert np.array_equal(wide, before)
    ctr = _random_counters(64, 4)
    kept = ctr.copy()
    philox4x32(ctr, 0xFFFFFFFF, 0)
    assert np.array_equal(ctr, kept)


@pytest.mark.parametrize("scalar", [np.uint32, int])
def test_philox_products_never_wrap_at_32_bits(monkeypatch, scalar):
    # NumPy 1.x value-based casting treats a uint64 multiplier that fits in
    # 32 bits like these scalars; the 64-bit product must survive either way
    monkeypatch.setattr(rng, "_M0", scalar(0xD2511F53))
    monkeypatch.setattr(rng, "_M1", scalar(0xCD9E8D57))
    ctr = _random_counters(256, 9)
    out = philox4x32(ctr, 123, 456)
    assert [tuple(map(int, row)) for row in out] == _oracle_blocks(ctr, 123, 456)


def test_philox_writes_into_a_strided_out_view():
    ctr = _random_counters(300, 5)
    wide = np.zeros((300, 12), dtype=np.uint32)
    got = philox4x32(ctr, 7, 8, out=wide[:, 4:8])
    assert np.shares_memory(got, wide)
    assert np.array_equal(wide[:, 4:8], philox4x32(ctr, 7, 8))
    assert not wide[:, :4].any() and not wide[:, 8:].any()


def test_words_make_one_philox_call_per_block_on_every_row(monkeypatch):
    calls = []

    def spy(counter, key0, key1, out=None):
        calls.append(len(counter))
        return philox4x32(counter, key0, key1, out=out)

    monkeypatch.setattr(rng, "philox4x32", spy)
    words(3, 10, 1010, 9, tag=0)
    assert calls == [1000, 1000, 1000]


def test_product_halves_follow_the_byte_order():
    # a swapped pair of views would read 1 as the low word and 2 as the high
    halves = np.array([(1 << 32) | 2], dtype=np.uint64).view(np.uint32)
    assert (int(halves[rng._LO]), int(halves[rng._HI])) == (2, 1)


def test_words_follow_the_counter_layout():
    seed = (0x01234567 << 32) | 0x89ABCDEF
    lo = (5 << 32) - 3  # trial indices cross into the counter's high word
    out = words(seed, lo, lo + 6, 9, tag=7)
    for i, row in enumerate(out):
        trial = lo + i
        for j, word in enumerate(row):
            block = oracle_philox4x32(
                (trial & 0xFFFFFFFF, trial >> 32, j // 4, 7), (0x89ABCDEF, 0x01234567)
            )
            assert int(word) == block[j % 4]


@pytest.mark.parametrize("k", range(1, 10))
def test_words_split_calls_match_one_call(k):
    chunk = 1 << 16
    full = words(99, 0, chunk + 300, k, tag=1)
    assert full.shape == (chunk + 300, k)
    splits = [(0, 1), (0, chunk), (chunk - 1, chunk + 1), (chunk - 200, chunk + 300),
              (17, chunk + 5), (chunk, chunk + 300)]
    for lo, hi in splits:
        assert np.array_equal(words(99, lo, hi, k, tag=1), full[lo:hi]), (lo, hi)


def test_decode_matches_the_textbook_formulas_bit_exactly():
    w = words(8, 0, 5000, 4, tag=0)
    u = to_uniform(w)
    assert np.array_equal(u, (w.astype(np.float64) + 0.5) * 2.0**-32)
    g = gaussians_from_uniforms(u)
    r = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    theta = 2.0 * np.pi * u[:, 1::2]
    assert np.array_equal(g[:, 0::2], r * np.cos(theta))
    assert np.array_equal(g[:, 1::2], r * np.sin(theta))


# ---------------------------------------------------------------------------
# sampling


def test_sample_reproducible():
    a = sample("dihedral", 50, 7)
    b = sample("dihedral", 50, 7)
    assert a == b
    assert all(e.preset == "dihedral" for e in a)


def test_torus_sample_ranges():
    for e in sample(get_sampler_preset("torus", dim=3), 100, 1):
        assert len(e.params) == 3
        assert all(0.0 <= a < 1.0 for a in e.params)


def test_dihedral_sign_frequency():
    signs = [e.params[1] for e in sample("dihedral", 100000, 3)]
    freq = signs.count(-1) / len(signs)
    assert abs(freq - 0.5) <= 3 * 0.5 / np.sqrt(len(signs))


def test_su2_samples_unit_norm():
    for e in sample("su2", 500, 11):
        norm = sum(v * v for v in e.params) ** 0.5
        assert abs(norm - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# the preset protocol

_PROTOCOL_METHODS = {
    "from_words", "to_params", "from_params", "power_arrays", "commute_arrays",
    "exact_degree",
}


def _every_preset():
    names = ("dihedral", "so3", "su2", "torus", "torus-x-quaternion8")
    return [get_sampler_preset(name) for name in names] + [
        sampler_mod.TorusPreset(3),
        sampler_mod.FinitePreset(symmetric(4)),
    ]


def _leaves(arrays):
    if isinstance(arrays, (list, tuple)):
        return [leaf for part in arrays for leaf in _leaves(part)]
    return [arrays]


@pytest.mark.parametrize("p", _every_preset(), ids=lambda p: p.name)
def test_params_codec_round_trips_bit_exactly(p):
    arrays = p.from_words(words(4, 0, 300, p.words_per_element, tag=0))
    again = p.from_params(p.to_params(arrays))
    want, got = _leaves(arrays), _leaves(again)
    assert len(got) == len(want)
    for a, b in zip(want, got):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


_NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_from_params_rejects_non_finite_parameters(bad):
    torus3 = sampler_mod.TorusPreset(3)
    rejected = [
        (get_sampler_preset("torus"), [(0.5,), (bad,)]),
        (torus3, [(0.1, bad, 0.2)]),
        (get_sampler_preset("dihedral"), [(0.5, 1), (bad, -1)]),
        (get_sampler_preset("dihedral"), [(bad, 1)]),
        (get_sampler_preset("su2"), [(1.0, 0.0, 0.0, 0.0), (0.5, bad, 0.5, 0.5)]),
        (get_sampler_preset("so3"), [(bad, 0.0, 0.0, 0.0)]),
        (get_sampler_preset("torus-x-quaternion8"), [((bad,), (3,))]),
    ]
    for p, params in rejected:
        with pytest.raises(ValueError, match="finite"):
            p.from_params(params)
    # commutes() decodes its elements through from_params
    x = SampledElement("torus", (bad,))
    y = SampledElement("torus", (0.5,))
    with pytest.raises(ValueError):
        commutes("torus", x, y, 1, 1)


@pytest.mark.parametrize("sign", [0, 2, -2, 0.5, 127])
def test_dihedral_from_params_rejects_signs_other_than_plus_minus_one(sign):
    p = get_sampler_preset("dihedral")
    with pytest.raises(ValueError, match="signs"):
        p.from_params([(0.25, 1), (0.25, sign)])
    with pytest.raises(ValueError):
        commutes(p, SampledElement("dihedral", (0.25, sign)),
                 SampledElement("dihedral", (0.5, 1)), 1, 1)
    angles, signs = p.from_params([(0.25, 1), (0.5, -1), (0.75, 1.0)])
    assert signs.tolist() == [1, -1, 1] and signs.dtype == np.int8


def test_presets_expose_exactly_the_batch_protocol():
    presets = _every_preset()
    classes = {c for c in vars(sampler_mod).values()
               if isinstance(c, type) and c.__module__ == sampler_mod.__name__
               and c.__name__.endswith("Preset")}
    assert {type(p) for p in presets} == classes
    for p in presets:
        methods = {k for k, v in vars(type(p)).items()
                   if callable(v) and not k.startswith("_")}
        assert methods == _PROTOCOL_METHODS, p.name
        assert isinstance(p.name, str) and p.words_per_element >= 1
        assert not [k for k in dir(p) if k.endswith("_scalar")], p.name


# ---------------------------------------------------------------------------
# exact commutation predicates


def test_dihedral_two_flips_do_not_commute():
    p = get_sampler_preset("dihedral")
    x = SampledElement("dihedral", (0.3, -1))
    y = SampledElement("dihedral", (0.7, -1))
    assert not commutes(p, x, y, 1, 1)  # 2(a - a') = 0.8 mod 1 != 0


@pytest.mark.parametrize("angle", [2.0**60, 1e308, 1.0, -0.25, -2.0**-1074])
def test_dihedral_from_params_rejects_angles_outside_the_unit_interval(angle):
    # unreduced angles would decide commutation by rounding: (0.3, -1)
    # against (2^60, -1) read True, and (1e308, 1) at n = 2 read False
    p = get_sampler_preset("dihedral")
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        p.from_params([(0.5, 1), (angle, -1)])
    with pytest.raises(ValueError):
        commutes(p, SampledElement("dihedral", (0.3, -1)),
                 SampledElement("dihedral", (angle, -1)), 1, 1)
    with pytest.raises(ValueError):
        commutes(p, SampledElement("dihedral", (angle, 1)),
                 SampledElement("dihedral", (0.5, 1)), 2, 2)


def test_dihedral_from_params_keeps_the_unit_interval_bit_exactly():
    p = get_sampler_preset("dihedral")
    edges = [0.0, -0.0, 2.0**-1074, 0.5, 1.0 - 2.0**-53]
    angles, _ = p.from_params([(a, -1) for a in edges])
    assert angles.tobytes() == np.array(edges).tobytes()


def test_dihedral_exact_doubling_condition_fires_on_dyadics():
    p = get_sampler_preset("dihedral")
    x = SampledElement("dihedral", (0.25, -1))
    y = SampledElement("dihedral", (0.75, -1))
    assert commutes(p, x, y, 1, 1)  # 2(a - a') = -1 = 0 mod 1 exactly


def test_dihedral_squares_always_commute():
    p = get_sampler_preset("dihedral")
    for x, y in zip(sample(p, 200, 5), sample(p, 200, 6)):
        assert commutes(p, x, y, 2, 2)
        # squares land in the rotations
        assert p.power_arrays(p.from_params([x.params]), 2)[1][0] == 1


def test_torus_everything_commutes():
    p = get_sampler_preset("torus")
    xs = sample(p, 50, 2)
    assert all(commutes(p, x, y, 3, 5) for x, y in zip(xs, xs[::-1]))


def test_quaternion_parallel_axes_commute():
    p = get_sampler_preset("su2")
    x = SampledElement("su2", (0.8, 0.6, 0.0, 0.0))
    y = SampledElement("su2", (0.6, -0.8, 0.0, 0.0))
    z = SampledElement("su2", (0.8, 0.0, 0.6, 0.0))
    assert commutes(p, x, y, 1, 1)
    assert not commutes(p, x, z, 1, 1)


def test_so3_orthogonal_half_turns_commute_but_not_in_su2():
    x = SampledElement("so3", (0.0, 1.0, 0.0, 0.0))
    y = SampledElement("so3", (0.0, 0.0, 1.0, 0.0))
    assert commutes("so3", x, y, 1, 1)
    xs = SampledElement("su2", (0.0, 1.0, 0.0, 0.0))
    ys = SampledElement("su2", (0.0, 0.0, 1.0, 0.0))
    assert not commutes("su2", xs, ys, 1, 1)


# ---------------------------------------------------------------------------
# power maps and predicates against the % and identity-start oracles

_ORACLE_POWER = {
    "torus": oracle_torus_power,
    "dihedral": oracle_dihedral_power,
    "su2": oracle_quaternion_power,
    "so3": oracle_quaternion_power,
}
_DECODED = 70001


def _same_bits(got, want):
    got, want = _leaves(got), _leaves(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(_ORACLE_POWER))
def test_power_maps_match_the_oracles_bit_for_bit_on_decoded_samples(name):
    p = get_sampler_preset(name)
    for tag in (0, 1):
        arrays = p.from_words(words(2026, 0, _DECODED, p.words_per_element, tag))
        for k in range(1, 5):
            _same_bits(p.power_arrays(arrays, k), _ORACLE_POWER[name](arrays, k))


def test_product_preset_powers_match_the_oracles_bit_for_bit():
    p = get_sampler_preset("torus-x-quaternion8")
    angles, idx = p.from_words(words(2026, 0, _DECODED, p.words_per_element, 0))
    for k in range(1, 5):
        got_angles, got_idx = p.power_arrays([angles, idx], k)
        _same_bits(got_angles, oracle_torus_power(angles, k))
        assert np.array_equal(got_idx, p.components[1].power_arrays(idx, k))


def test_dihedral_predicate_matches_the_oracle_on_decoded_samples():
    p = get_sampler_preset("dihedral")
    xa = p.from_words(words(2026, 0, _DECODED, 2, tag=0))
    ya = p.from_words(words(2026, 0, _DECODED, 2, tag=1))
    for m, n in itertools.product(range(1, 5), repeat=2):
        xm, yn = oracle_dihedral_power(xa, m), oracle_dihedral_power(ya, n)
        want = oracle_dihedral_commute(xm, yn)
        assert np.array_equal(p.commute_arrays(xm, yn), want), (m, n)
        assert np.array_equal(sampler_mod._commute_mask(p, xa, ya, m, n), want), (m, n)


_EDGE = (0.0, -0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53, 2.0**-1074, 3.5)
_EDGE_ANGLES = np.array(_EDGE + tuple(-a for a in _EDGE if a), dtype=np.float64)


def test_torus_power_matches_the_oracle_bit_for_bit_on_edge_angles():
    p = get_sampler_preset("torus")
    arrays = p.from_params([(a,) for a in _EDGE_ANGLES])
    for k in range(1, 5):
        _same_bits(p.power_arrays(arrays, k), oracle_torus_power(arrays, k))


def test_dihedral_matches_the_oracles_bit_for_bit_on_edge_angles():
    p = get_sampler_preset("dihedral")
    elems = [(float(a), s) for a in _EDGE_ANGLES for s in (1, -1)]
    pairs = list(itertools.product(elems, repeat=2))
    # built directly, not by from_params, which refuses angles outside
    # [0, 1): the predicates must match the oracles on any finite angle
    xa, ya = ((np.array([e[0] for e in side]), np.array([e[1] for e in side], dtype=np.int8))
              for side in zip(*pairs))
    fired = 0
    for m, n in itertools.product(range(1, 5), repeat=2):
        xm, yn = p.power_arrays(xa, m), p.power_arrays(ya, n)
        _same_bits(xm, oracle_dihedral_power(xa, m))
        _same_bits(yn, oracle_dihedral_power(ya, n))
        got = p.commute_arrays(xm, yn)
        # the predicate's domain is [0, 1), where the exact answer is the truth
        inside = (xm[0] >= 0) & (xm[0] < 1) & (yn[0] >= 0) & (yn[0] < 1)
        want = oracle_dihedral_commute_exact(xm, yn)
        assert np.array_equal(got[inside], want[inside]), (m, n)
        fired += int((got & inside & ((xm[1] == -1) | (yn[1] == -1))).sum())
    assert fired > 0  # the doubling conditions were exercised, not just rotations


_NEAR_HALVES = (0.0, -0.0, 2.0**-1074, 2.0**-60, 2.0**-33, 0.25 - 2.0**-55, 0.25,
                0.25 + 2.0**-54, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53, 0.75 - 2.0**-54,
                0.75, 0.75 + 2.0**-53, 1.0 - 2.0**-53)


def test_dihedral_predicate_is_exact_on_angles_near_the_halves():
    p = get_sampler_preset("dihedral")
    elems = [(a, s) for a in _NEAR_HALVES for s in (1, -1)]
    xs, ys = zip(*itertools.product(elems, repeat=2))
    xa, ya = p.from_params(xs), p.from_params(ys)
    got = p.commute_arrays(xa, ya)
    assert np.array_equal(got, oracle_dihedral_commute_exact(xa, ya))
    assert got.sum() > len(elems) ** 2 // 4  # more than the rotation pairs
    x = SampledElement("dihedral", (0.5, -1))
    assert not commutes(p, x, SampledElement("dihedral", (2.0**-60, -1)), 1, 1)
    assert commutes(p, x, SampledElement("dihedral", (0.0, -1)), 1, 1)


def test_quaternion_power_equals_the_identity_start_on_zero_components():
    # starting from the identity may flip the sign of a zero component;
    # the values, and so every predicate, agree
    h = 2.0**-0.5
    qs = np.array([
        (1.0, 0.0, 0.0, 0.0), (-1.0, -0.0, 0.0, -0.0), (0.0, 1.0, 0.0, 0.0),
        (-0.0, 0.0, -1.0, 0.0), (0.0, -0.0, -0.0, -1.0), (h, -h, 0.0, -0.0),
        (0.5, -0.5, 0.5, -0.5), (-0.0, h, -h, 0.0),
    ])
    pairs = list(itertools.product(range(len(qs)), repeat=2))
    xa, ya = qs[[i for i, _ in pairs]], qs[[j for _, j in pairs]]
    for name in ("su2", "so3"):
        p = get_sampler_preset(name)
        for m, n in itertools.product(range(1, 5), repeat=2):
            xm, yn = p.power_arrays(xa, m), p.power_arrays(ya, n)
            om, on = oracle_quaternion_power(xa, m), oracle_quaternion_power(ya, n)
            assert np.array_equal(xm, om) and np.array_equal(yn, on), (name, m, n)
            assert np.array_equal(p.commute_arrays(xm, yn), p.commute_arrays(om, on))


def test_preset_mismatch_raises():
    x = SampledElement("torus", (0.5,))
    y = SampledElement("dihedral", (0.5, 1))
    with pytest.raises(PresetMismatch):
        commutes("torus", x, y, 1, 1)


def test_unknown_preset():
    with pytest.raises(UnknownPreset, match="^unknown sampler preset 'lorentz'; known: "
                       "dihedral, so3, su2, torus, torus-x-quaternion8$"):
        get_sampler_preset("lorentz")


# ---------------------------------------------------------------------------
# estimates


def test_estimate_dihedral_close_to_quarter():
    est = estimate_degree_mn("dihedral", 1, 1, 100000, 42)
    assert est.exact == Fraction(1, 4)
    assert abs(est.mean - 0.25) <= 3 * est.stderr
    assert est.stderr == pytest.approx(
        (est.mean * (1 - est.mean) / est.trials) ** 0.5
    )


def test_estimate_dihedral_even_powers_certain():
    est = estimate_degree_mn("dihedral", 2, 2, 1000, 0)
    assert est.mean == 1.0 and est.exact == 1


@pytest.mark.parametrize(
    "m, n, exact",
    [
        (1, 1, Fraction(1, 4)),
        (3, 5, Fraction(1, 4)),
        (2, 2, Fraction(1)),
        (4, 2, Fraction(1)),
        (2, 3, Fraction(3, 4)),
        (3, 2, Fraction(3, 4)),
        (1, 2, Fraction(3, 4)),
    ],
)
def test_dihedral_exact_degree_by_parity(m, n, exact):
    # an even power sends a flip to the identity, which commutes with anything
    assert get_sampler_preset("dihedral").exact_degree(m, n) == exact


@pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (1, 2)])
def test_estimate_dihedral_mixed_parity_consistent(m, n):
    est = estimate_degree_mn("dihedral", m, n, 100000, 7)
    assert est.exact == Fraction(3, 4)
    assert est.consistency == "ok"


def test_estimate_so3_exactly_zero():
    est = estimate_degree_mn("so3", 1, 1, 20000, 9)
    assert est.mean == 0.0
    assert est.exact == 0
    assert est.sigma_off == 0.0


def test_estimate_su2_exactly_zero():
    assert estimate_degree_mn("su2", 2, 3, 5000, 1).mean == 0.0


def test_estimate_torus_certain():
    est = estimate_degree_mn("torus", 3, 4, 500, 2)
    assert est.mean == 1.0 and est.exact == 1


def test_estimate_product_preset_tracks_q8():
    est = estimate_degree_mn("torus-x-quaternion8", 1, 1, 100000, 17)
    assert est.exact == Fraction(5, 8)
    assert abs(est.mean - 0.625) <= 3 * est.stderr


PINNED_COUNTS = [
    ("dihedral", 1, 1, 33092),
    ("dihedral", 2, 3, 98511),
    ("dihedral", 3, 3, 33092),
    ("so3", 1, 1, 0),
    ("so3", 2, 2, 0),
    ("su2", 2, 2, 0),
    ("su2", 3, 1, 0),
    ("torus", 2, 3, 131075),
    ("torus-x-quaternion8", 1, 1, 82224),
    ("torus-x-quaternion8", 1, 2, 131075),
]


@pytest.mark.parametrize("name, m, n, successes", PINNED_COUNTS)
def test_estimate_success_counts_are_pinned(name, m, n, successes):
    # two full chunks and a ragged one
    assert estimate_degree_mn(name, m, n, 131075, 2026).successes == successes


def test_estimate_reproducible_and_chunk_independent(monkeypatch):
    baseline = estimate_degree_mn("dihedral", 1, 1, 5000, 13)
    again = estimate_degree_mn("dihedral", 1, 1, 5000, 13)
    assert baseline.mean == again.mean
    monkeypatch.setattr(sampler_mod, "_CHUNK", 97)
    chunked = estimate_degree_mn("dihedral", 1, 1, 5000, 13)
    assert chunked.successes == baseline.successes


NAMED_PRESETS = ("dihedral", "so3", "su2", "torus", "torus-x-quaternion8")


def success_counts(trial_counts):
    """(case, trials) -> successes for every named preset at (2, 3) and for
    S4 x C3 at (1, 2). Each finite estimate builds a fresh FinitePreset, so
    its sub-chunks race to fill the power tables."""
    s4xc3 = direct_product(symmetric(4), cyclic(3))
    counts = {}
    for t in trial_counts:
        for name in NAMED_PRESETS:
            counts[name, t] = estimate_degree_mn(name, 2, 3, t, 2026).successes
        counts["S4xC3", t] = estimate_finite(s4xc3, 1, 2, t, 2026).successes
    return counts


def test_success_counts_do_not_depend_on_the_worker_count(monkeypatch):
    # one sub-chunk, a few with a ragged end, and two full chunks plus one row
    trial_counts = (100, 12345, 131075)
    monkeypatch.setattr(sampler_mod, "_WORKERS", 1)
    single = success_counts(trial_counts)
    # more threads than cores, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3):
            monkeypatch.setattr(sampler_mod, "_WORKERS", workers)
            assert success_counts(trial_counts) == single, workers
    finally:
        sys.setswitchinterval(interval)
    # 48-row sub-chunks: hundreds of tasks on two threads
    monkeypatch.setattr(sampler_mod, "_CHUNK", 97)
    monkeypatch.setattr(sampler_mod, "_WORKERS", 2)
    small = success_counts(trial_counts[:2])
    assert small == {key: v for key, v in single.items() if key in small}


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pinned_success_counts_hold_on_every_worker_count(monkeypatch, workers):
    monkeypatch.setattr(sampler_mod, "_WORKERS", workers)
    for name, m, n, successes in PINNED_COUNTS:
        assert estimate_degree_mn(name, m, n, 131075, 2026).successes == successes, name


class FailsOnSecondSubChunk(sampler_mod.TorusPreset):
    """A torus whose predicate raises on the second call it receives."""

    def __init__(self):
        super().__init__()
        self.calls = itertools.count()

    def commute_arrays(self, xa, ya):
        if next(self.calls) == 1:
            raise ArithmeticError("second sub-chunk")
        return super().commute_arrays(xa, ya)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_failing_sub_chunk_raises_in_the_caller_and_leaves_no_thread(
        monkeypatch, workers):
    monkeypatch.setattr(sampler_mod, "_WORKERS", workers)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="second sub-chunk"):
        estimate_degree_mn(FailsOnSecondSubChunk(), 1, 1, 131075, 2026)
    assert threading.active_count() == before
    assert estimate_degree_mn("torus", 1, 1, 131075, 2026).successes == 131075
    assert threading.active_count() == before


def test_one_sub_chunk_starts_no_thread(monkeypatch):
    monkeypatch.setattr(sampler_mod, "_WORKERS", 2)
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    assert estimate_degree_mn("dihedral", 1, 1, 1 << 15, 3).successes > 0
    assert started == []


def test_sampled_pairs_through_commutes_reproduce_successes():
    for name, m, n in (("dihedral", 1, 1), ("su2", 3, 2), ("torus-x-quaternion8", 2, 1)):
        p = get_sampler_preset(name)
        trials = 400
        xs = sample(p, trials, 21)
        ya = p.from_words(words(21, 0, trials, p.words_per_element, tag=1))
        ys = [SampledElement(p.name, prm) for prm in p.to_params(ya)]
        manual = sum(commutes(p, x, y, m, n) for x, y in zip(xs, ys))
        est = estimate_degree_mn(p, m, n, trials, 21)
        assert est.successes == manual, name


def test_named_presets_are_built_once():
    for name in ("dihedral", "so3", "su2", "torus", "torus-x-quaternion8"):
        assert sampler_mod._resolve(name) is sampler_mod._resolve(name)
        assert sampler_mod._resolve(name).name == name


def test_commutes_by_name_matches_a_fresh_preset():
    for name, m, n in (("dihedral", 2, 1), ("so3", 1, 1), ("torus", 3, 2),
                       ("torus-x-quaternion8", 1, 2), ("torus-x-quaternion8", 2, 2)):
        xs = sample(name, 300, 5)
        ys = sample(name, 300, 6)
        by_name = [commutes(name, x, y, m, n) for x, y in zip(xs, ys)]
        fresh = [commutes(get_sampler_preset(name), x, y, m, n) for x, y in zip(xs, ys)]
        assert by_name == fresh, name
        assert by_name == [commutes(name, x, y, m, n) for x, y in zip(xs, ys)], name


def test_estimate_requires_hundred_trials():
    with pytest.raises(ValueError):
        estimate_degree_mn("dihedral", 1, 1, 99, 0)


def test_estimate_finite_q8_bridge(q8):
    est = estimate_finite(q8, 1, 1, 100000, 5)
    assert est.exact == Fraction(5, 8)
    assert est.consistency in ("ok", "flagged")


def test_estimate_finite_s3_power_bridge():
    est = estimate_finite(symmetric(3), 2, 1, 100000, 5)
    assert est.exact == Fraction(5, 6)
    assert est.consistency in ("ok", "flagged")


def test_estimate_finite_trivial_group_certain():
    est = estimate_finite(cyclic(1), 1, 1, 200, 0)
    assert est.mean == 1.0 and est.exact == 1 and est.sigma_off == 0.0


def test_finite_sampling_is_nearly_uniform(q8):
    p = sampler_mod.FinitePreset(q8)
    idx = p.from_words(words(3, 0, 80000, 2, tag=0))
    counts = np.bincount(idx, minlength=8)
    assert counts.min() > 0.9 * 80000 / 8


def test_consistency_thresholds():
    from commdeg.sampler import Estimate

    base = dict(preset="x", m=1, n=1, trials=10000, seed=0, successes=2500)
    ok = Estimate(**base, mean=0.25, stderr=0.004330127, exact=Fraction(1, 4))
    assert ok.consistency == "ok"
    flagged = Estimate(**base, mean=0.27, stderr=0.004, exact=Fraction(1, 4))
    assert flagged.consistency == "flagged"
    failed = Estimate(**base, mean=0.30, stderr=0.004, exact=Fraction(1, 4))
    assert failed.consistency == "failed"
    unknowable = Estimate(**base, mean=0.25, stderr=0.004, exact=None)
    assert unknowable.consistency is None
