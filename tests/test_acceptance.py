"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every equality below is exact Fraction equality; the
only tolerances are the stated Monte Carlo sigma bands and the 1e-9
numeric tolerance of the Lie criteria.
"""
import time
from fractions import Fraction

from commdeg.degrees import (
    degree_bruteforce,
    degree_centralizer_sum,
    degree_mn,
    degree_mn_pushforward,
    degree_of_product,
    degree_structural,
    haar,
)
from commdeg.actions import equalizer_prob_via_group, equalizer_prob_via_points
from commdeg.groups import center, characteristic_abelian_subgroup, direct_product, is_normal
from commdeg.lie import (
    build_lie_preset,
    is_singular,
    is_totally_singular,
    singular_via_alpha,
    straightness_verdict,
)
from commdeg.presets import dihedral, heisenberg_level, quaternion8
from commdeg.sampler import estimate_degree_mn, estimate_finite
from commdeg.towers import (
    cyclic_tower,
    elementary_tower,
    heisenberg_tower,
    product_degree_partials,
    straightness_fraction,
    tower_degrees,
)

from conftest import build_action_suite, inversion_semidirect, oracle_sign_flip_forms

_REPORTS = []  # degree reports accumulated for the rationality criterion


def _ok(num, text, elapsed=None):
    suffix = f"  [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\n[PASS] criterion {num}: {text}{suffix}")


def test_criterion_01_q8_three_ways():
    t0 = time.perf_counter()
    G = quaternion8()
    reports = [degree_bruteforce(G), degree_centralizer_sum(G), degree_structural(G)]
    elapsed = time.perf_counter() - t0
    assert all(r.value == Fraction(5, 8) for r in reports)
    assert elapsed < 0.1
    _REPORTS.extend(reports)
    _ok(1, "d(Q8) = 5/8 by all three exact methods", elapsed)


def test_criterion_02_heisenberg_closed_form():
    t0 = time.perf_counter()
    expected = {2: Fraction(5, 8), 3: Fraction(11, 27), 5: Fraction(29, 125)}
    for p, want in expected.items():
        G = heisenberg_level(p, 1)
        assert (p * p + p - 1, p**3) == (want.numerator, want.denominator)
        for rep in (degree_bruteforce(G), degree_centralizer_sum(G), degree_structural(G)):
            assert rep.value == want, p
            _REPORTS.append(rep)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(2, "d(Heisenberg mod p) = (p^2+p-1)/p^3 for p in {2,3,5}", elapsed)


def test_criterion_03_three_way_equality_corpus(corpus):
    assert len(corpus) >= 30
    t0 = time.perf_counter()
    for name, G in corpus.items():
        a = degree_bruteforce(G)
        b = degree_centralizer_sum(G)
        c = degree_structural(G)
        assert a.value == b.value == c.value, name
        _REPORTS.extend((a, b, c))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(3, f"three-way exact equality on {len(corpus)} groups", elapsed)


def test_criterion_04_pushforward_identity_grid(corpus):
    t0 = time.perf_counter()
    checked = 0
    for name, G in corpus.items():
        for m in (1, 2, 3, 4):
            for n in (1, 2, 3, 4):
                direct = degree_mn(G, m, n)
                pushed = degree_mn_pushforward(G, m, n)
                assert direct.value == pushed.value, (name, m, n)
                checked += 2
                _REPORTS.extend((direct, pushed))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(4, f"degree_mn = pushforward on a 16-point grid ({checked} reports)", elapsed)


def test_criterion_05_rationality_witness(corpus):
    reports = list(_REPORTS)
    if not reports:  # standalone invocation
        reports = [degree_bruteforce(G) for G in corpus.values()]
    for rep in reports:
        assert rep.value.denominator > 0
        assert (rep.group_order**2) % rep.value.denominator == 0
    _ok(5, f"every degree is reduced with denominator dividing |G|^2"
           f" ({len(reports)} reports)")


def test_criterion_06_fubini_identity():
    actions = build_action_suite()
    assert len(actions) >= 10
    checked = 0
    for k, act in enumerate(actions):
        n, x = act.group.order, act.set_size
        measures = [
            ([Fraction(1, n)] * n, [Fraction(1, x)] * x),
        ]
        # deterministic non-uniform rational weights
        gw = [Fraction(2 + (i % 3), 1) for i in range(n)]
        pw = [Fraction(1 + ((i + k) % 4), 1) for i in range(x)]
        measures.append(
            ([w / sum(gw) for w in gw], [w / sum(pw) for w in pw])
        )
        # a measure with zeros
        zw = [Fraction(1 if i % 2 == 0 else 0, 1) for i in range(x)]
        measures.append(([Fraction(1, n)] * n, [w / sum(zw) for w in zw]))
        for gws, pws in measures:
            from commdeg.degrees import Distribution

            mu = Distribution(act.group, tuple(gws))
            lhs = equalizer_prob_via_points(act, mu, pws)
            rhs = equalizer_prob_via_group(act, mu, pws)
            assert lhs == rhs, k
            checked += 1
    _ok(6, f"point and group Fubini sums agree exactly ({checked} cases,"
           f" {len(actions)} actions)")


def test_criterion_07_tower_monotonicity():
    towers = {
        "heisenberg p=2": heisenberg_tower(2, 2),
        "heisenberg p=3": heisenberg_tower(3, 2),
        "elementary p=2": elementary_tower(2, 3),
        "elementary p=3": elementary_tower(3, 2),
        "cyclic p=2": cyclic_tower(2, 3),
        "cyclic p=2 deep": cyclic_tower(2, 3, start=2),
    }
    for name, t in towers.items():
        for m in (1, 2):
            for n in (1, 2):
                rep = tower_degrees(t, m, n)  # AntitoneViolation would raise
                for lo, hi in zip(rep.degrees, rep.degrees[1:]):
                    assert hi <= lo, (name, m, n)
    for p in (2, 3):
        want = Fraction(p * p + p - 1, p**3)
        rep = tower_degrees(heisenberg_tower(p, 2))
        assert rep.degrees == (want, want)
        assert rep.stabilized_value == want
    _ok(7, "tower degrees non-increasing; Heisenberg constant at (p^2+p-1)/p^3")


def test_criterion_08_straightness_evidence():
    rep = straightness_fraction(elementary_tower(2, 3), 2, "trivial")
    assert rep.fractions == (1, 1, 1)
    assert rep.subgroup_indices == (2, 4, 8)
    assert rep.non_straight_evidence
    rep2 = straightness_fraction(cyclic_tower(2, 3, start=2), 2, "trivial")
    assert rep2.fractions == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
    assert not rep2.non_straight_evidence
    _ok(8, "squaring into the trivial subgroup: elementary tower pins fraction 1"
           " with growing index; cyclic tower vanishes 1/2, 1/4, 1/8")


def test_criterion_09_product_law(corpus):
    pairs = [
        ("C2", "Q8"), ("C3", "Q8"), ("C4", "S3"), ("C5", "D4"), ("C6", "A4"),
        ("C7", "S3"), ("C8", "D5"), ("C9", "Q8"), ("C12", "S4"), ("C16", "D6"),
        ("Q8", "Q8"), ("Q8", "D4"), ("D4", "D4"), ("S3", "S3"), ("S3", "A4"),
        ("D5", "D6"), ("H2", "S3"), ("H3", "C2"), ("F20", "C7:C3"), ("V4", "S4"),
        ("E3^2", "D4"), ("C9:C3", "C2"),
    ]
    assert len(pairs) >= 20
    for na, nb in pairs:
        A, B = corpus[na], corpus[nb]
        product_value = degree_bruteforce(direct_product(A, B)).value
        assert degree_of_product(A, B) == product_value, (na, nb)
    d4 = dihedral(4)
    partials = product_degree_partials(
        [Fraction(5, 8), Fraction(5, 8)], factor_groups=[d4, d4]
    )
    assert partials == (Fraction(5, 8), Fraction(25, 64))
    _ok(9, f"d(AxB) = d(A)d(B) on {len(pairs)} pairs; partials 5/8, 25/64"
           " confirmed on the explicit order-64 product")


def test_criterion_10_lie_criteria():
    t0 = time.perf_counter()
    presets = {
        "torus": build_lie_preset("torus", {"dim": 2}),
        "continuous-dihedral": build_lie_preset("continuous-dihedral"),
        "so3": build_lie_preset("so3"),
        "su2": build_lie_preset("su2"),
    }
    for name, preset in presets.items():
        for cert in preset.certificates:
            for n in range(1, 9):
                assert is_singular(cert, n, 1e-9) == singular_via_alpha(cert, n, 1e-9), (
                    name, cert.label, n,
                )
    flips = [c for c in presets["continuous-dihedral"].certificates if c.component == 1]
    assert flips and all(is_totally_singular(c, 2) for c in flips)
    assert not straightness_verdict(presets["continuous-dihedral"], 2).straight
    for n in (2, 3):
        assert straightness_verdict(presets["so3"], n).straight
    for n in range(1, 7):
        assert straightness_verdict(presets["torus"], n).straight
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(10, "eigenvalue and power-sum singularity criteria agree (n <= 8);"
            " flip totally singular at n=2; SO(3)/torus verdicts straight", elapsed)


def test_criterion_11_monte_carlo_battery(q8, corpus):
    t0 = time.perf_counter()
    hits = 0
    for seed in range(100):
        est = estimate_degree_mn("dihedral", 1, 1, 100000, seed)
        if abs(est.mean - 0.25) <= 3 * est.stderr:
            hits += 1
    assert hits >= 99, hits
    so3 = estimate_degree_mn("so3", 1, 1, 100000, 0)
    assert so3.mean == 0.0
    bridges = [
        estimate_finite(q8, 1, 1, 100000, 1),
        estimate_finite(corpus["S3"], 2, 1, 100000, 2),
        estimate_finite(corpus["S4"], 1, 1, 100000, 3),
        estimate_finite(corpus["H3"], 2, 2, 100000, 4),
    ]
    for est in bridges:
        assert est.sigma_off is not None and est.sigma_off <= 6.0, est
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(11, f"dihedral battery {hits}/100 seeds within 3 sigma of 1/4;"
            " SO(3) estimate exactly 0; finite bridges within 6 sigma", elapsed)


def _flip_audit(n):
    """(d, report) for C_n x| C_2 under inversion: the brute-force degree and
    a report of which closed form it matches."""
    value = degree_bruteforce(inversion_semidirect(n)).value
    t, linear, square = oracle_sign_flip_forms(n)
    lines = [f"A = C{n}, t = {t}: brute force d = {value}"]
    lines += [f"  {form:<13} = {v} -> {'MATCH' if value == v else 'MISMATCH'}"
              for form, v in (("(1+3t)/4", linear), ("((1+t)/2)^2", square))]
    if value == linear != square:
        lines.append("  discrepancy: the squared form overcounts the flip-flip part;"
                     " the commuting condition there is 2(a - a') = 0, of measure t,"
                     " not membership of both angles in the 2-torsion set.")
    lines.append("  at t = 0 both forms give 1/4.")
    return value, "\n".join(lines)


def test_criterion_12_inversion_flip_audit():
    d4, report4 = _flip_audit(4)
    d6, report6 = _flip_audit(6)
    assert d4 == Fraction(5, 8)
    assert d6 == Fraction(1, 2)
    for n, d in ((4, d4), (6, d6)):
        _, linear, square = oracle_sign_flip_forms(n)
        assert d == linear
        assert d != square
    assert (1 + 3 * Fraction(0)) / 4 == ((1 + Fraction(0)) / 2) ** 2 == Fraction(1, 4)
    report = report4 + "\n" + report6
    assert "MISMATCH" in report and "discrepancy" in report
    print("\n" + report)
    _ok(12, "brute force gives 5/8 and 1/2, matching (1+3t)/4 and not ((1+t)/2)^2;"
            " discrepancy report emitted; t=0 agreement at 1/4")


def test_criterion_13_characteristic_abelian_suite(corpus):
    for name, G in corpus.items():
        sub = characteristic_abelian_subgroup(G)
        members = list(sub.members)
        block = G.mult[members][:, members]
        assert (block == block.T).all(), name
        assert is_normal(G, sub), name
    for name in ("Q8", "D4", "H3"):
        G = corpus[name] if name != "H3" else heisenberg_level(3, 1)
        assert characteristic_abelian_subgroup(G).members == center(G).members, name
    _ok(13, "characteristic abelian subgroup abelian+normal corpus-wide;"
            " equals the center on Q8, D4, Heisenberg mod 3")
