"""Power-map singularity criteria on certificate presets."""
import json
import warnings
from math import cos, pi, sin

import numpy as np
import pytest

from commdeg import cli
from commdeg.errors import ModulusViolation, UnknownPreset
from commdeg.lie import (
    LieElement,
    LiePreset,
    adjoint_eigenvalues,
    alpha_matrix,
    build_lie_preset,
    continuous_dihedral_preset,
    is_singular,
    is_totally_singular,
    singular_via_alpha,
    so3_preset,
    straightness_verdict,
    su2_preset,
    torus_preset,
)
from commdeg.schemas import certificates_from_doc, load_certificates

ALL_PRESETS = [
    torus_preset(1),
    torus_preset(3),
    continuous_dihedral_preset(),
    so3_preset(),
    su2_preset(),
]


def rotation_element(k, grid=360):
    theta = 2 * pi * k / grid
    order = 1 if k % grid == 0 else grid // np.gcd(k, grid)
    return LieElement(
        [[cos(theta), -sin(theta), 0], [sin(theta), cos(theta), 0], [0, 0, 1]],
        declared_order=int(order),
        label=f"R({k}/{grid})",
    )


def flip_element():
    return LieElement([[-1.0]], declared_order=2, label="flip")


def torus_element(dim=2):
    return LieElement(np.eye(dim), declared_order=None, label="t")


# ---------------------------------------------------------------------------
# eigenvalues


def test_torus_eigenvalues_all_one():
    eigs = adjoint_eigenvalues(torus_element(3))
    assert np.allclose(eigs, 1.0)


def test_flip_eigenvalue_minus_one():
    eigs = adjoint_eigenvalues(flip_element())
    assert eigs.shape == (1,)
    assert abs(eigs[0] + 1.0) < 1e-12


def test_rotation_eigenvalues_match_closed_form():
    for k in (1, 45, 90, 180, 300):
        theta = 2 * pi * k / 360
        eigs = adjoint_eigenvalues(rotation_element(k))
        expected = np.sort_complex(
            np.array([1.0, np.exp(1j * theta), np.exp(-1j * theta)])
        )
        assert np.allclose(eigs, expected, atol=1e-10)


def test_eigenvalue_modulus_enforced():
    e = LieElement(2.0 * np.eye(2), label="scaled")
    with pytest.raises(ModulusViolation):
        adjoint_eigenvalues(e)


def test_unit_modulus_across_presets():
    for preset in ALL_PRESETS:
        for cert in preset.certificates:
            eigs = adjoint_eigenvalues(cert)
            assert np.abs(np.abs(eigs) - 1.0).max() < 1e-6, (preset.name, cert.label)


# ---------------------------------------------------------------------------
# singularity criteria


def test_torus_never_singular():
    e = torus_element()
    assert not any(is_singular(e, n) for n in range(1, 9))


def test_flip_singular_and_totally_singular_for_even_powers():
    e = flip_element()
    assert is_singular(e, 2)
    assert is_totally_singular(e, 2)
    assert not is_singular(e, 3)
    assert not is_totally_singular(e, 3)
    assert is_totally_singular(e, 4)


def test_half_turn_rotation_singular_but_not_totally():
    e = rotation_element(180)
    assert is_singular(e, 2)
    assert not is_totally_singular(e, 2)  # eigenvalue 1 from the axis


def test_alpha_matrix_values():
    assert np.array_equal(alpha_matrix(torus_element(2), 3), 3 * np.eye(2))
    assert np.array_equal(alpha_matrix(flip_element(), 2), np.zeros((1, 1)))
    vals = np.sort(np.linalg.svd(alpha_matrix(rotation_element(180), 2), compute_uv=False))
    assert np.allclose(vals, [0.0, 0.0, 2.0], atol=1e-12)


def test_alpha_route_matches_eigenvalue_route_everywhere():
    for preset in ALL_PRESETS:
        for cert in preset.certificates:
            for n in range(1, 9):
                assert is_singular(cert, n) == singular_via_alpha(cert, n), (
                    preset.name, cert.label, n,
                )


def test_total_singularity_implies_singularity():
    for preset in ALL_PRESETS:
        for cert in preset.certificates:
            for n in range(1, 9):
                if is_totally_singular(cert, n):
                    assert is_singular(cert, n)


@pytest.mark.parametrize("tol, n", [
    (0.0, 2), (-1e-9, 2), (float("nan"), 2), (float("inf"), 2), (5.0, 2), (1.0, 2),
    (sin(pi / 3), 3), (0.5, 6),
])
def test_a_tol_that_cannot_decide_is_refused(tol, n):
    preset = continuous_dihedral_preset()
    for check in (lambda: is_singular(flip_element(), n, tol),
                  lambda: is_totally_singular(flip_element(), n, tol),
                  lambda: straightness_verdict(preset, n, tol)):
        with pytest.raises(ValueError, match="^tol "):
            check()
    if not 0 < tol < float("inf"):
        with pytest.raises(ValueError, match="^tol must be finite and positive"):
            singular_via_alpha(flip_element(), n, tol)


def test_order_consistency_validated():
    with pytest.raises(ValueError):
        LieElement([[-1.0]], declared_order=3)  # (-1)^3 != 1
    with pytest.raises(ValueError):
        LieElement([[0.0]], declared_order=1)  # singular matrix


def test_unknown_order_blocks_total_singularity():
    e = LieElement([[-1.0]], declared_order=None, label="mystery")
    assert not is_totally_singular(e, 2)


# ---------------------------------------------------------------------------
# verdicts


def test_dihedral_not_two_straight():
    v = straightness_verdict(continuous_dihedral_preset(), 2)
    assert not v.straight
    # just below sin(pi/2) = 1 a flip is still told apart from 1
    assert not straightness_verdict(continuous_dihedral_preset(), 2, 0.999).straight
    assert all("flip" in w[0].label for w in v.witnesses)
    assert len(v.witnesses) == 360
    assert "certificate" in v.caveat


def test_dihedral_straight_for_odd_powers():
    v = straightness_verdict(continuous_dihedral_preset(), 3)
    assert v.straight


def test_torus_straight_up_to_six():
    p = torus_preset(2)
    for n in range(1, 7):
        assert straightness_verdict(p, n).straight


def test_so3_straight_for_two_and_three():
    p = so3_preset()
    assert straightness_verdict(p, 2).straight
    assert straightness_verdict(p, 3).straight


def test_su2_straight_small_powers():
    p = su2_preset()
    for n in (2, 3, 4):
        assert straightness_verdict(p, n).straight


def test_unknown_order_recorded_in_notes():
    v = straightness_verdict(torus_preset(1), 2)
    assert any("indeterminate" in note for note in v.notes)


def test_preset_requires_component_coverage():
    with pytest.raises(ValueError):
        LiePreset("bad", 1, (flip_element(),), component_count=2)


def test_build_lie_preset_names():
    assert build_lie_preset("torus", {"dim": 2}).dim == 2
    assert build_lie_preset("so3").component_count == 1
    with pytest.raises(UnknownPreset, match="^unknown Lie preset 'nope'; known: "
                       "continuous-dihedral, so3, su2, torus$"):
        build_lie_preset("nope")


# ---------------------------------------------------------------------------
# JSON certificates


def test_certificates_roundtrip(tmp_path):
    doc = {
        "name": "mini-dihedral",
        "dim": 1,
        "component_count": 2,
        "certificates": [
            {"label": "rot", "component": 0, "order": "unknown", "adjoint": [["1.0"]]},
            {"label": "flip", "component": 1, "order": 2, "adjoint": [["-1.0"]]},
        ],
    }
    path = tmp_path / "certs.json"
    path.write_text(json.dumps(doc))
    preset = load_certificates(path)
    assert preset.dim == 1 and len(preset.certificates) == 2
    v = straightness_verdict(preset, 2)
    assert not v.straight
    assert v.witnesses[0][0].label == "flip"
    assert any("rot" in note for note in v.notes)
    assert certificates_from_doc(doc).name == "mini-dihedral"


def _one_certificate(adjoint, dim=1, label="r"):
    return {"dim": dim, "certificates": [{"label": label, "order": 2, "adjoint": adjoint}]}


@pytest.mark.parametrize("entry", ["nan", "-inf", "inf", float("nan"), 10**400, True, False,
                                   None, "abc", ""])
def test_an_adjoint_entry_that_is_not_a_finite_number_is_refused(tmp_path, capsys, entry):
    with pytest.raises(ValueError, match=r"^certificate 'r': adjoint entry .* is not a finite"):
        certificates_from_doc(_one_certificate([[entry]]))
    path = tmp_path / "certs.json"
    path.write_text(json.dumps(_one_certificate([[entry]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused as read, before numpy sees it
        assert cli.main(["straight", "--group", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: certificate 'r': adjoint entry {entry!r}")


@pytest.mark.parametrize("field", ["order", "component"])
def test_a_certificate_field_that_is_not_an_integer_names_its_certificate(tmp_path, capsys,
                                                                           field):
    doc = _one_certificate([["-1.0"]], label="c0")
    doc["certificates"][0][field] = "2"
    path = tmp_path / "certs.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["straight", "--group", str(path)]) == 1
    want = f"error: certificate 'c0' {field} must be an integer, not '2'\n"
    assert capsys.readouterr().err == want


def test_adjoint_entries_may_be_decimal_strings_or_numbers():
    for entry in ("-1.0", -1, -1.0):
        cert = certificates_from_doc(_one_certificate([[entry]])).certificates[0]
        assert cert.adjoint.tolist() == [[-1.0]]


@pytest.mark.parametrize("doc", [
    _one_certificate([["-1.0"]], dim=2),
    _one_certificate([["-1.0", "0"], ["0", "-1.0"]], dim=1),
    {"dim": 1, "certificates": [
        {"label": "one", "order": 2, "adjoint": [["-1.0"]]},
        {"label": "two", "order": 2, "adjoint": [["-1.0", "0"], ["0", "-1.0"]]}]},
], ids=["1x1-in-dim-2", "2x2-in-dim-1", "mixed-sizes"])
def test_an_adjoint_of_the_wrong_size_is_refused(tmp_path, capsys, doc):
    with pytest.raises(ValueError, match=r"^certificate '(r|two)': adjoint is not \dx\d$"):
        certificates_from_doc(doc)
    path = tmp_path / "certs.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["straight", "--group", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: certificate ")
