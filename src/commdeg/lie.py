"""Eigenvalue criteria for singularity of power maps on compact Lie groups.

A group is represented by a finite certificate list: adjoint matrices with
declared element orders, one or more per connected component, parametrized
families sampled on an angle grid. Verdicts are always relative to the
supplied certificates; the shipped presets document why their certificate
families exhaust the relevant eigenvalue patterns.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, gcd, inf, pi, sin

import numpy as np

from commdeg.errors import ModulusViolation, NonConvergence
from commdeg.schemas import build_named

DEFAULT_TOL = 1e-9
_MODULUS_TOL = 1e-6
_ORDER_TOL = 1e-9
_DET_TOL = 1e-9
_MAX_DIM = 16

CERTIFICATE_CAVEAT = (
    "verdict is relative to the supplied certificates; elements outside the"
    " certificate families are not examined"
)


class LieElement:
    """An adjoint matrix plus the declared order of the group element.

    ``declared_order`` is None when the order in the group is unknown; the
    adjoint alone cannot recover it (it kills the center), so total
    singularity is then reported as indeterminate rather than guessed.
    """

    __slots__ = ("adjoint", "declared_order", "label", "component", "_eigs")

    def __init__(self, adjoint, declared_order=None, label="", component=0):
        adjoint = np.ascontiguousarray(adjoint, dtype=np.float64)
        if adjoint.ndim != 2 or adjoint.shape[0] != adjoint.shape[1]:
            raise ValueError("adjoint must be a square matrix")
        if adjoint.shape[0] > _MAX_DIM:
            raise ValueError(f"adjoint dimension capped at {_MAX_DIM}")
        if abs(np.linalg.det(adjoint)) <= _DET_TOL:
            raise ValueError("adjoint must be invertible")
        if declared_order is not None:
            if declared_order < 1:
                raise ValueError("declared order must be positive")
            powered = np.linalg.matrix_power(adjoint, declared_order)
            err = np.abs(powered - np.eye(adjoint.shape[0])).max()
            if err > _ORDER_TOL:
                raise ValueError(
                    f"adjoint^{declared_order} differs from identity by {err:.2e}"
                )
        adjoint.flags.writeable = False
        self.adjoint = adjoint
        self.declared_order = declared_order
        self.label = label
        self.component = component
        self._eigs = None

    @property
    def dim(self) -> int:
        return self.adjoint.shape[0]

    def __repr__(self):
        o = self.declared_order if self.declared_order is not None else "unknown"
        return f"LieElement({self.label!r}, dim={self.dim}, order={o})"


def adjoint_eigenvalues(e: LieElement) -> np.ndarray:
    """The adjoint spectrum, sorted; all moduli must sit on the unit circle."""
    if e._eigs is None:
        try:
            eigs = np.linalg.eigvals(e.adjoint)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"eigenvalue solver failed on {e.label!r}") from exc
        eigs = np.sort_complex(eigs)
        off = np.abs(np.abs(eigs) - 1.0).max()
        if off > _MODULUS_TOL:
            raise ModulusViolation(
                f"{e.label!r}: eigenvalue modulus off the unit circle by {off:.2e}"
            )
        e._eigs = eigs
    return e._eigs


def _check(n: int, tol: float) -> None:
    """Refuse a power below 1, a tol that is not finite and positive and,
    for n >= 2, a tol of at least sin(pi/n), half the distance from 1 to the
    nearest other n-th root of unity, where "other than 1" cannot be told."""
    if n < 1:
        raise ValueError("power must be >= 1")
    if not 0 < tol < inf:
        raise ValueError(f"tol must be finite and positive, not {tol!r}")
    if n >= 2 and tol >= sin(pi / n):
        raise ValueError(
            f"tol {tol!r} cannot tell {n}-th roots of unity from 1:"
            f" it must be below sin(pi/{n}) = {sin(pi / n):.6g}"
        )


def is_singular(e: LieElement, n: int, tol: float = DEFAULT_TOL) -> bool:
    """True iff some adjoint eigenvalue is an n-th root of unity other than 1."""
    _check(n, tol)
    eigs = adjoint_eigenvalues(e)
    return bool(np.any((np.abs(eigs**n - 1.0) < tol) & (np.abs(eigs - 1.0) >= tol)))


def is_totally_singular(e: LieElement, n: int, tol: float = DEFAULT_TOL) -> bool:
    """True iff the element's n-th power is the identity and every adjoint
    eigenvalue is an n-th root of unity other than 1.

    Returns False when the declared order is unknown; straightness_verdict
    records those certificates as indeterminate.
    """
    _check(n, tol)
    if e.declared_order is None or n % e.declared_order != 0:
        return False
    eigs = adjoint_eigenvalues(e)
    return bool(np.all((np.abs(eigs**n - 1.0) < tol) & (np.abs(eigs - 1.0) >= tol)))


def alpha_matrix(e: LieElement, n: int) -> np.ndarray:
    """The power sum I + A + ... + A^(n-1) of the adjoint."""
    if n < 1:
        raise ValueError("power must be >= 1")
    acc = np.eye(e.dim)
    p = np.eye(e.dim)
    for _ in range(n - 1):
        p = p @ e.adjoint
        acc = acc + p
    return acc


def singular_via_alpha(e: LieElement, n: int, tol: float = DEFAULT_TOL) -> bool:
    """Singularity via non-invertibility of the adjoint power sum."""
    _check(1, tol)  # tol alone; alpha_matrix checks n
    try:
        smallest = np.linalg.svd(alpha_matrix(e, n), compute_uv=False)[-1]
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"SVD failed on {e.label!r}") from exc
    return bool(smallest < tol * n)


@dataclass(frozen=True)
class LiePreset:
    """A named group stand-in: dimension, components, certificate list."""

    name: str
    dim: int
    certificates: tuple[LieElement, ...]
    component_count: int

    def __post_init__(self):
        if not self.certificates:
            raise ValueError("certificate list must be non-empty")
        wrong = next((c for c in self.certificates if c.dim != self.dim), None)
        if wrong is not None:
            raise ValueError(f"certificate {wrong.label!r}: adjoint is not {self.dim}x{self.dim}")
        covered = {c.component for c in self.certificates}
        if covered != set(range(self.component_count)):
            raise ValueError(
                f"certificates cover components {sorted(covered)},"
                f" expected 0..{self.component_count - 1}"
            )


@dataclass(frozen=True)
class StraightnessVerdict:
    straight: bool
    witnesses: tuple[tuple[LieElement, int, str], ...]
    caveat: str
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        assert self.straight == (not self.witnesses)


def straightness_verdict(
    p: LiePreset, n: int, tol: float = DEFAULT_TOL
) -> StraightnessVerdict:
    """Scan all certificates for total singularity of the n-th power map.

    Certificate families repeat spectra (every flip of the dihedral preset
    has adjoint [-1]), so each distinct spectrum is formatted once.
    """
    _check(n, tol)
    witnesses = []
    notes = []
    spectrum_text = {}  # eigs.tobytes() -> str(np.round(eigs, 6))
    for cert in p.certificates:
        if cert.declared_order is None:
            notes.append(
                f"{cert.label or repr(cert)}: order unknown;"
                " total singularity indeterminate"
            )
            continue
        if is_totally_singular(cert, n, tol):
            eigs = adjoint_eigenvalues(cert)
            key = eigs.tobytes()
            if key not in spectrum_text:
                spectrum_text[key] = str(np.round(eigs, 6))
            reason = (
                f"order {cert.declared_order} divides {n} and spectrum"
                f" {spectrum_text[key]} consists of {n}-th roots of unity != 1"
            )
            witnesses.append((cert, n, reason))
    return StraightnessVerdict(
        straight=not witnesses,
        witnesses=tuple(witnesses),
        caveat=CERTIFICATE_CAVEAT,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# presets

GRID = 360


def _rotation3(theta: float) -> np.ndarray:
    c, s = cos(theta), sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _grid(label, adjoint, count=GRID, component=0, order=None) -> list[LieElement]:
    """Certificates ``label(k/count)`` for k < count, with adjoint
    ``adjoint(k)`` and ``order``, or else the order of k/count of a turn,
    count / gcd(k, count) (1 at k = 0, as gcd(0, count) = count)."""
    return [LieElement(adjoint(k), declared_order=order or count // gcd(k, count),
                       label=f"{label}({k}/{count})", component=component)
            for k in range(count)]


def torus_preset(dim: int = 1) -> LiePreset:
    """T^dim. The adjoint of every element is the identity (abelian), so the
    spectrum is {1}; no certificate can ever satisfy the root-of-unity
    criterion and the preset is straight for every n.
    """
    if not 1 <= dim <= 3:
        raise ValueError("torus preset supports dim 1..3")
    eye = np.eye(dim)
    certs = _grid("t", lambda k: eye)
    certs.append(LieElement(eye, declared_order=None, label="t(generic)", component=0))
    return LiePreset(name=f"torus{dim}", dim=dim, certificates=tuple(certs),
                     component_count=1)


def continuous_dihedral_preset() -> LiePreset:
    """The circle extended by the inversion flip; Lie algebra dimension 1.

    Rotation-component certificates have adjoint [1] (never singular); every
    flip (a, -1) has order 2 and adjoint [-1] since conjugating by it
    inverts the circle coordinate, so one flip family covers the whole
    second component: each of its members is totally singular for even n.
    """
    rot = _grid("rot", lambda k: np.array([[1.0]]))
    rot.append(LieElement(np.array([[1.0]]), declared_order=None,
                          label="rot(generic)", component=0))
    flips = _grid("flip", lambda k: np.array([[-1.0]]), component=1, order=2)
    return LiePreset(name="continuous-dihedral", dim=1,
                     certificates=tuple(rot + flips), component_count=2)


def so3_preset() -> LiePreset:
    """SO(3). Every element is conjugate to a z-axis rotation, whose adjoint
    spectrum is {1, e^{i theta}, e^{-i theta}}; the guaranteed eigenvalue 1
    blocks total singularity for every n, so the rotation family is an
    exhaustive certificate set.
    """
    certs = _grid("R", lambda k: _rotation3(2.0 * pi * k / GRID))
    return LiePreset(name="so3", dim=3, certificates=tuple(certs), component_count=1)


def su2_preset() -> LiePreset:
    """SU(2), dim 3. An element with half-angle phi has adjoint equal to the
    rotation by 2*phi, spectrum {1, e^{2i phi}, e^{-2i phi}}; as for SO(3)
    the eigenvalue 1 blocks total singularity for every n. Half-angles run
    over a double grid so the central element -1 appears.
    """
    # half-angle pi k / GRID; the adjoint rotates by twice it
    certs = _grid("q", lambda k: _rotation3(2.0 * (pi * k / GRID)), count=2 * GRID)
    return LiePreset(name="su2", dim=3, certificates=tuple(certs), component_count=1)


# name -> (the parameters it reads, builder from the params)
_PRESETS = {
    "torus": (("dim",), lambda params: torus_preset(params.get("dim", 1))),
    "continuous-dihedral": ((), lambda params: continuous_dihedral_preset()),
    "so3": ((), lambda params: so3_preset()),
    "su2": ((), lambda params: su2_preset()),
}


def build_lie_preset(name: str, params: dict | None = None) -> LiePreset:
    return build_named("Lie", _PRESETS, name, params)
