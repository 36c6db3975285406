"""JSON documents for towers, actions, and Lie certificate sets.

Group specs themselves are documented in specs.py. The remaining schemas:

Tower:        {"name": "...", "levels": [groupspec, ...],
               "bonds": [[image array], ...]}       # bonds[k]: level k+2 -> k+1
Action:       {"group": groupspec, "set_size": X, "act": [[...], ...]}
Certificates: {"name": "...", "dim": d, "component_count": c,
               "certificates": [{"label": "...", "component": 0,
                                 "order": 2 | "unknown",
                                 "adjoint": [["1.0", ...], ...]}, ...]}

Adjoint entries are decimal strings so documents stay exact and
language-neutral; an entry that is a bool or null, is a string that is no
number or reads as nan or an infinity raises ValueError naming its
certificate. A certificate's order and component errors name it too.
Every name and label, in these documents and in group specs, is read
exactly as a string by ``_text``.

Each loader imports the modules it builds from when it is called, so a
certificate document loads ``lie`` alone.

``build_named`` is every preset family's lookup; it lives here because
this module imports only the standard library and ``errors``.
"""
from __future__ import annotations

import json
import math
from numbers import Integral
from typing import TYPE_CHECKING

from commdeg.errors import UnknownPreset

if TYPE_CHECKING:
    from commdeg.actions import FiniteAction
    from commdeg.lie import LiePreset
    from commdeg.towers import Tower


def _load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


def _integer(value, what: str) -> int:
    """``value`` as an int, which a document must give as an integer: a
    float, a string, a bool or null raises ValueError rather than being
    truncated, parsed or read as 0 or 1."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return int(value)


def build_named(family: str, table: dict, name: str, params: dict | None = None):
    """``table[name][1](params)``, where an entry is (the parameters it
    reads, its builder from the params). A name that is not a string,
    params that are not a dict and a parameter value that is not an integer
    raise ValueError; an unknown name raises UnknownPreset; a parameter the
    preset does not read, or one it reads but was not given, raises
    ValueError."""
    if not isinstance(name, str):
        raise ValueError(f"a {family} preset name must be a string, not {name!r}")
    if not isinstance(params, (dict, type(None))):
        raise ValueError(f"preset {name!r}: params must be an object, not {params!r}")
    try:
        entry = table[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown {family} preset {name!r}; known: {', '.join(sorted(table))}"
        ) from None
    params = {key: _integer(value, f"preset {name!r} parameter {key!r}")
              for key, value in (params or {}).items()}
    unread = sorted(set(params) - set(entry[0]))
    if unread:
        raise ValueError(
            f"preset {name!r} does not read {', '.join(unread)}; it reads "
            + (", ".join(entry[0]) or "no parameters")
        )
    try:
        return entry[1](params)
    except KeyError as exc:
        raise ValueError(f"preset {name!r} is missing parameter {exc}") from None


def _text(doc, key, what, default=None):
    """doc[key], which a document must give as a string, or ``default``
    when the key is absent: a number, a list or null is not read as text."""
    value = doc.get(key, default)
    if key in doc and not isinstance(value, str):
        raise ValueError(f"{what}: {key!r} must be a string, not {value!r}")
    return value


def _listed(doc, key, item, what):
    """doc[key], which a document must give as a list of ``item`` values."""
    value = doc[key]
    # a bool is an int to isinstance, and no document means one as an index
    if not (isinstance(value, list)
            and all(isinstance(v, item) and not isinstance(v, bool) for v in value)):
        raise ValueError(f"{what}: {key!r} must be a list of {item.__name__}s")
    return value


def tower_from_doc(doc: dict) -> Tower:
    from commdeg.groups import Homomorphism
    from commdeg.specs import build_group
    from commdeg.towers import Tower

    specs, images = _listed(doc, "levels", dict, "tower"), _listed(doc, "bonds", list, "tower")
    if len(images) != len(specs) - 1:
        raise ValueError("a tower needs exactly one bond per adjacent level pair")
    levels = tuple(build_group(spec) for spec in specs)
    bonds = tuple(
        Homomorphism(levels[k + 1], levels[k], image)
        for k, image in enumerate(images)
    )
    return Tower(levels, bonds, name=_text(doc, "name", "tower", "tower"))


def load_tower(path) -> Tower:
    return tower_from_doc(_load(path))


def action_from_doc(doc: dict) -> FiniteAction:
    from commdeg.actions import FiniteAction
    from commdeg.specs import build_group

    group = build_group(doc["group"])
    action = FiniteAction(group, _listed(doc, "act", list, "action"))
    if "set_size" in doc and _integer(doc["set_size"], "action set_size") != action.set_size:
        raise ValueError("set_size does not match the action table width")
    return action


def load_action(path) -> FiniteAction:
    return action_from_doc(_load(path))


def _adjoint_entry(value, label) -> float:
    """``value``, a decimal string or a number, as a finite float, read
    through ``str`` so that an int too large for a float is inf. Anything
    else, a bool or a string that is no number included, and nan or an
    infinity raise ValueError naming the certificate."""
    number = isinstance(value, (str, int, float)) and not isinstance(value, bool)
    try:
        x = float(str(value)) if number else math.nan
    except ValueError:  # a string that is no number
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"certificate {label!r}: adjoint entry {value!r} is not a finite number")
    return x


def certificates_from_doc(doc: dict) -> LiePreset:
    from commdeg.lie import LieElement, LiePreset

    certs = []
    for entry in _listed(doc, "certificates", dict, "certificate document"):
        label = _text(entry, "label", "certificate", "")
        order = entry.get("order", "unknown")
        declared = None if order == "unknown" else _integer(order, f"certificate {label!r} order")
        rows = _listed(entry, "adjoint", list, f"certificate {label!r}")
        adjoint = [[_adjoint_entry(v, label) for v in row] for row in rows]
        certs.append(
            LieElement(
                adjoint,
                declared_order=declared,
                label=label,
                component=_integer(entry.get("component", 0), f"certificate {label!r} component"),
            )
        )
    return LiePreset(
        name=_text(doc, "name", "certificate document", "custom"),
        dim=_integer(doc["dim"], "certificate dim"),
        certificates=tuple(certs),
        component_count=_integer(doc.get("component_count", 1), "component_count"),
    )


def load_certificates(path) -> LiePreset:
    return certificates_from_doc(_load(path))
