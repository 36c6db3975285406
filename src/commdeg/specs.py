"""Group specifications: JSON-friendly tagged dicts elaborated to tables.

A spec is a dict with a "kind" key:

  {"kind": "cayley",    "table": [[...]], "labels": [...]?}
  {"kind": "permgen",   "degree": d, "generators": [[image array], ...]}
  {"kind": "matmodgen", "mod": m, "dim": d, "generators": [[d*d ints row-major], ...]}
  {"kind": "preset",    "name": "...", "params": {...}?}
  {"kind": "product",   "a": spec, "b": spec}
  {"kind": "semidirect","normal": spec, "acting": spec, "action": [[...], ...]}
  {"kind": "quotient",  "group": spec, "normal": [member indices]}

Elaboration is deterministic; generator closures run breadth-first from the
identity, applying generators in input order, numbering new elements by
discovery, so identical specs give bit-identical tables.
"""
from __future__ import annotations

import json

import numpy as np

from commdeg.groups import (
    DEFAULT_ORDER_CAP,
    GroupTable,
    Subgroup,
    direct_product,
    quotient,
    require_order,
    semidirect_product,
    table_from_rows,
)
from commdeg.presets import build_preset


def _bfs_closure(identity, gens, compose, order_cap):
    elems = [identity]
    index = {identity: 0}
    qi = 0
    while qi < len(elems):
        x = elems[qi]
        qi += 1
        for g in gens:
            y = compose(x, g)
            if y not in index:
                require_order(len(elems) + 1, order_cap)
                index[y] = len(elems)
                elems.append(y)
    return elems, index


def _table_from_closure(elems, index, compose, labels=None, name="G"):
    def rows(s, e):
        return np.array(
            [[index[compose(x, y)] for y in elems] for x in elems[s:e]], dtype=np.int32
        )

    return table_from_rows(len(elems), rows, labels=labels, name=name)


def permutation_closure(degree, generators, order_cap=DEFAULT_ORDER_CAP, name=None):
    """Group generated by permutations given as 0-based image tuples.

    Composition convention: (p * q)(i) = p(q(i)).
    """
    gens = []
    for g in generators:
        g = tuple(int(v) for v in g)
        if sorted(g) != list(range(degree)):
            raise ValueError(f"generator {g} is not a permutation of 0..{degree - 1}")
        gens.append(g)
    ident = tuple(range(degree))

    def compose(p, q):
        return tuple(p[q[i]] for i in range(degree))

    elems, index = _bfs_closure(ident, gens, compose, order_cap)
    return _table_from_closure(
        elems, index, compose, labels=(str(e) for e in elems),
        name=name or f"perm{degree}#{len(elems)}",
    )


def matrix_mod_closure(mod, dim, generators, order_cap=DEFAULT_ORDER_CAP, name=None):
    """Group generated by dim x dim integer matrices modulo mod."""
    if mod < 2:
        raise ValueError("modulus must be >= 2")
    gens = []
    for flat in generators:
        flat = [int(v) % mod for v in flat]
        if len(flat) != dim * dim:
            raise ValueError(f"matrix generator must have {dim * dim} entries")
        gens.append(tuple(tuple(flat[r * dim : (r + 1) * dim]) for r in range(dim)))
    ident = tuple(tuple(1 if r == c else 0 for c in range(dim)) for r in range(dim))

    def compose(a, b):
        return tuple(
            tuple(sum(a[r][k] * b[k][c] for k in range(dim)) % mod for c in range(dim))
            for r in range(dim)
        )

    elems, index = _bfs_closure(ident, gens, compose, order_cap)
    return _table_from_closure(
        elems, index, compose, name=name or f"mat{dim}mod{mod}#{len(elems)}"
    )


def build_group(spec: dict, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Elaborate a group spec to a validated GroupTable.

    ``order_cap`` can lower the cap, never raise it. It is checked before
    the table exists wherever the spec gives the order: the cayley row
    count, the factor orders of a product or semidirect product, and the
    closure as it grows. A preset is built under the default cap and then
    checked against ``order_cap``.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("group spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if kind == "cayley":
        table = spec["table"]
        require_order(len(table), order_cap)
        return GroupTable(
            table,
            labels=spec.get("labels"),
            name=spec.get("name", f"cayley{len(table)}"),
        )
    if kind == "permgen":
        return permutation_closure(
            int(spec["degree"]), spec["generators"], order_cap=order_cap,
            name=spec.get("name"),
        )
    if kind == "matmodgen":
        return matrix_mod_closure(
            int(spec["mod"]), int(spec["dim"]), spec["generators"],
            order_cap=order_cap, name=spec.get("name"),
        )
    if kind == "preset":
        G = build_preset(spec["name"], spec.get("params"))
        require_order(G.order, order_cap)
        return G
    if kind == "product":
        A, B = build_group(spec["a"], order_cap), build_group(spec["b"], order_cap)
        require_order(A.order * B.order, order_cap)
        return direct_product(A, B)
    if kind == "semidirect":
        N = build_group(spec["normal"], order_cap)
        H = build_group(spec["acting"], order_cap)
        require_order(N.order * H.order, order_cap)
        return semidirect_product(N, H, spec["action"])
    if kind == "quotient":
        G = build_group(spec["group"], order_cap)
        return quotient(G, Subgroup(G, spec["normal"]))[0]
    raise ValueError(f"unknown group spec kind {kind!r}")


def load_group_spec(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"{path}: not a group spec document")
    return spec


def save_group_spec(spec: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)
        fh.write("\n")
