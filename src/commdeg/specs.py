"""Group specifications: JSON-friendly tagged dicts elaborated to tables.

A spec is a dict with a "kind" key:

  {"kind": "cayley",    "table": [[...]], "labels": [...]?}
  {"kind": "permgen",   "degree": d, "generators": [[image array], ...]}
  {"kind": "matmodgen", "mod": m, "dim": d, "generators": [[d*d ints row-major], ...]}
  {"kind": "preset",    "name": "...", "params": {...}?}
  {"kind": "product",   "a": spec, "b": spec}
  {"kind": "semidirect","normal": spec, "acting": spec, "action": [[...], ...]}
  {"kind": "quotient",  "group": spec, "normal": [member indices]}

Elaboration is deterministic, so identical specs give bit-identical
tables. A generator closure numbers its elements as a scalar breadth-first
search does: from the identity, taking one element off the queue at a
time, applying the generators in input order and numbering each product
not seen before. Here the products of a tile of the queue and every
generator are formed at once on an (n, d) array of elements, then scanned
in (queue position, generator) order against one dict from the bytes of
an element's row to its number. A product not in the dict gets the next
number: the scalar search's rule, applied in the scalar search's order,
so the numbering is the same at any tile size.

The table is filled from the search's own record. Each element but the
identity is found as p * g for a queued element p and a generator g, so
its row is row(p) gathered through row(g): (p g) y = p (g y). Only the
generators' rows are looked up by key, one tile of elements at a time,
and the dict is dropped before the fill. Parents are queued before their
children, so every row reads a row filled before it.
"""
from __future__ import annotations

import numpy as np

from commdeg.groups import (
    GroupTable,
    Subgroup,
    direct_product,
    quotient,
    require_order,
    semidirect_product,
    table_from_rows,
)
from commdeg.kernels import row_tiles
from commdeg.presets import build_preset
from commdeg.schemas import _integer, _listed, _load, _text


def _unsigned(bound):
    """Smallest unsigned dtype that holds 0..bound-1."""
    return next(dtype for dtype in (np.uint8, np.uint16, np.uint32, np.uint64)
                if bound - 1 <= np.iinfo(dtype).max)


def _row_bytes(X):
    """The bytes of each row of the 2-D array ``X``, in row order."""
    data, width = X.tobytes(), X.itemsize * X.shape[1]
    return (data[i:i + width] for i in range(0, len(data), width))


def _closure_table(identity, gens, products, name, prefix, labels=None):
    """Validated group generated by ``gens`` from ``identity``, its elements
    numbered in breadth-first discovery order and its rows gathered from
    their parents' rows (see the module docstring: one dict from element
    bytes to number gives the scalar search's numbering).

    ``identity`` is a row of an unsigned dtype that holds every entry.
    ``products(X, Y)`` is the (len(X), len(Y), d) array of the products
    x * y, for X rows of elements and Y either ``gens`` or a tile of
    elements as intp. Without a ``name`` the group is named ``{prefix}#{order}``.
    ``labels(E)`` gives lazy labels for the element array E.
    """
    d, k = identity.size, len(gens)
    elems = np.empty((16, d), dtype=identity.dtype)
    elems[0] = identity
    # element i > 0 is element source[i] // k times generator source[i] % k
    source = np.zeros(16, dtype=np.intp)
    number = {identity.tobytes(): 0}
    count, queued = 1, 0
    while queued < count:
        # the queue up to count in row tiles: k products per element
        for s, queued in row_tiles(count, k, start=queued):
            cand = products(elems[s:queued], gens).reshape(-1, d)
            new = []
            for i, key in enumerate(_row_bytes(cand)):
                if key not in number:
                    number[key] = count + len(new)
                    new.append(i)
            new = np.array(new, dtype=np.intp)
            require_order(count + len(new))
            if count + len(new) > len(elems):
                size = max(2 * len(elems), count + len(new))
                elems, source = np.resize(elems, (size, d)), np.resize(source, size)
            elems[count:count + len(new)] = cand[new]
            source[count:count + len(new)] = s * k + new
            count += len(new)

    elems = elems[:count]
    gen_elems = gens.astype(elems.dtype)
    gen_rows = np.empty((k, count), dtype=np.intp)
    for s, e in row_tiles(count, k * d):  # k products per element
        tile = products(gen_elems, elems[s:e].astype(np.intp)).reshape(-1, d)
        gen_rows[:, s:e] = np.fromiter(map(number.get, _row_bytes(tile)), np.intp,
                                       count=len(tile)).reshape(k, e - s)
    del number
    parent, via = np.divmod(source[:count], max(k, 1))

    def fill(s, e, mult):
        if s == 0:
            mult[0] = np.arange(count)
        for c in range(max(s, 1), e):
            mult[c] = mult[parent[c]].take(gen_rows[via[c]])

    return table_from_rows(count, fill, labels=None if labels is None else labels(elems),
                           name=name or f"{prefix}#{count}")


def permutation_closure(degree, generators, name=None):
    """Group generated by permutations given as 0-based image tuples.

    Composition convention: (p * q)(i) = p(q(i)).
    """
    if degree < 1:
        raise ValueError("permutation degree must be >= 1")
    gens = []
    for g in generators:
        g = tuple(_integer(v, "permutation entry") for v in g)
        if sorted(g) != list(range(degree)):
            raise ValueError(f"generator {g} is not a permutation of 0..{degree - 1}")
        gens.append(g)

    def products(X, Y):  # (x * y)(i) = x(y(i))
        return X.take(Y, axis=1)

    return _closure_table(np.arange(degree, dtype=_unsigned(degree)),
                          np.array(gens, dtype=np.intp).reshape(len(gens), degree),
                          products, name, f"perm{degree}",
                          labels=lambda E: (str(tuple(row.tolist())) for row in E))


def matrix_mod_closure(mod, dim, generators, name=None):
    """Group generated by dim x dim integer matrices modulo mod.

    Products are summed in int32, or in int64 where ``dim * (mod - 1)**2``
    does not fit in int32; it must fit in int64.
    """
    if mod < 2:
        raise ValueError("modulus must be >= 2")
    if dim < 1:
        raise ValueError("matrix dimension must be >= 1")
    bound = dim * (mod - 1) ** 2
    if bound > np.iinfo(np.int64).max:
        raise ValueError(f"modulus {mod} too large for exact int64 products")
    wide = np.int32 if bound <= np.iinfo(np.int32).max else np.int64
    gens = []
    for flat in generators:
        flat = [_integer(v, "matrix entry") % mod for v in flat]
        if len(flat) != dim * dim:
            raise ValueError(f"matrix generator must have {dim * dim} entries")
        gens.append(flat)
    dtype = _unsigned(mod)

    def products(X, Y):
        XY = np.einsum("aij,bjk->abik", X.reshape(-1, dim, dim), Y.reshape(-1, dim, dim),
                       dtype=wide, casting="unsafe")
        return np.remainder(XY, mod, out=XY).astype(dtype).reshape(len(X), len(Y), dim * dim)

    return _closure_table(np.eye(dim, dtype=dtype).ravel(),
                          np.array(gens, dtype=dtype).reshape(len(gens), dim * dim),
                          products, name, f"mat{dim}mod{mod}")


def build_group(spec: dict) -> GroupTable:
    """Elaborate a group spec to a validated GroupTable.

    Every table it builds, factors and quotiented groups included, is
    bounded by the order cap in force, which the ``errors`` module sets.
    Each constructor checks the cap before it allocates: ``GroupTable`` on
    a cayley table's row count, a preset from its parameters or its
    table's order, the closure search as it grows, and a product or
    semidirect product on the product of the factor orders.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("group spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if kind == "cayley":
        table = _listed(spec, "table", list, "cayley spec")
        labels = _listed(spec, "labels", str, "cayley spec") if "labels" in spec else None
        return GroupTable(table, labels=labels,
                          name=_text(spec, "name", "cayley spec", f"cayley{len(table)}"))
    if kind == "permgen":
        return permutation_closure(
            _integer(spec["degree"], "permgen degree"),
            _listed(spec, "generators", list, "permgen spec"),
            name=_text(spec, "name", "permgen spec"),
        )
    if kind == "matmodgen":
        return matrix_mod_closure(
            _integer(spec["mod"], "matmodgen mod"), _integer(spec["dim"], "matmodgen dim"),
            _listed(spec, "generators", list, "matmodgen spec"),
            name=_text(spec, "name", "matmodgen spec"),
        )
    if kind == "preset":
        return build_preset(spec["name"], spec.get("params"))
    if kind == "product":
        return direct_product(build_group(spec["a"]), build_group(spec["b"]))
    if kind == "semidirect":
        return semidirect_product(build_group(spec["normal"]), build_group(spec["acting"]),
                                  spec["action"])
    if kind == "quotient":
        G = build_group(spec["group"])
        return quotient(G, Subgroup(G, _listed(spec, "normal", int, "quotient spec")))[0]
    raise ValueError(f"unknown group spec kind {kind!r}")


def load_group_spec(path) -> dict:
    spec = _load(path)
    if "kind" not in spec:
        raise ValueError(f"{path}: not a group spec document")
    return spec
