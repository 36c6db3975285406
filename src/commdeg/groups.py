"""Finite groups as explicit multiplication tables, plus the subgroup and
conjugacy machinery every probability computation consumes.

Conventions: elements are dense indices 0..order-1, the identity is pinned
at index 0, and all member sets are sorted index tuples. Tables are
C-contiguous int32 numpy arrays frozen after construction, so every
operation here is a pure function and safe to call concurrently.

Facts that hold for all of G once they hold for a generating set are
decided on ``GroupTable.generators``, at most log2 |G| elements: the g
with such a property form a subgroup, and a subgroup holding the
generators is G. ``_generating_set`` picks generators of any subgroup,
``centralizer_mask`` finds what commutes with a set and ``orbit_partition``
the orbits of the permutations that generators induce. Associativity, the
center, classes, orbits, G', the characteristic abelian subgroup,
normality and the action and homomorphism laws rest on them. A table is
the translation action of its group, so one routine, ``_law_failure``, is
both Light's test and the action law. Validation decides each axiom once:
identity, that law on the generators and, for a table, right inverses.
Acceptance proves a group or an action, so rows are permutations without
being sorted; ``_rows_are_permutations`` runs only after a check has
failed, to choose the error. ``Subgroup`` checks closure on its
own generators: its members lie in the subgroup they generate, and a set
holding the identity and closed under right multiplication by them holds
that subgroup, so no pass over member pairs is needed. Row tiles come from
``kernels.row_tiles``.
"""
from __future__ import annotations

import operator

import numpy as np

from commdeg.errors import (
    ORDER_CAP,
    InvalidAction,
    NonAssociative,
    NotLatin,
    NotNormal,
    OrderCapExceeded,
)
from commdeg.kernels import row_tiles


def require_order(n):
    """Raise OrderCapExceeded if a group of order ``n`` would exceed the cap
    in force, ``errors.ORDER_CAP``: the one place the cap is enforced."""
    cap = ORDER_CAP.get()
    if n > cap:
        raise OrderCapExceeded(f"order {n} exceeds the order cap {cap}")


def _private(arr):
    """``arr`` as a C-contiguous int32 array that no caller can write to. A
    conversion is a new array already, and a read-only array that owns its
    memory (such as another table's ``mult``) is shared; only a writable
    array or a view of someone else's memory is copied. This is where
    group-sized integer arrays enter, so a non-empty array of anything but
    integers, or with an entry outside int32, raises ValueError: a cast
    would truncate a float, parse a string or wrap a large integer."""
    out = np.asarray(arr)
    if out.size and out.dtype != np.int32:
        if out.dtype.kind not in "iu":
            raise ValueError(f"expected integer entries, not {out.dtype} ones")
        if out.min() < np.iinfo(np.int32).min or out.max() > np.iinfo(np.int32).max:
            raise ValueError("integer entries must fit in int32")
    out = np.ascontiguousarray(out, dtype=np.int32)
    if out.base is not None or (out is arr and out.flags.writeable):
        out = out.copy()
    return out


def distinct(a) -> np.ndarray:
    """The sorted distinct entries of ``a``, flattened: ``np.unique(a)`` by a
    sort and a neighbour compare. On int32 index arrays it is several times
    faster than numpy's hash path, and it does not import ``numpy.ma``,
    which the first plain ``np.unique`` call does."""
    ordered = np.sort(a, axis=None)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def table_from_rows(n, fill, labels=None, name="G"):
    """Validated group of order ``n`` whose table ``fill`` writes.

    This is the one place a constructor allocates a table. The order is
    checked against the cap first. The int32 table ``mult`` is then filled
    one row tile at a time by ``fill(s, e, mult)``, which writes rows s..e-1
    of ``mult`` in place and may read the rows before s; what it returns is
    ignored. So no fill needs an n^2 temporary, and the table, frozen, is
    the one GroupTable shares. ``labels`` may be a lazy iterable; it is
    read only once the table is built.
    """
    require_order(n)
    mult = np.empty((n, n), dtype=np.int32)
    for s, e in row_tiles(n, n):
        fill(s, e, mult)
    return GroupTable(_frozen(mult), labels=labels, name=name)


def _right_closure(mult, gens, reached):
    """Grow the mask ``reached`` in place to its closure under x -> x g for
    each g in ``gens``, by pointer doubling on the column f = mult[:, g]:
    R |= f(R), then f = f[f], until a step adds nothing. After j steps R
    holds f^i(x) for i < 2^j, so a step that adds nothing means R is closed
    under f; that takes about log2 of g's order steps where a breadth-first
    search takes one per power. The generators are walked in turn, from the
    last (the callers' R is often closed under the others already), and
    the walk stops once R is closed under each generator since its last
    growth, or once every element is reached. Exact for any map f, so on
    any square table."""
    closed, i = 0, len(gens) - 1  # generators in a row that R is closed under
    while closed < len(gens):
        f = mult[:, gens[i]]
        closed += 1
        while not reached[step := f[reached]].all():  # f(R) is not inside R
            reached[step] = True
            closed = 1
            if reached.all():
                return
            f = f[f]
        i = (i + 1) % len(gens)


def _law_failure(mult, act, gens):
    """The first (x, g, y), g in ``gens`` order and then (x, y) row-major, with
    act[x g, y] != act[x, act[g, y]], or None. With act = mult this is
    Light's associativity test, (x g) y == x (g y). Both sides are
    gathered with ``take``, along rows and along columns."""
    for g in gens:
        xg, gy = mult[:, g], act[g]
        for s, e in row_tiles(len(act), len(gy)):
            left = act.take(xg[s:e], axis=0)
            right = act[s:e].take(gy, axis=1)
            if not np.array_equal(left, right):
                x, y = np.argwhere(left != right)[0]
                return s + int(x), g, int(y)
    return None


def _rows_are_permutations(table) -> bool:
    """Every row of ``table`` is a permutation of its column indices; rows
    are sorted one row tile at a time."""
    rows, width = table.shape
    idx = np.arange(width, dtype=table.dtype)
    for s, e in row_tiles(rows, width):
        tile = table[s:e]
        if not np.array_equal(np.sort(tile, axis=1), np.broadcast_to(idx, tile.shape)):
            return False
    return True


def _check_range(indices, order, what):
    arr = np.asarray(indices)
    if arr.size and (arr.min() < 0 or arr.max() >= order):
        raise ValueError(f"{what} out of range for order {order}")


def _respects(source, target, image) -> bool:
    """image[x g] == image[x] image[g] for all x and g in source.generators;
    the g that pass are closed under multiplication, so all g pass."""
    return all(
        np.array_equal(image[source.mult[:, g]], target.mult[image, image[g]])
        for g in source.generators
    )


def _generating_set(mult, mask) -> tuple[int, ...]:
    """A generating set of the subgroup whose members are ``mask``. Each
    generator is the least member outside the closure of those before it,
    so each at least doubles the closure and there are at most log2 of the
    subgroup's order, or n.bit_length() on a table that is not a group."""
    reached = np.arange(len(mult)) == 0
    gens = []
    while len(gens) < len(mult).bit_length() and (left := mask & ~reached).any():
        gens.append(int(np.argmax(left)))
        _right_closure(mult, gens, reached)
    return tuple(gens)


class GroupTable:
    """A finite group as an explicit order x order multiplication table.

    ``mult[g, h]`` is the index of g*h; ``inv[g]`` the index of the inverse.
    Construction decides each group axiom once: element 0 is a two-sided
    identity, Light's test passes on ``generators`` (a generating set of at
    most log2(order)) and every element has a right inverse. Together these
    prove the table is a group, so Latin rows follow and are not checked on
    success. On failure the rows are sorted only to classify it: NotLatin
    when a row is not a permutation or the identity fails, in that order,
    else NonAssociative naming a failing triple.
    A writable int32 table is copied first, so the caller's array is never
    frozen; a read-only one is shared.
    """

    __slots__ = ("order", "mult", "inv", "labels", "name", "generators")

    def __init__(self, mult, labels=None, name="G"):
        require_order(len(mult))  # before a given table is copied
        mult = _private(mult)
        if mult.ndim != 2 or mult.shape[0] != mult.shape[1]:
            raise NotLatin("multiplication table must be square")
        n = mult.shape[0]
        if n == 0:
            raise NotLatin("empty table")
        idx = np.arange(n, dtype=np.int32)
        if mult.min() < 0 or mult.max() >= n:
            raise NotLatin("table entries out of range")
        identity = np.array_equal(mult[0], idx) and np.array_equal(mult[:, 0], idx)
        # The g that pass Light's test, (x g) y == x (g y) for all x and y,
        # form a closed submagma (the middle nucleus). A pick g that passes
        # and has a right inverse t has an injective column, (x g) t =
        # x (g t) = x, so the picks generate a group, each new pick doubles
        # the closure, and fewer than n.bit_length() picks cover the table:
        # every element is then in the nucleus and the table is a group. No
        # coverage check is needed, and a Latin table with identity 0 that
        # fails has a failing triple.
        self.generators = _generating_set(mult, np.ones(n, dtype=bool))
        bad = _law_failure(mult, mult, self.generators)
        inv = np.empty(n, dtype=np.int32)
        for s, e in row_tiles(n, n):
            inv[s:e] = np.argmax(mult[s:e] == 0, axis=1)
        if not (identity and bad is None and not mult[idx, inv].any()):
            if not _rows_are_permutations(mult):
                raise NotLatin("some row is not a permutation")
            if not identity:
                raise NotLatin("element 0 is not a two-sided identity")
            raise NonAssociative(f"associativity fails at triple {bad}")
        self.order = n
        self.mult = _frozen(mult)
        self.inv = _frozen(inv)
        self.labels = tuple(labels) if labels is not None else None
        self.name = name
        if self.labels is not None and len(self.labels) != n:
            raise NotLatin("labels length does not match order")

    identity = 0

    def mul(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def power(self, g: int, n: int) -> int:
        if n < 0:
            return self.power(self.inverse(g), -n)
        acc, base = 0, g
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return acc

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mul(x, g)
            k += 1
        return k

    def is_abelian(self) -> bool:
        """The generators commute pairwise; then so do their products, which
        are all of G."""
        gens = np.array(self.generators, dtype=np.intp)
        block = self.mult[gens[:, None], gens]
        return bool(np.array_equal(block, block.T))

    def label(self, g: int) -> str:
        return self.labels[g] if self.labels is not None else str(g)

    def __repr__(self):
        return f"GroupTable({self.name!r}, order={self.order})"


class Subgroup:
    """A validated sorted member set of a parent group, its mask and generators."""

    __slots__ = ("parent", "members", "mask", "generators")

    def __init__(self, parent: GroupTable, members):
        members = tuple(sorted(int(m) for m in set(members)))
        _check_range(members, parent.order, "member index")
        if not members or members[0] != 0:
            raise ValueError("subgroup must contain the identity")
        memb = np.zeros(parent.order, dtype=bool)
        memb[list(members)] = True
        gens = _generating_set(parent.mult, memb)  # members lie in <gens>
        if not memb[parent.mult[np.array(members)[:, None], gens]].all():
            raise ValueError("member set is not closed under multiplication")
        assert parent.order % len(members) == 0, "Lagrange violation"
        self.parent = parent
        self.members = members
        self.mask = _frozen(memb)
        self.generators = gens

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.members)

    def __contains__(self, g: int) -> bool:
        g = operator.index(g)  # a float raises TypeError, a bool is 0 or 1
        return 0 <= g < self.parent.order and bool(self.mask[g])

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name})"


class Homomorphism:
    """Elementwise map between two group tables, validated at construction."""

    __slots__ = ("source", "target", "image")

    def __init__(self, source: GroupTable, target: GroupTable, image):
        image = _private(image)
        if image.shape != (source.order,):
            raise ValueError("image length does not match source order")
        _check_range(image, target.order, "image index")
        if image[0] != 0:
            raise ValueError("homomorphism must send identity to identity")
        if not _respects(source, target, image):
            raise ValueError("map does not respect multiplication")
        self.source = source
        self.target = target
        self.image = _frozen(image)

    def __call__(self, g: int) -> int:
        return int(self.image[g])

    def is_surjective(self) -> bool:
        return len(distinct(self.image)) == self.target.order

    def kernel(self) -> Subgroup:
        return Subgroup(self.source, np.flatnonzero(self.image == 0))

    def __repr__(self):
        return f"Homomorphism({self.source.name} -> {self.target.name})"


# ---------------------------------------------------------------------------
# subgroup machinery


def centralizer_mask(G: GroupTable, elements) -> np.ndarray:
    """Mask of the x in G that commute with every one of ``elements``, one
    row and one column of the table each. What x commutes with is a
    subgroup, so for a generating set of S this is the centralizer of S."""
    mask = np.ones(G.order, dtype=bool)
    for g in elements:
        mask &= G.mult[:, g] == G.mult[g]
    return mask


def centralizer(G: GroupTable, g: int) -> Subgroup:
    """Z(g, G): all elements commuting with g."""
    if not 0 <= g < G.order:
        raise IndexError(f"element index {g} out of range")
    return Subgroup(G, np.flatnonzero(centralizer_mask(G, (g,))))


def center(G: GroupTable) -> Subgroup:
    """Z(G): the elements commuting with every generator."""
    return Subgroup(G, np.flatnonzero(centralizer_mask(G, G.generators)))


def orbit_partition(n, perms) -> list[tuple[int, ...]]:
    """Orbits of the group generated by the permutations ``perms`` of
    0..n-1, each sorted, ordered by least point. Each round lowers every
    point's label (at first the point) to its image's label under each
    permutation, then to its label's label (pointer jumping). Labels only
    fall, so once a round changes none they are constant on every cycle of
    every permutation, hence on orbits, and each is its orbit's least point.
    """
    least, before = np.arange(n), None
    while not np.array_equal(least, before):
        before = least.copy()
        for p in perms:
            np.minimum(least, least[p], out=least)
        least = least[least]
    points = np.argsort(least, kind="stable")
    cuts = [*np.flatnonzero(np.diff(least[points], prepend=-1)).tolist(), n]
    points = points.tolist()
    return [tuple(points[s:e]) for s, e in zip(cuts, cuts[1:])]


def _conjugations(G: GroupTable) -> list[np.ndarray]:
    """x -> g x g^-1 as one permutation per generator g."""
    return [G.mult[G.mult[g], G.inv[g]] for g in G.generators]


def conjugacy_classes(G: GroupTable) -> list[tuple[int, ...]]:
    """Partition of 0..order-1 into conjugacy classes, ordered by least
    member: the orbits of conjugation by the generators."""
    return orbit_partition(G.order, _conjugations(G))


def coset_minima(G: GroupTable, members) -> np.ndarray:
    """least[x] = the least element of the coset x H, for H the subgroup
    with these members; computed one row tile of the table at a time."""
    arr = np.asarray(members, dtype=np.intp)
    least = np.empty(G.order, dtype=np.int32)
    for s, e in row_tiles(G.order, len(arr)):
        least[s:e] = G.mult[s:e].take(arr, axis=1).min(axis=1)
    return least


def subgroup_generated(G: GroupTable, gens) -> Subgroup:
    """Closure of a generator set inside an existing group table."""
    gens = sorted({int(g) for g in gens})
    _check_range(gens, G.order, "generator index")
    reached = np.arange(G.order) == 0
    _right_closure(G.mult, gens, reached)
    return Subgroup(G, np.flatnonzero(reached))


def commutator_subgroup(G: GroupTable) -> Subgroup:
    """G', the normal closure of the commutators of generator pairs (G/N is
    abelian iff the generators' images commute): the orbit of the identity
    under right multiplication by those commutators and conjugation by the
    generators. That orbit is closed under conjugation, and x (h c h^-1) =
    h ((h^-1 x h) c) h^-1, so it is the subgroup the conjugates generate."""
    gens = np.array(G.generators, dtype=np.intp)
    a, b = gens[:, None], gens
    comms = distinct(G.mult[G.mult[G.inv[a], G.inv[b]], G.mult[a, b]])
    moves = [G.mult[:, c] for c in comms] + _conjugations(G)
    return Subgroup(G, orbit_partition(G.order, moves)[0])


def characteristic_abelian_subgroup(G: GroupTable) -> Subgroup:
    """Z(C_G(G')), the center of the centralizer of the commutator
    subgroup: always abelian and normal, and it contains Z(G)."""
    c = centralizer_mask(G, commutator_subgroup(G).generators)
    result = Subgroup(G, np.flatnonzero(c & centralizer_mask(G, _generating_set(G.mult, c))))
    assert is_normal(G, result)
    assert not (centralizer_mask(G, G.generators) & ~result.mask).any()
    gens = list(result.generators)
    assert centralizer_mask(G, gens)[gens].all(), "result must be abelian"
    return result


def is_normal(G: GroupTable, S: Subgroup) -> bool:
    """g h g^-1 lies in S for g in G.generators and h in S.generators. The
    g with g S g^-1 inside S form a subgroup (the normalizer, in a finite
    group), so S is normal once the generators of G pass."""
    g = np.array(G.generators, dtype=np.intp)[:, None]
    h = np.array(S.generators, dtype=np.intp)
    return bool(S.mask[G.mult[G.mult[g, h], G.inv[g]]].all())


def quotient(G: GroupTable, N: Subgroup) -> tuple[GroupTable, Homomorphism]:
    """Coset group G/N with its projection; cosets numbered by least member."""
    if N.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    if not is_normal(G, N):
        raise NotNormal(f"subgroup of order {N.order} is not normal in {G.name}")
    least = coset_minima(G, N.members)
    reps = np.flatnonzero(least == np.arange(G.order)).astype(np.int32)
    coset_of = np.searchsorted(reps, least).astype(np.int32)

    def fill(s, e, mult):
        mult[s:e] = coset_of[G.mult[reps[s:e, None], reps]]

    Q = table_from_rows(len(reps), fill, labels=(f"{G.label(int(r))}N" for r in reps),
                        name=f"{G.name}/N{N.order}")
    return Q, Homomorphism(G, Q, coset_of)


def direct_product(A: GroupTable, B: GroupTable) -> GroupTable:
    """Product group on pairs (a, b), indexed a * |B| + b."""
    nA, nB = A.order, B.order
    n = nA * nB

    def fill(s, e, mult):
        a, b = divmod(np.arange(s, e), nB)
        mult[s:e] = (A.mult[a][:, :, None] * nB + B.mult[b][:, None, :]).reshape(e - s, n)

    labels = None
    if A.labels is not None or B.labels is not None:
        labels = (f"({A.label(a)},{B.label(b)})" for a in range(nA) for b in range(nB))
    return table_from_rows(n, fill, labels=labels, name=f"{A.name}x{B.name}")


def check_action(G: GroupTable, act) -> np.ndarray:
    """Validate one permutation of a point set per element of G, acting by
    act[g h] = act[g] o act[h]; return it as a ``_private`` int32 array or
    raise InvalidAction (or ValueError, from ``_private``).

    Entries in range, the identity acting trivially and the law for h in
    G.generators (the h that pass are closed under multiplication) prove
    it: act[g] o act[g^-1] = act[0] is the identity map, so every row is a
    permutation. On failure the rows are sorted only to classify it: not a
    permutation, then the identity, then the law, in that order.
    """
    act = _private(act)
    if act.ndim != 2 or act.shape[0] != G.order:
        raise InvalidAction("action table must have one row per group element")
    points = act.shape[1]
    # take wraps negative indices and rejects large ones: read the law in range
    in_range = points == 0 or (act.min() >= 0 and act.max() < points)
    identity = np.array_equal(act[0], np.arange(points))
    bad = _law_failure(G.mult, act, G.generators) if in_range else None
    if not (in_range and identity and bad is None):
        if not _rows_are_permutations(act):
            raise InvalidAction("some action row is not a permutation of the points")
        if not identity:
            raise InvalidAction("the identity must act trivially")
        raise InvalidAction(f"action law fails against element {bad[1]}")
    return act


def _as_action_table(N: GroupTable, H: GroupTable, action) -> np.ndarray:
    act = check_action(H, action)
    if act.shape[1] != N.order:
        raise InvalidAction(f"action rows must permute the {N.order} elements of N")
    for h in H.generators:  # other rows are products of these
        if not _respects(N, N, act[h]):
            raise InvalidAction(f"element {h} of H does not act by an automorphism")
    return act


def semidirect_product(N: GroupTable, H: GroupTable, action) -> GroupTable:
    """N x| H with (a, h)(a', h') = (a * phi_h(a'), h h'); indexed a * |H| + h.

    ``action`` is one permutation of N's indices per element of H; it must
    be by automorphisms and a homomorphism into Aut(N) (InvalidAction
    otherwise). The trivial action reproduces direct_product(N, H) exactly.
    """
    nN, nH = N.order, H.order
    n = nN * nH
    require_order(n)  # before the action, nH rows of nN points, is read
    act = _as_action_table(N, H, action)

    def fill(s, e, mult):
        a, h = divmod(np.arange(s, e), nH)
        n_part = N.mult[a[:, None], act[h]]  # [row, a2] = a * phi_h(a2)
        mult[s:e] = (n_part[:, :, None] * nH + H.mult[h][:, None, :]).reshape(e - s, n)

    return table_from_rows(n, fill, name=f"{N.name}x|{H.name}")


def power_map(G: GroupTable, n: int) -> np.ndarray:
    """Table g -> g^n by square-and-multiply on indices (read-only int32)."""
    if n < 1:
        raise ValueError("power must be >= 1")
    acc = np.zeros(G.order, dtype=np.int32)
    base = np.arange(G.order, dtype=np.int32)
    e = n
    while e:
        if e & 1:
            acc = G.mult[acc, base]
        e >>= 1
        if e:
            base = G.mult[base, base]
    return _frozen(acc)


def trivial_group() -> GroupTable:
    return GroupTable([[0]], labels=("e",), name="1")
