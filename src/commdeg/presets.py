"""Named finite-group presets, all elaborated to validated GroupTables.

Everything here is deterministic: identical name + params produce
bit-identical tables.
"""
from __future__ import annotations

from math import factorial

import numpy as np

from commdeg.errors import NotPrime
from commdeg.groups import GroupTable, require_order, table_from_rows, trivial_group
from commdeg.schemas import build_named


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def require_prime(p) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise NotPrime(f"{p!r} is not a prime")
    return p


def _ramp_windows(n):
    """Two read-only (n, n) strided views of one doubled ramp, arange(2n) % n:
    row x of the first is the window ramp[x:x+n], so its entry c is
    (x + c) % n, and row x of the second reads the ramp backwards from
    x + n, so its entry c is (x - c) % n. Callers check the order against
    the cap first. The ndarray constructor makes each view in about an
    eighth of the time ``as_strided`` takes, which small orders notice."""
    ramp = np.arange(2 * n, dtype=np.int32) % n
    step = ramp.itemsize
    forward = np.ndarray((n, n), ramp.dtype, ramp, 0, (step, step))
    backward = np.ndarray((n, n), ramp.dtype, ramp, n * step, (step, -step))
    forward.flags.writeable = backward.flags.writeable = False
    return forward, backward


def cyclic(n: int) -> GroupTable:
    """Z/n, with mult[x, c] = (x + c) % n: row x is a window of one ramp."""
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    require_order(n)  # before the ramp
    forward, _ = _ramp_windows(n)

    def fill(s, e, mult):
        mult[s:e] = forward[s:e]

    return table_from_rows(n, fill, labels=(str(i) for i in range(n)), name=f"C{n}")


def elementary(p: int, k: int) -> GroupTable:
    """(Z/p)^k with little-endian digit encoding: index = sum x_i * p^i.

    For p = 2 the sum is XOR. Otherwise each index splits into its low
    ceil(k/2) digits and the rest, and both halves of a sum are read from
    one table of digit sums on the low half's p^ceil(k/2) values.
    """
    require_prime(p)
    if k < 1:
        raise ValueError("rank must be >= 1")
    n = p**k
    require_order(n)  # before the digit table is built
    y = np.arange(n, dtype=np.int32)
    if p == 2:
        def fill(s, e, mult):
            np.bitwise_xor(np.arange(s, e, dtype=np.int32)[:, None], y, out=mult[s:e])
    else:
        half = (k + 1) // 2
        q = p**half
        low = np.arange(q, dtype=np.int32)
        # x // w + y // w == digit_w(x) + digit_w(y) mod p: the higher
        # digits of x // w are multiples of p
        sums = sum((low[:, None] // p**i + low // p**i) % p * p**i for i in range(half))
        y_high, y_low = np.divmod(y, q)

        def fill(s, e, mult):
            x_high, x_low = np.divmod(np.arange(s, e, dtype=np.int32)[:, None], q)
            mult[s:e] = sums[x_high, y_high] * q + sums[x_low, y_low]

    labels = ("(" + ",".join(str(i // p**j % p) for j in range(k)) + ")" for i in range(n))
    return table_from_rows(n, fill, labels=labels, name=f"E{p}^{k}")


def heisenberg_level(p: int, k: int) -> GroupTable:
    """Triples (a, b, z) with a, b mod p^k and z mod p, multiplied by
    (a, b, z)(a', b', z') = (a + a', b + b', z + z' + a b').

    Index encoding: (a * p^k + b) * p + z. Level k = 1 is the order p^3
    mod-p Heisenberg group.
    """
    require_prime(p)
    if k < 1:
        raise ValueError("level must be >= 1")
    q = p**k
    n = q * q * p
    require_order(n)  # before the coordinates of all n elements

    def coordinates(s, e):
        idx = np.arange(s, e, dtype=np.int32)
        return idx // (q * p), (idx // p) % q, idx % p

    a2, b2, z2 = coordinates(0, n)

    def fill(s, e, mult):
        a, b, z = (c[:, None] for c in coordinates(s, e))
        aa = (a + a2) % q
        bb = (b + b2) % q
        zz = (z + z2 + a * b2) % p
        mult[s:e] = (aa * q + bb) * p + zz

    labels = (f"({i // (q * p)},{i // p % q},{i % p})" for i in range(n))
    return table_from_rows(n, fill, labels=labels, name=f"H(p={p},k={k})")


def quaternion8() -> GroupTable:
    """The 8-element quaternion group. Index 2u + s is the unit u of 1, i,
    j, k with sign (-1)^s, so the indices are 1,-1,i,-i,j,-j,k,-k."""
    # units[u][v]: the index of u v, e.g. i j = k (6) and j i = -k (7)
    units = ((0, 2, 4, 6), (2, 1, 6, 5), (4, 7, 1, 2), (6, 4, 3, 1))
    mult = [[units[x >> 1][y >> 1] ^ (x ^ y) & 1 for y in range(8)] for x in range(8)]
    labels = tuple(("-" if s else "") + u for u in "1ijk" for s in (0, 1))
    return GroupTable(mult, labels=labels, name="Q8")


def dihedral(n: int) -> GroupTable:
    """Dihedral group of order 2n, C_n x| C_2 with the inversion action:
    element 2a + h is (a, h), and (a, h)(a', h') = (a + (-1)^h a', h + h').

    In indices that is mult[x, c] = (x + (-1)^x c) % 2n, so an even row is a
    forward window of one ramp mod 2n and an odd row a backward one."""
    if n < 1:
        raise ValueError("dihedral n must be >= 1")
    require_order(2 * n)  # before the ramp
    forward, backward = _ramp_windows(2 * n)

    def fill(s, e, mult):
        even, odd = s + s % 2, s | 1
        mult[even:e:2] = forward[even:e:2]
        mult[odd:e:2] = backward[odd:e:2]

    return table_from_rows(2 * n, fill, name=f"D{n}")


def klein4() -> GroupTable:
    G = elementary(2, 2)
    G.name = "V4"
    return G


def _perm_closure_table(degree: int, gens: list[tuple[int, ...]], name: str) -> GroupTable:
    from commdeg.specs import permutation_closure

    return permutation_closure(degree, gens, name=name)


def _degree(kind: str, n: int, order) -> int:
    """n itself, for 1 <= n <= 8, once ``order(n)`` is checked against the
    cap: S8 and A8 are past it, so n = 8 raises OrderCapExceeded before the
    closure search starts."""
    if not 1 <= n <= 8:
        raise ValueError(f"{kind} preset supports 1 <= n <= 8")
    require_order(order(n))
    return n


def symmetric(n: int) -> GroupTable:
    if _degree("symmetric", n, factorial) == 1:
        return GroupTable([[0]], labels=("()",), name="S1")
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return _perm_closure_table(n, gens, f"S{n}")


def alternating(n: int) -> GroupTable:
    if _degree("alternating", n, lambda n: factorial(n) // 2) <= 2:
        return GroupTable([[0]], labels=("()",), name=f"A{n}")
    gens = [tuple([1, 2, 0] + list(range(3, n)))]
    if n > 3:
        if n % 2 == 1:
            gens.append(tuple(list(range(1, n)) + [0]))
        else:
            gens.append(tuple([0] + list(range(2, n)) + [1]))
    return _perm_closure_table(n, gens, f"A{n}")


def _elementary_params(params):
    if "k" in params and "n" in params:
        raise ValueError("preset 'elementary' reads its rank from k or n, not both")
    return require_prime(params["p"]), params.get("k", params.get("n", 1))


# name -> (the parameters it reads, builder from the params)
_PRESETS = {
    "trivial": ((), lambda params: trivial_group()),
    "cyclic": (("n",), lambda params: cyclic(params["n"])),
    "klein4": ((), lambda params: klein4()),
    "quaternion8": ((), lambda params: quaternion8()),
    "dihedral": (("n",), lambda params: dihedral(params["n"])),
    "symmetric": (("n",), lambda params: symmetric(params["n"])),
    "alternating": (("n",), lambda params: alternating(params["n"])),
    "s3": ((), lambda params: symmetric(3)),
    "s4": ((), lambda params: symmetric(4)),
    "a4": ((), lambda params: alternating(4)),
    "elementary": (("p", "k", "n"), lambda params: elementary(*_elementary_params(params))),
    "heisenberg-mod": (("p",), lambda params: heisenberg_level(params["p"], 1)),
}


def build_preset(name: str, params: dict | None = None) -> GroupTable:
    return build_named("group", _PRESETS, name, params)
