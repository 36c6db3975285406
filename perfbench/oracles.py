"""Closed-form commuting probabilities, derived without the commdeg package.

Every value the benchmark checks an output against comes from here or from
a count made in the benchmark's own files, never from the code under test.
d(G) is the number of conjugacy classes divided by |G|, and d is
multiplicative over direct products, so a product's oracle is the product
of its factors' closed forms.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial


def partitions(n: int) -> int:
    """p(n), the number of partitions of n (= conjugacy classes of S_n)."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def symmetric(n: int) -> Fraction:
    """d(S_n) = p(n) / n!."""
    return Fraction(partitions(n), factorial(n))


def gl2(q: int) -> Fraction:
    """d(GL(2, q)) = (q^2 - 1) / |GL(2, q)|; GL(2, q) has q^2 - 1 classes."""
    return Fraction(q * q - 1, (q * q - 1) * (q * q - q))


def sl2(q: int) -> Fraction:
    """d(SL(2, q)) = (q + 4) / |SL(2, q)| for odd q."""
    if q % 2 == 0:
        raise ValueError("the q + 4 class count holds for odd q only")
    return Fraction(q + 4, q * (q * q - 1))


def dihedral_odd(n: int) -> Fraction:
    """d(D_n) = (n + 3) / (4n) for the dihedral group of order 2n, n odd."""
    if n % 2 == 0:
        raise ValueError("closed form holds for odd n only")
    return Fraction(n + 3, 4 * n)


# D4 (order 8) and Q8 both have 5 classes.
D4 = Fraction(5, 8)
Q8 = Fraction(5, 8)
ABELIAN = Fraction(1)


def heisenberg(p: int) -> Fraction:
    """d of the order-p^3 Heisenberg group mod p: (p^2 + p - 1) / p^3.

    The centre has p elements and the p^3 - p others have centralisers of
    order p^2, so there are p + (p^3 - p)/p classes.
    """
    return Fraction(p * p + p - 1, p**3)


def d4_power(m: int, n: int) -> Fraction:
    """P([x^m, y^n] = 1) on D4 x (abelian).

    Squares in D4 are central, so an even power always commutes. An odd
    power of a 2-element generates the same cyclic subgroup as the element,
    so with m and n odd the event is [x, y] = 1.
    """
    return ABELIAN if m % 2 == 0 or n % 2 == 0 else D4


def q8_power(m: int, n: int) -> Fraction:
    """P([x^m, y^n] = 1) on Q8: squares are +-1, which are central."""
    return ABELIAN if m % 2 == 0 or n % 2 == 0 else Q8


def s3_power(m: int, n: int) -> Fraction:
    """P([x^m, y^n] = 1) on S3 for (m, n) = (2, 1).

    x^2 is the identity for the identity and the 3 transpositions (4/6) and
    a 3-cycle otherwise (2/6); a 3-cycle commutes only with the 3 elements
    of A3.
    """
    if (m, n) != (2, 1):
        raise ValueError("only (2, 1) is derived here")
    return Fraction(4, 6) + Fraction(2, 6) * Fraction(3, 6)


def continuous_dihedral(m: int, n: int) -> Fraction:
    """P([x^m, y^n] = 1) on O(2), the circle extended by a flip.

    Half the mass is rotations. A flip's even power is the identity; an odd
    power of a flip is a flip; a power of a rotation is a rotation. Up to
    measure zero, two such powers commute iff one is the identity or both
    are rotations. One power even: 1/2 (identity) + 1/2 * 1/2 (both
    rotations) = 3/4.
    """
    if m % 2 == 0 and n % 2 == 0:
        return Fraction(1)
    if m % 2 == 0 or n % 2 == 0:
        return Fraction(3, 4)
    return Fraction(1, 4)


def heisenberg2_squares_trivial(k: int) -> Fraction:
    """Share of level k of the p = 2 Heisenberg tower with g^2 = 1.

    (a, b, z)^2 = (2a, 2b, 2z + ab) with a, b mod q = 2^k and z mod 2, so
    a, b lie in {0, q/2} and ab must be even. At k = 1 that leaves 3 of the
    4 (a, b) pairs; above it all 4 pairs work. Level order is 2 q^2.
    """
    q = 2**k
    pairs = 3 if k == 1 else 4
    return Fraction(pairs * 2, 2 * q * q)


def heisenberg_level_order(p: int, k: int) -> int:
    return p ** (2 * k + 1)


def s4_class_sizes() -> list[int]:
    """S4 class sizes by cycle type: e, (ab), (ab)(cd), (abc), (abcd)."""
    return sorted([1, 6, 3, 8, 6])


def dihedral_cayley(n: int) -> list[list[int]]:
    """Cayley table of D_n: index i + n*j is r^i s^j.

    (r^a s^b)(r^c s^d) = r^(a + (-1)^b c) s^(b + d).
    """
    table = []
    for x in range(2 * n):
        a, b = x % n, x // n
        row = []
        for y in range(2 * n):
            c, d = y % n, y // n
            i = (a + (-c if b else c)) % n
            row.append(i + n * ((b + d) % 2))
        table.append(row)
    return table


def symmetric_cayley(n: int) -> list[list[int]]:
    """Cayley table of S_n on permutations in lexicographic order.

    The identity is first, so it sits at index 0 as the group tables need.
    Composition is (p * q)(i) = p(q(i)).
    """
    from itertools import permutations

    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
