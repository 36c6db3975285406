"""Counting kernels over Cayley tables, and the library's one tile policy.

``BLOCK_ENTRIES`` is read only here. Every table-sized pass in the library
walks the row tiles of ``row_tiles`` or tiles of ``tile_shape``, so no
temporary grows with n^2. All three kernels here walk square tiles of the
table, and the power-pair count compares a tile pair only on the values the
two maps take in it. The three counts stay separate computations because
the exact routes in ``degrees`` check each other through them.
"""
from math import isqrt

import numpy as np

BACKEND = "numpy"

# Largest number of entries in any temporary array a kernel allocates.
# Square 256 x 256 tiles keep the transposed reads in cache: at order 2048
# they count pairs several times faster than bands of whole rows.
BLOCK_ENTRIES = 1 << 16


def row_tiles(count, width, start=0):
    """(s, e) bounds of the rows start..count-1 of ``width`` entries each, in
    tiles of at most BLOCK_ENTRIES entries, or one row where a row is longer."""
    height = max(1, BLOCK_ENTRIES // max(1, width))
    return ((s, min(s + height, count)) for s in range(start, count, height))


def tile_shape(n):
    """(rows, columns) of a tile of at most BLOCK_ENTRIES entries; slices
    past the table's edge are cut short by numpy."""
    width = max(1, min(n, isqrt(BLOCK_ENTRIES)))
    return BLOCK_ENTRIES // width, width


def count_commuting_pairs(mult):
    """Number of ordered pairs (x, y) with mult[x][y] == mult[y][x].

    Counts the pairs x < y, doubles them and adds the n diagonal pairs.
    """
    mult = np.asarray(mult)
    n = len(mult)
    height, width = tile_shape(n)
    upper = 0
    for s in range(0, n, height):
        e = s + height
        for t in range(s + 1, n, width):
            u = t + width
            same = mult[s:e, t:u] == mult[t:u, s:e].T
            if t < e:  # the tile reaches the diagonal: keep columns y > x
                same = np.triu(same, s - t + 1)
            upper += int(np.count_nonzero(same))
    return n + 2 * upper


def count_commuting_pairs_mn(mult, pm, pn):
    """Number of ordered pairs (x, y) with pm[x] and pn[y] commuting.

    The values pm[x] and pn[y] are sorted and cut at the bounds of the
    square tiles. In each tile pair holding some pm[x] and some pn[y], the
    table is compared only on the distinct values ua and ub that pm and pn
    take there: on the ua x ub sub-block, read from the tile slices, when
    it is small against the tile, else on the whole tile. Each pair (x, y)
    then reads its own entry of that comparison, found by the ranks of
    pm[x] and pn[y], in one gather; a side whose values in the tile are
    all distinct needs no gather (the identity, bijective power maps).

    The count stays unweighted, with no multiplicity of pm or pn: it reads
    every one of the n^2 pairs on its own, so it checks the pushforward
    route in ``degrees``, which weights each pair of powers by how often it
    occurs. Raises ValueError unless pm and pn are integer maps of length n
    into [0, n).
    """
    mult = np.asarray(mult)
    n = len(mult)
    height, width = tile_shape(n)
    us, u_cut = _cut_at_tiles(pm, n, height, "pm")
    vs, v_cut = _cut_at_tiles(pn, n, width, "pn")
    total = 0
    for i, s in enumerate(range(0, n, height)):
        a = us[u_cut[i]:u_cut[i + 1]] - s
        if not len(a):
            continue
        ua, ra = _distinct(a)
        for j, t in enumerate(range(0, n, width)):
            b = vs[v_cut[j]:v_cut[j + 1]] - t
            if not len(b):
                continue
            ub, rb = _distinct(b)
            rows, cols = mult[s:s + height, t:t + width], mult[t:t + width, s:s + height]
            if 2 * len(ua) * len(ub) < rows.size:  # few values: their sub-block
                same = _sub_block(rows, ua, ub) == _sub_block(cols, ub, ua).T
                total += _count_gathered(same, ra, rb)
            else:
                same = rows == cols.T
                total += _count_gathered(same, _unless_all(a, ra, len(rows)),
                                         _unless_all(b, rb, len(cols)))
    return total


def _distinct(a):
    """The distinct values of the sorted array a, and the rank of each entry
    among them, or None for the ranks when they are range(len(a))."""
    new = np.empty(len(a), dtype=bool)
    new[0] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    ua = a[new]
    return ua, (None if len(ua) == len(a) else np.cumsum(new) - 1)


def _unless_all(a, ranks, size):
    """The sorted tile positions a, or None when they are all of range(size)."""
    return None if ranks is None and len(a) == size else a


def _sub_block(tile, ua, ub):
    """tile[ua][:, ub], as a slice on a side whose values are a run of
    consecutive positions."""
    ia = slice(ua[0], ua[-1] + 1) if ua[-1] - ua[0] == len(ua) - 1 else ua
    ib = slice(ub[0], ub[-1] + 1) if ub[-1] - ub[0] == len(ub) - 1 else ub
    return tile[ia][:, ib]


def _count_gathered(same, r, c):
    """np.count_nonzero(same[r][:, c]), where None stands for every row or
    column, gathered in pieces of at most BLOCK_ENTRIES entries. The
    columns are gathered first when r is longer than same is high."""
    if r is None and c is None:
        return int(np.count_nonzero(same))
    if r is None or (c is not None and len(r) > len(same)):
        same, r, c = same.T, c, r
    width = max(same.shape[1], 0 if c is None else len(c))
    total = 0
    for p, q in row_tiles(len(r), width):
        block = same[r[p:q]]
        total += int(np.count_nonzero(block if c is None else block[:, c]))
    return total


def _cut_at_tiles(image, n, size, name):
    """The entries of a map into range(n), sorted, and the positions that cut
    them at the tile bounds 0, size, 2 size, ..."""
    image = np.asarray(image)
    if image.shape != (n,) or not np.issubdtype(image.dtype, np.integer):
        raise ValueError(f"{name} must be an integer map of length {n}")
    if n and (image.min() < 0 or image.max() >= n):
        raise ValueError(f"{name} must map into range({n})")
    image = np.sort(image)
    return image, np.searchsorted(image, range(0, n + size, size))


def centralizer_sizes(mult):
    """List of |Z(g, G)| for every element g."""
    mult = np.asarray(mult)
    n = len(mult)
    height, width = tile_shape(n)
    sizes = np.zeros(n, dtype=np.int64)
    for s in range(0, n, height):
        e = s + height
        for t in range(0, n, width):
            u = t + width
            same = mult[s:e, t:u] == mult[t:u, s:e].T
            sizes[s:e] += np.count_nonzero(same, axis=1)
    return sizes.tolist()
