"""Counting kernels over Cayley tables, and the library's one tile policy.

``BLOCK_ENTRIES`` is read only here. Every table-sized pass in the library
walks the row tiles of ``row_tiles``, and all three kernels here walk
square tiles, so no temporary grows with n^2. The three counts stay separate
computations because the exact routes in ``degrees`` check each other
through them.
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


def _tile_shape(n):
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
    height, width = _tile_shape(n)
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
    square tiles. Each tile pair (u, v) holding some pm[x] and some pn[y]
    is compared once, and each pair (x, y) there reads its own entry of the
    comparison by one gather.

    The count stays unweighted, with no multiplicity of pm or pn: it reads
    every one of the n^2 pairs on its own, so it checks the pushforward
    route in ``degrees``, which weights each pair of powers by how often it
    occurs. Raises ValueError unless pm and pn are integer maps of length n
    into [0, n).
    """
    mult = np.asarray(mult)
    n = len(mult)
    height, width = _tile_shape(n)
    us, u_cut = _cut_at_tiles(pm, n, height, "pm")
    vs, v_cut = _cut_at_tiles(pn, n, width, "pn")
    total = 0
    for i, s in enumerate(range(0, n, height)):
        a = us[u_cut[i]:u_cut[i + 1]] - s
        if not len(a):
            continue
        for j, t in enumerate(range(0, n, width)):
            b = vs[v_cut[j]:v_cut[j + 1]] - t
            if not len(b):
                continue
            same = mult[s:s + height, t:t + width] == mult[t:t + width, s:s + height].T
            # the row gather same[a] is as wide as the tile
            for p, q in row_tiles(len(a), max(len(b), width)):
                total += int(np.count_nonzero(same[a[p:q]][:, b]))
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
    height, width = _tile_shape(n)
    sizes = np.zeros(n, dtype=np.int64)
    for s in range(0, n, height):
        e = s + height
        for t in range(0, n, width):
            u = t + width
            same = mult[s:e, t:u] == mult[t:u, s:e].T
            sizes[s:e] += np.count_nonzero(same, axis=1)
    return sizes.tolist()
