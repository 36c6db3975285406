"""Counter-based random words: Philox4x32-10, vectorized over trials.

Trial i draws from substream i: the counter carries (trial, block, tag)
and the key carries the 64-bit seed, so any slice of trials can be
generated independently and in any order with identical results. Output
words depend only on (seed, trial, block, tag).

Trial indices fill the counter's two trial words, so there are 2^64
substreams; ``words`` refuses an index outside [0, 2^64) rather than let
it wrap onto trial 0.

The generator holds its state in two paired lanes, each a (2, N) uint32
array: a = (x0, x2), the words that are multiplied, and b = (x1, x3). A
round is three ufunc calls: one multiply of a by the (2, 1) multiplier
column (M0, M1) into a (2, N) uint64 product buffer p, then
a = hi(p)[::-1] ^ b, then a ^= the round key. The multiply names its uint64
loop and casts the multipliers into it, so a product never wraps at 32 bits
whether they are written as uint32, uint64 or Python ints, and whatever the
scalar-promotion rules of the NumPy version. The high and low
halves of the products are strided uint32 views of the buffer, taken in
swapped lane order, so no shift, mask or copy is needed: the next round's
b is the low-half view itself. Two product buffers alternate, so that view
survives the next multiply. The rounds keep a in the output's own columns,
so the last round leaves only b to copy out.

``words`` keeps the counter word-major, a (4, N) array whose transpose is
the (N, 4) counter, and has ``philox4x32`` write block j into rows
4j..4j+3 of a (4 * blocks, N) buffer, one call on all rows per block. It
returns a transposed view of that buffer: the (N, n_words) result has the
values and indexing of a row-major array, but each word column is
contiguous, so the decoders, Box-Muller and the predicates read contiguous
memory.
"""
from __future__ import annotations

import sys

import numpy as np

# the round multipliers of the lanes (x0, x2), one row per lane
_M = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = 0xFFFFFFFF
_ROUNDS = 10
# trials with a substream of their own: the counter's two trial words
SUBSTREAMS = 1 << 64
# positions of the low and high uint32 halves inside one uint64
_LO, _HI = (0, 1) if sys.byteorder == "little" else (1, 0)


def philox4x32(counter: np.ndarray, key0: int, key1: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """One Philox4x32-10 block per row of ``counter`` (shape (N, 4), uint32).

    Returns an (N, 4) uint32 array, written into ``out`` (any (N, 4) uint32
    array, a strided view included) when given, else a new array with
    contiguous columns; ``counter`` is not modified. The key words are
    taken mod 2^32.
    """
    counter = np.asarray(counter, dtype=np.uint32)
    n = len(counter)
    if out is None:
        out = np.empty((4, n), dtype=np.uint32).T
    x = counter[:, 0::2].T  # the lanes (x0, x2), read by the first multiply
    b = counter[:, 1::2].T  # the lanes (x1, x3)
    a = out[:, 0::2].T  # the rounds write (x0, x2) straight into ``out``
    # two product buffers, each with its high and low halves in swapped
    # lane order; a round reads b from the other buffer. They are allocated
    # apart: as one (2, 2, N) block they raised the peak RSS of a threaded
    # estimate by about 1 MB, through malloc's adaptive mmap threshold
    buffers = []
    for p in (np.empty((2, n), dtype=np.uint64), np.empty((2, n), dtype=np.uint64)):
        halves = p.view(np.uint32)[::-1]
        buffers.append((p, halves[:, _HI::2], halves[:, _LO::2]))
    k0, k1 = key0 & _MASK32, key1 & _MASK32
    keys = np.array([[[(k0 + r * _W0) & _MASK32], [(k1 + r * _W1) & _MASK32]]
                     for r in range(_ROUNDS)], dtype=np.uint32)
    for r in range(_ROUNDS):
        p, hi, lo = buffers[r % 2]
        np.multiply(x, _M, out=p, dtype=np.uint64, casting="unsafe")
        np.bitwise_xor(hi, b, out=a)
        a ^= keys[r]
        x, b = a, lo
    np.copyto(out[:, 1::2].T, b)
    return out


def words(seed: int, trial_lo: int, trial_hi: int, n_words: int, tag: int) -> np.ndarray:
    """uint32 words for trials [trial_lo, trial_hi): shape (N, n_words).

    Word j of trial i is word j % 4 of the Philox block with counter
    (i_low32, i_high32, j // 4, tag) under key = seed. Trial indices must
    lie in [0, 2^64), the counter's 64 trial bits. The result is a
    transposed view of a word-major buffer: each of its columns is
    contiguous.
    """
    if not 0 <= trial_lo < SUBSTREAMS or trial_hi > SUBSTREAMS:
        raise ValueError(f"trial indices must lie in [0, 2^64), got [{trial_lo}, {trial_hi})")
    seed &= (1 << 64) - 1
    k0, k1 = seed & _MASK32, seed >> 32
    n = max(trial_hi - trial_lo, 0)
    trials = np.arange(n, dtype=np.uint64)
    trials += np.uint64(trial_lo)
    halves = trials.view(np.uint32)
    blocks = (n_words + 3) // 4
    buf = np.empty((4 * blocks, n), dtype=np.uint32)
    ctr = np.empty((4, n), dtype=np.uint32)
    ctr[0] = halves[_LO::2]
    ctr[1] = halves[_HI::2]
    ctr[3] = tag
    del trials, halves  # free the 64-bit indices before the rounds allocate
    for b in range(blocks):
        ctr[2] = b
        philox4x32(ctr.T, k0, k1, out=buf[4 * b : 4 * b + 4].T)
    return buf.T[:, :n_words]


def to_uniform(w: np.ndarray) -> np.ndarray:
    """Map uint32 words to doubles in (0, 1): (w + 0.5) / 2^32."""
    u = w.astype(np.float64)
    u += 0.5
    u *= 2.0**-32
    return u


def gaussians_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Box-Muller on consecutive uniform pairs; input (..., 2k) -> (..., 2k)."""
    if u.shape[-1] % 2:
        raise ValueError("need an even number of uniforms")
    u1 = u[..., 0::2]
    u2 = u[..., 1::2]
    r = np.log(u1)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = 2.0 * np.pi * u2
    out = np.empty_like(u)
    cos, sin = out[..., 0::2], out[..., 1::2]
    np.cos(theta, out=cos)
    cos *= r
    np.sin(theta, out=sin)
    sin *= r
    return out
