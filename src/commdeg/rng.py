"""Counter-based random words: Philox4x32-10, vectorized over trials.

Trial i draws from substream i: the counter carries (trial, block, tag)
and the key carries the 64-bit seed, so any slice of trials can be
generated independently and in any order with identical results. Output
words depend only on (seed, trial, block, tag).

The generator keeps its four state words as uint32 arrays and updates them
in place. Each round writes the two 32x32 -> 64-bit products into two
uint64 buffers that are allocated once and reused by every round (the
multiply names its uint64 loop, so the product never wraps at 32 bits
whatever the scalar-promotion rules of the NumPy version); the high
and low 32-bit halves of a product are read as strided uint32 views of its
buffer, so no shift or mask is needed. The round keys are Python ints.

``words`` hands ``philox4x32`` each block's four output columns as ``out``,
so a block is written once, straight into the (N, n_words) result; every
block is still one ``philox4x32`` call on the full counter array.
"""
from __future__ import annotations

import sys

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = 0xFFFFFFFF
_ROUNDS = 10
# positions of the low and high uint32 halves inside one uint64
_LO, _HI = (0, 1) if sys.byteorder == "little" else (1, 0)


def philox4x32(counter: np.ndarray, key0: int, key1: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """One Philox4x32-10 block per row of ``counter`` (shape (N, 4), uint32).

    Returns an (N, 4) uint32 array, written into ``out`` (any (N, 4) uint32
    array, a strided view included) when given; ``counter`` is not
    modified. The key words are taken mod 2^32.
    """
    n = len(counter)
    x0, x1, x2, x3 = (np.array(counter[:, i], dtype=np.uint32) for i in range(4))
    p0 = np.empty(n, dtype=np.uint64)
    p1 = np.empty(n, dtype=np.uint64)
    hi0, lo0 = p0.view(np.uint32)[_HI::2], p0.view(np.uint32)[_LO::2]
    hi1, lo1 = p1.view(np.uint32)[_HI::2], p1.view(np.uint32)[_LO::2]
    k0, k1 = key0 & _MASK32, key1 & _MASK32
    for _ in range(_ROUNDS):
        # dtype forces the 64-bit loop: NumPy 1.x value-based casting would
        # otherwise pick the uint32 loop (the multipliers fit in 32 bits)
        # and wrap each product before it reaches the buffer
        np.multiply(x0, _M0, out=p0, dtype=np.uint64)
        np.multiply(x2, _M1, out=p1, dtype=np.uint64)
        np.bitwise_xor(hi1, x1, out=x0)
        x0 ^= np.uint32(k0)
        np.bitwise_xor(hi0, x3, out=x2)
        x2 ^= np.uint32(k1)
        np.copyto(x1, lo1)
        np.copyto(x3, lo0)
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return np.stack([x0, x1, x2, x3], axis=1, out=out)


def words(seed: int, trial_lo: int, trial_hi: int, n_words: int, tag: int) -> np.ndarray:
    """uint32 words for trials [trial_lo, trial_hi): shape (N, n_words).

    Word j of trial i is word j % 4 of the Philox block with counter
    (i_low32, i_high32, j // 4, tag) under key = seed.
    """
    seed &= (1 << 64) - 1
    k0, k1 = seed & 0xFFFFFFFF, seed >> 32
    trials = np.arange(trial_lo, trial_hi, dtype=np.uint64)
    n = len(trials)
    blocks = (n_words + 3) // 4
    out = np.empty((n, 4 * blocks), dtype=np.uint32)
    ctr = np.empty((n, 4), dtype=np.uint32)
    ctr[:, 0] = (trials & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    ctr[:, 1] = (trials >> np.uint64(32)).astype(np.uint32)
    ctr[:, 3] = tag
    for b in range(blocks):
        ctr[:, 2] = b
        philox4x32(ctr, k0, k1, out=out[:, 4 * b : 4 * b + 4])
    return out[:, :n_words]


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
