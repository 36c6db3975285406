"""Monte Carlo estimation of commuting probabilities on preset compact groups.

Commutation is decided by exact structural predicates, never by a numeric
tolerance: a tolerance test would assign positive empirical mass to the
measure-zero commuting sets of the continuous presets and bias every
estimate upward. On the continuous presets the probability-zero clauses
(doubling conditions, parallel axes) compare derived floats for exact
equality and essentially never fire on sampled data.

Every preset speaks one batch protocol: ``from_words`` decodes RNG words
into arrays, ``to_params``/``from_params`` convert between those arrays and
``SampledElement.params`` tuples, and ``power_arrays``/``commute_arrays`` are
the preset's only power map and commutation predicate. ``commutes()``
decodes its two elements into length-1 batches and runs the same predicate
as the estimators.

Trial i draws from RNG substream i (see rng.py), so estimates are
bit-reproducible for a given (preset, m, n, trials, seed) regardless of
chunking or evaluation order. The estimators use that: each chunk of
``_CHUNK`` trials is cut into ``_WORKERS`` sub-chunks, and the sub-chunks
run on a thread pool (numpy releases the GIL inside the ufunc loops,
gathers and transcendentals that make up Philox, the decoders and the
predicates). The success counts are integers, and their sum does not
depend on the order in which sub-chunks finish, so every estimate is the
same on any number of CPUs. There are 2^64 substreams, so ``sample`` and
the estimators refuse more than 2^64 trials, and the sub-chunks are
walked lazily with at most 2 * ``_WORKERS`` of them queued, so no list
grows with the trial count.

``words`` returns word-major columns: the (N, k) array is a transposed
view whose every column is contiguous (see rng.py). The decoders index
words by column, so ``from_words`` reads contiguous memory, and the
uniforms and Gaussians it builds keep that column-major layout for the
power maps and predicates. The decoders and predicates give the same
bits on a row-major copy of the words; only the speed depends on layout.

Angles live in R/Z. Reduction mod 1 is written ``x - floor(x)``, which is
``x % 1.0`` bit for bit: for x >= 0 the fractional part is a double and
the subtraction is exact; for x < 0 both forms round the same real number
x - floor(x) once; integers give +0.0 in both, and infinities and NaN give
NaN in both. A doubling condition "2a = 0 mod 1" is ``t == floor(t)`` for
t = 2a, which holds exactly when ``t % 1.0 == 0.0`` for every finite t.
Infinite t would satisfy the first but not the second, and an infinite or
NaN parameter has no meaning on a compact group, so ``from_params`` refuses
non-finite parameters, and the dihedral ``from_params`` refuses angles
outside [0, 1) (``from_words`` produces neither). A large finite angle
would have the answer set by rounding: a double of magnitude 2^52 or more
carries no fractional bits, and 2(a - a') overflows once |a - a'| >= 2^1023.

Two flips commute when 2(a - a') = 0 mod 1, which for angles in [0, 1) means
a == a' or a - a' = +-1/2. The predicate tests ``a - 0.5 == a'`` and
``a' - 0.5 == a`` rather than rounding a - a': by Sterbenz's lemma a - 0.5
is exact for a in [0.25, 1], and below 0.25 it is negative and matches no
angle, so no match is made by rounding. The rounded difference is not
safe: 0.5 - 2^-60 rounds to 0.5, which would make flips at 0.5 and 2^-60
commute. Sampled angles are multiples of 2^-33, whose differences are
exact, so on them the two forms agree.

A quaternion power x^k starts from x and takes k - 1 Hamilton products.
Starting from the identity, as 1 * x, gives the same doubles except that a
zero component may change sign, and no predicate can see that: they
compare with ``==``, and products and sums of equal values stay equal.
Decoded samples have no zero components, so for them the two agree bit
for bit.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import sqrt
from typing import TYPE_CHECKING

import numpy as np

from commdeg.errors import PresetMismatch
from commdeg.rng import SUBSTREAMS, gaussians_from_uniforms, to_uniform, words
from commdeg.schemas import build_named

if TYPE_CHECKING:
    from commdeg.groups import GroupTable

_CHUNK = 1 << 16
# Threads for the estimators: the CPUs this process may run on, capped so
# that a sub-chunk of _CHUNK // _WORKERS trials keeps at least 8192 rows.
_MIN_ROWS = 1 << 13
try:
    _CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity API on this platform
    _CPUS = os.cpu_count() or 1
_WORKERS = min(_CPUS, _CHUNK // _MIN_ROWS)


def _mod1(x):
    """``x % 1.0``, bit for bit, computed in place (see the module docstring)."""
    x -= np.floor(x)
    return x


def _integral(t):
    """Where ``t % 1.0 == 0.0``, for finite t (see the module docstring)."""
    return t == np.floor(t)


def _finite(arrays, what):
    if not np.isfinite(arrays).all():
        raise ValueError(f"{what} must be finite")
    return arrays


@dataclass(frozen=True)
class SampledElement:
    """One Haar sample from a preset; ``params`` is preset-specific."""

    preset: str
    params: tuple


@dataclass(frozen=True)
class Estimate:
    """A Bernoulli estimate of a commuting probability."""

    preset: str
    m: int
    n: int
    trials: int
    seed: int
    successes: int
    mean: float
    stderr: float
    exact: Fraction | None = None

    @property
    def sigma_off(self) -> float | None:
        """|mean - exact| in stderr units; None without a closed form."""
        if self.exact is None:
            return None
        diff = abs(self.mean - float(self.exact))
        if self.stderr == 0.0:
            return 0.0 if diff == 0.0 else float("inf")
        return diff / self.stderr

    @property
    def consistency(self) -> str | None:
        """ok below 4 sigma, flagged between 4 and 6, failed beyond 6."""
        off = self.sigma_off
        if off is None:
            return None
        if off < 4.0:
            return "ok"
        if off <= 6.0:
            return "flagged"
        return "failed"


def _bernoulli(preset_name, m, n, trials, seed, successes, exact) -> Estimate:
    mean = successes / trials
    return Estimate(
        preset=preset_name,
        m=m,
        n=n,
        trials=trials,
        seed=seed,
        successes=successes,
        mean=mean,
        stderr=sqrt(mean * (1.0 - mean) / trials),
        exact=exact,
    )


class TorusPreset:
    """T^dim with angles in [0, 1) per coordinate; everything commutes."""

    def __init__(self, dim: int = 1):
        if dim < 1:
            raise ValueError("torus dimension must be >= 1")
        self.dim = dim
        self.name = "torus" if dim == 1 else f"torus{dim}"
        self.words_per_element = dim

    def from_words(self, w):
        return to_uniform(w)

    def to_params(self, arrays):
        return [tuple(float(a) for a in row) for row in arrays]

    def from_params(self, params_list):
        return _finite(np.array(params_list, dtype=np.float64), "torus angles")

    def power_arrays(self, arrays, k):
        return _mod1(k * arrays)

    def commute_arrays(self, xa, ya):
        return np.ones(len(xa), dtype=bool)

    def exact_degree(self, m, n):
        return Fraction(1)


class DihedralPreset:
    """The circle extended by a sign flip: elements (angle, sign), with the
    angle in [0, 1).

    (a, 1)(a', 1) always commute; a flip commutes with a rotation only
    under the exact doubling condition 2a' = 0, and two flips only when
    2(a - a') = 0 -- probability-zero events for Haar samples.
    """

    name = "dihedral"
    words_per_element = 2

    def from_words(self, w):
        angles = to_uniform(w[:, 0])
        signs = np.where(w[:, 1] < np.uint32(1 << 31), 1, -1).astype(np.int8)
        return angles, signs

    def to_params(self, arrays):
        angles, signs = arrays
        return [(float(a), int(s)) for a, s in zip(angles, signs)]

    def from_params(self, params_list):
        angles = _finite(np.array([a for a, _ in params_list], dtype=np.float64),
                         "dihedral angles")
        if not ((angles >= 0.0) & (angles < 1.0)).all():
            raise ValueError("dihedral angles must lie in [0, 1)")
        signs = [s for _, s in params_list]
        if any(s != 1 and s != -1 for s in signs):
            raise ValueError("dihedral signs must be 1 or -1")
        return angles, np.array(signs, dtype=np.int8)

    def power_arrays(self, arrays, k):
        angles, signs = arrays
        if k % 2 == 0:
            out_angles = np.where(signs == 1, _mod1(k * angles), 0.0)
            out_signs = np.ones_like(signs)
        else:
            out_angles = np.where(signs == 1, _mod1(k * angles), angles)
            out_signs = signs
        return out_angles, out_signs

    def commute_arrays(self, xa, ya):
        ax, sx = xa
        ay, sy = ya
        both_rot = (sx == 1) & (sy == 1)
        flip_rot = (sx == -1) & (sy == 1) & _integral(2.0 * ay)
        rot_flip = (sx == 1) & (sy == -1) & _integral(2.0 * ax)
        both_flip = (sx == -1) & (sy == -1) & ((ax == ay) | (ax - 0.5 == ay) | (ay - 0.5 == ax))
        return both_rot | flip_rot | rot_flip | both_flip

    def exact_degree(self, m, n):
        # An even power maps every flip to the identity and every rotation
        # to a generic rotation; an odd power keeps each flip a flip.
        # Rotations commute, and a flip commutes with a generic rotation or
        # flip with probability zero.
        even = (m % 2 == 0) + (n % 2 == 0)
        return (Fraction(1, 4), Fraction(3, 4), Fraction(1))[even]


def _quat_mul(q, p):
    w1, x1, y1, z1 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    w2, x2, y2, z2 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


class QuaternionPreset:
    """SU(2) via normalized 4-dimensional Gaussian vectors; so3 reads the
    sample as the covering rotation.

    Commutation in SU(2) is exact parallelism of the vector parts (zero
    cross product); in SO(3) two half-turns about exactly orthogonal axes
    commute as well, so that clause is included for the pushed-down group.
    """

    words_per_element = 4

    def __init__(self, so3: bool):
        self.so3 = so3
        self.name = "so3" if so3 else "su2"

    def from_words(self, w):
        g = gaussians_from_uniforms(to_uniform(w))
        norm = np.sqrt(g[:, 0] ** 2 + g[:, 1] ** 2 + g[:, 2] ** 2 + g[:, 3] ** 2)
        return g / norm[:, None]

    def to_params(self, arrays):
        return [tuple(float(v) for v in row) for row in arrays]

    def from_params(self, params_list):
        return _finite(np.array(params_list, dtype=np.float64), "quaternion entries")

    def power_arrays(self, arrays, k):
        """x^k by k - 1 products from x (``arrays`` itself when k = 1)."""
        acc = arrays
        for _ in range(k - 1):
            acc = _quat_mul(acc, arrays)
        return acc

    def commute_arrays(self, xa, ya):
        cx = xa[:, 2] * ya[:, 3] - xa[:, 3] * ya[:, 2]
        cy = xa[:, 3] * ya[:, 1] - xa[:, 1] * ya[:, 3]
        cz = xa[:, 1] * ya[:, 2] - xa[:, 2] * ya[:, 1]
        parallel = (cx == 0.0) & (cy == 0.0) & (cz == 0.0)
        if not self.so3:
            return parallel
        dot = xa[:, 1] * ya[:, 1] + xa[:, 2] * ya[:, 2] + xa[:, 3] * ya[:, 3]
        half_turns = (xa[:, 0] == 0.0) & (ya[:, 0] == 0.0) & (dot == 0.0)
        return parallel | half_turns

    def exact_degree(self, m, n):
        return Fraction(0)


class FinitePreset:
    """Uniform sampling of a finite group by element index.

    Indices come from a 64-bit word reduced mod the order; the residual
    nonuniformity is below 2^-48 per element and invisible at Monte Carlo
    scale.
    """

    words_per_element = 2

    def __init__(self, G: GroupTable):
        self.group = G
        self.name = f"finite:{G.name}"
        self._pow_cache: dict[int, np.ndarray] = {}

    def _power_table(self, k):
        # Estimator threads may race to fill the same k. Both compute the
        # same read-only table, and a dict store is atomic, so the loser's
        # copy is merely dropped.
        if k not in self._pow_cache:
            from commdeg.groups import power_map

            self._pow_cache[k] = power_map(self.group, k)
        return self._pow_cache[k]

    def from_words(self, w):
        w64 = w[:, 0].astype(np.uint64) << np.uint64(32) | w[:, 1].astype(np.uint64)
        return (w64 % np.uint64(self.group.order)).astype(np.int64)

    def to_params(self, arrays):
        return [(int(i),) for i in arrays]

    def from_params(self, params_list):
        return np.array([i for (i,) in params_list], dtype=np.int64)

    def power_arrays(self, arrays, k):
        return self._power_table(k)[arrays]

    def commute_arrays(self, xa, ya):
        mult = self.group.mult
        return mult[xa, ya] == mult[ya, xa]

    def exact_degree(self, m, n):
        from commdeg.degrees import degree_mn

        return degree_mn(self.group, m, n).value


class ProductPreset:
    """Independent product of component presets; commutes componentwise."""

    def __init__(self, name: str, components):
        self.name = name
        self.components = list(components)
        self.words_per_element = sum(c.words_per_element for c in self.components)

    def _split(self, w):
        out = []
        at = 0
        for c in self.components:
            out.append(w[:, at : at + c.words_per_element])
            at += c.words_per_element
        return out

    def from_words(self, w):
        return [c.from_words(part) for c, part in zip(self.components, self._split(w))]

    def to_params(self, arrays):
        per = [c.to_params(a) for c, a in zip(self.components, arrays)]
        return [tuple(parts) for parts in zip(*per)]

    def from_params(self, params_list):
        return [c.from_params([prm[i] for prm in params_list])
                for i, c in enumerate(self.components)]

    def power_arrays(self, arrays, k):
        return [c.power_arrays(a, k) for c, a in zip(self.components, arrays)]

    def commute_arrays(self, xa, ya):
        mask = None
        for c, xc, yc in zip(self.components, xa, ya):
            m = c.commute_arrays(xc, yc)
            mask = m if mask is None else (mask & m)
        return mask

    def exact_degree(self, m, n):
        acc = Fraction(1)
        for c in self.components:
            e = c.exact_degree(m, n)
            if e is None:
                return None
            acc *= e
        return acc


def _torus_x_quaternion8():
    from commdeg.presets import quaternion8

    return ProductPreset("torus-x-quaternion8", [TorusPreset(1), FinitePreset(quaternion8())])


# name -> (the parameters it reads, builder from the params)
_PRESETS = {
    "torus": (("dim",), lambda params: TorusPreset(params.get("dim", 1))),
    "dihedral": ((), lambda params: DihedralPreset()),
    "so3": ((), lambda params: QuaternionPreset(so3=True)),
    "su2": ((), lambda params: QuaternionPreset(so3=False)),
    "torus-x-quaternion8": ((), lambda params: _torus_x_quaternion8()),
}


def get_sampler_preset(name: str, **params):
    return build_named("sampler", _PRESETS, name, params)


@cache
def _named_preset(name: str):
    """The default-dimension preset for ``name``, built and validated once."""
    return get_sampler_preset(name)


def _resolve(preset):
    return _named_preset(preset) if isinstance(preset, str) else preset


def _check_count(count: int, what: str):
    if count > SUBSTREAMS:
        raise ValueError(f"{what} must be at most 2^64, one RNG substream each")


def sample(preset, count: int, seed: int):
    """``count`` Haar samples as SampledElements, one per RNG substream."""
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_count(count, "count")
    p = _resolve(preset)
    out = []
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        arrays = p.from_words(words(seed, lo, hi, p.words_per_element, tag=0))
        out.extend(SampledElement(p.name, params) for params in p.to_params(arrays))
    return out


def commutes(preset, x: SampledElement, y: SampledElement, m: int, n: int) -> bool:
    """Exact structural commutation test for x^m and y^n."""
    p = _resolve(preset)
    if x.preset != p.name or y.preset != p.name:
        raise PresetMismatch(
            f"elements from {x.preset!r} and {y.preset!r} fed to preset {p.name!r}"
        )
    if m < 1 or n < 1:
        raise ValueError("powers must be >= 1")
    xa, ya = p.from_params([x.params]), p.from_params([y.params])
    return bool(_commute_mask(p, xa, ya, m, n)[0])


def _commute_mask(p, xa, ya, m, n):
    """The commutation predicate for x^m and y^n, one entry per batch row."""
    return p.commute_arrays(p.power_arrays(xa, m), p.power_arrays(ya, n))


def _successes(p, m, n, seed, lo, hi):
    """Successes among trials [lo, hi)."""
    xa = p.from_words(words(seed, lo, hi, p.words_per_element, tag=0))
    ya = p.from_words(words(seed, lo, hi, p.words_per_element, tag=1))
    return int(_commute_mask(p, xa, ya, m, n).sum())


def _success_count(p, m, n, trials, seed) -> int:
    """Successes over all trials, one sub-chunk of _CHUNK // _WORKERS
    trials per task. The sub-chunk bounds are walked lazily and at most
    2 * _WORKERS tasks wait at a time, so at most _CHUNK rows are in flight
    and nothing grows with ``trials``. ``p`` is a preset object: names are
    resolved by the caller, so the threads never touch the name cache."""
    step = _CHUNK // _WORKERS
    bounds = ((lo, min(lo + step, trials)) for lo in range(0, trials, step))
    count = partial(_successes, p, m, n, seed)
    if _WORKERS == 1 or trials <= step:
        return sum(count(lo, hi) for lo, hi in bounds)
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    total = 0
    with ThreadPoolExecutor(_WORKERS) as pool:
        pending = deque()
        for lo, hi in bounds:
            if len(pending) == 2 * _WORKERS:
                total += pending.popleft().result()
            pending.append(pool.submit(count, lo, hi))
        return total + sum(f.result() for f in pending)


def estimate_degree_mn(preset, m: int, n: int, trials: int, seed: int) -> Estimate:
    """Bernoulli estimate of P([x^m, y^n] = 1) over independent Haar pairs."""
    p = _resolve(preset)
    if trials < 100:
        raise ValueError("need at least 100 trials")
    _check_count(trials, "trials")
    if m < 1 or n < 1:
        raise ValueError("powers must be >= 1")
    successes = _success_count(p, m, n, trials, seed)
    return _bernoulli(p.name, m, n, trials, seed, successes, p.exact_degree(m, n))


def estimate_finite(G: GroupTable, m: int, n: int, trials: int, seed: int) -> Estimate:
    """Sampling bridge to the exact engine on an explicit finite group."""
    return estimate_degree_mn(FinitePreset(G), m, n, trials, seed)
