"""Deterministic seed derivation and counter-based per-step randomness.

Every Monte Carlo draw in the toolkit is a pure function of
(master_seed, trial, step, walk_id): trial seeds come from ``mix64``, each
simulation step reads a Philox stream keyed by the trial seed with the
step index placed in the most-significant counter word, and walk ids index
into that step's block of uniforms. Results are therefore bitwise
reproducible regardless of execution order or worker count, and two
processes sharing a trial seed see identical per-(step, id) moves.

Every simulation reads those uniforms through ``philox_uniforms``, a
pure-numpy Philox4x64-10 that evaluates a whole (trial, step) block in one
call for ids 0..count-1, or through ``philox_uniforms_ragged``, the same
rounds with an id list of its own per trial. A call for at most two ids
stops the last round at the two words it reads. The tests hold both, bit for
bit, to the reference: a fresh ``np.random.Philox`` keyed by
``mix64(seed)`` at counter ``[0, 0, 0, step]``, whose first ``count``
doubles are the uniforms of walk ids 0..count-1. The evaluator's constants
are 0-d uint64 arrays, only for call cost: numpy takes one as an operand
faster than a scalar, and the bits are unchanged.

The one draw outside the step stream is the pair of start vertices of a
stationary meeting trial: ids 0 and 1 at step 0 under the key
``mix64(seed, 1)`` in place of ``mix64(seed)``, mapped through the cdf of
pi. Those are the bits of ``np.random.Generator(np.random.Philox(key=
mix64(seed, 1))).choice(n, 2, p=pi)``.
"""
from __future__ import annotations

from itertools import chain
from numbers import Integral

import numpy as np

from .errors import InvalidSpec

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(*parts: int) -> int:
    """Mix integers into one 64-bit value (splitmix64 finalizer chain).

    Every seed passes through here, so a part that is not an integer
    (``numbers.Integral``: never a float, which would be truncated) raises
    InvalidSpec.
    """
    acc = _GOLDEN
    for part in parts:
        if not isinstance(part, Integral):
            raise InvalidSpec(f"a seed must be an integer, not {part!r}")
        acc = (acc + (int(part) & _MASK64) + _GOLDEN) & _MASK64
        z = acc
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc = z ^ (z >> 31)
    return acc


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011) as numpy's ``Philox`` runs it: round multipliers, key bumps.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _u64(value: int) -> np.ndarray:
    """``value`` as a 0-d uint64 array: a ufunc call takes one as an operand
    a few hundred ns faster than a numpy or Python scalar, on the same bits."""
    return np.array(value, dtype=np.uint64)


_LO32 = _u64(0xFFFFFFFF)
_SHIFT32 = _u64(32)
_SHIFT11 = _u64(11)
# each multiplier with its low and high 32-bit halves
_MUL0, _MUL1 = ((_u64(m), _u64(m & 0xFFFFFFFF), _u64(m >> 32))
                for m in _PHILOX_M)
# the key words of round r: r * W mod 2**64
_ROUND_KEYS = tuple((_u64(r * _PHILOX_W[0] & _MASK64),
                     _u64(r * _PHILOX_W[1] & _MASK64))
                    for r in range(_PHILOX_ROUNDS))


def _mulhi(mul: tuple, x: np.ndarray) -> np.ndarray:
    """High word of the 128-bit product ``m * x``, for ``mul = (m, m_lo,
    m_hi)`` as in ``_MUL0``.

    numpy has no 64x64->128 multiply, so the high word is assembled from
    32-bit halves; no partial sum exceeds 64 bits.
    """
    _, m_lo, m_hi = mul
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    t = x_hi * m_lo + ((x_lo * m_lo) >> _SHIFT32)
    u = x_lo * m_hi + (t & _LO32)
    return x_hi * m_hi + (t >> _SHIFT32) + (u >> _SHIFT32)


def _steps(steps) -> np.ndarray:
    """The steps as uint64 counter words. A ``range``, as ``_rows`` in
    simulate yields, goes through ``np.arange``, far cheaper than
    ``np.asarray`` on one."""
    if isinstance(steps, range):
        return np.arange(steps.start, steps.stop, steps.step, dtype=np.uint64)
    return np.asarray(steps, dtype=np.uint64)


def philox_keys(seeds) -> np.ndarray:
    """The Philox key word ``mix64(seed)`` of each trial seed, as uint64."""
    return np.array([mix64(s) for s in seeds], dtype=np.uint64)


def _philox_words(key0: np.ndarray, c0: np.ndarray, c3: np.ndarray,
                  width: int = 4) -> np.ndarray:
    """Philox4x64-10 with key ``[key0, 0]`` on counters ``[c0, 0, 0, c3]``
    (broadcast uint64), its first ``width`` (2 or 4) output words on a last
    axis. Words 0 and 1 read only c1 and c2 of the round before the last
    and not the last round's c0 product, so at width 2 those two rounds
    skip the products they would not use."""
    c1 = c2 = np.zeros(1, dtype=np.uint64)  # ndim 1, so no op gives a scalar
    for r, (w0, w1) in enumerate(_ROUND_KEYS):
        k0 = key0 + w0
        if width == 2 and r == _PHILOX_ROUNDS - 2:
            c1, c2 = c2 * _MUL1[0], _mulhi(_MUL0, c0) ^ c3 ^ w1
            continue
        x0, x1 = _mulhi(_MUL1, c2) ^ c1 ^ k0, c2 * _MUL1[0]
        if width == 2 and r == _PHILOX_ROUNDS - 1:
            return np.stack(np.broadcast_arrays(x0, x1), axis=-1)
        c0, c1, c2, c3 = x0, x1, _mulhi(_MUL0, c0) ^ c3 ^ w1, c0 * _MUL0[0]
    return np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)


def philox_uniforms(keys: np.ndarray, steps, count: int) -> np.ndarray:
    """Uniforms of ids 0..count-1 at every (trial, step) pair, one call.

    With ``keys = philox_keys(seeds)``, ``out[i, j]`` holds those of trial
    seed ``seeds[i]`` at step ``steps[j]``: Philox4x64-10 with key
    ``[mix64(seed), 0]`` on counters ``[block + 1, 0, 0, step]``,
    four 64-bit words per block, each word ``w`` giving the double
    ``(w >> 11) * 2**-53``. The rounds run on broadcast uint64 arrays of
    shape (len(keys), len(steps), blocks).
    """
    key0 = np.asarray(keys, dtype=np.uint64)[:, None, None]
    steps = _steps(steps)
    blocks = (count + 3) // 4
    width = 2 if count <= 2 else 4  # words read of each block
    words = _philox_words(key0, np.arange(1, blocks + 1, dtype=np.uint64),
                          steps[None, :, None], width)
    words = words.reshape(key0.shape[0], steps.size, width * blocks)
    return (words[..., :count] >> _SHIFT11) * 2.0 ** -53


def philox_uniforms_ragged(keys: np.ndarray, steps, ids) -> np.ndarray:
    """``philox_uniforms`` with a list of walk ids of its own per key.

    Row j holds, at ``steps[j]``, the uniforms of the ids ``ids[0]`` under
    ``keys[0]``, then of ``ids[1]`` under ``keys[1]``, and so on. Only the
    distinct (key, ``id >> 2``) blocks are evaluated, on one flat axis.
    """
    flat = np.fromiter(chain.from_iterable(ids), np.int64)
    owner = np.repeat(np.arange(len(ids)), [len(i) for i in ids])
    span = int(flat.max(initial=0) >> 2) + 1
    pairs, inverse = np.unique(owner * span + (flat >> 2), return_inverse=True)
    steps = _steps(steps)
    words = _philox_words(np.asarray(keys, dtype=np.uint64)[pairs // span],
                          (pairs % span + 1).astype(np.uint64),
                          steps[:, None]).reshape(steps.size, -1)
    return (words[:, 4 * inverse + (flat & 3)] >> _SHIFT11) * 2.0 ** -53


class StepStream:
    """``philox_uniforms`` of one trial, one step at a time. No simulation
    reads it: it stays only while the benchmark tracer
    (``perfbench/tracing.py``) wraps ``StepStream.uniforms`` by name."""

    def __init__(self, seed: int):
        self._key = philox_keys([seed])

    def uniforms(self, step: int, count: int) -> np.ndarray:
        return philox_uniforms(self._key, [step], count)[0, 0]
