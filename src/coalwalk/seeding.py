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
rounds with an id list of its own per trial. The tests hold both, bit for
bit, to the reference: a fresh ``np.random.Philox`` keyed by
``mix64(seed)`` at counter ``[0, 0, 0, step]``, whose first ``count``
doubles are the uniforms of walk ids 0..count-1.
"""
from __future__ import annotations

from itertools import chain

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(*parts: int) -> int:
    """Mix integers into one 64-bit value (splitmix64 finalizer chain)."""
    acc = _GOLDEN
    for part in parts:
        acc = (acc + (int(part) & _MASK64) + _GOLDEN) & _MASK64
        z = acc
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc = z ^ (z >> 31)
    return acc


def trial_seed(master_seed: int, trial_index: int) -> int:
    return mix64(master_seed, trial_index)


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011) as numpy's ``Philox`` runs it: round multipliers, key bumps.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product ``m * x``.

    numpy has no 64x64->128 multiply, so the high word is assembled from
    32-bit halves; no partial sum exceeds 64 bits.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    t = x_hi * m_lo + ((x_lo * m_lo) >> _SHIFT32)
    u = x_lo * m_hi + (t & _LO32)
    return x_hi * m_hi + (t >> _SHIFT32) + (u >> _SHIFT32), x * np.uint64(m)


def philox_keys(seeds) -> np.ndarray:
    """The Philox key word ``mix64(seed)`` of each trial seed, as uint64."""
    return np.array([mix64(s) for s in seeds], dtype=np.uint64)


def _philox_words(key0: np.ndarray, c0: np.ndarray,
                  c3: np.ndarray) -> np.ndarray:
    """Philox4x64-10 with key ``[key0, 0]`` on counters ``[c0, 0, 0, c3]``
    (broadcast uint64), its four output words on a last axis."""
    key1 = 0
    c1 = c2 = np.zeros(1, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key0 = key0 + np.uint64(_PHILOX_W[0])
            key1 = (key1 + _PHILOX_W[1]) & _MASK64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ np.uint64(key1), lo0
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
    steps = np.asarray(steps, dtype=np.uint64)
    blocks = (count + 3) // 4
    words = _philox_words(key0, np.arange(1, blocks + 1, dtype=np.uint64),
                          steps[None, :, None])
    words = words.reshape(key0.shape[0], steps.size, 4 * blocks)
    return (words[..., :count] >> np.uint64(11)) * 2.0 ** -53


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
    steps = np.asarray(steps, dtype=np.uint64)
    words = _philox_words(np.asarray(keys, dtype=np.uint64)[pairs // span],
                          (pairs % span).astype(np.uint64) + np.uint64(1),
                          steps[:, None]).reshape(steps.size, -1)
    return (words[:, 4 * inverse + (flat & 3)] >> np.uint64(11)) * 2.0 ** -53


class StepStream:
    """``philox_uniforms`` of one trial, one step at a time. No simulation
    reads it: it stays only while the benchmark tracer
    (``perfbench/tracing.py``) wraps ``StepStream.uniforms`` by name."""

    def __init__(self, seed: int):
        self._key = philox_keys([seed])

    def uniforms(self, step: int, count: int) -> np.ndarray:
        return philox_uniforms(self._key, [step], count)[0, 0]


def generator(seed: int, *context: int) -> np.random.Generator:
    """A free-running generator for draws that are not per-step keyed."""
    return np.random.Generator(np.random.Philox(key=mix64(seed, *context)))
