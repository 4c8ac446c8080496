import inspect

import numpy as np
import pytest

from coalwalk import seeding
from coalwalk.bounds import check_concentration
from coalwalk.errors import InvalidSpec
from coalwalk.graphs import FamilySpec, generate, lower_bound_graph
from coalwalk.seeding import (
    StepStream,
    _philox_words,
    mix64,
    philox_keys,
    philox_uniforms,
    philox_uniforms_ragged,
)
from coalwalk.simulate import estimate, paired_batch_means
from philox_reference import step_uniforms

SEEDS = [0, 1, 2**63 + 17, 2**64 - 1]
STEPS = [1, 2, 2**32, 2**63]


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 9, 512])
def test_philox_matches_step_uniforms(count):
    out = philox_uniforms(philox_keys(SEEDS), STEPS, count)
    assert out.shape == (len(SEEDS), len(STEPS), count)
    for i, seed in enumerate(SEEDS):
        for j, step in enumerate(STEPS):
            assert np.array_equal(out[i, j], step_uniforms(seed, step, count))


@pytest.mark.parametrize("n_seeds,first_step,n_steps", [
    (1, 1, 1), (3, 1, 70), (40, 33, 2), (2, 4000, 300),
])
def test_philox_block_shapes(n_seeds, first_step, n_steps):
    seeds = [mix64(11, i) for i in range(n_seeds)]
    steps = range(first_step, first_step + n_steps)
    out = philox_uniforms(philox_keys(seeds), steps, 2)
    assert out.shape == (n_seeds, n_steps, 2)
    want = np.array([[step_uniforms(s, t, 2) for t in steps] for s in seeds])
    assert np.array_equal(out, want)


@pytest.mark.parametrize("seeds,ids", [
    ([0, 2**64 - 1], [(0, 5, 6, 1023), (7,)]),
    # a repeated key with its own ids; unsorted and repeated ids
    ([2**64 - 1, 0, 2**64 - 1], [(1023, 6, 0, 5), (4, 4, 9, 4), (3, 2, 8)]),
    ([0], [(12,)]),
])
def test_philox_ragged_matches_step_uniforms(seeds, ids):
    steps = [1, 2**63]
    out = philox_uniforms_ragged(philox_keys(seeds), steps, ids)
    assert out.shape == (len(steps), sum(len(i) for i in ids))
    for j, step in enumerate(steps):
        want = [step_uniforms(s, step, max(i) + 1)[list(i)]
                for s, i in zip(seeds, ids)]
        assert np.array_equal(out[j], np.concatenate(want))


@pytest.mark.parametrize("n_keys,n_steps", [(1, 5), (4, 1), (4, 4)],
                         ids=["one-key", "one-step", "both"])
def test_philox_words_width_two_is_first_two_words(n_keys, n_steps):
    key0 = philox_keys(SEEDS[:n_keys])[:, None, None]
    c0 = np.arange(1, 4, dtype=np.uint64)
    c3 = np.array((STEPS + [3])[:n_steps], dtype=np.uint64)[None, :, None]
    two = _philox_words(key0, c0, c3, 2)
    assert two.shape == (n_keys, n_steps, 3, 2)
    assert np.array_equal(two, _philox_words(key0, c0, c3)[..., :2])


def test_philox_keys_are_mix64():
    assert philox_keys(SEEDS).tolist() == [mix64(s) for s in SEEDS]


CYCLE8 = generate(FamilySpec("cycle", n=8))


@pytest.mark.parametrize("seed", [1.5, 2.7, 3.0, np.float64(3.9), "4", None])
@pytest.mark.parametrize("call", [
    lambda seed: estimate("meeting", CYCLE8, {"u": 0, "v": 4}, 4, seed),
    lambda seed: generate(FamilySpec("random_regular", n=10, degree=3),
                          seed=seed),
    lambda seed: check_concentration(CYCLE8, [0], 4, 16, seed),
    lambda seed: paired_batch_means(CYCLE8, range(8), [1], 2, 2, seed),
    lambda seed: lower_bound_graph(64, 1.0, seed),
], ids=["estimate", "generate", "check_concentration", "paired_batch_means",
        "lower_bound_graph"])
def test_seed_that_is_no_integer_is_rejected(call, seed):
    """Every seed passes through ``mix64``, which takes integers only
    (``numbers.Integral``): a float seed is an error, never truncated."""
    with pytest.raises(InvalidSpec, match="seed must be an integer"):
        call(seed)


def test_mix64_takes_numpy_integers():
    assert mix64(np.uint64(2**64 - 1), np.int64(-3)) == mix64(2**64 - 1, -3)


@pytest.mark.parametrize("width", [1, 2, 5, 512])
def test_step_stream_matches_step_uniforms(width):
    stream = StepStream(2**63 + 17)
    for step in (1, 2, 7, 2**32, 2**63, 2):  # revisits step 2 after a jump
        assert np.array_equal(stream.uniforms(step, width),
                              step_uniforms(2**63 + 17, step, width))


@pytest.mark.parametrize("steps", [
    range(1, 2), range(1, 4097), range(2**63 - 3, 2**63 + 3),
    range(2**64 - 4, 2**64),  # its last step is 2**64 - 1
], ids=["one", "4096", "across-2**63", "to-2**64-1"])
def test_philox_range_steps_match_list_steps(steps):
    keys = philox_keys(SEEDS[:2])
    assert np.array_equal(philox_uniforms(keys, steps, 3),
                          philox_uniforms(keys, list(steps), 3))
    ids = [(0, 5), (2,)]
    assert np.array_equal(philox_uniforms_ragged(keys, steps, ids),
                          philox_uniforms_ragged(keys, list(steps), ids))


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_philox_constants_are_0d_uint64():
    # numpy takes a 0-d array operand faster than a numpy or Python scalar;
    # every constant the rounds read must stay one. _PHILOX_ROUNDS only
    # counts rounds in Python.
    readers = (seeding._mulhi, seeding._philox_words,
               philox_uniforms, philox_uniforms_ragged)
    names = {name for f in readers for name in f.__code__.co_names
             if hasattr(seeding, name) and name != "_PHILOX_ROUNDS"}
    constants = {name: getattr(seeding, name) for name in names
                 if not callable(getattr(seeding, name))
                 and not inspect.ismodule(getattr(seeding, name))}
    assert set(constants) == {"_LO32", "_SHIFT32", "_SHIFT11", "_MUL0",
                              "_MUL1", "_ROUND_KEYS"}
    for name, value in constants.items():
        for leaf in _leaves(value):
            assert isinstance(leaf, np.ndarray), name
            assert leaf.ndim == 0 and leaf.dtype == np.uint64, name
    assert (int(seeding._LO32), int(seeding._SHIFT32),
            int(seeding._SHIFT11)) == (2**32 - 1, 32, 11)
    for (m, m_lo, m_hi), want in zip((seeding._MUL0, seeding._MUL1),
                                     seeding._PHILOX_M):
        assert int(m) == want == int(m_hi) << 32 | int(m_lo)
        assert int(m_lo) < 2**32 and int(m_hi) < 2**32
    assert len(seeding._ROUND_KEYS) == seeding._PHILOX_ROUNDS
    for r, words in enumerate(seeding._ROUND_KEYS):
        assert [int(w) for w in words] == [
            r * w % 2**64 for w in seeding._PHILOX_W]
