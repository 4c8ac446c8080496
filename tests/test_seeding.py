import numpy as np
import pytest

from coalwalk.seeding import (
    StepStream,
    mix64,
    philox_keys,
    philox_uniforms,
    philox_uniforms_ragged,
)
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


def test_philox_keys_are_mix64():
    assert philox_keys(SEEDS).tolist() == [mix64(s) for s in SEEDS]


@pytest.mark.parametrize("width", [1, 2, 5, 512])
def test_step_stream_matches_step_uniforms(width):
    stream = StepStream(2**63 + 17)
    for step in (1, 2, 7, 2**32, 2**63, 2):  # revisits step 2 after a jump
        assert np.array_equal(stream.uniforms(step, width),
                              step_uniforms(2**63 + 17, step, width))
