"""The references that the vectorized Philox evaluators are tested against."""
import numpy as np

from coalwalk.seeding import mix64


def step_uniforms(seed: int, step: int, count: int) -> np.ndarray:
    """Uniforms for walk ids 0..count-1 at one step of one trial.

    A fresh Philox stream keyed by the trial seed, with the step index in
    the top counter word so each step owns a disjoint 2**192-block range.
    ``seeding.philox_uniforms`` must give identical values without
    constructing a generator per step.
    """
    bg = np.random.Philox(key=mix64(seed), counter=[0, 0, 0, step])
    return np.random.Generator(bg).random(count)


def generator(seed: int, *context: int) -> np.random.Generator:
    """A free-running numpy generator keyed by ``mix64(seed, *context)``.

    ``generator(seed, 1).choice(n, 2, p=pi)`` is the stationary meeting
    start pair that ``simulate`` draws for trial seed ``seed``.
    """
    return np.random.Generator(np.random.Philox(key=mix64(seed, *context)))
