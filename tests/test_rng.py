import numpy as np
import pytest

from phaselab import rng as prng


@pytest.mark.parametrize("shape", [0, 1, 8, (0, 3), (5, 8), (200, 12)])
def test_signs_draw_as_generator_choice(shape):
    """The sign helper gives Generator.choice's draws and leaves the same generator state."""
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = prng.signs(rng, shape)
        want = ref.choice(np.array([-1, 1]), size=shape)
        assert got.dtype == want.dtype and np.array_equal(got, want), (seed, shape)
        assert rng.bit_generator.state == ref.bit_generator.state
