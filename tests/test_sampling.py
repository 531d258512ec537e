"""The seeded samplers: their streams and their values."""

import numpy as np
import pytest

from fsjet.sampling import sample_sphere


def _two_draws(rng, count, dim):
    """Unit rows from a (count, dim) draw of real parts, then one of
    imaginary parts, each row divided by its norm."""
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@pytest.mark.parametrize("count", [0, 1, 10_000])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sample_sphere_is_the_two_draw_construction(count, dim):
    rng, ref = np.random.default_rng(70 + dim), np.random.default_rng(70 + dim)
    z = sample_sphere(rng, count, dim)
    want = _two_draws(ref, count, dim)
    # the generator is left where the two draws leave it
    assert rng.bit_generator.state == ref.bit_generator.state
    assert z.shape == (count, dim) and z.dtype == complex
    assert np.abs(z - want).max(initial=0.0) <= 4e-16
    assert np.abs(np.linalg.norm(z, axis=1) - 1.0).max(initial=0.0) <= 4e-16
