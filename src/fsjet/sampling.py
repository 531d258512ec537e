"""Seeded samplers used across the verification suites."""

from __future__ import annotations

import numpy as np


def sample_sphere(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Unit vectors in C^dim, uniform on the real (2*dim-1)-sphere.

    The real parts of all rows are drawn first, then the imaginary parts,
    in one call; each row is normalised in place through the float view
    of the complex array."""
    g = rng.standard_normal((2, count, dim))
    z = np.empty((count, dim), dtype=complex)
    z.real, z.imag = g
    f = z.view(np.float64)
    f /= np.sqrt(np.einsum("ij,ij->i", f, f))[:, None]
    return z


def sample_ball(
    rng: np.random.Generator, count: int, dim: int, radius: float = 1.0
) -> np.ndarray:
    """Uniform points in the ball of C^dim of the given radius."""
    dirs = sample_sphere(rng, count, dim)
    r = radius * rng.random(count) ** (1.0 / (2 * dim))
    return dirs * r[:, None]


def sample_params(rng: np.random.Generator, count: int, scale: float = 2.0) -> np.ndarray:
    """Complex parameter draws (lambda, mu style), centered at the origin."""
    return scale * (rng.standard_normal(count) + 1j * rng.standard_normal(count)) / 2.0
