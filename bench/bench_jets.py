"""pytest-benchmark timings of the jet algebra at the sizes ROADMAP aim 1
names for it: ``compose``, ``invert``, ``iterate(f, 3)`` and
``iterate(f, 16)`` at (n, K) = (2,3), (3,5) and (4,7).

Uses only API that has been stable across versions, so ``paired.py`` can
time an older checkout with it.
"""

import numpy as np
import pytest

from fsjet.jets import compose, invert, iterate, random_jet

SIZES = [(2, 3), (3, 5), (4, 7)]


def _jets(n, K, count, seed):
    rng = np.random.default_rng(seed)
    return [random_jet(n, K, rng) for _ in range(count)]


@pytest.mark.parametrize("n,K", SIZES)
def bench_jet_compose(benchmark, n, K):
    f, g = _jets(n, K, 2, seed=110 + 10 * n + K)
    benchmark(compose, f, g)


@pytest.mark.parametrize("n,K", SIZES)
def bench_jet_invert(benchmark, n, K):
    (f,) = _jets(n, K, 1, seed=130 + 10 * n + K)
    benchmark(invert, f)


@pytest.mark.parametrize("m", [3, 16])
@pytest.mark.parametrize("n,K", SIZES)
def bench_jet_iterate(benchmark, n, K, m):
    # 3 makes one squaring and one composition with f; 16 makes four
    # squarings, at least what any binary powering scheme needs
    (f,) = _jets(n, K, 1, seed=150 + 10 * n + K)
    benchmark(iterate, f, m)
