"""pytest-benchmark timings of the layers that `fsjet verify all` repeats.

Each benchmark uses only API that has been stable across versions, so the
same file times an older checkout: copy ``bench/`` into it and run
``python -m pytest bench`` from its root.
"""

import numpy as np
import pytest

from fsjet.fekete import operator_norm_bilinear
from fsjet.jets import compose, random_jet
from fsjet.verify import suite_error_bound, suite_semigroup


def _jets(n, K, count, seed):
    rng = np.random.default_rng(seed)
    return [random_jet(n, K, rng) for _ in range(count)]


@pytest.mark.parametrize("n,K", [(2, 3), (3, 5), (4, 5)])
def bench_compose(benchmark, n, K):
    f, g = _jets(n, K, 2, seed=10 * n + K)
    benchmark(compose, f, g)


def bench_semigroup_oracle(benchmark):
    # closed-form flow jets against RK4 Cauchy extraction, as in
    # `fsjet verify semigroup`, at 2 trials
    benchmark(suite_semigroup, 2, 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def bench_operator_norm_bilinear(benchmark, n):
    (f,) = _jets(n, 2, 1, seed=20 + n)
    B = f.poly(2)
    B.dense()  # built once per polynomial; time the estimate alone
    benchmark(operator_norm_bilinear, B)


def bench_error_bound_suite(benchmark):
    # the composition defect against its bound: two norm estimates per
    # trial, 200 trials in `fsjet verify all`, 10 here
    benchmark(suite_error_bound, 10, 0)


@pytest.mark.parametrize("n,K", [(3, 5), (4, 7)])
def bench_hompoly_scale(benchmark, n, K):
    (f,) = _jets(n, K, 1, seed=n + K)
    benchmark(f.poly(K).scale, 2.5j)


@pytest.mark.parametrize("n,K", [(3, 5), (4, 7)])
def bench_hompoly_add(benchmark, n, K):
    f, g = _jets(n, K, 2, seed=n + K)
    benchmark(f.poly(K).__add__, g.poly(K))


@pytest.mark.parametrize("n,K", [(2, 7), (4, 7)])
def bench_hompoly_dense_build(benchmark, n, K):
    (f,) = _jets(n, K, 1, seed=n * K)
    P = f.poly(K)

    def build():
        P.__dict__.pop("_dense", None)  # drop the cached tensor
        return P.dense()

    benchmark(build)
