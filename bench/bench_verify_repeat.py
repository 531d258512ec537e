"""pytest-benchmark timings of the layers that `fsjet verify all` repeats,
and of the jet algebra at the sizes ROADMAP aim 1 names for it, up to
the advertised (n, K) = (4,7).

The same file times an older checkout: ``bench/paired.py`` runs it
against both trees.  A case whose API the older checkout lacks (the
batch and stack calls of ``fs_mapping``, ``compose`` and ``invert``, and
the D directions per jet of a stacked ``fs_mapping``) fails there, and
``paired.py`` lists it unpaired.
"""

import numpy as np
import pytest

from fsjet.estimates import SupNormConfig, estimate_sup_modulus, sup_norm_fs
from fsjet.fekete import fs_mapping, operator_norm_bilinear
from fsjet.jets import MappingJet, compose, invert, iterate, random_jet
from fsjet.sampling import sample_sphere
from fsjet.semigroup import sample_generator, semigroup_ode
from fsjet.tensors import HomPoly, layout
from fsjet.transforms import detect_onedim, root_transform
from fsjet.verify import (
    DEFAULT_TRIALS,
    random_onedim_jet,
    run_suite,
    suite_error_bound,
    suite_semigroup,
)


def _jets(n, K, count, seed):
    rng = np.random.default_rng(seed)
    return [random_jet(n, K, rng) for _ in range(count)]


JET_SIZES = [(2, 3), (3, 5), (4, 5)]
# the sizes of the perfbench `jet-algebra` workload besides (4,5)
ALGEBRA_SIZES = [(2, 7), (3, 6)]
# the largest size the library advertises
TOP_SIZE = [(4, 7)]


@pytest.mark.parametrize("n,K", JET_SIZES + [(3, 3)] + ALGEBRA_SIZES + [(4, 6)] + TOP_SIZE)
def bench_compose(benchmark, n, K):
    # (2,3) and (3,3) are the order-3 jets of `fsjet verify all`
    f, g = _jets(n, K, 2, seed=10 * n + K)
    benchmark(compose, f, g)


# (3,3) is the order-3 size of `fsjet verify all`
@pytest.mark.parametrize("n,K", JET_SIZES + [(3, 3)] + ALGEBRA_SIZES + [(4, 6)] + TOP_SIZE)
def bench_invert(benchmark, n, K):
    (f,) = _jets(n, K, 1, seed=30 + 10 * n + K)
    benchmark(invert, f)


@pytest.mark.parametrize("n,K", JET_SIZES + [(3, 3)] + ALGEBRA_SIZES + TOP_SIZE)
def bench_iterate_3(benchmark, n, K):
    (f,) = _jets(n, K, 1, seed=40 + 10 * n + K)
    benchmark(iterate, f, 3)


@pytest.mark.parametrize("n,K", [(2, 5), (3, 5)] + TOP_SIZE)
def bench_iterate_16(benchmark, n, K):
    # 16 makes four squarings, at least what any binary powering scheme needs
    (f,) = _jets(n, K, 1, seed=50 + 10 * n + K)
    benchmark(iterate, f, 16)


def _sparse_jets(n, K, per_degree, count, seed):
    """Jets with ``per_degree`` nonzero monomials in each degree, drawn
    without repeats, each with a complex Gaussian coefficient vector."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        polys = {}
        for k in range(2, K + 1):
            exponents = layout(n, k).exponents
            picked = rng.choice(len(exponents), per_degree, replace=False)
            z = 0.3 * rng.standard_normal((per_degree, 2, n))
            monomials = {exponents[i]: v[0] + 1j * v[1] for i, v in zip(picked, z)}
            polys[k] = HomPoly.from_monomials(k, n, n, monomials)
        out.append(MappingJet(n, K, polys))
    return out


# jets with one and with three monomials per degree, the inputs on which
# the kernel most likely forms a zero term, at a jet-algebra size and the top one
SPARSE = [(n, K, per) for n, K in [(3, 6), (4, 7)] for per in (1, 3)]


@pytest.mark.parametrize("n,K,per", SPARSE)
def bench_sparse_compose(benchmark, n, K, per):
    f, g = _sparse_jets(n, K, per, 2, seed=70 + 10 * n + K)
    benchmark(compose, f, g)


@pytest.mark.parametrize("n,K,per", SPARSE)
def bench_sparse_invert(benchmark, n, K, per):
    (f,) = _sparse_jets(n, K, per, 1, seed=80 + 10 * n + K)
    benchmark(invert, f)


@pytest.mark.parametrize("n,K,per", SPARSE)
def bench_sparse_iterate_13(benchmark, n, K, per):
    # 13 = 0b1101: three squarings and two compositions with the sparse f
    (f,) = _sparse_jets(n, K, per, 1, seed=90 + 10 * n + K)
    benchmark(iterate, f, 13)


@pytest.mark.parametrize("trials", [2, 20])
def bench_semigroup_oracle(benchmark, trials):
    # closed-form flow jets against RK4 Cauchy extraction, as in
    # `fsjet verify semigroup` (20 trials there)
    benchmark(suite_semigroup, trials, 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def bench_operator_norm_bilinear(benchmark, n):
    (f,) = _jets(n, 2, 1, seed=20 + n)
    B = f.poly(2)
    B.dense()  # built once per polynomial; time the estimate alone
    benchmark(operator_norm_bilinear, B)


@pytest.mark.parametrize("n", [2, 3, 4])
def bench_operator_norm_stack(benchmark, n):
    # the stack that `fsjet verify error-bound` passes per dimension at its
    # 200 default trials: 100 trials of two order-3 jets each, the seeds
    # alternating as the suite's do; the first phase steps all 200 x 32
    # (tensor, start) pairs as one batch, and the second runs once on all
    # 200 best starts
    tensors = [f.poly(2) for f in _jets(n, 3, 200, seed=25)]
    for B in tensors:
        B.dense()
    benchmark(operator_norm_bilinear, tensors, seed=[0, 1] * 100)


def bench_operator_norm_stack_1000(benchmark):
    # a stack five times the suite's at n = 4: 32,000 (tensor, start)
    # pairs in the first phase's one batch
    tensors = [f.poly(2) for f in _jets(4, 3, 1000, seed=25)]
    for B in tensors:
        B.dense()
    benchmark(operator_norm_bilinear, tensors, seed=[0, 1] * 500)


def bench_fs_mapping_batch(benchmark):
    (f,) = _jets(3, 3, 1, seed=26)
    es = sample_sphere(np.random.default_rng(26), 64, 3)
    f.poly(2).dense()
    benchmark(fs_mapping, f, es, 0.3 - 0.2j, 0.8)


# the order-3 jets of `fsjet verify all` at n = 3, as one stack of this
# many, which each suite check at its default trials comes close to
STACK = 100


def bench_compose_stack(benchmark):
    fs, gs = _jets(3, 3, STACK, seed=60), _jets(3, 3, STACK, seed=61)
    benchmark(compose, fs, gs)


def bench_invert_stack(benchmark):
    benchmark(invert, _jets(3, 3, STACK, seed=62))


def bench_fs_mapping_stack(benchmark):
    fs = _jets(3, 3, STACK, seed=63)
    es = sample_sphere(np.random.default_rng(63), STACK, 3)
    benchmark(fs_mapping, fs, es, 0.3 - 0.2j, 0.8)


def bench_fs_mapping_directions(benchmark):
    # the call of `fsjet verify bounds` per dimension at its 50 default
    # trials: 25 jets of C^3, each with its own 64 directions
    fs = _jets(3, 3, 25, seed=64)
    es = sample_sphere(np.random.default_rng(64), 25 * 64, 3).reshape(25, 64, 3)
    benchmark(fs_mapping, fs, es, 0.3 - 0.2j, 0.8)


def bench_sup_norm_fs(benchmark):
    (f,) = _jets(2, 3, 1, seed=27)
    benchmark(sup_norm_fs, f, 0.3 - 0.2j, 0.8, SupNormConfig(starts=4, steps=40))


@pytest.mark.parametrize("n", [2, 3, 4])
def bench_sample_generator(benchmark, n):
    # one draw of the generators of `duality` and `semigroup`: a raw
    # order-3 jet, then its shrink into the generator class
    rng = np.random.default_rng(31)
    benchmark(sample_generator, n, rng)


def bench_rk4_step(benchmark):
    # semigroup_ode at t equal to its step takes exactly one RK4 step
    h = sample_generator(3, np.random.default_rng(28))
    x0 = 0.5 * sample_sphere(np.random.default_rng(29), 1, 3)[0]
    benchmark(semigroup_ode, h, 1e-3, x0, step=1e-3)


def bench_estimate_sup_modulus(benchmark):
    od = random_onedim_jet(3, 3, np.random.default_rng(30))
    benchmark(estimate_sup_modulus, od.s_eval, 3)


@pytest.mark.parametrize("trials", [10, 50])
def bench_error_bound_suite(benchmark, trials):
    # the composition defect against its bound: two norm estimates per
    # trial, 200 trials in `fsjet verify all`
    benchmark(suite_error_bound, trials, 0)


@pytest.mark.parametrize("suite", list(DEFAULT_TRIALS))
def bench_run_suite(benchmark, suite):
    # each suite's trial loop at a tenth to a twentieth of its default trials
    benchmark(run_suite, suite, trials=10)


def bench_verify_all(benchmark):
    # `fsjet verify all` at the default trials, warm: one untimed run
    # first builds the layouts and caches every suite reads
    run_suite("all")
    benchmark(run_suite, "all")


@pytest.mark.parametrize("n,K", [(3, 5), (4, 7)])
def bench_hompoly_scale(benchmark, n, K):
    (f,) = _jets(n, K, 1, seed=n + K)
    benchmark(f.poly(K).scale, 2.5j)


@pytest.mark.parametrize("n,K", [(3, 3), (3, 5), (4, 7)])
def bench_hompoly_add(benchmark, n, K):
    f, g = _jets(n, K, 2, seed=n + K)
    benchmark(f.poly(K).__add__, g.poly(K))


@pytest.mark.parametrize("n,K", [(3, 3), (4, 7)])
def bench_hompoly_allclose(benchmark, n, K):
    f, g = _jets(n, K, 2, seed=n * K)
    P, Q = f.poly(K), g.poly(K)
    benchmark(P.allclose, P + Q.scale(1e-12))


def bench_random_jet(benchmark):
    rng = np.random.default_rng(3)
    benchmark(random_jet, 3, 3, rng)


@pytest.mark.parametrize("kind", ["onedim", "generic"])
def bench_detect_onedim(benchmark, kind):
    # a one-dimensional jet solves every degree, a generic one stops at
    # the first; `fsjet verify duality` meets both
    rng = np.random.default_rng(5)
    f = random_onedim_jet(3, 3, rng).to_mapping_jet() if kind == "onedim" else random_jet(3, 3, rng)
    benchmark(detect_onedim, f)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("root", [2, 3])
def bench_root_transform(benchmark, n, root):
    # one transform of `fsjet verify root`: an order-3 one-dimensional
    # jet, a unit direction and the default output order 2 * root + 1
    rng = np.random.default_rng(32 + n)
    od = random_onedim_jet(n, 3, rng)
    e = sample_sphere(rng, 1, n)[0]
    benchmark(root_transform, od, root, e)


@pytest.mark.parametrize("n", [2, 3])
def bench_sample_sphere(benchmark, n):
    # the 10,000 sample points of `estimate_sup_modulus`, drawn once per
    # `check_bounded_onedim_bound` call
    rng = np.random.default_rng(33)
    benchmark(sample_sphere, rng, 10_000, n)


@pytest.mark.parametrize("n,K", [(2, 7), (4, 7)])
def bench_hompoly_dense_build(benchmark, n, K):
    (f,) = _jets(n, K, 1, seed=n * K)
    P = f.poly(K)

    def build():
        P.__dict__.pop("_dense", None)  # drop the cached tensor
        return P.dense()

    benchmark(build)
