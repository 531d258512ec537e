"""The Fekete-Szego mapping, scalar variants, and the bilinear operator
norm estimator."""

import warnings

import numpy as np
import pytest

from fsjet.fekete import (
    NORM_BLOCK_CELLS,
    ell,
    fs_mapping,
    fs_scalar,
    normalize_direction,
    operator_norm_bilinear,
)
from fsjet.gallery import example_gallery
from fsjet.jets import random_jet
from fsjet.sampling import sample_sphere
from fsjet.tensors import HomPoly
from fsjet.transforms import koebe_onedim

from sphere_grid import grid_sup_dim2


def test_context_normalizes_direction():
    # fs_mapping evaluates Psi at e / ||e||, for one direction and for a batch
    f = random_jet(2, 3, np.random.default_rng(29))
    e = np.array([1.0 + 1e-8, 0.0])
    want = _psi_by_evaluation(f, e / np.linalg.norm(e), 0.5, 0.25)
    assert np.abs(fs_mapping(f, e, 0.5, 0.25) - want).max() <= 1e-15
    assert np.abs(fs_mapping(f, np.array([e, e]), 0.5, 0.25) - want).max() <= 1e-15
    for bad in (np.array([2.0, 0.0]), np.array([[1.0, 0.0], [2.0, 0.0]])):
        with pytest.raises(ValueError, match="unit vector"):
            fs_mapping(f, bad, 0.0, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_direction_is_rejected(bad):
    f = random_jet(2, 3, np.random.default_rng(28))
    with pytest.raises(ValueError, match="unit vector"):
        normalize_direction(np.array([bad, 0.0]))
    with pytest.raises(ValueError, match="unit vector"):
        fs_mapping(f, np.array([1.0, bad]), 0.5, 0.25)
    with pytest.raises(ValueError, match="direction 1 must be a unit vector"):
        fs_mapping(f, np.array([[1.0, 0.0], [1.0, bad]]), 0.5, 0.25)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
def test_context_rejects_a_non_finite_parameter(bad):
    # lambda and mu are checked for one direction and for a batch
    f = random_jet(2, 3, np.random.default_rng(27))
    for e in (np.array([1.0, 0.0]), np.eye(2)):
        with pytest.raises(ValueError, match="lambda must be finite"):
            fs_mapping(f, e, bad, 0.25)
        with pytest.raises(ValueError, match="mu must be finite"):
            fs_mapping(f, e, 0.5, bad)


@pytest.mark.parametrize("bad", [None, "half"])
@pytest.mark.parametrize("stacked", [False, True])
def test_a_non_number_parameter_is_rejected_alike_lone_and_stacked(bad, stacked):
    # a None mu used to read as NaN in a stack ("mu must be finite, got
    # (nan+nanj)") and to raise TypeError for a lone jet
    f = random_jet(2, 3, np.random.default_rng(27))
    e = np.array([1.0, 0.0])
    if stacked:
        f, e = [f, f], np.array([e, e])
    with pytest.raises(ValueError, match=f"lambda must be a number, got {bad!r}"):
        fs_mapping(f, e, bad, 0.25)
    with pytest.raises(ValueError, match=f"mu must be a number, got {bad!r}"):
        fs_mapping(f, e, 0.5, bad)


def test_koebe_scalar_value():
    f = example_gallery("koebe1d").jet
    e = np.array([1.0 + 0j])
    for lam in (0.0, 0.5, 1.0, 0.3 - 0.2j):
        for variant in (1, 2, 3, 4):
            val = fs_scalar(f, e, lam, variant)
            assert abs(val - (3.0 - 4.0 * lam)) < 1e-13


def test_example_5_6_closed_form():
    f = example_gallery("example_5_6").jet
    e = np.array([1.0, 0.0], dtype=complex)
    for lam in (0.0, 0.25, 1.0 + 0.5j):
        for mu in (0.0, -0.7, 2.0j):
            got = fs_mapping(f, e, lam, mu)
            expect = (1.0 - lam) / 4.0 * np.array([1.0, 1.0])
            assert np.allclose(got, expect, atol=1e-14)


def test_example_5_7_closed_form():
    f = example_gallery("example_5_7").jet
    e = np.array([1.0, 0.0], dtype=complex)
    for lam in (0.0, 0.5, -1.0j):
        for mu in (0.0, 0.4, 1.5 + 1.0j):
            got = fs_mapping(f, e, lam, mu)
            expect = np.array([0.0, (1.0 - mu) / 2.0])
            assert np.allclose(got, expect, atol=1e-14)


def _psi_by_evaluation(f, e, lam, mu):
    """Psi_e(f, lam, mu) = P3(e) - mu B[e, P2(e)] - (lam-mu)<P2(e),e> P2(e)
    through ``eval`` and ``multilinear_eval``, a route that shares no code
    with the dense contractions of ``fs_mapping``."""
    P2e = f.poly(2).eval(e)
    return (
        f.poly(3).eval(e)
        - mu * f.poly(2).multilinear_eval([e, P2e])
        - (lam - mu) * np.vdot(e, P2e) * P2e
    )


def test_fs_mapping_batch_matches_single():
    # row i of an (N, n) call is the (n,) call on row i, up to the order of
    # the sums in the batched contractions
    rng = np.random.default_rng(31)
    lam, mu = 0.4 - 0.2j, 1.1
    for n in (1, 2, 3):
        f = random_jet(n, 3, rng)
        es = sample_sphere(rng, 8, n)
        batch = fs_mapping(f, es, lam, mu)
        assert batch.shape == (8, n)
        for row, e in zip(batch, es):
            single = fs_mapping(f, e, lam, mu)
            assert single.shape == (n,)
            assert np.abs(row - single).max() <= 1e-15 * (1.0 + np.abs(single).max())
            assert np.abs(row - _psi_by_evaluation(f, e, lam, mu)).max() <= 1e-14
    assert fs_mapping(f, es[:0], lam, mu).shape == (0, n)


@pytest.mark.parametrize(
    "case", ["not-a-unit-vector", "nan-row", "wrong-column-count", "nan-lambda", "nan-mu"]
)
def test_fs_mapping_rejects_a_bad_batch(case):
    rng = np.random.default_rng(34)
    f = random_jet(2, 3, rng)
    es, lam, mu = sample_sphere(rng, 4, 2), 0.5, 0.25
    if case == "not-a-unit-vector":
        es[2] *= 2.0
    elif case == "nan-row":
        es[2, 1] = np.nan
    elif case == "wrong-column-count":
        es = sample_sphere(rng, 4, 3)
    elif case == "nan-lambda":
        lam = np.nan
    else:
        mu = np.nan
    match = {"not-a-unit-vector": "direction 2", "nan-row": "direction 2",
             "wrong-column-count": "shape", "nan-lambda": "lambda", "nan-mu": "mu"}[case]
    with pytest.raises(ValueError, match=match):
        fs_mapping(f, es, lam, mu)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fs_mapping_matches_evaluation_route(n):
    rng = np.random.default_rng(35 + n)
    jets = [random_jet(n, order, rng) for order in (2, 3, 4)]
    jets.append(random_jet(n, 3, rng, scale=0.0))  # the zero jet
    lam, mu = 0.6 + 0.3j, -0.8
    for f in jets:
        for e in sample_sphere(rng, 4, n):
            want = _psi_by_evaluation(f, e, lam, mu)
            got = fs_mapping(f, e, lam, mu)
            assert np.abs(got - want).max() <= 1e-14 * (1.0 + np.abs(want).max())
    assert not fs_mapping(jets[-1], e, lam, mu).any()
    for bad in (np.ones(n + 1) / np.sqrt(n + 1), e[None, None], complex(1.0)):
        with pytest.raises(ValueError, match="shape"):
            fs_mapping(jets[0], bad, lam, mu)


def test_global_phase_invariance_of_norm():
    rng = np.random.default_rng(32)
    f = random_jet(2, 3, rng)
    e = sample_sphere(rng, 1, 2)[0]
    lam, mu = 0.7, -0.3j
    base = fs_mapping(f, e, lam, mu)
    rotated = fs_mapping(f, np.exp(0.9j) * e, lam, mu)
    assert abs(np.linalg.norm(base) - np.linalg.norm(rotated)) < 1e-12


def test_fs_scalar_variant_validation():
    rng = np.random.default_rng(33)
    f = random_jet(2, 3, rng)
    with pytest.raises(ValueError):
        fs_scalar(f, np.array([1.0, 0.0]), 0.0, variant=5)
    with pytest.raises(ValueError):
        fs_scalar(f, np.array([[1.0, 0.0]]), 0.0, variant=1)


def test_operator_norm_known_tensors():
    koebe = example_gallery("koebe1d").jet
    est = operator_norm_bilinear(koebe.poly(2))
    assert abs(est.value - 2.0) < 1e-10

    f56 = example_gallery("example_5_6").jet
    est = operator_norm_bilinear(f56.poly(2))
    assert abs(est.value - np.sqrt(2.0) / 2.0) < 1e-10

    zero = HomPoly.zero(2, 2, 2)
    assert operator_norm_bilinear(zero).value == 0.0


def test_operator_norm_dominates_samples():
    rng = np.random.default_rng(36)
    B = random_jet(3, 2, rng).poly(2)
    est = operator_norm_bilinear(B, seed=5)
    # the witness achieves the value
    achieved = float(np.linalg.norm(B.multilinear_eval([est.u, est.v])))
    assert abs(achieved - est.value) < 1e-9
    # no random pair beats it
    us = sample_sphere(rng, 200, 3)
    vs = sample_sphere(rng, 200, 3)
    for u, v in zip(us, vs):
        val = float(np.linalg.norm(B.multilinear_eval([u, v])))
        assert val <= est.value + 1e-9


def test_ell_values():
    assert abs(ell(0.0, 0.0) - 2.0) < 1e-15
    assert abs(ell(1.0, 1.0) - 2.0) < 1e-15
    assert abs(ell(2.0, 0.0) - 6.0) < 1e-15
    assert abs(ell(1.0j, 0.0) - 4.0) < 1e-15


def _assert_unit_witness(B, est):
    """The witness is one unit vector x, returned as both u and v, and
    ||B[x, x]|| replays the value."""
    assert np.array_equal(est.u, est.v)
    x = est.u
    replayed = float(np.linalg.norm(np.einsum("abm,a,b->m", B.dense(), x, x)))
    assert abs(replayed - est.value) <= 1e-12 * max(1.0, est.value)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12


def _error_bound_tensors(count):
    """Degree-2 parts drawn as the error-bound suite draws them (at seed 3),
    with the suite's seeds for the two norms of each trial, by dimension."""
    rng = np.random.default_rng([3, 6])
    stacks = {2: ([], []), 3: ([], [])}
    for i in range(count // 2):
        n = (2, 3)[i % 2]
        tensors, seeds = stacks[n]
        for seed in (3, 4):
            tensors.append(random_jet(n, 3, rng).poly(2))
            seeds.append(seed)
    return stacks


def _assert_stack_matches_lone_calls(tensors, seeds, **kwargs):
    stacked = operator_norm_bilinear(tensors, seed=seeds, **kwargs)
    assert isinstance(stacked, list) and len(stacked) == len(tensors)
    for B, seed, est in zip(tensors, seeds, stacked):
        lone = operator_norm_bilinear(B, seed=seed, **kwargs)
        assert abs(est.value - lone.value) <= 1e-14 * max(1.0, lone.value)
        if est.value > 0:
            _assert_unit_witness(B, est)
    return stacked


def _top_singular_values(B, us):
    """max over unit v of ||B[u, v]|| for each row u of us, at n = 2: the
    square root of the top eigenvalue of the 2 x 2 Gram matrix of
    v -> B[u, v], in closed form."""
    D = B.dense()
    M = us[:, 0, None, None] * D[0] + us[:, 1, None, None] * D[1]  # M[r, b] = B[u_r, e_b]
    a, d = ((np.abs(M[:, b]) ** 2).sum(-1) for b in (0, 1))
    c = (M[:, 0].conj() * M[:, 1]).sum(-1)
    return np.sqrt((a + d) / 2 + np.sqrt(((a - d) / 2) ** 2 + np.abs(c) ** 2))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("starts", [1, 4, 32])
def test_operator_norm_witness_attains_the_value(n, starts):
    rng = np.random.default_rng(100 + 10 * n + starts)
    for trial in range(3):
        B = random_jet(n, 2, rng).poly(2)
        _assert_unit_witness(B, operator_norm_bilinear(B, starts=starts, seed=trial))


def test_operator_norm_matches_a_dense_grid_at_n2():
    # at n = 2 the norm is the supremum over u of the largest singular
    # value of v -> B[u, v], a function on the sphere of C^2 modulo phase:
    # a coarse grid and three zooms reach it to about 1e-14 relative on
    # the error-bound suite's tensors, ten times closer than the test asks
    tensors, seeds = _error_bound_tensors(20)[2]
    for B, seed in zip(tensors, seeds):
        grid = grid_sup_dim2(lambda us: _top_singular_values(B, us), 60, 120, zooms=3)
        est = operator_norm_bilinear(B, seed=seed)
        assert abs(est.value - grid) <= 1e-13 * max(1.0, grid)


def test_operator_norm_iteration_cap_still_attains_its_value():
    # one to three steps: no convergence, but still an attained value
    rng = np.random.default_rng(110)
    B = random_jet(3, 2, rng).poly(2)
    for iters in (1, 2, 3):
        est = operator_norm_bilinear(B, starts=8, iters=iters, seed=4)
        _assert_unit_witness(B, est)


def _hompoly_from_dense(T):
    n, m = T.shape[0], T.shape[2]
    coeffs = {(a + 1, b + 1): T[a, b] for a in range(n) for b in range(a, n)}
    return HomPoly(2, n, m, coeffs)


@pytest.mark.parametrize("starts", [1, 2, 32])
def test_operator_norm_sparse_tensors_without_nan_or_warning(starts):
    # B[e_i, e_i] = 0 on some of these, so a basis start can begin at a
    # zero value, which the power steps must never divide by
    swap = np.zeros((2, 2, 2), complex)
    swap[0, 1, 0] = swap[1, 0, 0] = 0.5  # B[u, v] = (u1 v2 + u2 v1)/2 e1
    a, c = np.array([0.0, 0.6, 0.8j]), np.array([1.0, -2.0j, 0.5])
    rank_one = np.einsum("a,b,m->abm", a, a, c)  # B[u, v] = (a.u)(a.v) c
    cases = [
        (example_gallery("koebe1d").jet.poly(2), 2.0),
        (example_gallery("example_5_6").jet.poly(2), np.sqrt(2.0) / 2.0),
        (_hompoly_from_dense(swap), 0.5),
        (_hompoly_from_dense(rank_one), np.linalg.norm(c)),
    ]
    for B, expect in cases:
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            est = operator_norm_bilinear(B, starts=starts)
        _assert_unit_witness(B, est)
        if starts >= B.domain_dim:
            assert abs(est.value - expect) <= 1e-12


def test_operator_norm_rejects_bad_iters():
    B = random_jet(2, 2, np.random.default_rng(0)).poly(2)
    for iters in (0, -3):
        with pytest.raises(ValueError):
            operator_norm_bilinear(B, iters=iters)


@pytest.mark.parametrize("name", ["starts", "iters"])
@pytest.mark.parametrize("bad", [2.5, np.nan, "4", None])
def test_operator_norm_takes_integer_counts(name, bad):
    # a NaN cap would never be reached, and a fractional one would pass
    # unnoticed: both counts go through operator.index
    B = random_jet(2, 2, np.random.default_rng(0)).poly(2)
    with pytest.raises(TypeError, match=name):
        operator_norm_bilinear(B, **{name: bad})


def test_operator_norm_zero_tensor_and_bad_starts():
    est = operator_norm_bilinear(HomPoly.zero(2, 3, 3), starts=4)
    assert est.value == 0.0
    assert not np.any(est.u) and not np.any(est.v)
    with pytest.raises(ValueError):
        operator_norm_bilinear(random_jet(2, 2, np.random.default_rng(0)).poly(2), starts=0)


@pytest.mark.parametrize("starts", [1, 2, 32])
def test_operator_norm_mixed_stack_without_nan_or_warning(starts):
    # zero tensors, sparse tensors with B[e_i, e_i] = 0, and random
    # tensors share one batch
    rng = np.random.default_rng(120)
    swap = np.zeros((2, 2, 2), complex)
    swap[0, 1, 0] = swap[1, 0, 0] = 0.5
    stacks = [
        [
            HomPoly.zero(2, 1, 1),
            example_gallery("koebe1d").jet.poly(2),
            random_jet(1, 2, rng).poly(2),
        ],
        [
            random_jet(2, 2, rng).poly(2),
            HomPoly.zero(2, 2, 2),
            example_gallery("example_5_6").jet.poly(2),
            _hompoly_from_dense(swap),
            koebe_onedim(dim=2).to_mapping_jet().poly(2),
            random_jet(2, 2, rng).poly(2),
        ],
    ]
    for tensors in stacks:
        seeds = list(range(len(tensors)))
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = _assert_stack_matches_lone_calls(tensors, seeds, starts=starts)
        for B, est in zip(tensors, stacked):
            if B.max_coeff() <= 0.0:
                assert est.value == 0.0 and not np.any(est.u) and not np.any(est.v)
    if starts >= 2:
        assert abs(stacked[2].value - np.sqrt(2.0) / 2.0) <= 1e-12
        assert abs(stacked[4].value - 2.0) <= 1e-12


def test_operator_norm_stack_across_blocks():
    # 40 tensors at 32 starts are 1,280 cells: a block of 32 tensors, then
    # one of 8
    rng = np.random.default_rng(122)
    tensors = [random_jet(3, 2, rng).poly(2) for _ in range(40)]
    assert 32 * len(tensors) > NORM_BLOCK_CELLS >= 32 * 32
    _assert_stack_matches_lone_calls(tensors, list(range(40)))


def test_operator_norm_stack_shares_an_int_seed():
    tensors, _ = _error_bound_tensors(8)[3]
    shared = operator_norm_bilinear(tensors, seed=7)
    each = _assert_stack_matches_lone_calls(tensors, [7] * len(tensors))
    assert [e.value for e in shared] == [e.value for e in each]


def test_operator_norm_stack_rejects_bad_input():
    rng = np.random.default_rng(121)
    good = [random_jet(2, 2, rng).poly(2) for _ in range(3)]
    for bad_value in (np.nan, np.inf, -np.inf * 1j):
        # the constructor rejects non-finite entries; arithmetic can still
        # make them
        with np.errstate(invalid="ignore"):
            bad = HomPoly(2, 2, 2, {(1, 2): [1.0, 0.0]}).scale(bad_value)
        with pytest.raises(ValueError, match="index 2"):
            operator_norm_bilinear(good[:2] + [bad] + good[2:])
        with pytest.raises(ValueError, match="non-finite"):
            operator_norm_bilinear(bad)
    with pytest.raises(ValueError, match="tensor 1 has"):
        operator_norm_bilinear([good[0], random_jet(3, 2, rng).poly(2)])
    with pytest.raises(ValueError, match="tensor 2 has"):
        operator_norm_bilinear(good[:2] + [random_jet(2, 3, rng).poly(3)])
    with pytest.raises(ValueError, match="degree-2 tensor at index 0"):
        operator_norm_bilinear([random_jet(2, 3, rng).poly(3)] * 2)
    with pytest.raises(ValueError, match="tensor 1 is not a HomPoly"):
        operator_norm_bilinear([good[0], random_jet(2, 2, rng)])
    with pytest.raises(ValueError, match="degree-2 tensor, got degree 3"):
        operator_norm_bilinear(random_jet(2, 3, rng).poly(3))
    with pytest.raises(ValueError, match="index 2 has no partner"):
        operator_norm_bilinear(good, seed=[1, 2])


def test_operator_norm_lone_tensor_rejects_a_seed_sequence():
    # a lone tensor takes one int seed, as a lone jet takes one lambda
    B = random_jet(2, 2, np.random.default_rng(123)).poly(2)
    for seed in ([5], [5, 6], np.array([5])):
        with pytest.raises(ValueError, match="seed"):
            operator_norm_bilinear(B, seed=seed)
    assert operator_norm_bilinear(B, seed=np.int64(5)).value == operator_norm_bilinear(B, seed=5).value


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.mark.parametrize("c", [1 + 1e-6, 1 + 1e-5, 1.001])
def test_operator_norm_picks_the_higher_of_two_near_tied_maxima(c):
    # B[u, v] = W (u'_1 v'_1, c u'_2 v'_2) with u' = U u and v' = U v has
    # local maxima 1 (at u' = v' = e_1) and c (at e_2), within 1e-3 of
    # each other: the estimate must reach the higher one
    for trial in range(20):
        rng = np.random.default_rng([130, trial])
        U, W = _unitary(rng, 2), _unitary(rng, 2)
        dense = np.einsum("mk,k,ka,kb->abm", W, np.array([1.0, c]), U, U)
        est = operator_norm_bilinear(_hompoly_from_dense(dense), seed=trial)
        assert abs(est.value - c) <= 1e-13 * c


def _assert_first_order_optimal(B, est):
    """At the returned witness (u, v), which is (x, x), the value is the
    top singular value of both v -> B[u, v] and u -> B[u, v], by a full
    SVD of the dense tensor's n x n slices: no pair beside (x, x) raises
    ||B[u, v]|| to first order."""
    dense = B.dense()
    for M in (np.einsum("abm,a->bm", dense, est.u), np.einsum("abm,b->am", dense, est.v)):
        top = np.linalg.svd(M, compute_uv=False)[0]
        assert abs(top - est.value) <= 1e-12 * est.value


def test_operator_norm_is_first_order_optimal():
    for tensors, seeds in _error_bound_tensors(40).values():
        for B, est in zip(tensors, operator_norm_bilinear(tensors, seed=seeds)):
            _assert_first_order_optimal(B, est)
    rng = np.random.default_rng(131)
    for n in (3, 4):
        for trial in range(10):
            B = random_jet(n, 2, rng).poly(2)
            _assert_first_order_optimal(B, operator_norm_bilinear(B, seed=trial))


def _three_steps_per_start(B, starts=32, iters=200, seed=0):
    """Reference: an earlier estimate of the norm, written one start at a
    time with dense contractions and full SVDs.  From each start, one exact
    sweep (v, then u, as the top singular vector of B with the other
    argument fixed), then power sweeps until a sweep changes the value by
    at most 1e-14 (absolute below 1), at most ``iters`` sweeps in all;
    then exact sweeps on the best start, to the same rule."""
    n = B.domain_dim
    dense = B.dense()
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((max(starts - n, 0), 2, n))
    z = z[:, 0] + 1j * z[:, 1]
    inits = list(np.eye(n, dtype=complex)) + [r / np.linalg.norm(r) for r in z]

    def exact_sweep(u):
        _, _, vh = np.linalg.svd(np.einsum("abm,a->mb", dense, u))
        v = vh[0].conj()
        _, s, uh = np.linalg.svd(np.einsum("abm,b->ma", dense, v))
        return s[0], uh[0].conj(), v

    def power_half_step(x, y):
        Bx = np.einsum("abm,a->bm", dense, x)
        w = y @ Bx  # B[x, y]
        y = Bx.conj() @ w
        return y / np.linalg.norm(y), w

    def stops(new, old):
        return abs(new - old) <= 1e-14 * max(1.0, new)

    best_val, best_u = -1.0, None
    for u in inits[:starts]:
        val, u, v = exact_sweep(u)
        if not stops(val, 0.0):
            for _ in range(iters - 1):
                v, _ = power_half_step(u, v)
                u, w = power_half_step(v, u)
                new_val = float(np.linalg.norm(w))
                stopped, val = stops(new_val, val), new_val
                if stopped:
                    break
        if val > best_val:
            best_val, best_u = val, u
    value, u = best_val, best_u
    for _ in range(iters):
        new_val, u, v = exact_sweep(u)
        stopped, value = stops(new_val, value), new_val
        if stopped:
            break
    return value


@pytest.mark.parametrize(
    "starts,iters,count", [(32, 1, 8), (32, 2, 8), (32, 3, 8), (32, 200, 8), (4, 200, 20)]
)
def test_operator_norm_follows_its_three_steps(starts, iters, count):
    # lone and stacked estimates at the default cap are no lower than the
    # reference, run with the same starts and with ``iters`` sweeps
    for tensors, seeds in _error_bound_tensors(count).values():
        stacked = operator_norm_bilinear(tensors, seed=seeds, starts=starts)
        for B, seed, est in zip(tensors, seeds, stacked):
            ref = _three_steps_per_start(B, starts=starts, iters=iters, seed=seed)
            lone = operator_norm_bilinear(B, seed=seed, starts=starts)
            for value in (est.value, lone.value):
                assert value >= ref - 1e-12 * ref


def _slowly_converging_tensor(n, eps, trial):
    """B[u, v] = (u . v) w + eps R[u, v] for a unit w and a seeded random
    symmetric R: at eps = 0 every unit u attains the norm 1 with v = u*,
    so for small eps the maxima are nearly flat and power iterations
    converge slowly."""
    rng = np.random.default_rng([150, n, trial])
    R = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    w = _unitary(rng, n)[0]
    dense = np.einsum("ab,m->abm", np.eye(n), w) + eps * (R + R.transpose(1, 0, 2)) / 2
    return _hompoly_from_dense(dense)


def test_operator_norm_follows_its_three_steps_on_slowly_converging_tensors():
    # the power steps converge slowly here: on trials 0-11 at n = 3, a cap
    # of 200 steps left the estimate up to 1.7e-4 short of the reference,
    # whose exact sweeps converge faster, 500 steps up to 8.2e-7, and from
    # 1000 steps it read 8.7e-14 to 5.8e-9 above it
    trials = [9, 10, 11]
    tensors = [_slowly_converging_tensor(3, 0.01, trial) for trial in trials]
    stacked = operator_norm_bilinear(tensors, seed=trials)
    for B, seed, est in zip(tensors, trials, stacked):
        ref = _three_steps_per_start(B, seed=seed)
        for value in (est.value, operator_norm_bilinear(B, seed=seed).value):
            assert value >= ref - 1e-13 * ref


@pytest.mark.parametrize("n", [2, 3, 4])
def test_operator_norm_stack_at_any_scale(n):
    # ||B[u, v]||^2 overflows from entries of about 1e154 and underflows
    # below 1e-154, so the estimate must not square an unscaled entry:
    # scaling B scales the estimate, lone and stacked, and the unit pair
    # replays it
    rng = np.random.default_rng(180 + n)
    dense = [random_jet(n, 2, rng).poly(2).dense() for _ in range(6)]
    seeds = list(range(len(dense)))
    base = operator_norm_bilinear([_hompoly_from_dense(T) for T in dense], seed=seeds)
    for scale in (1e-200, 1e-100, 1e-60, 1e60, 1e100, 1e200):
        stack = [_hompoly_from_dense(scale * T) for T in dense]
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = operator_norm_bilinear(stack, seed=seeds)
            lone = [operator_norm_bilinear(B, seed=seed) for B, seed in zip(stack, seeds)]
        for T, ref, est in zip(dense * 2, base * 2, stacked + lone):
            assert abs(est.value - scale * ref.value) <= 1e-13 * scale * ref.value
            # the scale is applied after the contraction, whose squares
            # would leave the float range
            replayed = scale * np.linalg.norm(np.einsum("abm,a,b->m", T, est.u, est.v))
            assert abs(replayed - est.value) <= 1e-12 * est.value
            assert abs(np.linalg.norm(est.u) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(est.v) - 1.0) <= 1e-12


def _banach_sup(B, starts, seed):
    """sup over unit x of ||B[x, x]|| by BFGS from seeded random starts, with
    no code shared with the estimator.  By Banach's equality (Studia Math. 7,
    1938) it equals sup over unit u, v of ||B[u, v]|| for a symmetric B on a
    Hilbert space.  x is z / ||z|| for z in C^n, read as 2n reals, so the
    search is unconstrained."""
    T = B.dense()
    n = T.shape[0]

    def minus_square(z):
        x = z[:n] + 1j * z[n:]
        s = np.vdot(x, x).real
        Tx = np.einsum("abm,a->bm", T, x)  # Tx[b] = B[x, e_b]
        P = x @ Tx  # B[x, x]
        f = np.vdot(P, P).real / (s * s)
        # the derivative of f in conj(x); the real gradient is twice its
        # real and imaginary parts
        g = 2.0 * (Tx.conj() @ P) / (s * s) - 2.0 * f * x / s
        return -f, -2.0 * np.concatenate([g.real, g.imag])

    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(starts):
        res = scipy_optimize.minimize(
            minus_square, rng.standard_normal(2 * n), jac=True, method="BFGS",
            options={"gtol": 1e-13, "maxiter": 2000},
        )
        best = max(best, -minus_square(res.x)[0])
    return float(np.sqrt(best))


scipy_optimize = pytest.importorskip("scipy.optimize")


@pytest.mark.parametrize(
    "family,n", [("error-bound", 2), ("error-bound", 3), ("random", 2), ("random", 3), ("random", 4)]
)
def test_operator_norm_meets_banachs_equality(family, n):
    # the error-bound suite's tensors and random ones, each against a
    # sphere search of ||B[x, x]||
    if family == "error-bound":
        tensors, seeds = _error_bound_tensors(8)[n]
    else:
        rng = np.random.default_rng(190 + n)
        tensors, seeds = [random_jet(n, 2, rng).poly(2) for _ in range(4)], range(4)
    for B, seed in zip(tensors, seeds):
        est = operator_norm_bilinear(B, seed=seed)
        search = _banach_sup(B, 20, [191, seed])
        assert abs(est.value - search) <= 1e-12 * search


def _first_order_residuals(B, est):
    """||B[u, .]* B[u, v] - rho v|| and ||B[., v]* B[u, v] - rho u|| over
    rho = ||B[u, v]||^2 at the returned witness, by dense contractions.
    At u = v = x both are the estimator's one residual,
    ||B[x, .]* B[x, x] - rho x|| / rho."""
    T = B.dense()
    w = np.einsum("abm,a,b->m", T, est.u, est.v)
    rho = np.vdot(w, w).real
    r_v = np.einsum("abm,a,m->b", T.conj(), est.u.conj(), w) - rho * est.v
    r_u = np.einsum("abm,b,m->a", T.conj(), est.v.conj(), w) - rho * est.u
    return np.linalg.norm(r_u) / rho, np.linalg.norm(r_v) / rho


@pytest.mark.parametrize("n", [2, 3, 4])
def test_operator_norm_stops_at_its_first_order_rule(n):
    # the best start steps until its residual is at most 1e-8 of
    # ||B[x, x]||^2, which these tensors reach well within the default cap
    rng = np.random.default_rng(200 + n)
    tensors = [random_jet(n, 2, rng).poly(2) for _ in range(10)]
    stacked = operator_norm_bilinear(tensors, seed=list(range(10)))
    lone = [operator_norm_bilinear(B, seed=seed) for seed, B in enumerate(tensors)]
    for B, est in zip(tensors * 2, stacked + lone):
        assert max(_first_order_residuals(B, est)) <= 1e-8 + 1e-14


def test_operator_norm_stack_of_mixed_scales():
    # each tensor of a stack is scaled on its own, so tensors 400 orders
    # of magnitude apart share one batch
    rng = np.random.default_rng(185)
    dense = [random_jet(3, 2, rng).poly(2).dense() for _ in range(4)]
    scales = [1e-200, 1e200, 1.0, 1e-100]
    base = operator_norm_bilinear([_hompoly_from_dense(T) for T in dense])
    mixed = operator_norm_bilinear([_hompoly_from_dense(c * T) for c, T in zip(scales, dense)])
    for c, ref, est in zip(scales, base, mixed):
        assert abs(est.value - c * ref.value) <= 1e-13 * c * ref.value


def test_operator_norm_basis_start_takes_its_best_column():
    # B[u, v] = (u1 v2 + u2 v1)/2 e1 vanishes at (e1, e1): the basis start
    # e1 begins at (e1 + e2)/sqrt(2), polarised with the column e2 of
    # largest ||B[e1, e_j]||, where ||B[x, x]|| is the norm 1/2, and so
    # reaches it as the only start
    swap = np.zeros((2, 2, 2), complex)
    swap[0, 1, 0] = swap[1, 0, 0] = 0.5
    est = operator_norm_bilinear(_hompoly_from_dense(swap), starts=1)
    assert abs(est.value - 0.5) <= 1e-15


def test_operator_norm_basis_start_turns_its_sign_where_it_cancels():
    # at x = (e1 + e2)/sqrt(2), B[x, x] = (B[e1, e1] + 2 B[e1, e2] +
    # B[e2, e2])/2 is 0 here, a value that does not step; the basis start
    # e1 begins at (e1 - e2)/sqrt(2) instead, where B[x, x] = (0, -4), and
    # reaches the norm alone, as the grid on the sphere finds it
    B = HomPoly(2, 2, 2, {(1, 1): [1, 0], (1, 2): [0, 2], (2, 2): [-1, -4]})
    grid = grid_sup_dim2(lambda us: _top_singular_values(B, us), 60, 120, zooms=3)
    assert grid > 4.88
    for starts in (1, 2, 32):
        est = operator_norm_bilinear(B, starts=starts)
        _assert_unit_witness(B, est)
        assert abs(est.value - grid) <= 1e-13 * grid, starts
