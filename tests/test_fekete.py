"""The Fekete-Szego mapping, scalar variants, and the bilinear operator
norm estimator."""

import warnings

import numpy as np
import pytest

from fsjet.fekete import (
    NORM_BLOCK_CELLS,
    FSContext,
    ell,
    fs_mapping,
    fs_mapping_many,
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
    ctx = FSContext(np.array([1.0 + 1e-8, 0.0]), 0.5, 0.25)
    assert abs(np.linalg.norm(ctx.e) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        FSContext(np.array([2.0, 0.0]), 0.0, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_direction_is_rejected(bad):
    with pytest.raises(ValueError, match="unit vector"):
        normalize_direction(np.array([bad, 0.0]))
    with pytest.raises(ValueError, match="unit vector"):
        FSContext(np.array([1.0, bad]), 0.5, 0.25)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
def test_context_rejects_a_non_finite_parameter(bad):
    e = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="lambda must be finite"):
        FSContext(e, bad, 0.25)
    with pytest.raises(ValueError, match="mu must be finite"):
        FSContext(e, 0.5, bad)


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
            got = fs_mapping(f, FSContext(e, lam, mu)).vector
            expect = (1.0 - lam) / 4.0 * np.array([1.0, 1.0])
            assert np.allclose(got, expect, atol=1e-14)


def test_example_5_7_closed_form():
    f = example_gallery("example_5_7").jet
    e = np.array([1.0, 0.0], dtype=complex)
    for lam in (0.0, 0.5, -1.0j):
        for mu in (0.0, 0.4, 1.5 + 1.0j):
            got = fs_mapping(f, FSContext(e, lam, mu)).vector
            expect = np.array([0.0, (1.0 - mu) / 2.0])
            assert np.allclose(got, expect, atol=1e-14)


def test_scalar_projection_consistent():
    rng = np.random.default_rng(30)
    f = random_jet(3, 3, rng)
    e = sample_sphere(rng, 1, 3)[0]
    v = fs_mapping(f, FSContext(e, 0.3, 0.9))
    assert abs(v.scalar_projection - np.vdot(e, v.vector)) < 1e-14


def _psi_by_evaluation(f, e, lam, mu):
    """Psi_e(f, lam, mu) = P3(e) - mu B[e, P2(e)] - (lam-mu)<P2(e),e> P2(e)
    through ``eval`` and ``multilinear_eval``, the route ``fs_mapping`` took
    before it became the one-row case of ``fs_mapping_many``; kept as the
    reference that shares no code with the dense contractions."""
    P2e = f.poly(2).eval(e)
    return (
        f.poly(3).eval(e)
        - mu * f.poly(2).multilinear_eval([e, P2e])
        - (lam - mu) * np.vdot(e, P2e) * P2e
    )


def test_fs_mapping_many_matches_single():
    rng = np.random.default_rng(31)
    f = random_jet(2, 3, rng)
    es = sample_sphere(rng, 8, 2)
    lam, mu = 0.4 - 0.2j, 1.1
    batch = fs_mapping_many(f, es, lam, mu)
    for i, e in enumerate(es):
        assert np.allclose(batch[i], _psi_by_evaluation(f, e, lam, mu), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fs_mapping_matches_evaluation_route(n):
    rng = np.random.default_rng(35 + n)
    jets = [random_jet(n, order, rng) for order in (2, 3, 4)]
    jets.append(random_jet(n, 3, rng, scale=0.0))  # the zero jet
    lam, mu = 0.6 + 0.3j, -0.8
    for f in jets:
        for e in sample_sphere(rng, 4, n):
            want = _psi_by_evaluation(f, e, lam, mu)
            got = fs_mapping(f, FSContext(e, lam, mu))
            assert np.abs(got.vector - want).max() <= 1e-14 * (1.0 + np.abs(want).max())
            assert abs(got.scalar_projection - np.vdot(e, want)) <= 1e-13
    assert not fs_mapping(jets[-1], FSContext(e, lam, mu)).vector.any()
    with pytest.raises(ValueError):
        fs_mapping(jets[0], FSContext(np.ones(n + 1) / np.sqrt(n + 1), lam, mu))


def test_global_phase_invariance_of_norm():
    rng = np.random.default_rng(32)
    f = random_jet(2, 3, rng)
    e = sample_sphere(rng, 1, 2)[0]
    lam, mu = 0.7, -0.3j
    base = fs_mapping(f, FSContext(e, lam, mu)).vector
    rotated = fs_mapping(f, FSContext(np.exp(0.9j) * e, lam, mu)).vector
    assert abs(np.linalg.norm(base) - np.linalg.norm(rotated)) < 1e-12


def test_fs_scalar_variant_validation():
    rng = np.random.default_rng(33)
    f = random_jet(2, 3, rng)
    with pytest.raises(ValueError):
        fs_scalar(f, np.array([1.0, 0.0]), 0.0, variant=5)


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
    """(u, v) are unit vectors and ||B[u, v]|| replays the value."""
    replayed = float(np.linalg.norm(np.einsum("abm,a,b->m", B.dense(), est.u, est.v)))
    assert abs(replayed - est.value) <= 1e-12 * max(1.0, est.value)
    assert abs(np.linalg.norm(est.u) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(est.v) - 1.0) <= 1e-12


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
    # the error-bound suite's tensors, closer than the 1e-13 by which the
    # stopping rule may leave the estimate short
    tensors, seeds = _error_bound_tensors(20)[2]
    for B, seed in zip(tensors, seeds):
        grid = grid_sup_dim2(lambda us: _top_singular_values(B, us), 60, 120, zooms=3)
        est = operator_norm_bilinear(B, seed=seed)
        assert abs(est.value - grid) <= 1e-13 * max(1.0, grid)


def test_operator_norm_iteration_cap_still_attains_its_value():
    # one or two sweeps: no convergence, but still an attained value
    rng = np.random.default_rng(110)
    B = random_jet(3, 2, rng).poly(2)
    for iters in (1, 2):
        est = operator_norm_bilinear(B, starts=8, iters=iters, seed=4)
        _assert_unit_witness(B, est)


def _hompoly_from_dense(T):
    n, m = T.shape[0], T.shape[2]
    coeffs = {(a + 1, b + 1): T[a, b] for a in range(n) for b in range(a, n)}
    return HomPoly(2, n, m, coeffs)


@pytest.mark.parametrize("starts", [1, 2, 32])
def test_operator_norm_sparse_tensors_without_nan_or_warning(starts):
    # basis-vector starts give B[u, v] = 0 on these, which the power steps
    # must never divide by
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


def test_operator_norm_zero_tensor_and_bad_starts():
    est = operator_norm_bilinear(HomPoly.zero(2, 3, 3), starts=4)
    assert est.value == 0.0
    assert not np.any(est.u) and not np.any(est.v)
    with pytest.raises(ValueError):
        operator_norm_bilinear(random_jet(2, 2, np.random.default_rng(0)).poly(2), starts=0)


@pytest.mark.parametrize("starts", [1, 2, 32])
def test_operator_norm_mixed_stack_without_nan_or_warning(starts):
    # zero tensors, sparse tensors on which basis starts give B[u, v] = 0,
    # and random tensors share one batch
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
            if B.is_zero(atol=0.0):
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
    assert operator_norm_bilinear([]) == []
    for bad_value in (np.nan, np.inf, -np.inf * 1j):
        # the constructor rejects non-finite entries; arithmetic can still
        # make them
        with np.errstate(invalid="ignore"):
            bad = HomPoly(2, 2, 2, {(1, 2): [1.0, 0.0]}).scale(bad_value)
        with pytest.raises(ValueError, match="index 2"):
            operator_norm_bilinear(good[:2] + [bad] + good[2:])
        with pytest.raises(ValueError, match="non-finite"):
            operator_norm_bilinear(bad)
    with pytest.raises(ValueError, match="index 1"):
        operator_norm_bilinear([good[0], random_jet(3, 2, rng).poly(2)])
    with pytest.raises(ValueError, match="index 2"):
        operator_norm_bilinear(good[:2] + [random_jet(2, 3, rng).poly(3)])
    with pytest.raises(ValueError):
        operator_norm_bilinear(random_jet(2, 3, rng).poly(3))
    with pytest.raises(ValueError):
        operator_norm_bilinear(good, seed=[1, 2])


def _three_steps_per_start(B, starts=32, iters=200, seed=0):
    """Reference: the three steps of ``operator_norm_bilinear`` written one
    start at a time with dense contractions."""
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
    # lone and stacked calls agree with the steps run start by start, also
    # when the iteration cap stops them before convergence
    kwargs = {"starts": starts, "iters": iters}
    for tensors, seeds in _error_bound_tensors(count).values():
        stacked = operator_norm_bilinear(tensors, seed=seeds, **kwargs)
        for B, seed, est in zip(tensors, seeds, stacked):
            ref = _three_steps_per_start(B, seed=seed, **kwargs)
            lone = operator_norm_bilinear(B, seed=seed, **kwargs)
            for value in (est.value, lone.value):
                assert abs(value - ref) <= 1e-12 * max(1.0, ref)
