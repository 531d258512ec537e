"""Stacks of jets: ``compose``, ``invert``, ``iterate`` and ``fs_mapping``
on a sequence of T jets give, row by row, the lone call on each jet.

The lone calls are the reference: each row of a stack runs the lone
call's arithmetic on (T,) columns, so rows agree within rounding, and a
row with a non-finite coefficient must leave the other rows alone."""

import numpy as np
import pytest

from fsjet.fekete import fs_mapping, operator_norm_bilinear
from fsjet.jets import MappingJet, compose, invert, iterate, random_jet
from fsjet.sampling import sample_params, sample_sphere
from fsjet.semigroup import flow_taylor_via_ode
from fsjet.tensors import HomPoly
from fsjet.verify import ITERATE_RANGE, random_onedim_jet

SIZES = [(2, 3), (3, 3), (3, 5), (4, 4)]


def _stack(n, K, T, seed, kind="dense"):
    """T random jets of order K over C^n: dense, or sparse lifts of
    one-dimensional jets of two scales, with every other one the identity
    so that the zero filter of a column prunes a term only some rows have."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return [random_jet(n, K, rng) for _ in range(T)]
    return [
        random_onedim_jet(n, K, rng, scale=0.1 + 0.2 * (t % 3)).to_mapping_jet()
        if t % 2 == 0 else MappingJet.identity(n, K)
        for t in range(T)
    ]


def _assert_rows_equal(stacked, lone):
    assert len(stacked) == len(lone)
    for s, f in zip(stacked, lone):
        assert (s.dim, s.order) == (f.dim, f.order)
        scale = 1.0 + f.max_coeff()
        for k in range(2, f.order + 1):
            assert np.abs(s.poly(k).entries - f.poly(k).entries).max() <= 1e-12 * scale, k


def _cases():
    for n, K in SIZES:
        yield n, K, "dense"
    yield 3, 5, "onedim"
    yield 4, 4, "onedim"


@pytest.mark.parametrize("n,K,kind", list(_cases()))
def test_compose_rows_equal_lone_calls(n, K, kind):
    fs = _stack(n, K, 6, 10 * n + K, kind)
    gs = _stack(n, K, 6, 20 * n + K, kind)[::-1]
    _assert_rows_equal(compose(fs, gs), [compose(f, g) for f, g in zip(fs, gs)])


@pytest.mark.parametrize("n,K,kind", list(_cases()))
def test_invert_rows_equal_lone_calls(n, K, kind):
    fs = _stack(n, K, 6, 30 * n + K, kind)
    _assert_rows_equal(invert(fs), [invert(f) for f in fs])


@pytest.mark.parametrize("n,K,kind", list(_cases()))
def test_iterate_rows_equal_lone_calls_for_every_suite_count(n, K, kind):
    fs = _stack(n, K, 4, 40 * n + K, kind)
    for m in (*ITERATE_RANGE, 0, 5):
        _assert_rows_equal(iterate(fs, m), [iterate(f, m) for f in fs])


@pytest.mark.parametrize("n,K,kind", list(_cases()))
def test_fs_mapping_rows_equal_lone_calls(n, K, kind):
    T = 8
    fs = _stack(n, K, T, 50 * n + K, kind)
    rng = np.random.default_rng(n * K)
    es = sample_sphere(rng, T, n)
    lam, mu = sample_params(rng, T), sample_params(rng, T)
    lone = np.array([fs_mapping(f, e, a, b) for f, e, a, b in zip(fs, es, lam, mu)])
    tol = 1e-12 * (1.0 + np.abs(lone).max())
    assert np.abs(fs_mapping(fs, es, lam, mu) - lone).max() <= tol
    # scalar parameters serve every row
    lone = np.array([fs_mapping(f, e, 0.5, mu[0]) for f, e in zip(fs, es)])
    assert np.abs(fs_mapping(fs, es, 0.5, mu[0]) - lone).max() <= tol


def _with_entry(f, k, value):
    """f with one entry of its degree-k part set to ``value``, which the
    public constructors would refuse when it is not finite."""
    entries = f.poly(k).entries.copy()
    entries[0, 0] = value
    polys = dict(f.polys)
    polys[k] = HomPoly._trusted(k, f.dim, f.dim, entries)
    return MappingJet(f.dim, f.order, polys)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_row_stays_non_finite_and_leaves_the_others_alone(bad):
    fs = _stack(3, 4, 4, 60)
    fs[1] = _with_entry(fs[1], 2, bad)
    fs[2] = _with_entry(fs[2], 3, bad)
    gs = fs[::-1]
    es = sample_sphere(np.random.default_rng(61), 4, 3)
    calls = {
        "compose": (lambda: compose(fs, gs), lambda t: compose(fs[t], gs[t])),
        "invert": (lambda: invert(fs), lambda t: invert(fs[t])),
        "iterate 2": (lambda: iterate(fs, 2), lambda t: iterate(fs[t], 2)),
        "iterate -3": (lambda: iterate(fs, -3), lambda t: iterate(fs[t], -3)),
    }
    for name, (stacked, lone) in calls.items():
        with np.errstate(invalid="ignore", over="ignore"):
            rows = stacked()
        assert not np.isfinite(rows[1].max_coeff()), name
        assert not np.isfinite(rows[2].max_coeff()), name
        _assert_rows_equal([rows[0], rows[3]], [lone(0), lone(3)])
    with np.errstate(invalid="ignore", over="ignore"):
        psi = fs_mapping(fs, es, 0.3, 1.2)
    assert not np.isfinite(psi[1]).all() and not np.isfinite(psi[2]).all()
    for t in (0, 3):
        assert np.abs(psi[t] - fs_mapping(fs[t], es[t], 0.3, 1.2)).max() <= 1e-13


def test_mixed_shapes_and_lengths_raise_naming_the_index():
    rng = np.random.default_rng(70)
    f22, f23, f33 = random_jet(2, 2, rng), random_jet(2, 3, rng), random_jet(3, 3, rng)
    es = sample_sphere(rng, 2, 2)
    for bad in ([f23, f33], [f23, f22]):
        with pytest.raises(ValueError, match="jet 1 has"):
            invert(bad)
        with pytest.raises(ValueError, match="jet 1 has"):
            iterate(bad, 2)
        with pytest.raises(ValueError, match="jet 1 has"):
            fs_mapping(bad, es, 0.5, 0.5)
        with pytest.raises(ValueError, match="outer jet 1 has"):
            compose(bad, [f23, f23])
        with pytest.raises(ValueError, match="inner jet 1 has"):
            compose([f23, f23], bad)
    with pytest.raises(ValueError, match="index 2 has no partner"):
        compose([f23, f23], [f23, f23, f23])
    with pytest.raises(ValueError, match="index 1 has no partner"):
        compose([f23, f23], [f23])
    with pytest.raises(ValueError, match="index 1 has no partner"):
        fs_mapping([f23, f23], es[:1], 0.5, 0.5)
    with pytest.raises(ValueError, match="index 2 has no partner"):
        fs_mapping([f23, f23], es, [0.5, 0.5, 0.5], 0.5)
    with pytest.raises(ValueError, match="mu must be finite.* at index 1"):
        fs_mapping([f23, f23], es, 0.5, [0.5, np.nan])
    with pytest.raises(ValueError, match="direction 1 must be a unit vector"):
        fs_mapping([f23, f23], es * [[1.0], [2.0]], 0.5, 0.5)
    with pytest.raises(ValueError, match="two jets or two sequences"):
        compose(f23, [f23])
    with pytest.raises(ValueError, match="jet 0 is not a MappingJet"):
        invert([f23.poly(2)])


@pytest.mark.parametrize("call", [
    lambda: compose([], []),
    lambda: invert([]),
    lambda: iterate((), 3),
    lambda: fs_mapping([], np.zeros((0, 2)), 0.5, 0.5),
    # a direction array of any shape used to give a (0, 0) result
    lambda: fs_mapping([], np.zeros(3), 0.5, 0.5),
    lambda: fs_mapping([], np.zeros((0, 2, 2)), 0.5, 0.5),
    lambda: operator_norm_bilinear([]),
    lambda: flow_taylor_via_ode([], (0.3,), np.zeros((0, 2)), (2,)),
], ids=[
    "compose", "invert", "iterate", "fs_mapping", "fs_mapping-1d", "fs_mapping-3d",
    "operator_norm_bilinear", "flow_taylor_via_ode",
])
def test_an_empty_sequence_is_rejected(call):
    with pytest.raises(ValueError, match="at least one"):
        call()


def test_a_sequence_of_one_gives_a_list_of_one():
    f = random_jet(2, 3, np.random.default_rng(80))
    e = np.array([0.6, 0.8j])
    _assert_rows_equal(compose((f,), (f,)), [compose(f, f)])
    _assert_rows_equal(invert([f]), [invert(f)])
    assert fs_mapping([f], e[None], 0.2, 0.7).shape == (1, 2)
