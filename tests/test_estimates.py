"""Sphere-supremum estimation and the bounded one-dimensional-type
inequality checker."""

import numpy as np
import pytest

from fsjet.estimates import (
    SupNormConfig,
    bounded_onedim_bound,
    check_bounded_onedim_bound,
    estimate_sup_modulus,
    sup_norm_fs,
)
from fsjet.fekete import fs_mapping
from fsjet.gallery import example_gallery
from fsjet.jets import iterate, random_jet
from fsjet.sampling import sample_sphere
from fsjet.transforms import koebe_onedim
from fsjet.verify import random_onedim_jet

from sphere_grid import grid_sup_dim2


def test_sup_norm_one_dimensional_is_constant():
    # in C^1 the norm does not depend on the direction phase
    f = example_gallery("koebe1d").jet
    lam, mu = 0.2, 0.7
    expect = float(np.linalg.norm(fs_mapping(f, np.array([1.0 + 0j]), lam, mu)))
    got, witness = sup_norm_fs(f, lam, mu, SupNormConfig(starts=4, steps=60))
    assert abs(got - expect) < 1e-8
    assert abs(np.linalg.norm(witness) - 1.0) < 1e-10


def test_sup_norm_rejects_no_starts():
    f = example_gallery("koebe1d").jet
    for starts in (0, -2):
        with pytest.raises(ValueError, match="starts must be positive"):
            sup_norm_fs(f, 0.2, 0.7, SupNormConfig(starts=starts))


def test_sup_norm_rejects_negative_steps():
    # a negative step count used to run no ascent and return the best start
    f = random_jet(2, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="steps must be nonnegative"):
        SupNormConfig(starts=4, steps=-1)
    value, _ = sup_norm_fs(f, 0.3, 0.8, SupNormConfig(starts=4, steps=0))
    assert value > 0.0


def test_sup_norm_matches_grid_oracle():
    rng = np.random.default_rng(60)
    f = random_jet(2, 3, rng)
    lam, mu = 0.3 - 0.2j, 0.8
    grid = grid_sup_dim2(lambda es: np.linalg.norm(fs_mapping(f, es, lam, mu), axis=1))
    got, _ = sup_norm_fs(f, lam, mu, SupNormConfig(starts=12, steps=120))
    assert abs(got - grid) < 1e-4


def test_sup_norm_witness_achieves_value():
    rng = np.random.default_rng(61)
    f = random_jet(2, 3, rng)
    got, witness = sup_norm_fs(f, 0.5, 0.1, SupNormConfig(starts=8, steps=80))
    achieved = float(np.linalg.norm(fs_mapping(f, witness, 0.5, 0.1)))
    assert abs(achieved - got) < 1e-10


def test_bounded_onedim_bound_values():
    assert abs(bounded_onedim_bound(2.0, 0.0) - 1.5) < 1e-15
    assert abs(bounded_onedim_bound(2.0, 1.0) - 3.0) < 1e-15
    # |((M^2-1) lam + 1)/M| below 1 leaves the max at 1
    assert abs(bounded_onedim_bound(2.0, -1.0 / 3.0) - 1.5) < 1e-15


def test_estimate_sup_modulus_linear_scalar():
    def s(x):
        return 1.0 + 0.5 * x[..., 0]

    est = estimate_sup_modulus(s, dim=1, samples=2000, seed=1)
    assert abs(est - 1.5) < 1e-2


def test_check_bounded_onedim_inequality_holds():
    rng = np.random.default_rng(62)
    od = random_onedim_jet(2, 3, rng, scale=0.15)
    report = check_bounded_onedim_bound(od, od.s_eval, lam=0.4, seed=9)
    assert report.passed
    assert report.params["M"] > 1.0
    assert report.margin >= -report.tol


def test_sampled_M_lies_below_its_certified_upper_bound():
    rng = np.random.default_rng(65)
    for n in (2, 3):
        for _ in range(20):
            od = random_onedim_jet(n, 3, rng, scale=0.3 / n)
            seed = int(rng.integers(2**31))
            report = check_bounded_onedim_bound(od, od.s_eval, lam=0.4, seed=seed)
            assert 1.0 < report.params["M"] <= report.params["M_upper"]
    # s = 1 + 2x + 3x^2 on the unit disc: 1 + 2 + 3, reached at x = 1
    koebe = koebe_onedim(dim=1, order=3)
    report = check_bounded_onedim_bound(koebe, koebe.s_eval, lam=0.4)
    assert abs(report.params["M_upper"] - 6.0) <= 1e-14


def test_check_bounded_onedim_rejects_unbounded_hypothesis():
    od = koebe_onedim(dim=1, order=3)

    def s_const(x):
        return np.ones(len(x))

    with pytest.raises(ValueError):
        check_bounded_onedim_bound(od, s_const, lam=0.0)


def test_onedim_fs_norm_formula():
    # for one-dimensional-type jets ||Psi_e|| reduces to |p2(e) - lam p1(e)^2|
    rng = np.random.default_rng(63)
    od = random_onedim_jet(2, 3, rng)
    f = od.to_mapping_jet()
    es = sample_sphere(rng, 10, 2)
    lam = 0.7 - 0.2j
    for e in es:
        p1 = od.scalar_part(1).eval_scalar(e)
        p2 = od.scalar_part(2).eval_scalar(e)
        # mu drops out for one-dimensional-type jets
        for mu in (0.0, 1.3):
            val = np.linalg.norm(fs_mapping(f, e, lam, mu))
            assert abs(val - abs(p2 - lam * p1**2)) < 1e-12


def test_estimate_sup_modulus_rejects_wrong_shape():
    # s is called once on the (samples, dim) array; per-point callables
    # and callables returning one value per coordinate are rejected
    for s in (lambda x: 1.0 + 0.5 * x, lambda x: 1.0, lambda x: np.ones((len(x), 1))):
        with pytest.raises(ValueError, match="shape"):
            estimate_sup_modulus(s, dim=2, samples=100, seed=1)


def test_sup_modulus_rejects_no_samples():
    od = random_onedim_jet(2, 3, np.random.default_rng(64), scale=0.15)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be positive"):
            estimate_sup_modulus(od.s_eval, dim=2, samples=samples)
        with pytest.raises(ValueError, match="samples must be positive"):
            check_bounded_onedim_bound(od, od.s_eval, lam=0.4, samples=samples)
        with pytest.raises(ValueError, match="directions must be positive"):
            check_bounded_onedim_bound(od, od.s_eval, lam=0.4, directions=samples)


@pytest.mark.parametrize("name,bad", [
    ("starts", np.nan), ("starts", 2.5), ("starts", "4"), ("steps", np.nan), ("steps", 2.5),
])
def test_sup_norm_config_takes_integer_counts(name, bad):
    # a NaN count used to construct, and a fractional one to fail inside
    # numpy without naming its argument
    with pytest.raises(TypeError, match=name):
        SupNormConfig(**{name: bad})


@pytest.mark.parametrize("bad", [2.5, np.nan, "4"])
def test_estimate_sup_modulus_takes_an_integer_count(bad):
    od = random_onedim_jet(2, 3, np.random.default_rng(64), scale=0.15)
    with pytest.raises(TypeError, match="samples"):
        estimate_sup_modulus(od.s_eval, dim=2, samples=bad)


@pytest.mark.parametrize("name", ["directions", "samples"])
@pytest.mark.parametrize("bad", [2.5, np.nan])
def test_bounded_onedim_check_takes_integer_counts(name, bad):
    od = random_onedim_jet(2, 3, np.random.default_rng(64), scale=0.15)
    with pytest.raises(TypeError, match=name):
        check_bounded_onedim_bound(od, od.s_eval, lam=0.4, **{name: bad})


def _unsampled(xs):
    raise AssertionError("sampled before checking the seed")


@pytest.mark.parametrize("seed,error", [(1.5, TypeError), (-1, ValueError)])
def test_estimate_sup_modulus_names_a_bad_seed(seed, error):
    # numpy's own errors named no argument
    with pytest.raises(error, match="seed must be"):
        estimate_sup_modulus(_unsampled, dim=2, seed=seed)


@pytest.mark.parametrize("seed,error", [(1.5, TypeError), (-1, ValueError)])
def test_bounded_onedim_check_names_a_bad_seed(seed, error):
    od = random_onedim_jet(2, 3, np.random.default_rng(64), scale=0.15)
    with pytest.raises(error, match="seed must be"):
        check_bounded_onedim_bound(od, _unsampled, lam=0.4, seed=seed)


@pytest.mark.parametrize("lam,mu", [(np.nan, 0.5), (0.5, np.inf), (complex(np.nan, 1.0), 0.0)])
def test_sup_norm_rejects_a_non_finite_parameter(lam, mu):
    # a NaN parameter used to give (0.0, e_1), as if it were the supremum
    f = random_jet(2, 3, np.random.default_rng(7))
    with pytest.raises(ValueError, match="must be finite"):
        sup_norm_fs(f, lam, mu, SupNormConfig(starts=2, steps=1))


def test_sup_norm_rejects_a_jet_with_a_non_finite_coefficient():
    # a NaN Psi used to read as 0: every comparison of the ascent with it
    # is false, so this gave (0.0, e_1)
    with np.errstate(all="ignore"):
        g = iterate(random_jet(2, 3, np.random.default_rng(0)), 10**200)
    assert not np.isfinite(g.max_coeff())
    with pytest.raises(ValueError, match="non-finite coefficient"):
        sup_norm_fs(g, 0.5, 0.3, SupNormConfig(starts=2, steps=3))
