"""Suite runner behavior: dispatch, determinism, vacuous passes."""

import dataclasses
import math

import numpy as np
import pytest

from fsjet import fekete, verify
from fsjet.gallery import example_gallery
from fsjet.jets import MappingJet
from fsjet.semigroup import is_generator
from fsjet.tensors import HomPoly
from fsjet.transforms import check_injectivity_sampled
from fsjet.verify import DEFAULT_TRIALS, SUITE_NAMES, run_suite


def test_every_suite_passes_at_small_trials():
    for name in DEFAULT_TRIALS:
        reports = run_suite(name, trials=4, seed=2)
        assert reports, name
        for r in reports:
            assert r.passed, f"{r.suite}: residual {r.max_residual}"


def test_zero_trials_pass_vacuously():
    for name in DEFAULT_TRIALS:
        for r in run_suite(name, trials=0, seed=0):
            assert r.trials == 0
            assert r.passed


def test_all_concatenates_every_suite():
    reports = run_suite("all", trials=1, seed=5)
    prefixes = {r.suite.split("/")[0] for r in reports}
    assert prefixes == set(DEFAULT_TRIALS)


def test_deterministic_per_seed():
    a = run_suite("compose", trials=5, seed=9)
    b = run_suite("compose", trials=5, seed=9)
    assert [r.max_residual for r in a] == [r.max_residual for r in b]


def test_seed_changes_residuals():
    a = run_suite("compose", trials=5, seed=1)[0]
    b = run_suite("compose", trials=5, seed=2)[0]
    assert a.max_residual != b.max_residual


def test_tolerance_override():
    reports = run_suite("compose", trials=3, seed=0, tol=1e-30)
    assert not reports[0].passed
    assert reports[0].tolerance == 1e-30


def test_dims_override(monkeypatch):
    reports = run_suite("inverse", trials=3, seed=0, dims=[4])
    assert all(r.passed for r in reports)
    # dims reach the suite only when given; otherwise its own default holds
    seen = []
    monkeypatch.setitem(
        verify._SUITES, "semigroup", lambda trials, seed, **kw: seen.append(kw) or []
    )
    run_suite("semigroup", trials=1, dims=[2, 3])
    run_suite("semigroup", trials=1)
    assert seen == [{"dims": (2, 3)}, {}]


def test_dims_below_one_are_rejected():
    for dims in ([0], [2, -1]):
        with pytest.raises(ValueError, match=f"dimension {dims[-1]}"):
            run_suite("compose", trials=2, dims=dims)


def test_negative_seed_is_rejected_before_any_suite(monkeypatch):
    seen = []
    monkeypatch.setitem(
        verify._SUITES, "compose", lambda trials, seed, **kw: seen.append(seed) or []
    )
    for name in ("compose", "all"):
        with pytest.raises(verify.SuiteArgumentError, match="seed -1 is negative"):
            run_suite(name, trials=2, seed=-1)
    assert seen == []
    # the one argument-error class is a ValueError, for dims as for seeds
    with pytest.raises(verify.SuiteArgumentError, match="dimension 0"):
        run_suite("compose", trials=2, dims=[0])
    assert issubclass(verify.SuiteArgumentError, ValueError)


def test_passed_is_derived_from_the_residual():
    # every report holds passed == (max_residual <= tolerance): the suites,
    # the same after a tolerance override, and both sampled checks
    generator = example_gallery("example_5_6_generator").jet
    non_generator = MappingJet(
        1, 3, {2: HomPoly.from_monomials(2, 1, 1, {(2,): [-5.0]})}
    )
    reports = run_suite("all", trials=2, seed=3)
    reports += run_suite("all", trials=2, seed=3, tol=1e-15)
    reports += [
        is_generator(generator),
        is_generator(non_generator, seed=3),
        check_injectivity_sampled(lambda x: x / (1.0 - x**2), dim=1, samples=200),
        check_injectivity_sampled(np.zeros_like, dim=2, samples=200),
    ]
    assert {r.passed for r in reports} == {True, False}
    for r in reports:
        assert type(r.max_residual) is float
        assert r.passed is (r.max_residual <= r.tolerance), r.suite


def test_explicit_passed_is_kept():
    # dataclasses.replace can still set passed, e.g. to build an inconsistent
    # report for a consumer's consistency check
    r = run_suite("polarization", trials=2, seed=0)[0]
    assert dataclasses.replace(r, max_residual=2 * r.tolerance, passed=False).passed is False
    assert dataclasses.replace(r, max_residual=2 * r.tolerance).passed is True
    assert dataclasses.replace(r, max_residual=2 * r.tolerance, passed=None).passed is False


def test_nan_norm_estimate_fails_the_error_bound(monkeypatch):
    # max(0.0, nan) is 0.0, so a NaN estimate used to pass silently
    nan_estimate = fekete.BilinearNormEstimate(math.nan, np.zeros(2), np.zeros(2))
    monkeypatch.setattr(
        fekete, "operator_norm_bilinear", lambda B, **kw: [nan_estimate] * len(B)
    )
    bound = next(
        r for r in run_suite("error-bound", trials=4, seed=0)
        if r.suite == "error-bound/ell-bound"
    )
    assert math.isnan(bound.max_residual)
    assert not bound.passed


def test_worst_propagates_nan_in_any_position():
    assert verify._worst(0.0, 2.0, 1.0) == 2.0
    for values in ((math.nan, 1.0), (1.0, math.nan), (0.0, 1.0, math.nan)):
        assert math.isnan(verify._worst(*values))


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("bogus")
    assert "all" in SUITE_NAMES


def _random_onedim_per_monomial(dim, order, rng, scale=0.4):
    """The per-monomial draw loop ``random_onedim_jet`` replaced, kept as
    reference: a real then an imaginary part per monomial, divided by the
    multinomial count into the tensor entry."""
    from fsjet import polyops
    from fsjet.tensors import exponents_to_multi_index, multinomial

    polys = {}
    for k in range(1, order):
        polys[k] = {}
        for exps in polyops.exponents_of_degree(dim, k):
            c = scale * complex(rng.standard_normal(), rng.standard_normal())
            idx = exponents_to_multi_index(exps)
            polys[k][idx] = np.asarray([c], dtype=complex) / multinomial(idx)
    return polys


@pytest.mark.parametrize("dim,order", [(1, 5), (2, 3), (3, 4), (4, 3)])
def test_random_onedim_jet_is_bitwise_the_per_monomial_draw(dim, order):
    want = _random_onedim_per_monomial(dim, order, np.random.default_rng(dim * order))
    rng = np.random.default_rng(dim * order)
    got = verify.random_onedim_jet(dim, order, rng)
    for k, coeffs in want.items():
        p = got.scalar_part(k)
        assert type(p).__name__ == "ScalarHomPoly"
        assert list(p.coeffs) == list(coeffs)
        for idx, vec in coeffs.items():
            assert np.array_equal(p.coeffs[idx], vec)
    ref = np.random.default_rng(dim * order)
    _random_onedim_per_monomial(dim, order, ref)
    assert rng.standard_normal() == ref.standard_normal()
