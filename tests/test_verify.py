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


def test_dims_over_the_size_budget_are_rejected_before_any_suite(monkeypatch):
    # the root suite builds degree-7 jets: at dim 12 that basis has 31,824
    # rows of 12 entries, at dim 1000 the polarization suite alone would ask for a
    # 500,500 x 1000 complex array
    seen = []
    monkeypatch.setitem(
        verify._SUITES, "compose", lambda trials, seed, **kw: seen.append(kw) or []
    )
    for dims in ([1000], [2, 12]):
        with pytest.raises(verify.SuiteArgumentError, match=f"dimension {dims[-1]} is too large"):
            run_suite("all", trials=1, dims=dims)
    assert seen == []
    run_suite("compose", trials=1, dims=[11])
    assert seen == [{"dims": (11,)}]


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


def test_negative_trials_are_rejected_before_any_suite(monkeypatch):
    # a negative count used to pass every check, still run one
    # flow-property trial and report trials=-1
    seen = []
    for key in verify._SUITES:
        monkeypatch.setitem(
            verify._SUITES, key, lambda trials, seed, **kw: seen.append(trials) or []
        )
    for name in ("compose", "all"):
        with pytest.raises(verify.SuiteArgumentError, match="trials -1 is negative"):
            run_suite(name, trials=-1)
    assert seen == []
    run_suite("all", trials=0)
    assert seen == [0] * len(verify._SUITES)


def test_passed_is_derived_from_the_residual():
    # every report holds passed == (max_residual <= tolerance): the suites,
    # the same after a tolerance override, and the sampled generator check
    generator = example_gallery("example_5_6_generator").jet
    non_generator = MappingJet(
        1, 3, {2: HomPoly.from_monomials(2, 1, 1, {(2,): [-5.0]})}
    )
    reports = run_suite("all", trials=2, seed=3)
    reports += run_suite("all", trials=2, seed=3, tol=1e-15)
    reports += [
        is_generator(generator),
        is_generator(non_generator, seed=3),
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
    from fsjet.tensors import layout, multinomial

    polys = {}
    for k in range(1, order):
        polys[k] = {}
        for idx in layout(dim, k).indices:
            c = scale * complex(rng.standard_normal(), rng.standard_normal())
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


@pytest.mark.parametrize("trials,ran", [(0, 0), (1, 1), (3, 1), (8, 2)])
def test_flow_property_reports_the_trials_it_ran(trials, ran):
    # a quarter of the trials, at least one unless none
    reports = {r.suite: r for r in run_suite("semigroup", trials=trials)}
    assert reports["semigroup/flow-property"].trials == ran
    assert reports["semigroup/closed-form-vs-ode"].trials == trials


def test_every_trial_loop_draws_from_its_own_stream(monkeypatch):
    # so no two checks see the same draws; the two inverse checks read one
    # trial loop
    streams = []
    real = verify._rng
    monkeypatch.setattr(
        verify, "_rng", lambda seed, stream: streams.append(stream) or real(seed, stream)
    )
    run_suite("all", trials=0)
    assert len(streams) > len(verify._SUITES)
    assert len(set(streams)) == len(streams)


# What trial i of each check of four suites draws in dimension n, by the
# stream of its generator, and each check's name and tolerance.  The draws
# are named by the sampler the suite calls: ("jet", n) for random_jet,
# ("onedim", n) for random_onedim_jet, ("generator", n) for
# sample_generator, ("sphere", n) for one direction and ("params", c) for
# c parameters.
def _point(n):
    return [("sphere", n), ("params", 2)]


_DRAWS = {
    "inverse": {2: lambda i, n: [("jet", n), *_point(n)]},
    "error-bound": {
        6: lambda i, n: [("jet", n), ("jet", n), *_point(n)],
        7: lambda i, n: [("onedim", n), ("onedim", n), *_point(n)],
    },
    "semigroup": {
        8: lambda i, n: [("generator", n), ("sphere", n)],
        9: lambda i, n: [("generator", n)],
    },
    "duality": {
        10: lambda i, n: [("jet", n), *_point(n)],
        11: lambda i, n: [("generator", n), ("sphere", n), ("params", 1)],
        # one-dimensional-type and general generators in turn
        12: lambda i, n: [("onedim", n) if i % 2 == 0 else ("jet", n)],
    },
}
_CHECKS = {
    "inverse": [("inverse/psi-duality", 1e-11), ("inverse/third-derivative", 1e-11)],
    "error-bound": [("error-bound/ell-bound", 1e-9), ("error-bound/onedim-equality", 1e-11)],
    "semigroup": [("semigroup/closed-form-vs-ode", 1e-6), ("semigroup/flow-property", 1e-10)],
    "duality": [
        ("duality/psi-pairing", 1e-11),
        ("duality/generator-scalar-bound", 1e-9),
        ("duality/onedim-equivalence", 0.0),
    ],
}


def _record_draws(monkeypatch):
    """Every draw of the verify module's samplers, as (kind, n or count),
    listed by the stream of the generator it drew from; the seeds given to
    ``_rng`` are listed under None."""
    draws, streams = {None: []}, {}
    real_rng = verify._rng

    def rng(seed, stream):
        g = real_rng(seed, stream)
        draws[None].append(seed)
        streams[id(g)] = stream
        draws.setdefault(stream, [])
        return g

    def recording(name, kind, rng_arg, size_arg):
        real = getattr(verify, name)

        def draw(*args, **kwargs):
            draws[streams[id(args[rng_arg])]].append((kind, args[size_arg]))
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, name, draw)

    monkeypatch.setattr(verify, "_rng", rng)
    recording("random_jet", "jet", 2, 0)
    recording("random_onedim_jet", "onedim", 2, 0)
    recording("sample_generator", "generator", 1, 0)
    recording("sample_sphere", "sphere", 0, 2)
    recording("sample_params", "params", 0, 1)
    return draws


@pytest.mark.parametrize("dims", [(2, 3), (3,)])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("trials", [0, 1, 7])
@pytest.mark.parametrize("suite", list(_DRAWS))
def test_suite_draws_follow_trials_seed_and_dims(suite, trials, seed, dims, monkeypatch):
    # the draws fix a check's inputs, so they do not depend on the stacked
    # kernels' accuracy: a coarse ODE step and 4 norm starts keep the 48
    # cases cheap (passing at the real kernels is gated above)
    ode, norm = verify.flow_taylor_via_ode, fekete.operator_norm_bilinear
    monkeypatch.setattr(
        verify, "flow_taylor_via_ode", lambda *a, **kw: ode(*a, **{**kw, "step": 0.1})
    )
    monkeypatch.setattr(fekete, "operator_norm_bilinear", lambda B, **kw: norm(B, starts=4, **kw))
    draws = _record_draws(monkeypatch)
    reports = run_suite(suite, trials=trials, seed=seed, dims=dims)

    flow_trials = max(1, trials // 4) if trials else 0
    assert [(r.suite, r.tolerance) for r in reports] == _CHECKS[suite]
    for r in reports:
        assert r.seed == seed
        assert r.trials == (flow_trials if r.suite == "semigroup/flow-property" else trials)
    assert set(draws.pop(None)) == {seed}
    want = {}
    for stream, per_trial in _DRAWS[suite].items():
        count = flow_trials if stream == 9 else trials
        want[stream] = [d for i in range(count) for d in per_trial(i, dims[i % len(dims)])]
    assert draws == want


def test_runner_lists_each_trial_and_reports_a_nan():
    seen = []

    def trial(rng, n):
        seen.append(n)
        yield 1.0
        yield math.nan

    rows = verify._run(trial, 3, 0, 0, (2, 3))
    assert seen == [2, 3, 2]
    report = verify._report("check", 1.0, 0, rows)
    assert report.trials == 3
    assert math.isnan(report.max_residual)
    assert not report.passed
    assert verify._report("check", 1.0, 0, []).max_residual == 0.0
