"""Suite runner behavior: dispatch, determinism, vacuous passes."""

import dataclasses
import math

import numpy as np
import pytest

from fsjet import fekete, verify
from fsjet.gallery import example_gallery
from fsjet.fekete import FSContext, fs_mapping
from fsjet.jets import MappingJet
from fsjet.reporting import Report
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


# ---------------------------------------------------------------------------
# The hand-written trial loops the runner replaced, kept as references: each
# check's Report must come out field for field the same, with a bitwise equal
# residual.
# ---------------------------------------------------------------------------


def _reference_inverse(trials, seed, dims):
    rng = verify._rng(seed, 2)
    worst_dual = 0.0
    worst_q3 = 0.0
    for i in range(trials):
        n = dims[i % len(dims)]
        f = verify.random_jet(n, 3, rng)
        g = verify.invert(f)
        e = verify.sample_sphere(rng, 1, n)[0]
        lam, mu = verify.sample_params(rng, 2)
        lhs = fs_mapping(g, FSContext(e, lam, mu)).vector
        rhs = -fs_mapping(f, FSContext(e, 2.0 - lam, 2.0 - mu)).vector
        worst_dual = verify._worst(worst_dual, float(np.linalg.norm(lhs - rhs)))
        q3 = g.poly(3).eval(e)
        psi22 = fs_mapping(f, FSContext(e, 2.0, 2.0)).vector
        worst_q3 = verify._worst(worst_q3, float(np.linalg.norm(q3 + psi22)))
    return [
        Report("inverse/psi-duality", trials, seed, 1e-11, worst_dual),
        Report("inverse/third-derivative", trials, seed, 1e-11, worst_q3),
    ]


def _reference_error_bound(trials, seed, dims):
    rng = verify._rng(seed, 6)
    by_dim = {}
    for i in range(trials):
        n = dims[i % len(dims)]
        f = verify.random_jet(n, 3, rng)
        g = verify.random_jet(n, 3, rng)
        e = verify.sample_sphere(rng, 1, n)[0]
        lam, mu = verify.sample_params(rng, 2)
        ctx = FSContext(e, lam, mu)
        R = fekete._composition_defect(f, g, ctx)
        defects, tensors = by_dim.setdefault(n, ([], []))
        defects.append((float(np.linalg.norm(R)), fekete.ell(ctx.lam, ctx.mu)))
        tensors += [f.poly(2), g.poly(2)]
    worst_violation = 0.0
    for defects, tensors in by_dim.values():
        seeds = [seed, seed + 1] * len(defects)
        est = fekete.operator_norm_bilinear(tensors, seed=seeds)
        for (r, coef), nf, ng in zip(defects, est[::2], est[1::2]):
            worst_violation = verify._worst(worst_violation, r - coef * nf.value * ng.value)
    reports = [
        Report(
            "error-bound/ell-bound", trials, seed, 1e-9, verify._worst(0.0, worst_violation)
        )
    ]

    rng2 = verify._rng(seed, 7)
    worst_eq = 0.0
    for i in range(trials):
        n = dims[i % len(dims)]
        fo = verify.random_onedim_jet(n, 3, rng2)
        go = verify.random_onedim_jet(n, 3, rng2)
        f, g = fo.to_mapping_jet(), go.to_mapping_jet()
        e = verify.sample_sphere(rng2, 1, n)[0]
        lam, mu = verify.sample_params(rng2, 2)
        ctx = FSContext(e, lam, mu)
        R = (
            fs_mapping(verify.compose(f, g), ctx).vector
            - fs_mapping(f, ctx).vector
            - fs_mapping(g, ctx).vector
        )
        expect = 2.0 * abs(1.0 - lam) * abs(
            fo.scalar_part(1).eval_scalar(e) * go.scalar_part(1).eval_scalar(e)
        )
        worst_eq = verify._worst(worst_eq, abs(float(np.linalg.norm(R)) - expect))
    reports.append(Report("error-bound/onedim-equality", trials, seed, 1e-11, worst_eq))
    return reports


def _reference_semigroup(trials, seed, dims):
    rng = verify._rng(seed, 8)
    times, degrees = (0.1, 0.7, 2.0), (2, 3)
    by_dim = {}
    for i in range(trials):
        n = dims[i % len(dims)]
        gens, dirs = by_dim.setdefault(n, ([], []))
        gens.append(verify.sample_generator(n, rng))
        dirs.append(verify.sample_sphere(rng, 1, n)[0])
    worst = 0.0
    for gens, dirs in by_dim.values():
        extracted = verify.flow_taylor_via_ode(gens, times, np.array(dirs), degrees, step=5e-3)
        for h, e, by_time in zip(gens, dirs, extracted):
            for t, by_degree in zip(times, by_time):
                flow = verify.semigroup_jet(h, t)
                for k, coef in zip(degrees, by_degree):
                    closed = flow.poly(k).eval(e)
                    worst = verify._worst(worst, float(np.linalg.norm(closed - coef)))
    reports = [Report("semigroup/closed-form-vs-ode", trials, seed, 1e-6, worst)]

    rng2 = verify._rng(seed, 9)
    worst_comp = 0.0
    for i in range(max(1, trials // 4) if trials else 0):
        n = dims[i % len(dims)]
        h = verify.sample_generator(n, rng2)
        a, b = verify.semigroup_jet(h, 0.3), verify.semigroup_jet(h, 0.5)
        combined = a.compose(b)
        direct = verify.semigroup_jet(h, 0.8)
        for k in (2, 3):
            diff = combined.poly(k) + direct.poly(k).scale(-1.0)
            worst_comp = verify._worst(worst_comp, diff.max_coeff())
    reports.append(Report("semigroup/flow-property", trials, seed, 1e-10, worst_comp))
    return reports


def _reference_duality(trials, seed, dims):
    rng = verify._rng(seed, 10)
    worst_pair = 0.0
    for i in range(trials):
        n = dims[i % len(dims)]
        h = verify.random_jet(n, 3, rng)
        f = verify.starlike_from_generator(h)
        e = verify.sample_sphere(rng, 1, n)[0]
        lam, mu = verify.sample_params(rng, 2)
        lhs = fs_mapping(h, FSContext(e, 2 * lam, 2 * mu)).vector
        rhs = -2.0 * fs_mapping(f, FSContext(e, 1 - lam, 1 - mu)).vector
        worst_pair = verify._worst(worst_pair, float(np.linalg.norm(lhs - rhs)))
        back = verify.generator_from_starlike(f)
        for k in (2, 3):
            diff = back.poly(k) + h.poly(k).scale(-1.0)
            worst_pair = verify._worst(worst_pair, diff.max_coeff())
    reports = [Report("duality/psi-pairing", trials, seed, 1e-11, worst_pair)]

    rng2 = verify._rng(seed, 11)
    worst_bound = 0.0
    for i in range(trials):
        n = dims[i % len(dims)]
        h = verify.sample_generator(n, rng2)
        e = verify.sample_sphere(rng2, 1, n)[0]
        lam = verify.sample_params(rng2, 1)[0]
        val = abs(fs_mapping(h, FSContext(e, lam, 0.0)).scalar_projection)
        bound = 2.0 * max(1.0, abs(2.0 * lam - 1.0))
        worst_bound = verify._worst(worst_bound, val - bound)
    reports.append(
        Report(
            "duality/generator-scalar-bound", trials, seed, 1e-9, verify._worst(0.0, worst_bound)
        )
    )

    rng3 = verify._rng(seed, 12)
    mismatches = 0
    for i in range(trials):
        n = dims[i % len(dims)]
        if i % 2 == 0:
            h = verify.random_onedim_jet(n, 3, rng3).to_mapping_jet()
        else:
            h = verify.random_jet(n, 3, rng3)
        f = verify.starlike_from_generator(h)
        if (verify.detect_onedim(h) is None) != (verify.detect_onedim(f) is None):
            mismatches += 1
    reports.append(Report("duality/onedim-equivalence", trials, seed, 0.0, float(mismatches)))
    return reports


@pytest.fixture
def cheap_kernels(monkeypatch):
    """The suites and the references reach their two stacked kernels
    through these names; a step 20 times the suite's and 4 starts in place
    of 32 make them cheap, while what a suite passes to them must still
    agree with what its reference passes."""
    ode, norm = verify.flow_taylor_via_ode, fekete.operator_norm_bilinear
    monkeypatch.setattr(
        verify, "flow_taylor_via_ode", lambda *a, **kw: ode(*a, **{**kw, "step": 0.1})
    )
    monkeypatch.setattr(fekete, "operator_norm_bilinear", lambda B, **kw: norm(B, starts=4, **kw))


def _fields(report):
    return {**dataclasses.asdict(report), "max_residual": report.max_residual.hex()}


@pytest.mark.parametrize("dims", [(2, 3), (3,)])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("trials", [0, 1, 7])
@pytest.mark.parametrize(
    "suite,reference",
    [
        (verify.suite_inverse, _reference_inverse),
        (verify.suite_error_bound, _reference_error_bound),
        (verify.suite_semigroup, _reference_semigroup),
        (verify.suite_duality, _reference_duality),
    ],
)
def test_runner_matches_the_hand_written_loops(
    suite, reference, trials, seed, dims, cheap_kernels
):
    want = [_fields(r) for r in reference(trials, seed, dims)]
    for w in want:
        if w["suite"] == "semigroup/flow-property":
            # the one intended change: the count of trials that ran
            w["trials"] = max(1, trials // 4) if trials else 0
    assert [_fields(r) for r in suite(trials, seed, dims)] == want


def test_flow_property_reports_the_trials_it_ran(cheap_kernels):
    reports = {r.suite: r for r in run_suite("semigroup", trials=8)}
    assert reports["semigroup/flow-property"].trials == 2
    assert reports["semigroup/closed-form-vs-ode"].trials == 8


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
