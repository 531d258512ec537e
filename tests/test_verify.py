"""Suite runner behavior: dispatch, determinism, vacuous passes."""

import dataclasses
import math

import numpy as np
import pytest

from fsjet import estimates, fekete, verify
from fsjet.gallery import example_gallery
from fsjet.jets import MappingJet, random_jet
from fsjet.sampling import sample_params, sample_sphere
from fsjet.semigroup import (
    generator_shrink,
    is_generator,
    sample_generator,
    starlike_from_generator,
)
from fsjet.tensors import HomPoly
from fsjet.transforms import OneDimJet
from fsjet.verify import DEFAULT_TRIALS, SUITE_NAMES, random_onedim_jet, run_suite


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


@pytest.mark.parametrize(
    "kwargs,name",
    [({"trials": 2.5}, "trials"), ({"trials": "3"}, "trials"), ({"seed": 1.5}, "seed"),
     ({"dims": [2, 2.5]}, "dims")],
)
def test_a_non_integer_count_is_rejected_before_any_suite(monkeypatch, kwargs, name):
    # these used to fail inside a suite, each with its own TypeError: from
    # range, numpy, math.comb or a comparison
    seen = []
    for key in verify._SUITES:
        monkeypatch.setitem(
            verify._SUITES, key, lambda trials, seed, **kw: seen.append(trials) or []
        )
    for suite in ("compose", "all"):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            run_suite(suite, **kwargs)
    assert seen == []


def test_a_bool_count_counts_as_its_int():
    # seed=True used to run and put "seed": true in every report
    reports = run_suite("compose", trials=True, seed=True, dims=[True, 2])
    assert reports == run_suite("compose", trials=1, seed=1, dims=[1, 2])
    assert all(type(r.seed) is int and r.trials == 1 for r in reports)


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_a_bad_tolerance_is_rejected_before_any_suite(monkeypatch, tol):
    # a NaN tolerance used to reach the JSON report as the invalid token
    # NaN, and a negative one failed every check
    seen = []
    for key in verify._SUITES:
        monkeypatch.setitem(
            verify._SUITES, key, lambda trials, seed, **kw: seen.append(trials) or []
        )
    for name in ("compose", "all"):
        with pytest.raises(verify.SuiteArgumentError, match="tolerance"):
            run_suite(name, trials=1, tol=tol)
    assert seen == []
    run_suite("compose", trials=1, tol=0.0)
    assert seen == [1]


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


def test_onedim_equivalence_reports_its_worst_trial(monkeypatch):
    # every generator reads as generic and its starlike partner as it is,
    # so the three lifted trials of six mismatch: the check fails with the
    # worst trial's residual 1.0, not with their count
    partners = []
    star, detect = verify.starlike_from_generator, verify.detect_onedim
    monkeypatch.setattr(
        verify, "starlike_from_generator", lambda h: partners.append(star(h)) or partners[-1]
    )
    monkeypatch.setattr(
        verify, "detect_onedim", lambda f: detect(f) if any(f is g for g in partners) else None
    )
    report = next(
        r for r in run_suite("duality", trials=6, seed=0)
        if r.suite == "duality/onedim-equivalence"
    )
    assert report.trials == 6
    assert report.max_residual == 1.0
    assert not report.passed


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


# What trial i of each check of every suite draws in dimension n, by the
# stream of its generator: the lone per-trial draw of its inputs, each
# sampler called on its own in the order the trial draws, which each
# check's one batched draw must give bit for bit.  ``dims`` fixes which
# bounded trials reach the bound.
def _vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _unitary(rng, n):
    """A lone QR of a complex Gaussian matrix, its real parts drawn first,
    with Q's columns turned so that R has a positive diagonal."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _direction(rng, n):
    return sample_sphere(rng, 1, n)[0]


def _point(rng, n):
    return (_direction(rng, n), *sample_params(rng, 2))


def _starlike(rng, n):
    base = random_onedim_jet(n, 3, rng, scale=0.3).to_mapping_jet()
    return starlike_from_generator(generator_shrink(base))


def _jet(rng, n):
    return random_jet(n, 3, rng)


_DRAWS = {
    "polarization": {
        0: lambda rng, n, i, dims: (random_jet(n, 2, rng).poly(2), _vector(rng, n), _vector(rng, n))
    },
    "compose": {1: lambda rng, n, i, dims: (_jet(rng, n), _jet(rng, n), *_point(rng, n))},
    "inverse": {2: lambda rng, n, i, dims: (_jet(rng, n), *_point(rng, n))},
    "iterate": {3: lambda rng, n, i, dims: (_jet(rng, n), *_point(rng, n))},
    "unitary": {4: lambda rng, n, i, dims: (_jet(rng, n), _unitary(rng, n), *_point(rng, n))},
    # five values of mu for each root order
    "root": {
        5: lambda rng, n, i, dims: (
            random_onedim_jet(n, 3, rng),
            _direction(rng, n),
            sample_params(rng, 5),
            sample_params(rng, 5),
        )
    },
    "error-bound": {
        6: lambda rng, n, i, dims: (_jet(rng, n), _jet(rng, n), *_point(rng, n)),
        7: lambda rng, n, i, dims: (
            random_onedim_jet(n, 3, rng),
            random_onedim_jet(n, 3, rng),
            *_point(rng, n),
        ),
    },
    "semigroup": {
        8: lambda rng, n, i, dims: (sample_generator(n, rng), _direction(rng, n)),
        9: lambda rng, n, i, dims: (sample_generator(n, rng),),
    },
    "duality": {
        10: lambda rng, n, i, dims: (_jet(rng, n), *_point(rng, n)),
        11: lambda rng, n, i, dims: (
            sample_generator(n, rng),
            _direction(rng, n),
            sample_params(rng, 1)[0],
        ),
        # one-dimensional-type and general generators in turn
        12: lambda rng, n, i, dims: (
            (random_onedim_jet(n, 3, rng).to_mapping_jet(),) if i % 2 == 0 else (_jet(rng, n),)
        ),
    },
    "bounds": {
        # every fourth trial of a dimension reaches the bound
        13: lambda rng, n, i, dims: verify._bounded_draw(
            rng, n, i // len(dims) % verify.BOUNDARY_EVERY == 0
        ),
        14: lambda rng, n, i, dims: (_starlike(rng, n), *_point(rng, n)),
    },
}
_CHECKS = {
    "polarization": [("polarization", 1e-12)],
    "compose": [("compose/psi-composition-identity", 1e-11)],
    "inverse": [("inverse/psi-duality", 1e-11), ("inverse/third-derivative", 1e-11)],
    "iterate": [("iterate/psi-scaling", 1e-10)],
    "unitary": [("unitary/psi-conjugation", 1e-11)],
    "root": [("root/jet-relations", 1e-10), ("root/koebe-golden", 1e-12)],
    "error-bound": [("error-bound/ell-bound", 1e-9), ("error-bound/onedim-equality", 1e-11)],
    "semigroup": [("semigroup/closed-form-vs-ode", 1e-6), ("semigroup/flow-property", 1e-10)],
    "duality": [
        ("duality/psi-pairing", 1e-11),
        ("duality/generator-scalar-bound", 1e-9),
        ("duality/onedim-equivalence", 0.0),
    ],
    "bounds": [("bounds/bounded-onedim", 1e-6), ("bounds/starlike-onedim", 1e-9)],
}


def _bits(value):
    """A drawn input as comparable bits: a jet or polynomial by its kind,
    shape and entries, anything else by its type, dtype, shape and bytes."""
    if isinstance(value, MappingJet):
        return ("jet", value.dim, value.order, [(k, _bits(P)) for k, P in value.polys.items()])
    if isinstance(value, OneDimJet):
        polys = value.scalar_polys.items()
        return ("onedim", value.dim, value.order, [(k, _bits(p)) for k, p in polys])
    if isinstance(value, HomPoly):
        shape = (value.degree, value.domain_dim, value.codomain_dim)
        return (type(value).__name__, shape, _bits(value.entries))
    array = np.asarray(value)
    return (type(value).__name__, array.dtype.str, array.shape, array.tobytes())


def _record_draws(monkeypatch):
    """Each check's one draw, by the stream of its generator: the
    generator, the trial dimensions it was given and the inputs it gave.
    A second draw from one stream fails."""
    drawn, real_run = {}, verify._run

    def run(draw, trials, seed, stream, dims, check):
        def recording(rng, ns):
            assert stream not in drawn
            drawn[stream] = (rng, list(ns), draw(rng, ns))
            return drawn[stream][2]

        return real_run(recording, trials, seed, stream, dims, check)

    monkeypatch.setattr(verify, "_run", run)
    return drawn


@pytest.mark.parametrize("dims", [(2, 3), (3,)])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("trials", [0, 1, 7])
@pytest.mark.parametrize("suite", list(_DRAWS))
def test_suite_draws_follow_trials_seed_and_dims(suite, trials, seed, dims, monkeypatch):
    # the draws fix a check's inputs, so they do not depend on the stacked
    # kernels' accuracy: a coarse ODE step and 4 norm starts keep the 96
    # cases cheap (passing at the real kernels is gated above)
    ode, norm = verify.flow_taylor_via_ode, fekete.operator_norm_bilinear
    monkeypatch.setattr(
        verify, "flow_taylor_via_ode", lambda *a, **kw: ode(*a, **{**kw, "step": 0.1})
    )
    monkeypatch.setattr(fekete, "operator_norm_bilinear", lambda B, **kw: norm(B, starts=4, **kw))
    drawn = _record_draws(monkeypatch)
    reports = run_suite(suite, trials=trials, seed=seed, dims=dims)

    flow_trials = max(1, trials // 4) if trials else 0
    # the flow property runs a quarter of the trials, the golden series once
    ran = {"semigroup/flow-property": flow_trials, "root/koebe-golden": min(trials, 1)}
    assert [(r.suite, r.tolerance) for r in reports] == _CHECKS[suite]
    for r in reports:
        assert r.seed == seed
        assert r.trials == ran.get(r.suite, trials)
    assert sorted(drawn) == sorted(_DRAWS[suite])
    for stream, per_trial in _DRAWS[suite].items():
        count = flow_trials if stream == 9 else trials
        ns = [dims[i % len(dims)] for i in range(count)]
        rng, got_ns, inputs = drawn[stream]
        assert got_ns == ns
        ref = np.random.default_rng([seed, stream])
        want = [per_trial(ref, n, i, dims) for i, n in enumerate(ns)]
        assert [[_bits(x) for x in row] for row in inputs] == [
            [_bits(x) for x in row] for row in want
        ]
        # the stream is left where the lone draws leave it
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("ns", [[], [1], [2, 3, 2, 3, 2], [4, 1, 4], [3] * 7])
def test_one_draw_splits_its_normals_as_lone_draws_would(ns):
    # one standard_normal call for every trial, split in trial order and
    # built per dimension, gives each trial the inputs of its lone draw
    parts = (verify._JET, verify._ONEDIM, verify._UNITARY, verify._VECTOR, *verify._POINT)
    rng = np.random.default_rng(len(ns))
    got = verify._draw(parts)(rng, ns)
    ref = np.random.default_rng(len(ns))
    want = [
        (_jet(ref, n), random_onedim_jet(n, 3, ref), _unitary(ref, n), _vector(ref, n))
        + _point(ref, n)
        for n in ns
    ]
    assert [[_bits(x) for x in row] for row in got] == [[_bits(x) for x in row] for row in want]
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_stacked_qr_is_bitwise_each_lone_qr(n):
    for count in (1, 7):
        z = np.random.default_rng([n, count]).standard_normal((count, 2, n, n))
        ref = np.random.default_rng([n, count])
        want = [_unitary(ref, n) for _ in range(count)]
        got = verify._unitaries(z)
        assert [u.tobytes() for u in got] == [u.tobytes() for u in want]
        assert np.abs(got @ got.conj().transpose(0, 2, 1) - np.eye(n)).max() <= 1e-14


def test_runner_lists_each_trial_and_reports_a_nan():
    # one draw call gives every trial's inputs, with the dimensions in
    # trial order; then the check runs once per dimension, and each
    # trial's residuals come back in trial order
    events = []

    def draw(rng, ns):
        events.append(("draw", ns))
        return [(n, i) for i, n in enumerate(ns)]

    def check(inputs):
        events.append(("check", [i for _, i in inputs]))
        return [[float(i), math.nan if i == 1 else 0.0] for _, i in inputs]

    rows = verify._run(draw, 3, 0, 0, (2, 3), check)
    assert events == [("draw", [2, 3, 2]), ("check", [0, 2]), ("check", [1])]
    assert [row[0] for row in rows] == [0.0, 1.0, 2.0]
    report = verify._report("check", 1.0, 0, rows)
    assert report.trials == 3
    assert math.isnan(report.max_residual)
    assert not report.passed
    assert verify._report("check", 1.0, 0, []).max_residual == 0.0


# -- bounded maps whose M is known by construction ------------------------


def _bounded_draws(monkeypatch, n, boundary, count):
    """``count`` bounded draws in dimension n, each as (jet, M, lam,
    directions) with the (M, weights, kernels, powers) of its Schur map."""
    built, real = [], verify._bounded_jet
    monkeypatch.setattr(verify, "_bounded_jet", lambda *args: built.append(args) or real(*args))
    rng = np.random.default_rng([n, boundary])
    draws = [verify._bounded_draw(rng, n, boundary) for _ in range(count)]
    return list(zip(draws, built, strict=True))


def _closed_form_s(M, weights, kernels, powers, xs):
    """s = (1 + M w)/(1 + w/M), w(x) = sum_j weights[j] <x, kernels[j]>^powers[j],
    at the rows of xs, pointwise."""
    w = ((xs @ kernels.conj().T) ** powers) @ weights
    return (1.0 + M * w) / (1.0 + w / M)


def _ball_points(rng, count, n, radius=None):
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    z /= np.linalg.norm(z, axis=1)[:, None]
    r = rng.random(count) ** (1.0 / (2 * n)) if radius is None else radius
    return z * np.reshape(r, (-1, 1))


@pytest.mark.parametrize("boundary", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_bounded_draws_are_bounded_by_their_M(n, boundary, monkeypatch):
    rng = np.random.default_rng(n)
    for _, (M, *schur) in _bounded_draws(monkeypatch, n, boundary, 4):
        xs = np.concatenate([_ball_points(rng, 10_000, n), _ball_points(rng, 10_000, n, 0.999)])
        assert np.abs(_closed_form_s(M, *schur, xs)).max() < M
        assert _closed_form_s(M, *schur, np.zeros((1, n)))[0] == 1.0


@pytest.mark.parametrize("boundary", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_bounded_draws_are_the_jets_of_their_closed_forms(n, boundary, monkeypatch):
    # f(t e) = s(t e) t e, so the Taylor coefficient of t^k in s(t e), taken
    # by the FFT on the circle of radius 0.3, times e is P_{k+1}(e)
    radius, points = 0.3, 32
    t = radius * np.exp(2j * np.pi * np.arange(points) / points)
    for (f, _, _, es), (M, *schur) in _bounded_draws(monkeypatch, n, boundary, 4):
        for e in es[:4]:
            taylor = np.fft.fft(_closed_form_s(M, *schur, t[:, None] * e)) / points
            for k in (1, 2):
                want = taylor[k] / radius**k * e
                assert np.abs(f.poly(k + 1).eval(e) - want).max() <= 1e-12 * M


def test_boundary_draws_reach_the_bound_on_both_branches(monkeypatch):
    # at e = a, the first direction, the ratio to the bound is 1; the power
    # 1 kernel gives a degree-2 part, the power 2 kernel none
    branches = set()
    for n in (2, 3):
        for (f, M, lam, es), (_, _, kernels, powers) in _bounded_draws(monkeypatch, n, True, 60):
            assert np.array_equal(es[0], kernels[0])
            bound = verify.bounded_onedim_bound(M, lam)
            for mu in (0.0, 1.7 - 0.4j):
                ratio = np.linalg.norm(fekete.fs_mapping(f, es[0], lam, mu)) / bound
                assert abs(ratio - 1.0) <= 1e-12
            assert (f.poly(2).max_coeff() > 0) == (powers[0] == 1)
            branches.add(int(powers[0]))
    assert branches == {1, 2}


@pytest.mark.parametrize("scale,tol", [(0.99, None), (1.0 - 1e-8, 1e-11)])
def test_a_bound_below_its_value_fails_the_bounded_check(scale, tol, monkeypatch):
    # the boundary trials meet the bound to rounding, so it holds at
    # tolerance 1e-11, and a bound 1e-8 lower fails there
    assert run_suite("bounds", tol=tol)[0].passed
    real = verify.bounded_onedim_bound
    monkeypatch.setattr(verify, "bounded_onedim_bound", lambda M, lam: scale * real(M, lam))
    bounded, starlike = run_suite("bounds", tol=tol)
    assert not bounded.passed
    assert starlike.passed


def test_bounds_passes_at_seeds_0_to_29_without_sampling_M(monkeypatch):
    def sampled(*args, **kwargs):
        raise AssertionError("the bounds suite sampled M")

    monkeypatch.setattr(estimates, "estimate_sup_modulus", sampled)
    for seed in range(30):
        for r in run_suite("bounds", seed=seed):
            assert r.passed, f"{r.suite} at seed {seed}: residual {r.max_residual}"
