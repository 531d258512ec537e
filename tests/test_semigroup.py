"""Flow jets, the ODE oracle, and the generator/starlike pairing."""

import math

import numpy as np
import pytest

from fsjet import semigroup
from fsjet.gallery import example_gallery
from fsjet.jets import MappingJet, iterate, random_jet
from fsjet.sampling import sample_ball, sample_sphere
from fsjet.semigroup import (
    SAMPLE_SCALE,
    FlowJet,
    _field,
    flow_taylor_via_ode,
    generator_from_starlike,
    generator_shrink,
    is_generator,
    sample_generator,
    semigroup_jet,
    semigroup_ode,
    starlike_from_generator,
)
from fsjet.tensors import HomPoly, _evaluate
from fsjet.transforms import detect_onedim
from fsjet.verify import random_onedim_jet


def _example_generator() -> MappingJet:
    return example_gallery("example_5_6_generator").jet


def test_is_generator_accepts_example():
    assert is_generator(_example_generator()).passed


def test_is_generator_rejects_large_perturbation():
    H2 = HomPoly.from_monomials(2, 1, 1, {(2,): [-5.0]})
    h = MappingJet(1, 3, {2: H2})
    report = is_generator(h, seed=3)
    assert not report.passed
    assert report.witnesses


def test_is_generator_fails_a_jet_with_a_non_finite_coefficient():
    # max(0.0, -nan) is 0.0, so this jet used to pass with residual 0.0
    with np.errstate(all="ignore"):
        g = iterate(random_jet(2, 3, np.random.default_rng(0)), 10**200)
        report = is_generator(g)
    assert not report.passed
    assert math.isnan(report.max_residual)
    assert report.witnesses


def test_semigroup_jet_time_zero_is_identity():
    flow = semigroup_jet(_example_generator(), 0.0)
    assert flow.scale() == 1.0
    assert flow.bracket.max_coeff() == 0.0


def test_semigroup_jet_rejects_negative_time():
    with pytest.raises(ValueError):
        semigroup_jet(_example_generator(), -0.1)


def test_closed_form_coefficient_factors_exact():
    # unit tensors isolate the time-dependent factors bit for bit
    H2 = HomPoly.from_monomials(2, 1, 1, {(2,): [1.0]})
    H3 = HomPoly.from_monomials(3, 1, 1, {(3,): [1.0]})
    for t in (0.1, 0.7, 2.0):
        et = math.exp(-t)
        h2only = MappingJet(1, 3, {2: H2})
        flow = semigroup_jet(h2only, t)
        got2 = complex(flow.poly(2).eval(np.array([1.0 + 0j]))[0])
        assert got2 == et * (et - 1.0)
        h3only = MappingJet(1, 3, {3: H3})
        flow = semigroup_jet(h3only, t)
        got3 = complex(flow.poly(3).eval(np.array([1.0 + 0j]))[0])
        assert got3 == et * (0.5 * (et * et - 1.0))


def test_closed_form_matches_ode_extraction():
    h = _example_generator()
    e = np.array([1.0, 0.0], dtype=complex)
    for t in (0.3, 1.0):
        flow = semigroup_jet(h, t)
        for k in (2, 3):
            closed = flow.poly(k).eval(e)
            extracted = flow_taylor_via_ode([h], (t,), e[None], (k,), step=2e-3)[0, 0, 0]
            assert np.linalg.norm(closed - extracted) < 1e-8


def test_flow_composition_property():
    rng = np.random.default_rng(50)
    h = sample_generator(2, rng)
    a = semigroup_jet(h, 0.4)
    b = semigroup_jet(h, 0.9)
    combined = a.compose(b)
    direct = semigroup_jet(h, 1.3)
    assert abs(combined.t - direct.t) < 1e-15
    for k in (2, 3):
        diff = combined.poly(k) + direct.poly(k).scale(-1.0)
        assert diff.max_coeff() < 1e-12


def test_semigroup_ode_matches_jet_at_small_points():
    h = _example_generator()
    t = 0.6
    flow = semigroup_jet(h, t)
    x0 = np.array([0.04, -0.03 + 0.02j])
    ode = semigroup_ode(h, t, x0, step=1e-3)
    # the jet is exact through degree 3; the gap is O(||x||^4)
    assert np.linalg.norm(ode - flow.eval(x0)) < 1e-5


def test_rk4_fourth_order_convergence():
    h = _example_generator()
    x0 = np.array([0.3, 0.2 + 0.1j])
    t = 1.0
    u1 = semigroup_ode(h, t, x0, step=0.1)
    u2 = semigroup_ode(h, t, x0, step=0.05)
    u3 = semigroup_ode(h, t, x0, step=0.025)
    ratio = np.linalg.norm(u1 - u2) / np.linalg.norm(u2 - u3)
    assert 13.0 <= ratio <= 19.0


def test_ode_rejects_bad_inputs():
    h = _example_generator()
    with pytest.raises(ValueError):
        semigroup_ode(h, 1.0, np.array([1.5, 0.0]))
    with pytest.raises(ValueError):
        semigroup_ode(h, 1.0, np.array([0.1, 0.0]), step=0.0)


@pytest.mark.parametrize("step", [np.nan, np.inf])
def test_ode_rejects_a_step_that_is_not_finite(step):
    # a NaN step used to end in "cannot convert float NaN to integer", an
    # infinite one to take one RK4 step per time gap
    h = _example_generator()
    e = np.array([[1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="step"):
        semigroup_ode(h, 0.5, np.array([0.1, 0.0]), step=step)
    with pytest.raises(ValueError, match="step"):
        flow_taylor_via_ode([h], (0.5,), e, (2,), step=step)


def test_ode_rejects_a_step_too_small_for_its_times():
    # the step count 2/1e-320 used to overflow in math.ceil
    h = _example_generator()
    e = np.array([[1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="step 1e-320 is too small"):
        semigroup_ode(h, 2.0, np.array([0.1, 0.0]), step=1e-320)
    with pytest.raises(ValueError, match="step 1e-320 is too small"):
        flow_taylor_via_ode([h], (0.5, 2.0), e, (2,), step=1e-320)


def test_ode_rejects_a_step_count_above_its_bound(monkeypatch):
    # a step of 1e-12 at t = 2 would take 2e12 RK4 steps
    def no_field(hs):
        raise AssertionError("built the field's arrays before checking the step count")

    monkeypatch.setattr(semigroup, "_field", no_field)
    h = _example_generator()
    e = np.array([[1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match=r"step 1e-12 is too small for times up to 2\.0"):
        semigroup_ode(h, 2.0, np.array([0.1, 0.0]), step=1e-12)
    with pytest.raises(ValueError, match="step 1e-12"):
        flow_taylor_via_ode([h], (0.5, 2.0), e, (2,), step=1e-12)


def test_ode_rejects_a_nan_initial_point():
    # it used to pass the ball check and fail as a flow leaving the ball
    with pytest.raises(ValueError, match="open unit ball"):
        semigroup_ode(_example_generator(), 0.5, np.array([np.nan, 0.0]))


def test_field_matches_each_generators_eval():
    # the field of a stack, its padded index columns and coefficients
    # through the one product of every evaluation, against each jet's
    # own evaluation: order 4, order-3 jets with no degree-2 part (a
    # degree the field leaves out), and the identity
    rng = np.random.default_rng(58)
    stacks = [
        [generator_shrink(random_jet(2, 4, rng, scale=SAMPLE_SCALE)) for _ in range(3)],
        [MappingJet(3, 3, {3: sample_generator(3, rng).poly(3)}) for _ in range(2)],
        [MappingJet(1, 3, {})],
    ]
    for hs in stacks:
        n = hs[0].dim
        xs = sample_ball(rng, 5 * len(hs), n, radius=0.9).reshape(len(hs), 5, n)
        padded = np.concatenate([xs, np.ones((len(hs), 5, 1))], axis=-1)
        cols, coef = _field(hs)
        assert coef.shape == (len(hs), len(cols[0]), n + 1)
        got = _evaluate(cols, coef, padded)
        assert np.all(got[..., -1] == 0.0)
        for h, x, row in zip(hs, xs, got):
            assert np.abs(row[:, :-1] - h.eval_many(x)).max() <= 1e-15


@pytest.mark.parametrize(
    "times", [-0.1, np.nan, np.inf, (0.1, -0.2), (0.5, 0.5), (0.7, 0.1), (0.1, np.nan)]
)
def test_ode_rejects_bad_times(times):
    # a negative time used to integrate backwards in one step of size |t|
    h = _example_generator()
    e = np.array([1.0, 0.0], dtype=complex)
    if np.ndim(times) == 0:
        with pytest.raises(ValueError):
            semigroup_ode(h, times, np.array([0.1, 0.0]))
    with pytest.raises(ValueError):
        flow_taylor_via_ode([h], np.atleast_1d(times), e[None], (2,))


def test_flow_taylor_sequence_matches_scalar_calls():
    rng = np.random.default_rng(55)
    h = sample_generator(3, rng)
    e = np.array([[0.6, 0.0, 0.8j]])
    times, degrees = (0.0, 0.1, 0.7, 2.0), (2, 3)
    both = flow_taylor_via_ode([h], times, e, degrees, step=5e-3)
    assert both.shape == (1, 4, 2, 3)
    for i, t in enumerate(times):
        for j, k in enumerate(degrees):
            single = flow_taylor_via_ode([h], (t,), e, (k,), step=5e-3)
            assert single.shape == (1, 1, 1, 3)
            assert np.abs(both[0, i, j] - single[0, 0, 0]).max() <= 1e-14 * np.abs(single).max()


def test_starlike_pairing_example():
    # the example generator pairs with the example starlike map
    h = _example_generator()
    f = starlike_from_generator(h)
    expect = example_gallery("example_5_6").jet
    assert f.allclose(expect, atol=1e-14)


def test_starlike_pairing_round_trip():
    rng = np.random.default_rng(51)
    for n in (2, 3):
        h = random_jet(n, 3, rng)
        f = starlike_from_generator(h)
        back = generator_from_starlike(f)
        assert back.allclose(h, atol=1e-13)


def test_starlike_pairing_output_is_order_3():
    # only degrees 2 and 3 are solved, so a higher-order input must not
    # come back labelled with its own order
    rng = np.random.default_rng(54)
    h = random_jet(2, 5, rng)
    f = starlike_from_generator(h)
    assert f.order == 3
    assert generator_from_starlike(random_jet(2, 5, rng)).order == 3


def starlike_residual(f: MappingJet, h: MappingJet, x) -> float:
    """|| Df(x)[h(x)] - f(x) ||, evaluated directly; O(||x||^4) for pairs."""
    x = np.asarray(x, dtype=complex)
    hx = h.eval(x)
    # Df(x)[v] = v + 2 B[x, v] + 3 T3[x, x, v] for an order-3 jet
    v = hx.copy()
    v += 2.0 * f.poly(2).multilinear_eval([x, hx])
    if f.order >= 3:
        v += 3.0 * f.poly(3).multilinear_eval([x, x, hx])
    return float(np.linalg.norm(v - f.eval(x)))


def test_starlike_residual_vanishes_to_third_order():
    rng = np.random.default_rng(52)
    h = random_jet(2, 3, rng)
    f = starlike_from_generator(h)
    x = 0.01 * np.array([0.7, -0.5 + 0.3j])
    # Df(x)[h(x)] - f(x) = O(||x||^4)
    assert starlike_residual(f, h, x) < 1e-7
    # and the defect really is fourth order: shrinking x by 2 divides it by ~16
    big = starlike_residual(f, h, 10 * x)
    small = starlike_residual(f, h, 5 * x)
    assert 10.0 < big / small < 22.0


def test_sample_generator_members_pass():
    rng = np.random.default_rng(53)
    for _ in range(5):
        h = sample_generator(2, rng)
        assert is_generator(h, samples=2048, seed=7).passed


def _flattening_norms(jet: MappingJet) -> float:
    """sum over k of the spectral norm of H_k's (n^k, n) flattening, by SVD."""
    return sum(
        np.linalg.svd(P.dense().reshape(-1, jet.dim), compute_uv=False)[0]
        for P in jet.polys.values()
    )


def _lone_shrink(jet: MappingJet) -> dict:
    """The entries of each degree of ``generator_shrink(jet)`` as one jet
    alone gives them: the flattening of each degree's dense tensor, its
    2-norm, their sum in degree order and the factor from it."""
    total = 0.0
    for k, P in sorted(jet.polys.items()):
        total += float(np.linalg.norm(P.dense().reshape(-1, jet.dim), 2))
    c = 1.0 / max(1.0, total)
    return {k: c * P.entries for k, P in jet.polys.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_stacked_shrink_is_bitwise_each_lone_shrink(n):
    # jets left as they are and jets shrunk, one of order 4 whose degree 4
    # the others lack, and one whose all-zero degree 2 the jet drops
    rng = np.random.default_rng(70 + n)
    jets = [random_jet(n, 3, rng, scale=s) for s in (0.01, 0.25, 2.0)]
    jets.append(random_jet(n, 4, rng, scale=0.5))
    jets.append(MappingJet(n, 3, {2: HomPoly.zero(2, n, n), 3: jets[2].poly(3)}))
    assert 2 not in jets[-1].polys
    shrunk = semigroup._shrink(jets)
    for f, h in zip(jets, shrunk, strict=True):
        want = _lone_shrink(f)
        for g in (h, generator_shrink(f)):
            assert (g.dim, g.order) == (f.dim, f.order)
            assert {k: P.entries.tobytes() for k, P in g.polys.items()} == {
                k: e.tobytes() for k, e in want.items()
            }
    # the first jet is left as it is, the third shrunk
    assert _flattening_norms(jets[0]) < 1.0 < _flattening_norms(jets[2])
    assert semigroup._shrink([]) == []


def test_generator_shrink_scales_the_nonlinear_part():
    rng = np.random.default_rng(58)
    for n in (2, 3, 4):
        base = random_jet(n, 3, rng, scale=2.0)  # far from the generator class
        h = generator_shrink(base)
        assert isinstance(h, MappingJet) and (h.dim, h.order) == (n, 3)
        c = 1.0 / _flattening_norms(base)
        assert 0.0 < c < 1.0
        for k in (2, 3):
            assert h.poly(k).allclose(base.poly(k).scale(c), atol=1e-15)
        # the shrunk jet's norms sum to 1, the largest sum the proof allows
        assert abs(_flattening_norms(h) - 1.0) <= 1e-14
    # a jet whose norms sum to at most 1 comes back unscaled
    small = random_jet(3, 4, rng, scale=0.01)
    assert _flattening_norms(small) < 1.0
    assert generator_shrink(small).allclose(small, atol=0.0)
    identity = MappingJet(2, 3, {})
    assert generator_shrink(identity).allclose(identity, atol=0.0)


def test_sampled_generators_are_generators_at_every_dimension():
    # the shrink of the flattening norms makes a generator by proof; the
    # sampled test at 20,000 points finds no violation at n = 2, 3 or 4
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        gens = [sample_generator(n, rng) for _ in range(40)]
        failed = [i for i, h in enumerate(gens) if not is_generator(h, 20_000, seed=i).passed]
        assert failed == [], f"n = {n}"


def test_sample_generator_draws_only_the_jet():
    # the shrink consumes nothing, so the stream after a draw is the
    # stream after the raw jet alone
    for n in (2, 3, 4):
        ours, raw = np.random.default_rng(n), np.random.default_rng(n)
        sample_generator(n, ours)
        random_jet(n, 3, raw, scale=SAMPLE_SCALE)
        assert ours.bit_generator.state == raw.bit_generator.state


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_generator_shrink_rejects_a_non_finite_coefficient(bad):
    # a NaN coefficient used to come back unscaled
    base = random_jet(2, 3, np.random.default_rng(60), scale=SAMPLE_SCALE)
    entries = base.poly(3).entries.copy()
    entries[1, 0] = bad
    jet = MappingJet(2, 3, {2: base.poly(2), 3: HomPoly._trusted(3, 2, 2, entries)})
    with pytest.raises(ValueError, match="degree-3"):
        generator_shrink(jet)


def test_both_generator_samplers_give_generators():
    rng = np.random.default_rng(59)
    for n in (2, 3):
        h = sample_generator(n, rng)
        assert isinstance(h, MappingJet)
        assert is_generator(h, samples=2048, seed=7).passed
        # the one-dimensional sampler of the bounds suite
        od = random_onedim_jet(n, 3, rng, scale=0.3).to_mapping_jet()
        h = generator_shrink(od)
        assert is_generator(h, samples=2048, seed=7).passed
        assert detect_onedim(h) is not None


def test_flow_jet_scale_and_eval():
    H2 = HomPoly.from_monomials(2, 1, 1, {(2,): [1.0]})
    bracket = MappingJet(1, 3, {2: H2})
    flow = FlowJet(0.5, bracket)
    x = np.array([0.2 + 0j])
    expect = math.exp(-0.5) * (x + x**2)
    assert np.allclose(flow.eval(x), expect, atol=1e-14)


def test_semigroup_jet_rejects_non_finite_time():
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError):
            semigroup_jet(_example_generator(), t)


def test_flow_taylor_rejects_degrees_it_cannot_extract():
    # a degree outside 0..nodes-1 aliases onto another one
    h = _example_generator()
    e = np.array([1.0, 0.0], dtype=complex)
    for degrees in ((-1,), (16,), (17,), (2, 17)):
        with pytest.raises(ValueError):
            flow_taylor_via_ode([h], (0.3,), e[None], degrees)
    assert flow_taylor_via_ode([h], (0.3,), e[None], (0, 15)).shape == (1, 1, 2, 2)
    # no degree, or no time, gives an empty axis (no degree was an IndexError)
    assert flow_taylor_via_ode([h], (0.3,), e[None], ()).shape == (1, 1, 0, 2)
    assert flow_taylor_via_ode([h], (), e[None], (2,)).shape == (1, 0, 1, 2)


def test_flow_taylor_rejects_a_degree_that_is_not_an_integer():
    # int(2.7) used to read it as degree 2
    h = _example_generator()
    e = np.array([[1.0, 0.0]], dtype=complex)
    for degrees in ((2.7,), (2, 3.0), [1.5]):
        with pytest.raises(TypeError, match="degrees must be an integer"):
            flow_taylor_via_ode([h], (0.3,), e, degrees)


def test_flow_taylor_takes_only_sequences():
    h = _example_generator()
    e = np.array([[1.0, 0.0]], dtype=complex)
    with pytest.raises(TypeError):
        flow_taylor_via_ode(h, (0.3,), e, (2,))  # a lone generator
    with pytest.raises(ValueError):
        flow_taylor_via_ode([h], 0.3, e, (2,))  # a lone time
    with pytest.raises(TypeError):
        flow_taylor_via_ode([h], (0.3,), e, 2)  # a lone degree


def test_flow_taylor_stack_matches_lone_calls():
    rng = np.random.default_rng(56)
    gens = [sample_generator(2, rng) for _ in range(3)]
    dirs = sample_sphere(rng, 3, 2)
    times, degrees = (0.1, 0.7), (2, 3)
    stacked = flow_taylor_via_ode(gens, times, dirs, degrees, step=1e-2)
    assert stacked.shape == (3, 2, 2, 2)
    for h, e, got in zip(gens, dirs, stacked):
        one = flow_taylor_via_ode([h], times, e[None], degrees, step=1e-2)
        assert one.shape == (1, 2, 2, 2)
        assert np.abs(got - one[0]).max() <= 1e-14 * np.abs(one).max()


def test_flow_taylor_stack_rejects_mixed_generators():
    rng = np.random.default_rng(57)
    h2, h3 = sample_generator(2, rng), sample_generator(3, rng)
    h2_order4 = generator_shrink(random_jet(2, 4, rng, scale=SAMPLE_SCALE))
    e2 = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    for gens in ([h2, h3], [h2, h2_order4]):
        with pytest.raises(ValueError, match="generator 1 has"):
            flow_taylor_via_ode(gens, (0.3,), e2, (2,))
    with pytest.raises(ValueError):
        flow_taylor_via_ode([h2, h2], (0.3,), e2[0], (2,))  # one direction per generator


@pytest.mark.parametrize("bad", [[np.nan, 0.0], [10.0, 0.0], [0.5, 0.0]])
def test_flow_taylor_rejects_a_direction_off_the_sphere(bad, monkeypatch):
    # a NaN or long direction used to integrate, then fail as a flow
    # leaving the ball that blamed the generator
    def no_integration(*args):
        raise AssertionError("integrated before checking its directions")

    monkeypatch.setattr(semigroup, "_rk4", no_integration)
    h = _example_generator()
    e = np.array([[1.0, 0.0], bad], dtype=complex)
    with pytest.raises(ValueError, match="direction 1 must be a unit vector"):
        flow_taylor_via_ode([h, h], (0.5,), e, (2,))


def test_flow_leaving_the_ball_raises_and_names_the_generator():
    # x - 10 x^2 pushes points of radius 0.2 outward until they overflow,
    # which used to come back as a NaN coefficient
    H2 = HomPoly.from_monomials(2, 1, 1, {(2,): [-10.0]})
    bad = MappingJet(1, 3, {2: H2})
    good = MappingJet(1, 3, {})
    e = np.array([[1.0 + 0j], [1.0 + 0j]])
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match="generator 1"):
            flow_taylor_via_ode([good, bad], (2.0,), e, (2,), step=5e-3)
        with pytest.raises(RuntimeError):
            semigroup_ode(bad, 2.0, np.array([0.2 + 0j]), step=5e-3)


@pytest.mark.parametrize("bad,error", [(-1, ValueError), (0, ValueError), (2.5, TypeError)])
def test_is_generator_takes_a_positive_integer_count(bad, error):
    # -1 used to fail inside numpy, and 0 to pass over no points
    with pytest.raises(error, match="samples"):
        is_generator(_example_generator(), samples=bad)


@pytest.mark.parametrize("seed,error", [(1.5, TypeError), (-1, ValueError)])
def test_is_generator_names_a_bad_seed(seed, error):
    # numpy's own errors named no argument
    with pytest.raises(error, match="seed must be"):
        is_generator(_example_generator(), seed=seed)
