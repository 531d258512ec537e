"""Flow jets, the ODE oracle, and the generator/starlike pairing."""

import copy
import math

import numpy as np
import pytest

from fsjet.gallery import example_gallery
from fsjet.jets import MappingJet, random_jet
from fsjet.sampling import sample_ball, sample_sphere
from fsjet.semigroup import (
    SHRINK_PROBE,
    FlowJet,
    flow_taylor_via_ode,
    generator_from_starlike,
    generator_shrink,
    is_generator,
    sample_generator,
    semigroup_jet,
    semigroup_ode,
    starlike_from_generator,
    starlike_residual,
)
from fsjet.tensors import HomPoly
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


def test_semigroup_jet_time_zero_is_identity():
    flow = semigroup_jet(_example_generator(), 0.0)
    assert flow.scale() == 1.0
    assert flow.bracket.is_identity(atol=0.0)


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
            extracted = flow_taylor_via_ode(h, t, e, k, step=2e-3)
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
        flow_taylor_via_ode(h, times, e, 2)


def test_flow_taylor_sequence_matches_scalar_calls():
    rng = np.random.default_rng(55)
    h = sample_generator(3, rng)
    e = np.array([0.6, 0.0, 0.8j])
    times, degrees = (0.0, 0.1, 0.7, 2.0), (2, 3)
    both = flow_taylor_via_ode(h, times, e, degrees, step=5e-3)
    assert both.shape == (4, 2, 3)
    assert flow_taylor_via_ode(h, times, e, 3, step=5e-3).shape == (4, 3)
    assert flow_taylor_via_ode(h, 0.7, e, degrees, step=5e-3).shape == (2, 3)
    for i, t in enumerate(times):
        for j, k in enumerate(degrees):
            single = flow_taylor_via_ode(h, t, e, k, step=5e-3)
            assert single.shape == (3,)
            assert np.abs(both[i, j] - single).max() <= 1e-14 * np.abs(single).max()


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


def test_generator_shrink_scales_the_nonlinear_part():
    rng = np.random.default_rng(58)
    for n in (2, 3):
        base = random_jet(n, 3, rng, scale=2.0)  # far from the generator class
        probes = sample_ball(copy.deepcopy(rng), SHRINK_PROBE, n, radius=1.0 - 1e-3)
        h = generator_shrink(base, rng)
        assert isinstance(h, MappingJet) and (h.dim, h.order) == (n, 3)
        c = h.poly(2).max_coeff() / base.poly(2).max_coeff()
        assert 0.0 < c < 1.0
        for k in (2, 3):
            assert h.poly(k).allclose(base.poly(k).scale(c), atol=1e-15)
        # c is 0.9 of the largest factor, so on its own probe points
        # Re <h(x), x> >= ||x||^2 / 10, with equality at the worst point
        hx = h.eval_many(probes)
        re_inner = np.real(np.einsum("ij,ij->i", hx, probes.conj()))
        nrm2 = np.linalg.norm(probes, axis=1) ** 2
        assert np.all(re_inner >= 0.1 * nrm2 - 1e-12)
        assert np.min((re_inner - 0.1 * nrm2) / nrm2) <= 1e-12
    # a jet that already passes comes back unscaled
    identity = MappingJet(2, 3, {})
    assert generator_shrink(identity, rng).allclose(identity, atol=0.0)


def test_both_generator_samplers_give_generators():
    rng = np.random.default_rng(59)
    for n in (2, 3):
        h = sample_generator(n, rng)
        assert isinstance(h, MappingJet)
        assert is_generator(h, samples=2048, seed=7).passed
        # the one-dimensional sampler of the bounds suite
        od = random_onedim_jet(n, 3, rng, scale=0.3).to_mapping_jet()
        h = generator_shrink(od, rng)
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
    for degree in (-1, 16, 17, (2, 17)):
        with pytest.raises(ValueError):
            flow_taylor_via_ode(h, 0.3, e, degree)
    assert flow_taylor_via_ode(h, 0.3, e, (0, 15)).shape == (2, 2)


def test_flow_taylor_stack_matches_lone_calls():
    rng = np.random.default_rng(56)
    gens = [sample_generator(2, rng) for _ in range(3)]
    dirs = sample_sphere(rng, 3, 2)
    times, degrees = (0.1, 0.7), (2, 3)
    stacked = flow_taylor_via_ode(gens, times, dirs, degrees, step=1e-2)
    assert stacked.shape == (3, 2, 2, 2)
    for h, e, got in zip(gens, dirs, stacked):
        lone = flow_taylor_via_ode(h, times, e, degrees, step=1e-2)
        assert lone.shape == (2, 2, 2)
        assert np.abs(got - lone).max() <= 1e-14 * np.abs(lone).max()
    # scalar t and degree drop their axes; the generator axis stays, also
    # for a stack of one, while a lone generator has none
    assert flow_taylor_via_ode(gens, 0.7, dirs, 3, step=1e-2).shape == (3, 2)
    one = flow_taylor_via_ode(gens[:1], times, dirs[:1], degrees, step=1e-2)
    assert one.shape == (1, 2, 2, 2)
    assert np.array_equal(
        one[0], flow_taylor_via_ode(gens[0], times, dirs[0], degrees, step=1e-2)
    )


def test_flow_taylor_stack_rejects_mixed_generators():
    rng = np.random.default_rng(57)
    h2, h3 = sample_generator(2, rng), sample_generator(3, rng)
    h2_order4 = sample_generator(2, rng, order=4)
    e2 = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    for gens in ([h2, h3], [h2, h2_order4]):
        with pytest.raises(ValueError):
            flow_taylor_via_ode(gens, 0.3, e2, 2)
    with pytest.raises(ValueError):
        flow_taylor_via_ode([h2, h2], 0.3, e2[0], 2)  # one direction per generator
    with pytest.raises(ValueError):
        flow_taylor_via_ode([], 0.3, np.zeros((0, 2)), 2)


def test_flow_leaving_the_ball_raises_and_names_the_generator():
    # x - 10 x^2 pushes points of radius 0.2 outward until they overflow,
    # which used to come back as a NaN coefficient
    H2 = HomPoly.from_monomials(2, 1, 1, {(2,): [-10.0]})
    bad = MappingJet(1, 3, {2: H2})
    good = MappingJet(1, 3, {})
    e = np.array([[1.0 + 0j], [1.0 + 0j]])
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match="generator 1"):
            flow_taylor_via_ode([good, bad], 2.0, e, 2, step=5e-3)
        with pytest.raises(RuntimeError):
            semigroup_ode(bad, 2.0, np.array([0.2 + 0j]), step=5e-3)
