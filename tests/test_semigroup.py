"""Flow jets, the ODE oracle, and the generator/starlike pairing."""

import math

import numpy as np
import pytest

from fsjet.gallery import example_gallery
from fsjet.jets import MappingJet, random_jet
from fsjet.semigroup import (
    FlowJet,
    GeneratorJet,
    flow_taylor_via_ode,
    generator_from_starlike,
    is_generator,
    sample_generator,
    semigroup_jet,
    semigroup_ode,
    starlike_from_generator,
    starlike_residual,
)
from fsjet.tensors import HomPoly


def _example_generator() -> GeneratorJet:
    return GeneratorJet(example_gallery("example_5_6_generator").jet)


def test_is_generator_accepts_example():
    assert is_generator(_example_generator()).passed


def test_is_generator_rejects_large_perturbation():
    H2 = HomPoly.from_monomials(2, 1, 1, {(2,): [-5.0]})
    h = GeneratorJet(MappingJet(1, 3, {2: H2}))
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
        h2only = GeneratorJet(MappingJet(1, 3, {2: H2}))
        flow = semigroup_jet(h2only, t)
        got2 = complex(flow.poly(2).eval(np.array([1.0 + 0j]))[0])
        assert got2 == et * (et - 1.0)
        h3only = GeneratorJet(MappingJet(1, 3, {3: H3}))
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
        h = GeneratorJet(random_jet(n, 3, rng))
        f = starlike_from_generator(h)
        back = generator_from_starlike(f)
        assert back.jet.allclose(h.jet, atol=1e-13)


def test_starlike_pairing_output_is_order_3():
    # only degrees 2 and 3 are solved, so a higher-order input must not
    # come back labelled with its own order
    rng = np.random.default_rng(54)
    h = GeneratorJet(random_jet(2, 5, rng))
    f = starlike_from_generator(h)
    assert f.order == 3
    assert generator_from_starlike(random_jet(2, 5, rng)).order == 3


def test_starlike_residual_vanishes_to_third_order():
    rng = np.random.default_rng(52)
    h = GeneratorJet(random_jet(2, 3, rng))
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


def test_flow_jet_scale_and_eval():
    H2 = HomPoly.from_monomials(2, 1, 1, {(2,): [1.0]})
    bracket = MappingJet(1, 3, {2: H2})
    flow = FlowJet(0.5, bracket)
    x = np.array([0.2 + 0j])
    expect = math.exp(-0.5) * (x + x**2)
    assert np.allclose(flow.eval(x), expect, atol=1e-14)
