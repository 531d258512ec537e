"""One-dimensional-type jets, detection, and the root transform."""

import numpy as np
import pytest

from fsjet.transforms import (
    OneDimJet,
    detect_onedim,
    koebe_onedim,
    root_transform,
)
from fsjet.gallery import example_gallery
from fsjet.jets import MappingJet, random_jet
from fsjet.tensors import ScalarHomPoly
from fsjet.transforms import _series_root
from fsjet.verify import random_onedim_jet


def test_koebe_onedim_values():
    od = koebe_onedim(dim=1, order=3)
    z = np.array([0.1 + 0j])
    # s(z) = 1 + 2z + 3z^2 -> f(z) = z + 2z^2 + 3z^3
    assert abs(od.eval(z)[0] - 0.123) < 1e-15
    jet = od.to_mapping_jet()
    assert abs(jet.eval(z)[0] - 0.123) < 1e-15


def test_to_mapping_jet_matches_pointwise():
    rng = np.random.default_rng(40)
    for n, order in ((3, 4), (4, 7)):
        od = random_onedim_jet(n, order, rng)
        jet = od.to_mapping_jet()
        for _ in range(10):
            x = 0.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            assert np.allclose(jet.eval(x), od.eval(x), atol=1e-13)


def test_detect_onedim_round_trip():
    rng = np.random.default_rng(41)
    od = random_onedim_jet(2, 4, rng)
    found = detect_onedim(od.to_mapping_jet())
    assert found is not None
    for k in range(1, 4):
        diff = found.scalar_part(k) + od.scalar_part(k).scale(-1.0)
        assert diff.max_coeff() < 1e-10


def test_detect_onedim_rejects_generic_jet():
    # P2(x) = -(x1^2/2)(1,1) does not factor as p1(x) x
    f = example_gallery("example_5_6").jet
    assert detect_onedim(f) is None


def test_onedim_validation():
    with pytest.raises(ValueError):
        OneDimJet(2, 3, {5: ScalarHomPoly(5, 2, {})})


def test_root_transform_koebe_golden_series():
    # square-root transform of the Koebe function: z + z^3 + z^5
    g = root_transform(koebe_onedim(), 2, np.array([1.0 + 0j]))
    one = np.array([1.0 + 0j])
    assert sorted(g.polys) == [3, 5]
    assert abs(g.poly(3).eval(one)[0] - 1.0) < 1e-14
    assert abs(g.poly(5).eval(one)[0] - 1.0) < 1e-14


def _series_root_by_powers(coeffs, n, terms):
    """The binomial-power loop ``_series_root`` replaced, kept as reference:
    sum_m binom(1/n, m) w^m with w = sum_{k>=1} a_k u^k, truncated."""
    w = [0.0j] + [complex(c) for c in coeffs[1:]]
    w += [0.0j] * (terms - len(w))
    out = [1.0 + 0.0j] + [0.0j] * (terms - 1)
    wpow = [1.0 + 0.0j] + [0.0j] * (terms - 1)
    binom = 1.0
    for m in range(1, terms):
        binom *= (1.0 / n - (m - 1)) / m
        new = [0.0j] * terms
        for a in range(terms):
            for b in range(1, terms - a):
                new[a + b] += wpow[a] * w[b]
        wpow = new
        for j in range(terms):
            out[j] += binom * wpow[j]
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("terms", [2, 3, 4, 5])
def test_series_root_matches_binomial_powers(n, terms):
    rng = np.random.default_rng(10 * n + terms)
    for _ in range(20):
        z = rng.standard_normal((2, terms - 1))
        a = [1.0] + list(z[0] + 1j * z[1])
        got = np.array(_series_root(a, n, terms))
        want = np.array(_series_root_by_powers(a, n, terms))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # fewer coefficients than terms are padded with zeros: (1 + u)^(1/2)
    assert np.allclose(_series_root([1.0, 1.0], 2, 4), [1.0, 0.5, -0.125, 0.0625])


def test_root_transform_sparsity_pattern():
    rng = np.random.default_rng(42)
    od = random_onedim_jet(2, 3, rng)
    e = np.array([0.6, 0.8j])
    for n in (2, 3):
        g = root_transform(od, n, e)
        assert g.order == 2 * n + 1
        for k in g.polys:
            assert (k - 1) % n == 0


def test_root_transform_pointwise():
    # g(x) = s(<x,e>^n e)^(1/n) x, compared by direct evaluation at small x
    rng = np.random.default_rng(43)
    od = random_onedim_jet(2, 3, rng)
    e = np.array([1.0, 0.0], dtype=complex)
    for n in (2, 3):
        g = root_transform(od, n, e, order=4 * n + 1)
        for _ in range(5):
            x = 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            u = complex(np.vdot(e, x)) ** n
            s_val = od.s_eval(u * e)
            expect = s_val ** (1.0 / n) * x
            # both sides agree up to the truncation order of g
            err = np.linalg.norm(g.eval(x) - expect)
            assert err < (0.5) ** (4 * n + 1) * 10


def test_root_transform_pointwise_dim4_order7():
    # cube root at dim 4, jet order 7: the first dropped degree is 10, so
    # at |x| <= 0.05 the truncation error stays below 1e-9
    rng = np.random.default_rng(44)
    od = random_onedim_jet(4, 3, rng)
    e = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    e /= np.linalg.norm(e)
    g = root_transform(od, 3, e, order=7)
    assert sorted(g.polys) == [4, 7]
    for _ in range(10):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x *= 0.05 * rng.uniform() / np.linalg.norm(x)
        u = complex(np.vdot(e, x)) ** 3
        expect = od.s_eval(u * e) ** (1.0 / 3) * x
        assert np.linalg.norm(g.eval(x) - expect) < 1e-9


def test_root_transform_validation():
    od = koebe_onedim()
    with pytest.raises(ValueError):
        root_transform(od, 1, np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        root_transform(od, 2, np.array([1.0 + 0j]), order=3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_detect_onedim_reads_the_series_of_each_lift(n):
    # the oracle is the series the jet was lifted from; a generic jet, and
    # one whose top degree alone is generic, do not factor unless n = 1
    rng = np.random.default_rng(45 + n)
    for order in range(2, 8):
        od = random_onedim_jet(n, order, rng)
        found = detect_onedim(od.to_mapping_jet())
        assert found is not None, order
        for k in range(1, order):
            want = od.scalar_part(k).entries
            err = np.abs(found.scalar_part(k).entries - want).max()
            assert err <= 1e-12 * np.abs(want).max(), (order, k, err)
        generic = random_jet(n, order, rng)
        lift = od.to_mapping_jet()
        partial = MappingJet(n, order, {**lift.polys, order: generic.poly(order)})
        for f in (generic, partial):
            assert (detect_onedim(f) is not None) == (n == 1), order
