"""Jet algebra: composition, inversion, iteration, conjugation.

The composition oracle extracts homogeneous parts of the pointwise
composition by averaging over roots of unity, which is exact for
polynomial maps and fully independent of the substitution code.
"""

import numpy as np
import pytest

from fsjet.jets import (
    MappingJet,
    compose,
    invert,
    iterate,
    linear_conjugate,
    random_jet,
    unitarity_residual,
    unitary_conjugate,
)
from fsjet.sampling import sample_sphere
from fsjet.tensors import HomPoly


def _homogeneous_part_pointwise(f, g, e, degree, nodes=32, radius=0.3):
    """Degree-k Taylor coefficient of z -> f(g(z e)) via roots of unity."""
    zs = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    vals = np.array([f.eval(g.eval(z * e)) for z in zs])
    weights = np.exp(-2j * np.pi * degree * np.arange(nodes) / nodes)
    return (weights[:, None] * vals).sum(axis=0) / (nodes * radius**degree)


def _koebe_jet(order=3):
    polys = {
        k: HomPoly.from_monomials(k, 1, 1, {(k,): [float(k)]})
        for k in range(2, order + 1)
    }
    return MappingJet(1, order, polys)


def test_identity_jet():
    f = MappingJet.identity(3, 4)
    assert f.is_identity()
    x = np.array([0.1, 0.2j, -0.1])
    assert np.allclose(f.eval(x), x)


def test_rejects_out_of_range_degrees():
    P = HomPoly.from_monomials(2, 2, 2, {(2, 0): [1.0, 0.0]})
    with pytest.raises(ValueError):
        MappingJet(2, 1, {2: P})
    with pytest.raises(ValueError):
        MappingJet(3, 3, {2: P})  # dimension mismatch


def test_eval_warns_outside_ball():
    f = _koebe_jet()
    with pytest.warns(UserWarning):
        f.eval(np.array([1.5 + 0j]))


def test_compose_matches_pointwise_extraction():
    rng = np.random.default_rng(20)
    for n in (2, 3):
        f = random_jet(n, 3, rng)
        g = random_jet(n, 3, rng)
        fg = compose(f, g)
        e = sample_sphere(rng, 1, n)[0]
        for k in (2, 3):
            oracle = _homogeneous_part_pointwise(f, g, e, k)
            assert np.allclose(fg.poly(k).eval(e), oracle, atol=1e-11)


def test_compose_associative():
    rng = np.random.default_rng(21)
    f, g, h = (random_jet(2, 4, rng) for _ in range(3))
    left = compose(compose(f, g), h)
    right = compose(f, compose(g, h))
    assert left.allclose(right, atol=1e-12)


def test_compose_with_identity():
    rng = np.random.default_rng(22)
    f = random_jet(3, 3, rng)
    i = MappingJet.identity(3, 3)
    assert compose(f, i).allclose(f, atol=0.0)
    assert compose(i, f).allclose(f, atol=0.0)


def test_invert_round_trip():
    rng = np.random.default_rng(23)
    for n, order in ((2, 3), (3, 4), (2, 5)):
        f = random_jet(n, order, rng)
        g = invert(f)
        assert compose(f, g).is_identity(atol=1e-11)
        assert compose(g, f).is_identity(atol=1e-11)


def test_invert_koebe_coefficients():
    # inverse of z + 2z^2 + 3z^3 is z - 2z^2 + 5z^3 + O(z^4)
    g = invert(_koebe_jet())
    one = np.array([1.0 + 0j])
    assert abs(g.poly(2).eval(one)[0] - (-2.0)) < 1e-13
    assert abs(g.poly(3).eval(one)[0] - 5.0) < 1e-13


def test_iterate_consistency():
    rng = np.random.default_rng(24)
    f = random_jet(2, 3, rng)
    assert iterate(f, 0).is_identity()
    assert iterate(f, 1).allclose(f, atol=0.0)
    assert iterate(f, 2).allclose(compose(f, f), atol=1e-13)
    assert iterate(f, -1).allclose(invert(f), atol=0.0)
    # m and -m cancel at jet level
    both = compose(iterate(f, 3), iterate(f, -3))
    assert both.is_identity(atol=1e-10)


def test_unitarity_residual():
    U = np.array([[0, 1], [1, 0]], dtype=complex)
    assert unitarity_residual(U) < 1e-15
    assert unitarity_residual(2 * U) > 1


def test_unitary_conjugate_pointwise():
    rng = np.random.default_rng(25)
    f = random_jet(2, 3, rng)
    theta = 0.8
    U = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
        dtype=complex,
    )
    # and at the advertised scale (n, K) = (4, 7), with a random unitary
    big = random_jet(4, 7, rng)
    V, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    for f, U in ((f, U), (big, V)):
        g = unitary_conjugate(f, U)
        # conjugation preserves homogeneous degrees, so no truncation loss
        for _ in range(10):
            x = 0.2 * sample_sphere(rng, 1, f.dim)[0]
            assert np.allclose(g.eval(x), U.conj().T @ f.eval(U @ x), atol=1e-13)


def test_unitary_conjugate_rejects_non_unitary():
    rng = np.random.default_rng(26)
    f = random_jet(2, 3, rng)
    with pytest.raises(ValueError):
        unitary_conjugate(f, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_linear_conjugate_diagonal():
    # with A = D^{-1}, B = D the degree-k part picks up D^{k-1} on x1^k
    f = _koebe_jet()
    D = np.array([[0.5 + 0j]])
    g = linear_conjugate(f, np.linalg.inv(D), D)
    one = np.array([1.0 + 0j])
    assert abs(g.poly(2).eval(one)[0] - 2.0 * 0.5) < 1e-13
    assert abs(g.poly(3).eval(one)[0] - 3.0 * 0.25) < 1e-13


def test_from_components_validates_normalization():
    # degree-1 part must be the identity and constant term must vanish
    comps = [{(1, 0): 2.0 + 0j}, {(0, 1): 1.0 + 0j}]
    with pytest.raises(ValueError):
        MappingJet.from_components(comps, 2, 3)
    comps = [{(1, 0): 1.0 + 0j, (0, 0): 0.1 + 0j}, {(0, 1): 1.0 + 0j}]
    with pytest.raises(ValueError):
        MappingJet.from_components(comps, 2, 3)


def test_components_round_trip():
    rng = np.random.default_rng(27)
    f = random_jet(3, 4, rng)
    g = MappingJet.from_components(f.components(), f.dim, f.order)
    assert f.allclose(g, atol=1e-14)


def _taylor_along(F, e, top_degree, radius):
    """Taylor coefficients 0..top_degree of the polynomial z -> F(z e).

    Evaluates at radius * (roots of unity) with more nodes than
    ``top_degree``, so the FFT recovers every coefficient without aliasing.
    """
    nodes = 1 << top_degree.bit_length()
    zs = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    vals = F(zs[:, None] * e[None, :])
    coef = np.fft.fft(vals, axis=0) / nodes
    return coef / radius ** np.arange(nodes)[:, None]


@pytest.mark.parametrize("n,K", [(2, 7), (3, 6), (4, 5)])
def test_compose_invert_iterate_against_cauchy_oracle(n, K):
    # pointwise evaluation of the jets only; shares no code with the
    # substitution kernel of compose
    rng = np.random.default_rng(28 + n)
    f, g = random_jet(n, K, rng), random_jet(n, K, rng)
    inv = invert(f)
    cases = (
        (compose(f, g), lambda xs: f.eval_many(g.eval_many(xs)), K**2),
        (iterate(f, 3), lambda xs: f.eval_many(f.eval_many(f.eval_many(xs))), K**3),
        # f o f^-1 and f^-1 o f are the identity through degree K
        (MappingJet.identity(n, K), lambda xs: f.eval_many(inv.eval_many(xs)), K**2),
        (MappingJet.identity(n, K), lambda xs: inv.eval_many(f.eval_many(xs)), K**2),
    )
    for e in sample_sphere(rng, 2, n):
        for jet, pointwise, top in cases:
            coef = _taylor_along(pointwise, e, top, radius=0.5)
            want = np.array([e] + [jet.poly(k).eval(e) for k in range(2, K + 1)])
            tol = 1e-10 * (1.0 + np.abs(want).max())
            assert np.abs(coef[1 : K + 1] - want).max() <= tol
            assert np.abs(coef[0]).max() <= tol
