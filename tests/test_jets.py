"""Jet algebra: composition, inversion, iteration, conjugation.

The composition oracle extracts homogeneous parts of the pointwise
composition by averaging over roots of unity, which is exact for
polynomial maps and fully independent of the substitution code.
"""

import numpy as np
import pytest

from fsjet import jets, polyops
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
from fsjet.tensors import HomPoly, exponents_to_multi_index


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


def _invert_full_order(f):
    """The loop ``invert`` replaced, kept as reference: K - 1
    compositions, each at the full order K."""
    g = MappingJet.identity(f.dim, f.order)
    for k in range(2, f.order + 1):
        residual = compose(f, g).poly(k)
        g = g.with_poly(k, g.poly(k) + residual.scale(-1))
    return g


def _iterates_sequential(f, top):
    """The loop ``iterate`` replaced, kept as reference: its outputs for
    m = 1..top, each m - 1 compositions f o (f o ... f)."""
    out = f
    yield out
    for _ in range(top - 1):
        out = compose(f, out)
        yield out


def _relative_gap(a, b):
    gap = max((np.abs(a.poly(k).entries - b.poly(k).entries).max()
               for k in range(2, max(a.order, b.order) + 1)), default=0.0)
    return gap / max(a.max_coeff(), b.max_coeff(), np.finfo(float).tiny)


# every m in -5..9 where a composition takes milliseconds; the inverse
# alone at (3,6) and (4,5), where one takes 0.1 and 0.35 s
@pytest.mark.parametrize("n,K,counts", [
    (2, 3, range(-5, 10)),
    (3, 3, range(-5, 10)),
    (2, 7, range(-5, 10)),
    (3, 6, ()),
    (4, 5, ()),
], ids=["2-3", "3-3", "2-7", "3-6", "4-5"])
def test_invert_and_iterate_match_the_sequential_loops(n, K, counts):
    rng = np.random.default_rng(40 + 10 * n + K)
    f = random_jet(n, K, rng)
    inv = _invert_full_order(f)
    assert _relative_gap(invert(f), inv) <= 1e-12
    want = {0: MappingJet.identity(n, K)}
    want.update(enumerate(_iterates_sequential(f, max(counts, default=1)), start=1))
    backward = _iterates_sequential(inv, -min(counts, default=-1))
    want.update((-m, g) for m, g in enumerate(backward, start=1))
    for m in counts:
        assert _relative_gap(iterate(f, m), want[m]) <= 1e-12, m


def _count_compositions(monkeypatch):
    orders = []
    real = jets.compose

    def counting(f, g):
        orders.append(min(f.order, g.order))
        return real(f, g)

    monkeypatch.setattr(jets, "compose", counting)
    return orders


@pytest.mark.parametrize("n,K", [(1, 1), (2, 2), (2, 5), (3, 4)])
def test_invert_composes_once_at_each_order(monkeypatch, n, K):
    f = random_jet(n, K, np.random.default_rng(n + K))
    orders = _count_compositions(monkeypatch)
    g = invert(f)
    assert orders == list(range(2, K + 1))
    assert g.order == K


def test_iterate_composes_by_binary_powering(monkeypatch):
    f = random_jet(2, 4, np.random.default_rng(41))
    orders = _count_compositions(monkeypatch)
    for m in range(-20, 21):
        orders.clear()
        iterate(f, m)
        # a negative count inverts first: one composition per order 2..K
        if m < 0:
            assert orders[:3] == [2, 3, 4]
            del orders[:3]
        bound = 2 * (abs(m).bit_length() - 1) if m else 0
        assert len(orders) <= bound, m
        assert all(order == 4 for order in orders)
        if abs(m) in (2, 3):
            assert len(orders) == abs(m) - 1
        if m > 0 and m & (m - 1) == 0:
            assert len(orders) == m.bit_length() - 1  # squarings only


@pytest.mark.parametrize("m", [2.5, "3", None])
def test_iterate_rejects_a_non_integer_count(m):
    f = random_jet(2, 3, np.random.default_rng(42))
    with pytest.raises(TypeError, match="iteration count"):
        iterate(f, m)
    assert iterate(f, np.int64(2)).allclose(compose(f, f), atol=0.0)


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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_unitary_conjugate_rejects_non_finite(bad):
    f = random_jet(2, 3, np.random.default_rng(26))
    with pytest.raises(ValueError, match="not unitary"):
        unitary_conjugate(f, np.array([[bad, 0.0], [0.0, 1.0]]))


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


def test_from_components_truncates_and_rejects_malformed_exponents():
    comps = [{(1, 0): 1.0 + 0j, (4, 0): 5.0 + 0j}, {(0, 1): 1.0 + 0j, (2, 0): 0.5 + 0j}]
    f = MappingJet.from_components(comps, 2, 3)
    assert list(f.polys) == [2]
    monos = f.poly(2).to_monomials()
    assert list(monos) == [(2, 0)] and np.array_equal(monos[(2, 0)], [0.0, 0.5])
    for bad in ((1, 0, 0), (3, -1)):
        with pytest.raises(ValueError, match="monomial"):
            MappingJet.from_components([{(1, 0): 1.0, bad: 1.0}, {(0, 1): 1.0}], 2, 3)
    with pytest.raises(ValueError, match="components"):
        MappingJet.from_components(comps[:1], 2, 3)


def test_nan_entry_is_not_dropped_at_jet_level():
    rng = np.random.default_rng(29)
    f = random_jet(2, 3, rng)
    nan3 = f.poly(3) + HomPoly(3, 2, 2, {(1, 2, 2): [1.0, 0.0]}).scale(np.nan)
    g = f.with_poly(3, nan3)
    # the NaN sits in degree 3, after a finite degree 2
    assert np.isnan(g.max_coeff())
    assert not g.allclose(f) and not f.allclose(g) and not g.allclose(g)
    assert not g.with_poly(2, HomPoly.zero(2, 2, 2)).is_identity(atol=np.inf)


def _random_jet_per_entry(dim, order, rng, scale=0.3):
    """The per-entry draw loop ``random_jet`` replaced, kept as reference:
    for each sorted multi-index, dim real parts, then dim imaginary parts."""
    polys = {}
    for k in range(2, order + 1):
        coeffs = {}
        for exps in polyops.exponents_of_degree(dim, k):
            coeffs[exponents_to_multi_index(exps)] = scale * (
                rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            )
        polys[k] = coeffs
    return polys


@pytest.mark.parametrize("dim,order", [(1, 7), (2, 3), (3, 5), (4, 4)])
def test_random_jet_is_bitwise_the_per_entry_draw(dim, order):
    want = _random_jet_per_entry(dim, order, np.random.default_rng(dim + order))
    rng = np.random.default_rng(dim + order)
    got = random_jet(dim, order, rng)
    assert sorted(got.polys) == sorted(want)
    for k, coeffs in want.items():
        assert list(got.poly(k).coeffs) == list(coeffs)
        for idx, vec in coeffs.items():
            assert np.array_equal(got.poly(k).coeffs[idx], vec)
    # the stream is left where the per-entry loop leaves it
    ref = np.random.default_rng(dim + order)
    _random_jet_per_entry(dim, order, ref)
    assert rng.standard_normal() == ref.standard_normal()
