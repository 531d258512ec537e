"""Jet algebra: composition, inversion, iteration, conjugation.

The composition oracle extracts homogeneous parts of the pointwise
composition by averaging over roots of unity, which is exact for
polynomial maps and fully independent of the substitution code.
"""

import itertools
import math

import numpy as np
import pytest

from fsjet import jets
from fsjet.gallery import example_gallery
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
from fsjet.tensors import HomPoly, layout
from fsjet.transforms import koebe_onedim


def _homogeneous_part_pointwise(f, g, e, degree, nodes=32, radius=0.3):
    """Degree-k Taylor coefficient of z -> f(g(z e)) via roots of unity."""
    zs = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    vals = np.array([f.eval(g.eval(z * e)) for z in zs])
    weights = np.exp(-2j * np.pi * degree * np.arange(nodes) / nodes)
    return (weights[:, None] * vals).sum(axis=0) / (nodes * radius**degree)


def test_identity_jet():
    f = MappingJet.identity(3, 4)
    assert f.max_coeff() <= 1e-10
    x = np.array([0.1, 0.2j, -0.1])
    assert np.allclose(f.eval(x), x)


def test_rejects_out_of_range_degrees():
    P = HomPoly.from_monomials(2, 2, 2, {(2, 0): [1.0, 0.0]})
    with pytest.raises(ValueError):
        MappingJet(2, 1, {2: P})
    with pytest.raises(ValueError):
        MappingJet(3, 3, {2: P})  # dimension mismatch


def test_eval_warns_outside_ball():
    f = koebe_onedim().to_mapping_jet()
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
        assert compose(f, g).max_coeff() <= 1e-11
        assert compose(g, f).max_coeff() <= 1e-11


def test_invert_koebe_coefficients():
    # inverse of z + 2z^2 + 3z^3 is z - 2z^2 + 5z^3 + O(z^4)
    g = invert(koebe_onedim().to_mapping_jet())
    one = np.array([1.0 + 0j])
    assert abs(g.poly(2).eval(one)[0] - (-2.0)) < 1e-13
    assert abs(g.poly(3).eval(one)[0] - 5.0) < 1e-13


def test_iterate_consistency():
    rng = np.random.default_rng(24)
    f = random_jet(2, 3, rng)
    assert iterate(f, 0).max_coeff() <= 1e-10
    assert iterate(f, 1).allclose(f, atol=0.0)
    assert iterate(f, 2).allclose(compose(f, f), atol=1e-13)
    assert iterate(f, -1).allclose(invert(f), atol=0.0)
    # m and -m cancel at jet level
    both = compose(iterate(f, 3), iterate(f, -3))
    assert both.max_coeff() <= 1e-10


def _projective_jet(a, order):
    """The jet of x -> x / (1 - l(x)) with l(x) = sum_j a_j x_j: its
    degree-k part is x l(x)^(k-1), and its m-th iterate is the same map at
    m a, for every integer m."""
    n = len(a)
    polys = {}
    for k in range(2, order + 1):
        monos = {}
        # l(x)^(k-1) term by term, then times x_i in component i
        for js in itertools.combinations_with_replacement(range(n), k - 1):
            beta = [js.count(j) for j in range(n)]
            c = math.factorial(k - 1) * np.prod(
                [a[j] ** b / math.factorial(b) for j, b in enumerate(beta)]
            )
            for i in range(n):
                alpha = tuple(b + (j == i) for j, b in enumerate(beta))
                monos.setdefault(alpha, np.zeros(n, complex))[i] += c
        polys[k] = HomPoly.from_monomials(k, n, n, monos)
    return MappingJet(n, order, polys)


# every m in -5..9 where a composition takes milliseconds; -3..3 at
# (3,6) and (4,5), the larger sizes of the perfbench jet-algebra workload
@pytest.mark.parametrize("n,K,counts", [
    (2, 3, range(-5, 10)),
    (3, 3, range(-5, 10)),
    (2, 7, range(-5, 10)),
    (3, 6, range(-3, 4)),
    (4, 5, range(-3, 4)),
], ids=["2-3", "3-3", "2-7", "3-6", "4-5"])
def test_invert_and_iterate_of_a_projective_map_have_closed_forms(n, K, counts):
    # x / (1 - l(x)) iterated m times is x / (1 - m l(x)), whose degree-k
    # part is m^(k-1) times f's: an exact oracle for every count, negative
    # and large ones included, that no composition computes (m = -1 is
    # invert's output)
    rng = np.random.default_rng(40 + 10 * n + K)
    f = _projective_jet(0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)), K)
    for m in counts:
        got = iterate(f, m)
        want = {k: float(m) ** (k - 1) * f.poly(k).entries for k in range(2, K + 1)}
        scale = max(np.abs(w).max() for w in want.values())
        for k, w in want.items():
            assert np.abs(got.poly(k).entries - w).max() <= 1e-12 * scale, (m, k)


def _count_tables(monkeypatch):
    """The truncation order of every power table built from now on."""
    orders = []
    real = jets._power_table

    def counting(g, exponents, max_deg):
        orders.append(max_deg)
        return real(g, exponents, max_deg)

    monkeypatch.setattr(jets, "_power_table", counting)
    return orders


@pytest.mark.parametrize("n,K", [(1, 1), (2, 2), (2, 5), (3, 4)])
def test_invert_builds_one_power_table(monkeypatch, n, K):
    f = random_jet(n, K, np.random.default_rng(n + K))
    orders = _count_tables(monkeypatch)
    g = invert(f)
    assert orders == ([K] if K >= 2 else [])
    assert g.order == K


def test_iterate_builds_one_power_table_per_squaring(monkeypatch):
    f = random_jet(2, 4, np.random.default_rng(41))
    orders = _count_tables(monkeypatch)
    for m in range(-20, 21):
        orders.clear()
        iterate(f, m)
        # a negative count inverts first, with one table of its own
        inverse = int(m < 0)
        assert len(orders) == max(0, abs(m).bit_length() - 1) + inverse, m
        assert all(order == 4 for order in orders)
        if abs(m) in (2, 3):
            assert len(orders) == 1 + inverse
        if m > 0 and m & (m - 1) == 0:
            assert len(orders) == m.bit_length() - 1  # squarings only


@pytest.mark.parametrize("name", ["one-monomial", "example_5_6"])
def test_iterate_of_a_sparse_jet_equals_repeated_composition(name):
    # f's power table holds every exponent of degrees 1..K, so the sparse
    # f's composites find each power they use in it
    if name == "one-monomial":
        # x + sum_k c x_1^(k-1) x_2: composites use exponents that f does not
        f = MappingJet(3, 5, {
            k: HomPoly.from_monomials(k, 3, 3, {(k - 1, 1, 0): [0.3, 0.2j, -0.1]})
            for k in range(2, 6)
        })
    else:
        f = example_gallery("example_5_6").jet
    for m in range(-5, 6):
        step = f if m > 0 else invert(f)
        want = MappingJet.identity(f.dim, f.order)
        for _ in range(abs(m)):
            want = compose(want, step)
        got = iterate(f, m)
        scale = max(1.0, want.max_coeff())
        for k in range(2, f.order + 1):
            assert np.abs(got.poly(k).entries - want.poly(k).entries).max() <= 1e-14 * scale, (m, k)


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
    f = koebe_onedim().to_mapping_jet()
    D = np.array([[0.5 + 0j]])
    g = linear_conjugate(f, np.linalg.inv(D), D)
    one = np.array([1.0 + 0j])
    assert abs(g.poly(2).eval(one)[0] - 2.0 * 0.5) < 1e-13
    assert abs(g.poly(3).eval(one)[0] - 3.0 * 0.25) < 1e-13


def test_components_round_trip():
    rng = np.random.default_rng(27)
    f = random_jet(3, 4, rng)
    g = jets._from_terms(jets._terms(f, f.order), f.dim, f.order)
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


@pytest.mark.parametrize(
    "n,K,radius",
    [(2, 7, 0.5), (3, 6, 0.5), (4, 5, 0.5), (4, 7, 0.3)],
    ids=["2-7", "3-6", "4-5", "4-7"],
)
def test_compose_invert_iterate_against_cauchy_oracle(n, K, radius):
    # pointwise evaluation of the jets only; shares no code with the
    # substitution kernel of compose.  At (4, 7) the composites reach
    # about 1e5 (f o f^-1) and 1e7 (f o f o f) on |z| = 0.5, so the FFT's
    # rounding, divided by 0.5^k, is the size of the tolerance there; on
    # |z| = 0.3 they stay below 1.
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
            coef = _taylor_along(pointwise, e, top, radius)
            want = np.array([e] + [jet.poly(k).eval(e) for k in range(2, K + 1)])
            tol = 1e-10 * (1.0 + np.abs(want).max())
            assert np.abs(coef[1 : K + 1] - want).max() <= tol
            assert np.abs(coef[0]).max() <= tol


def test_iterate_of_a_sparse_jet_against_cauchy_oracle():
    # two monomials per degree: f o f uses exponents that f does not, so
    # the compositions with f grow f's table by those entries (m = 3, 5, 6)
    n, K = 3, 5
    polys = {k: HomPoly.from_monomials(k, n, n, {
        (k, 0, 0): [0.3, 0, 0.1],
        (0, k - 1, 1): [0, 0.2j, 0],
    }) for k in range(2, K + 1)}
    f = MappingJet(n, K, polys)

    def pointwise(m):
        def f_m(xs):
            for _ in range(m):
                xs = f.eval_many(xs)
            return xs
        return f_m

    directions = sample_sphere(np.random.default_rng(43), 2, n)
    for m in range(1, 7):
        fm = iterate(f, m)
        for e in directions:
            # only degrees 0..K are read; the rescaled coefficients of the
            # higher degrees leave the float range
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                coef = _taylor_along(pointwise(m), e, K**m, 0.5)
            want = np.array([e] + [fm.poly(k).eval(e) for k in range(2, K + 1)])
            tol = 1e-10 * (1.0 + np.abs(want).max())
            assert np.abs(coef[1 : K + 1] - want).max() <= tol, m
            assert np.abs(coef[0]).max() <= tol, m


def test_nan_entry_is_not_dropped_at_jet_level():
    rng = np.random.default_rng(29)
    f = random_jet(2, 3, rng)
    nan3 = f.poly(3) + HomPoly(3, 2, 2, {(1, 2, 2): [1.0, 0.0]}).scale(np.nan)
    g = MappingJet(2, 3, {**f.polys, 3: nan3})
    # the NaN sits in degree 3, after a finite degree 2
    assert np.isnan(g.max_coeff())
    assert not g.allclose(f) and not f.allclose(g) and not g.allclose(g)
    assert not MappingJet(2, 3, {**g.polys, 2: HomPoly.zero(2, 2, 2)}).max_coeff() <= np.inf


def _random_jet_per_entry(dim, order, rng, scale=0.3):
    """The per-entry draw loop ``random_jet`` replaced, kept as reference:
    for each sorted multi-index, dim real parts, then dim imaginary parts."""
    polys = {}
    for k in range(2, order + 1):
        coeffs = {}
        for idx in layout(dim, k).indices:
            coeffs[idx] = scale * (
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
