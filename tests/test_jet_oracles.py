"""Checks of the jet algebra that need no second copy of its formulas.

An exact expansion of f(g(x)) in sympy's Gaussian rationals, which shares
no code with the substitution kernel, checks every coefficient of
``compose`` on small rational jets.  Hypothesis checks the group laws on
small random jets: associativity, the inverse on both sides, the inverse
of the inverse, iterate(f, -m) = invert(iterate(f, m)), and
iterate(f, a + b) = iterate(f, a) o iterate(f, b).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from sympy import QQ, QQ_I
from sympy.polys.rings import ring

from fsjet import jets
from fsjet.jets import MappingJet, compose, invert, iterate
from fsjet.tensors import HomPoly, layout

ORACLE_RTOL = 1e-12


def _exponents(n, k):
    for idx in itertools.combinations_with_replacement(range(n), k):
        yield tuple(idx.count(i) for i in range(n))


def _rational_jet(n, K, rng):
    """A jet whose monomial coefficients are Gaussian rationals p/8 + i q/8,
    as exact sympy numbers (keyed by exponent, one per component) and as
    the MappingJet built from them."""
    exact = {}
    polys = {}
    for k in range(2, K + 1):
        monos = {}
        for exps in _exponents(n, k):
            parts = rng.integers(-4, 5, size=(2, n))
            exact[exps] = [QQ_I(QQ(int(a), 8), QQ(int(b), 8)) for a, b in parts.T]
            monos[exps] = (parts[0] + 1j * parts[1]) / 8
        polys[k] = HomPoly.from_monomials(k, n, n, monos)
    return exact, MappingJet(n, K, polys)


def _exact_composition(f_exact, g_exact, n, K):
    """Monomial coefficients of f(g(x)) through total degree K, expanded
    exactly in sympy's Gaussian-rational polynomial ring: each monomial
    x^a of f becomes the product of g's components, one factor at a time,
    dropping the terms above degree K after each product."""
    R, *xs = ring([f"x{i}" for i in range(n)], QQ_I)

    def components(jet_exact):
        comps = list(xs)
        for exps, vec in jet_exact.items():
            comps = [p + c * R({exps: QQ_I.one}) for p, c in zip(comps, vec)]
        return comps

    g = components(g_exact)
    out = list(g)
    for exps, vec in f_exact.items():
        term = R.one
        for i, p in enumerate(exps):
            for _ in range(p):
                term = R({m: c for m, c in (term * g[i]).items() if sum(m) <= K})
        out = [o + c * term for o, c in zip(out, vec)]
    return out


def _assert_matches_exact(exact, fg):
    n, K = fg.dim, fg.order
    want = {}
    for i, comp in enumerate(exact):
        for m, c in comp.items():
            want.setdefault(m, np.zeros(n, complex))[i] = complex(float(c.x), float(c.y))
    # degree 1 is the identity, degree 0 absent
    for i, row in enumerate(np.eye(n)):
        assert np.array_equal(want.pop(tuple(int(j == i) for j in range(n))), row)
    assert not any(sum(m) < 2 and np.any(v) for m, v in want.items())
    scale = max(np.abs(v).max() for v in want.values())
    for k in range(2, K + 1):
        basis = layout(n, k)
        got = dict(zip(basis.exponents, fg.poly(k).entries * basis.multinomials[:, None]))
        for exps in _exponents(n, k):
            gap = np.abs(got[exps] - want.get(exps, 0)).max()
            assert gap <= ORACLE_RTOL * scale, (exps, gap)


@pytest.mark.parametrize("n,Kf,Kg", [(1, 4, 4), (2, 3, 3), (2, 4, 3), (3, 3, 3), (3, 4, 4)])
def test_compose_matches_exact_rational_expansion(n, Kf, Kg):
    rng = np.random.default_rng(50 + 10 * n + Kf + Kg)
    f_exact, f = _rational_jet(n, Kf, rng)
    g_exact, g = _rational_jet(n, Kg, rng)
    exact = _exact_composition(f_exact, g_exact, n, min(Kf, Kg))
    _assert_matches_exact(exact, compose(f, g))


@pytest.mark.parametrize("degree", [2, 3])
def test_sympy_oracle_rejects_a_moved_coefficient(monkeypatch, degree):
    real = jets._combine

    def moved(f, table):
        comps = real(f, table)
        exps = next(e for e in comps[0] if sum(e) == degree)
        comps[0][exps] += 1e-6
        return comps

    rng = np.random.default_rng(30 + degree)
    (f_exact, f), (g_exact, g) = _rational_jet(3, 3, rng), _rational_jet(3, 3, rng)
    exact = _exact_composition(f_exact, g_exact, 3, 3)
    _assert_matches_exact(exact, compose(f, g))
    monkeypatch.setattr(jets, "_combine", moved)
    with pytest.raises(AssertionError):
        _assert_matches_exact(exact, compose(f, g))


# -- group laws on small random jets ----------------------------------------

PROPERTY_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)

_entries = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)


@st.composite
def _jet(draw, n, K):
    polys = {
        k: HomPoly.from_monomials(k, n, n, dict(zip(
            layout(n, k).exponents,
            draw(arrays(complex, (len(layout(n, k).exponents), n), elements=_entries)),
        )))
        for k in range(2, K + 1)
    }
    return MappingJet(n, K, polys)


@st.composite
def _jets(draw, count):
    n = draw(st.integers(1, 3))
    return [draw(_jet(n, draw(st.integers(2, 4)))) for _ in range(count)]


def _assert_close(a, b, *operands):
    # coefficients of a composite grow like (1 + max coefficient)^K
    scale = (1.0 + max(j.max_coeff() for j in (a, b, *operands))) ** max(a.order, b.order)
    assert a.order == b.order
    assert a.allclose(b, atol=1e-11 * scale)


@PROPERTY_SETTINGS
@given(_jets(3))
def test_compose_is_associative(fgh):
    f, g, h = fgh
    _assert_close(compose(compose(f, g), h), compose(f, compose(g, h)), f, g, h)


@PROPERTY_SETTINGS
@given(_jets(1))
def test_invert_is_a_two_sided_inverse(fs):
    (f,) = fs
    g = invert(f)
    identity = MappingJet.identity(f.dim, f.order)
    _assert_close(compose(f, g), identity, f, g)
    _assert_close(compose(g, f), identity, f, g)


@PROPERTY_SETTINGS
@given(_jets(1))
def test_invert_is_an_involution(fs):
    # invert solves g o f = identity, so the inverse of g is f again
    (f,) = fs
    g = invert(f)
    _assert_close(invert(g), f, f, g)


@PROPERTY_SETTINGS
@given(_jets(1), st.integers(-3, 3))
def test_iterate_of_minus_m_inverts_iterate_of_m(fs, m):
    (f,) = fs
    fm = iterate(f, m)
    _assert_close(iterate(f, -m), invert(fm), f, fm)


@PROPERTY_SETTINGS
@given(_jets(1), st.integers(-3, 3), st.integers(-3, 3))
def test_iterate_adds_counts(fs, a, b):
    (f,) = fs
    fa, fb = iterate(f, a), iterate(f, b)
    _assert_close(iterate(f, a + b), compose(fa, fb), f, fa, fb)
