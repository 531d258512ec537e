"""Checks of the monomial substitution kernel of ``fsjet.jets`` (the
private ``_pmul``, ``_power_table`` and ``_combine`` that ``compose``,
``invert`` and ``iterate`` run on) against direct evaluation."""

import numpy as np
import pytest

from fsjet.jets import _combine, _monomials, _pmul, _power_table, random_jet
from fsjet.sampling import sample_sphere
from fsjet.tensors import layout


def _peval(a, x):
    """Value of a scalar polynomial at the point x, term by term."""
    return sum(c * np.prod([xi**p for xi, p in zip(x, exps)]) for exps, c in a.items())


def _random_poly(rng, nvars, max_deg, terms=6):
    out = {}
    for _ in range(terms):
        exps = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(nvars))
        if sum(exps) > max_deg:
            continue
        out[exps] = complex(rng.standard_normal(), rng.standard_normal())
    return out


def test_pmul_matches_pointwise_product():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = _random_poly(rng, 2, 3)
        b = _random_poly(rng, 2, 3)
        c = _pmul(a, b, max_deg=6)
        x = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        lhs = _peval(c, x)
        rhs = _peval(a, x) * _peval(b, x)
        assert abs(lhs - rhs) < 1e-12


def test_pmul_truncates_by_total_degree():
    a = {(2, 0): 1.0 + 0j}
    b = {(1, 1): 1.0 + 0j}
    assert _pmul(a, b, max_deg=3) == {}
    assert (3, 1) in _pmul(a, b, max_deg=4)


def _substitute(f, g, max_deg):
    """f(g(x)) truncated at ``max_deg``, through a table of f's exponents."""
    return _combine(f, _power_table(g, {e for comp in f for e in comp}, max_deg))


def test_substitute_matches_pointwise():
    rng = np.random.default_rng(3)
    # an outer map without constant terms, as every jet's
    f = [{e: c for e, c in _random_poly(rng, 2, 2).items() if any(e)} for _ in range(2)]
    # linear g so no truncation error in the comparison; its g_i^p start
    # at degree p, as a jet's do
    g = [
        {(1, 0): 0.4 + 0.1j, (0, 1): -0.2 + 0j},
        {(1, 0): 0.1j, (0, 1): 0.5 + 0j},
    ]
    comp = _substitute(f, g, max_deg=4)
    x = np.array([0.3 + 0.1j, -0.2 + 0.2j])
    gx = np.array([_peval(c, x) for c in g])
    for fc, cc in zip(f, comp):
        assert abs(_peval(cc, x) - _peval(fc, gx)) < 1e-12


def _gapped_poly(rng, nvars, degrees, terms=5):
    """Random terms at the given total degrees only, with gaps between the
    degree groups."""
    out = {}
    for d in degrees:
        for _ in range(terms):
            cuts = np.sort(rng.integers(0, d + 1, size=nvars - 1))
            exps = tuple(int(x) for x in np.diff(np.concatenate([[0], cuts, [d]])))
            out[exps] = complex(rng.standard_normal(), rng.standard_normal())
    return out


def _taylor_along(F, e, nodes=16):
    """Coefficients of z^0 .. z^(nodes-1) of the polynomial z -> F(z e), of
    degree below ``nodes``, by an FFT over the roots of unity."""
    zs = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    return np.fft.fft(np.array([F(z * e) for z in zs]), axis=0) / nodes


def _degree_part_at(a, k, e):
    """The degree-k part of the scalar polynomial a, at the point e."""
    return _peval({x: c for x, c in a.items() if sum(x) == k}, e)


@pytest.mark.parametrize("max_deg", [0, 1, 2, 5, 9])
def test_pmul_of_gapped_factors_matches_cauchy_oracle(max_deg):
    # b's degree groups have gaps, so the prefix of b that fits under
    # max_deg with a term of a can end between two groups; a * b has
    # degree at most 10, so the FFT reads each of its degree parts exactly
    rng = np.random.default_rng(40 + max_deg)
    for nvars in (1, 2, 3):
        a = _gapped_poly(rng, nvars, [0, 1, 4])
        b = _gapped_poly(rng, nvars, [1, 3, 6])
        constant = {(0,) * nvars: 0.5 - 0.25j}
        e = sample_sphere(rng, 1, nvars)[0]
        for x, y in ((a, b), (b, a), (a, constant), (constant, b), (a, {}), ({}, b), ({}, {})):
            got = _pmul(x, y, max_deg)
            assert all(sum(t) <= max_deg for t in got)
            coef = _taylor_along(lambda p: _peval(x, p) * _peval(y, p), e)
            scale = 1.0 + np.abs(coef).max()
            for k in range(max_deg + 1):
                assert abs(_degree_part_at(got, k, e) - coef[k]) <= 1e-12 * scale


@pytest.mark.parametrize("n,K", [(2, 7), (3, 6), (4, 5)])
def test_substitute_of_compose_inputs_matches_cauchy_oracle(n, K):
    # the components of two jets at the sizes of the perfbench jet-algebra
    # workload, against the jets' own pointwise evaluation; f(g(x)) has
    # degree K^2 < 64, read on |z| = 0.5 as in the jet-level oracle
    rng = np.random.default_rng(80 + 10 * n + K)
    f, g = random_jet(n, K, rng), random_jet(n, K, rng)
    comp = _substitute(_monomials(f), _monomials(g), K)
    assert len(comp) == n
    assert all(sum(x) <= K for c in comp for x in c)
    for e in sample_sphere(rng, 2, n):
        coef = _taylor_along(lambda p: f.eval_many(g.eval_many(p[None]))[0], 0.5 * e, 64)
        coef /= 0.5 ** np.arange(64)[:, None]
        tol = 1e-10 * (1.0 + np.abs(coef[: K + 1]).max())
        for k in range(K + 1):
            got = [_degree_part_at(cc, k, e) for cc in comp]
            assert np.abs(np.array(got) - coef[k]).max() <= tol, k


def test_a_shared_power_table_combines_like_substitute():
    # invert and iterate read one table for several outer maps, built over
    # more exponents than any one of them uses; each entry depends on its
    # exponent alone, so every outer map combines bitwise as with a table
    # of its own exponents
    rng = np.random.default_rng(90)
    g = _monomials(random_jet(3, 4, rng))
    outers = [_monomials(random_jet(3, 4, rng)), [_gapped_poly(rng, 3, [1, 3])] * 3]
    every = [e for k in range(1, 5) for e in layout(3, k).exponents]
    table = _power_table(g, every, 4)
    assert table.keys() == set(every)
    for f in outers:
        assert _combine(f, table) == _substitute(f, g, 4)
