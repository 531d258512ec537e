"""Sparse monomial arithmetic checks against direct evaluation and
against the ungraded kernel it replaced."""

import numpy as np
import pytest

from fsjet import polyops
from fsjet.jets import random_jet


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
        c = polyops.pmul(a, b, max_deg=6)
        x = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        lhs = _peval(c, x)
        rhs = _peval(a, x) * _peval(b, x)
        assert abs(lhs - rhs) < 1e-12


def test_pmul_truncates_by_total_degree():
    a = {(2, 0): 1.0 + 0j}
    b = {(1, 1): 1.0 + 0j}
    assert polyops.pmul(a, b, max_deg=3) == {}
    assert (3, 1) in polyops.pmul(a, b, max_deg=4)


def test_substitute_matches_pointwise():
    rng = np.random.default_rng(3)
    f = [_random_poly(rng, 2, 2) for _ in range(2)]
    # linear g so no truncation error in the comparison
    g = [
        {(1, 0): 0.4 + 0.1j, (0, 1): -0.2 + 0j},
        {(1, 0): 0.1j, (0, 1): 0.5 + 0j},
    ]
    comp = polyops.substitute(f, g, max_deg=4)
    x = np.array([0.3 + 0.1j, -0.2 + 0.2j])
    gx = np.array([_peval(c, x) for c in g])
    for fc, cc in zip(f, comp):
        assert abs(_peval(cc, x) - _peval(fc, gx)) < 1e-12


def test_exponents_of_degree_count():
    # stars and bars: C(degree + nvars - 1, nvars - 1)
    exps = list(polyops.exponents_of_degree(3, 4))
    assert len(exps) == 15
    assert all(sum(e) == 4 for e in exps)
    assert len(set(exps)) == len(exps)


# -- the ungraded kernel, kept as a reference --------------------------------


def _pmul_reference(a, b, max_deg):
    """Tries every pair of terms and drops those above ``max_deg``."""
    out = {}
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) > max_deg:
                continue
            exps = tuple(x + y for x, y in zip(ea, eb))
            out[exps] = out.get(exps, 0.0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _substitute_reference(f, g, max_deg):
    """Truncates every partial product at ``max_deg`` itself."""
    nvars = len(next(e for comp in g for e in comp))
    powers = []
    for i in range(len(g)):
        row = [{(0,) * nvars: 1.0 + 0.0j}]
        for _ in range(max((e[i] for comp in f for e in comp), default=0)):
            row.append(_pmul_reference(row[-1], g[i], max_deg))
        powers.append(row)
    monomials = {}
    out = []
    for comp in f:
        acc = {}
        for exps, c in comp.items():
            if exps not in monomials:
                factors = [powers[i][p] for i, p in enumerate(exps) if p] or [powers[0][0]]
                term = factors[0]
                for fac in factors[1:]:
                    term = _pmul_reference(term, fac, max_deg)
                monomials[exps] = term
            for e, v in monomials[exps].items():
                acc[e] = acc.get(e, 0.0) + c * v
        out.append({e: v for e, v in acc.items() if v != 0})
    return out


def _assert_matches(got, want):
    assert got.keys() == want.keys()
    scale = max(map(abs, want.values()), default=0.0)
    assert all(abs(got[e] - c) <= 1e-15 * scale for e, c in want.items())


def _gapped_poly(rng, nvars, degrees, terms=5):
    """Random terms at the given total degrees only, so b's degree groups
    have gaps between them."""
    out = {}
    for d in degrees:
        for _ in range(terms):
            cuts = np.sort(rng.integers(0, d + 1, size=nvars - 1))
            exps = tuple(int(x) for x in np.diff(np.concatenate([[0], cuts, [d]])))
            out[exps] = complex(rng.standard_normal(), rng.standard_normal())
    return out


@pytest.mark.parametrize("max_deg", [0, 1, 2, 5, 9])
def test_pmul_matches_ungraded_reference(max_deg):
    rng = np.random.default_rng(40 + max_deg)
    for nvars in (1, 2, 3):
        a = _gapped_poly(rng, nvars, [0, 1, 4])
        b = _gapped_poly(rng, nvars, [1, 3, 6])
        constant = {(0,) * nvars: 0.5 - 0.25j}
        for x, y in ((a, b), (b, a), (a, constant), (constant, b), (a, {}), ({}, b), ({}, {})):
            _assert_matches(polyops.pmul(x, y, max_deg), _pmul_reference(x, y, max_deg))


@pytest.mark.parametrize("max_deg", [0, 1, 3, 4])
def test_substitute_with_constant_terms_matches_reference(max_deg):
    # g's components have constant terms, so a factor still to come can
    # add degree 0: a partial product must keep the terms up to max_deg
    rng = np.random.default_rng(60 + max_deg)
    f = [_gapped_poly(rng, 3, [0, 2, 4]), _gapped_poly(rng, 3, [1, 3]), {}]
    g = [_gapped_poly(rng, 3, [0, 1, 2]), _gapped_poly(rng, 3, [0, 2]), {(0, 0, 0): 0.3 + 0j}]
    got, want = polyops.substitute(f, g, max_deg), _substitute_reference(f, g, max_deg)
    assert len(got) == len(want) == 3
    for got_comp, want_comp in zip(got, want):
        _assert_matches(got_comp, want_comp)


@pytest.mark.parametrize("n,K", [(2, 7), (3, 6), (4, 5)])
def test_substitute_of_compose_inputs_matches_reference(n, K):
    rng = np.random.default_rng(80 + 10 * n + K)
    f, g = random_jet(n, K, rng).components(), random_jet(n, K, rng).components()
    for got, want in zip(polyops.substitute(f, g, K), _substitute_reference(f, g, K)):
        _assert_matches(got, want)


def test_a_shared_power_table_combines_like_substitute():
    # invert and iterate read one table for several outer maps, built over
    # more exponents than any one of them uses; each entry depends on its
    # exponent alone, so every outer map combines bitwise as substitute
    rng = np.random.default_rng(90)
    g = random_jet(3, 4, rng).components()
    outers = [random_jet(3, 4, rng).components(), [_gapped_poly(rng, 3, [1, 3])] * 3]
    every = [e for k in range(5) for e in polyops.exponents_of_degree(3, k)]
    table = polyops.power_table(g, every, 4)
    assert table.keys() == set(every)
    for f in outers:
        assert polyops.combine(f, table) == polyops.substitute(f, g, 4)
