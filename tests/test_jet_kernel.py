"""Checks of the substitution kernel of ``fsjet.jets`` (the private
``_graded`` pair table and the ``_pmul``, ``_power_table`` and
``_combine`` that ``compose``, ``invert`` and ``iterate`` run on) against
brute-force exponent addition and direct evaluation.

The kernel keys monomials by their rank in ``_graded(n, K)``; the checks
write their polynomials as dicts from exponent tuple to coefficient and
translate at the kernel's boundary.  Each check also runs the kernel on a
stack, whose coefficients are (T,) columns, and checks every row of it
against the same oracle."""

import itertools
import math
import time

import numpy as np
import pytest

from fsjet import jets
from fsjet.jets import _combine, _graded, _pmul, _power_table, _terms, random_jet
from fsjet.sampling import sample_sphere
from fsjet.tensors import LAYOUT_BUDGET, layout


def _ranked(a, graded):
    """The exponent-keyed polynomial a keyed by rank in ``graded``."""
    rank = {e: r for r, e in enumerate(graded.exponents)}
    return {rank[e]: c for e, c in a.items()}


def _exponents(a, graded):
    """The rank-keyed polynomial a keyed by exponent."""
    return {graded.exponents[r]: c for r, c in a.items()}


def _columns(rows, graded):
    """T exponent-keyed polynomials as one rank-keyed stack: each
    coefficient is the (T,) column of the rows' coefficients, 0 where a
    row has no term."""
    ranked = [_ranked(a, graded) for a in rows]
    ranks = sorted(set().union(*ranked))
    return {r: np.array([a.get(r, 0) for a in ranked], dtype=complex) for r in ranks}


def _row(stack, t):
    """Row t of a rank-keyed stack, without its zero terms."""
    return {r: c[t] for r, c in stack.items() if c[t] != 0}


@pytest.mark.parametrize("n,K", [(1, 6), (2, 7), (3, 6), (4, 5)])
def test_pair_rows_match_brute_force_exponent_addition(n, K):
    graded = _graded(n, K)
    exps = graded.exponents
    assert sorted(exps) == sorted(
        e for e in itertools.product(range(K + 1), repeat=n) if sum(e) <= K
    )
    # degree-major, in the rank order of each degree's layout
    offsets = graded.offsets
    assert len(offsets) == K + 2 and offsets[0] == 0 and offsets[-1] == len(exps)
    assert exps[offsets[0] : offsets[1]] == ((0,) * n,)
    for k in range(1, K + 1):
        assert exps[offsets[k] : offsets[k + 1]] == layout(n, k).exponents
    assert graded.degree == tuple(sum(e) for e in exps)
    for ea, row in zip(exps, graded.pairs):
        # the row covers exactly the b with deg a + deg b <= K, a prefix
        assert len(row) == sum(sum(ea) + sum(eb) <= K for eb in exps)
        assert all(sum(ea) + sum(eb) > K for eb in exps[len(row) :])
        assert [exps[r] for r in row] == [
            tuple(x + y for x, y in zip(ea, eb)) for eb in exps[: len(row)]
        ]
    assert sum(map(len, graded.pairs)) == math.comb(2 * n + K, K)


def test_pair_table_counts_against_the_size_budget(monkeypatch):
    # C(2n + K, K) pairs, counted before anything is built: at n = 1 the
    # budget admits K = 722 (261,726 pairs) and not K = 723 (262,450)
    assert math.comb(2 + 722, 722) <= LAYOUT_BUDGET < math.comb(2 + 723, 723)
    for n, K in [(1, 723), (1, 3000), (4, 40), (1000, 3)]:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="size budget"):
            _graded(n, K)
        assert time.perf_counter() - start < 1.0, (n, K)
    # a table of exactly the budget builds, one over it does not; the
    # uncached function, so that no table built earlier is returned
    monkeypatch.setattr(jets, "LAYOUT_BUDGET", math.comb(2 * 2 + 9, 9))
    assert sum(map(len, _graded.__wrapped__(2, 9).pairs)) == jets.LAYOUT_BUDGET
    with pytest.raises(ValueError, match="size budget"):
        _graded.__wrapped__(2, 10)


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
    graded = _graded(2, 6)
    pairs = []
    for _ in range(20):
        a = _random_poly(rng, 2, 3)
        b = _random_poly(rng, 2, 3)
        c = _exponents(_pmul(_ranked(a, graded), _ranked(b, graded), 6, graded), graded)
        x = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        lhs = _peval(c, x)
        rhs = _peval(a, x) * _peval(b, x)
        assert abs(lhs - rhs) < 1e-12
        pairs.append((a, b, x))
    # the 20 pairs as one stack of columns
    a, b = (_columns([p[i] for p in pairs], graded) for i in (0, 1))
    c = _pmul(a, b, 6, graded)
    for t, (at, bt, x) in enumerate(pairs):
        assert abs(_peval(_exponents(_row(c, t), graded), x) - _peval(at, x) * _peval(bt, x)) < 1e-12


def test_pmul_truncates_by_total_degree():
    graded = _graded(2, 4)
    a = _ranked({(2, 0): 1.0 + 0j}, graded)
    b = _ranked({(1, 1): 1.0 + 0j}, graded)
    assert _pmul(a, b, 3, graded) == {}
    assert (3, 1) in _exponents(_pmul(a, b, 4, graded), graded)


def _substitute(f, g, max_deg):
    """f(g(x)) truncated at ``max_deg``, through a table of f's ranks."""
    return _combine(f, _power_table(g, {e for comp in f for e in comp}, max_deg))


def _substitute_exponents(f, g, max_deg):
    """``_substitute`` on exponent-keyed components over C^len(g)."""
    graded = _graded(len(g), max_deg)
    f, g = ([_ranked(c, graded) for c in comps] for comps in (f, g))
    return [_exponents(c, graded) for c in _substitute(f, g, max_deg)]


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
    comp = _substitute_exponents(f, g, max_deg=4)
    x = np.array([0.3 + 0.1j, -0.2 + 0.2j])
    gx = np.array([_peval(c, x) for c in g])
    for fc, cc in zip(f, comp):
        assert abs(_peval(cc, x) - _peval(fc, gx)) < 1e-12
    # a stack of three rows: (f, g), then another outer map over g, then f
    # over another linear map, one of whose components lacks a term
    f2 = [{e: c for e, c in _random_poly(rng, 2, 2).items() if any(e)} for _ in range(2)]
    g2 = [{(1, 0): 0.25 + 0j}, {(1, 0): -0.5j, (0, 1): 0.3 + 0.1j}]
    rows = [(f, g), (f2, g), (f, g2)]
    graded = _graded(2, 4)
    F, G = ([_columns(comps, graded) for comps in zip(*side)] for side in zip(*rows))
    stacked = _substitute(F, G, 4)
    for t, (ft, gt) in enumerate(rows):
        gx = np.array([_peval(c, x) for c in gt])
        for fc, cc in zip(ft, stacked):
            assert abs(_peval(_exponents(_row(cc, t), graded), x) - _peval(fc, gx)) < 1e-12


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
    # degree at most 10, so the FFT reads each of its degree parts exactly;
    # the pair table reaches degree 10, above every max_deg
    rng = np.random.default_rng(40 + max_deg)
    for nvars in (1, 2, 3):
        graded = _graded(nvars, 10)
        a = _gapped_poly(rng, nvars, [0, 1, 4])
        b = _gapped_poly(rng, nvars, [1, 3, 6])
        constant = {(0,) * nvars: 0.5 - 0.25j}
        e = sample_sphere(rng, 1, nvars)[0]
        pairs = ((a, b), (b, a), (a, constant), (constant, b), (a, {}), ({}, b), ({}, {}))
        # each pair alone, then all of them as one stack of columns
        stacked = _pmul(*(_columns(side, graded) for side in zip(*pairs)), max_deg, graded)
        for t, (x, y) in enumerate(pairs):
            coef = _taylor_along(lambda p: _peval(x, p) * _peval(y, p), e)
            scale = 1.0 + np.abs(coef).max()
            alone = _pmul(_ranked(x, graded), _ranked(y, graded), max_deg, graded)
            for got in (alone, _row(stacked, t)):
                got = _exponents(got, graded)
                assert all(sum(exps) <= max_deg for exps in got)
                for k in range(max_deg + 1):
                    assert abs(_degree_part_at(got, k, e) - coef[k]) <= 1e-12 * scale


@pytest.mark.parametrize("n,K", [(2, 7), (3, 6), (4, 5)])
def test_substitute_of_compose_inputs_matches_cauchy_oracle(n, K):
    # the components of two jets at the sizes of the perfbench jet-algebra
    # workload, against the jets' own pointwise evaluation; f(g(x)) has
    # degree K^2 < 64, read on |z| = 0.5 as in the jet-level oracle
    rng = np.random.default_rng(80 + 10 * n + K)
    f, g = random_jet(n, K, rng), random_jet(n, K, rng)
    graded = _graded(n, K)
    # f o g alone, then f o g and g o f as the rows of one stack
    stacked = _substitute(_terms([f, g], K), _terms([g, f], K), K)
    cases = [
        (f, g, _substitute(_terms(f, K), _terms(g, K), K)),
        (f, g, [_row(c, 0) for c in stacked]),
        (g, f, [_row(c, 1) for c in stacked]),
    ]
    directions = sample_sphere(rng, 2, n)
    for outer, inner, comp in cases:
        comp = [_exponents(c, graded) for c in comp]
        assert len(comp) == n
        assert all(sum(x) <= K for c in comp for x in c)
        for e in directions:
            coef = _taylor_along(
                lambda p: outer.eval_many(inner.eval_many(p[None]))[0], 0.5 * e, 64
            )
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
    graded = _graded(3, 4)
    g = _terms(random_jet(3, 4, rng), 4)
    outers = [_terms(random_jet(3, 4, rng), 4), [_ranked(_gapped_poly(rng, 3, [1, 3]), graded)] * 3]
    every = list(range(graded.offsets[1], graded.offsets[5]))
    table = _power_table(g, every, 4)
    assert table.keys() == set(every)
    for f in outers:
        assert _combine(f, table) == _substitute(f, g, 4)
