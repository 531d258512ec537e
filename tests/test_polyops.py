"""Sparse monomial arithmetic checks against direct evaluation."""

import numpy as np

from fsjet import polyops


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
        lhs = polyops.peval(c, x)
        rhs = polyops.peval(a, x) * polyops.peval(b, x)
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
    gx = np.array([polyops.peval(c, x) for c in g])
    for fc, cc in zip(f, comp):
        assert abs(polyops.peval(cc, x) - polyops.peval(fc, gx)) < 1e-12


def test_exponents_of_degree_count():
    # stars and bars: C(degree + nvars - 1, nvars - 1)
    exps = list(polyops.exponents_of_degree(3, 4))
    assert len(exps) == 15
    assert all(sum(e) == 4 for e in exps)
    assert len(set(exps)) == len(exps)


def test_multiset_permutations_distinct():
    perms = list(polyops.multiset_permutations((1, 1, 2)))
    assert sorted(perms) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
