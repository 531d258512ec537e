"""Sparse monomial arithmetic for polynomial maps of C^n.

A scalar polynomial is a dict mapping an exponent tuple (length = number of
variables) to a complex coefficient.  A polynomial map is a list of such
dicts, one per output component.  Everything here truncates at a total
degree, which is what makes jet composition well defined.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from operator import add

from .tensors import Exponent

ScalarPoly = dict[Exponent, complex]


def pmul(a: ScalarPoly, b: ScalarPoly, max_deg: int) -> ScalarPoly:
    """a * b truncated at total degree ``max_deg``.

    b's terms are sorted by total degree once, keeping their order within
    a degree, so each term of a multiplies only the prefix of b that fits
    under ``max_deg`` with it: no pair is formed only to be dropped.
    """
    terms = sorted(b.items(), key=lambda t: sum(t[0]))
    degrees = [sum(e) for e, _ in terms]
    out: ScalarPoly = {}
    for ea, ca in a.items():
        for eb, cb in islice(terms, bisect_right(degrees, max_deg - sum(ea))):
            exps = tuple(map(add, ea, eb))
            out[exps] = out.get(exps, 0.0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def substitute(
    f: list[ScalarPoly], g: list[ScalarPoly], max_deg: int
) -> list[ScalarPoly]:
    """Components of f(g(x)), truncated at total degree ``max_deg``.

    ``f`` is a polynomial map in as many variables as ``g`` has components;
    ``g`` is a polynomial map in the final variables x.  The powers of g
    that f's monomials use are built once (``power_table``) and summed
    with f's coefficients (``combine``).
    """
    return combine(f, power_table(g, {e for comp in f for e in comp}, max_deg))


def power_table(
    g: list[ScalarPoly], exponents, max_deg: int
) -> dict[Exponent, ScalarPoly]:
    """g^a = prod_i g_i^(a_i), truncated at total degree ``max_deg``, for
    each exponent a in ``exponents``.

    Each monomial multiplies its power factors g_i^p in turn, each partial
    product truncated at ``max_deg`` minus the lowest total degree of the
    factors still to come (p per g_i^p of a jet, whose components start at
    degree 1), so no partial product keeps a term that cannot survive.
    The table depends only on g, so every map composed with the same inner
    map g can share it.
    """
    exponents = list(exponents)
    # cache powers of each g component up to the largest exponent used,
    # each with its lowest total degree
    powers: list[list[tuple[ScalarPoly, int]]] = []
    for i in range(len(g)):
        row = [({(0,) * _nvars(g): 1.0 + 0.0j}, 0)]
        for _ in range(max((e[i] for e in exponents), default=0)):
            power = pmul(row[-1][0], g[i], max_deg)
            row.append((power, min(map(sum, power), default=0)))
        powers.append(row)

    table: dict[Exponent, ScalarPoly] = {}
    for exps in exponents:
        factors = [powers[i][p] for i, p in enumerate(exps) if p] or [powers[0][0]]
        term, _ = factors[0]
        later = sum(low for _, low in factors[1:])
        for fac, low in factors[1:]:
            later -= low
            term = pmul(term, fac, max_deg - later)
        table[exps] = term
    return table


def combine(
    f: list[ScalarPoly], table: dict[Exponent, ScalarPoly]
) -> list[ScalarPoly]:
    """Components of sum_a f_a g^a: each monomial of f scales the power of g
    that ``table`` holds for its exponent.  Every exponent of f must be in
    ``table``."""
    out: list[ScalarPoly] = []
    for comp in f:
        acc: ScalarPoly = {}
        for exps, c in comp.items():
            for e, v in table[exps].items():
                acc[e] = acc.get(e, 0.0) + c * v
        # exact zeros only; callers clean up with their own tolerance
        out.append({e: v for e, v in acc.items() if v != 0})
    return out


def _nvars(g: list[ScalarPoly]) -> int:
    for comp in g:
        for exps in comp:
            return len(exps)
    raise ValueError("cannot infer variable count from an all-empty map")
