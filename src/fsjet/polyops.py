"""Sparse monomial arithmetic for polynomial maps of C^n.

A scalar polynomial is a dict mapping an exponent tuple (length = number of
variables) to a complex coefficient.  A polynomial map is a list of such
dicts, one per output component.  Everything here truncates at a total
degree, which is what makes jet composition well defined.
"""

from __future__ import annotations

import itertools

Exponent = tuple[int, ...]
ScalarPoly = dict[Exponent, complex]

_DROP = 0.0  # exact zeros only; callers clean up with their own tolerance


def zero_exponent(nvars: int) -> Exponent:
    return (0,) * nvars


def variable(i: int, nvars: int) -> ScalarPoly:
    """The monomial x_i (0-based)."""
    exps = [0] * nvars
    exps[i] = 1
    return {tuple(exps): 1.0 + 0.0j}


def identity_map(nvars: int) -> list[ScalarPoly]:
    return [variable(i, nvars) for i in range(nvars)]


def total_degree(exps: Exponent) -> int:
    return sum(exps)


def padd(a: ScalarPoly, b: ScalarPoly) -> ScalarPoly:
    out = dict(a)
    for exps, c in b.items():
        v = out.get(exps, 0.0) + c
        if v == _DROP:
            out.pop(exps, None)
        else:
            out[exps] = v
    return out


def pmul(a: ScalarPoly, b: ScalarPoly, max_deg: int) -> ScalarPoly:
    out: ScalarPoly = {}
    for ea, ca in a.items():
        da = total_degree(ea)
        for eb, cb in b.items():
            if da + total_degree(eb) > max_deg:
                continue
            exps = tuple(x + y for x, y in zip(ea, eb))
            out[exps] = out.get(exps, 0.0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def truncate(a: ScalarPoly, max_deg: int) -> ScalarPoly:
    return {e: c for e, c in a.items() if total_degree(e) <= max_deg}


def degree_part(a: ScalarPoly, k: int) -> ScalarPoly:
    return {e: c for e, c in a.items() if total_degree(e) == k}


def peval(a: ScalarPoly, x) -> complex:
    val = 0.0 + 0.0j
    for exps, c in a.items():
        term = c
        for xi, p in zip(x, exps):
            if p:
                term *= xi**p
        val += term
    return val


def substitute(
    f: list[ScalarPoly], g: list[ScalarPoly], max_deg: int
) -> list[ScalarPoly]:
    """Components of f(g(x)), truncated at total degree ``max_deg``.

    ``f`` is a polynomial map in as many variables as ``g`` has components;
    ``g`` is a polynomial map in the final variables x.
    """
    nargs = len(g)
    # cache powers of each g component up to the largest exponent used
    max_pow = [0] * nargs
    for comp in f:
        for exps in comp:
            for i, p in enumerate(exps):
                max_pow[i] = max(max_pow[i], p)
    powers: list[list[ScalarPoly]] = []
    for i in range(nargs):
        row = [{zero_exponent(_nvars(g)): 1.0 + 0.0j}]
        for k in range(1, max_pow[i] + 1):
            row.append(pmul(row[-1], g[i], max_deg))
        powers.append(row)

    out: list[ScalarPoly] = []
    for comp in f:
        acc: ScalarPoly = {}
        for exps, c in comp.items():
            term = {zero_exponent(_nvars(g)): c}
            for i, p in enumerate(exps):
                if p:
                    term = pmul(term, powers[i][p], max_deg)
            acc = padd(acc, term)
        out.append(truncate(acc, max_deg))
    return out


def _nvars(g: list[ScalarPoly]) -> int:
    for comp in g:
        for exps in comp:
            return len(exps)
    raise ValueError("cannot infer variable count from an all-empty map")


def exponents_of_degree(nvars: int, degree: int):
    """All exponent tuples with the given total degree, lexicographic."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in exponents_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def multiset_permutations(items: Exponent):
    """Distinct permutations of a sorted tuple."""
    seen = set()
    for p in itertools.permutations(items):
        if p not in seen:
            seen.add(p)
            yield p
