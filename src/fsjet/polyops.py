"""Sparse monomial arithmetic for polynomial maps of C^n.

A scalar polynomial is a dict mapping an exponent tuple (length = number of
variables) to a complex coefficient.  A polynomial map is a list of such
dicts, one per output component.  Everything here truncates at a total
degree, which is what makes jet composition well defined.
"""

from __future__ import annotations

Exponent = tuple[int, ...]
ScalarPoly = dict[Exponent, complex]

_DROP = 0.0  # exact zeros only; callers clean up with their own tolerance


def zero_exponent(nvars: int) -> Exponent:
    return (0,) * nvars


def total_degree(exps: Exponent) -> int:
    return sum(exps)


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

    # g^a is built once per distinct exponent a and shared by every
    # component of f that uses it
    monomials: dict[Exponent, ScalarPoly] = {}
    out: list[ScalarPoly] = []
    for comp in f:
        acc: ScalarPoly = {}
        for exps, c in comp.items():
            if exps not in monomials:
                factors = [powers[i][p] for i, p in enumerate(exps) if p] or [powers[0][0]]
                term = factors[0]
                for fac in factors[1:]:
                    term = pmul(term, fac, max_deg)
                monomials[exps] = term
            for e, v in monomials[exps].items():
                acc[e] = acc.get(e, 0.0) + c * v
        # pmul already truncated every product at max_deg
        out.append({e: v for e, v in acc.items() if v != _DROP})
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

