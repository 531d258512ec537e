"""Truncated jets of normalized holomorphic self-maps of C^n.

A jet is f(x) = x + sum_{k=2}^K P_k(x) with each P_k a symmetric-tensor
homogeneous polynomial.  Composition, inversion, integer iteration and
unitary conjugation all happen at the jet level with truncation at K.
"""

from __future__ import annotations

import operator
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
from itertools import islice
from operator import add
from typing import Mapping

import numpy as np

from .tensors import (
    DEFAULT_ATOL,
    Exponent,
    HomPoly,
    _check_vector,
    layout,
)

# A jet component in monomial form: exponent tuple -> complex coefficient.
# The substitution kernel of compose, invert and iterate works in this form.
Monomials = dict[Exponent, complex]

UNITARY_TOL = 1e-12


@dataclass(frozen=True)
class MappingJet:
    dim: int
    order: int
    polys: Mapping[int, HomPoly] = field(default_factory=dict)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        clean = {}
        for k, P in self.polys.items():
            if not 2 <= k <= self.order:
                raise ValueError(f"stored degree {k} outside 2..{self.order}")
            if P.degree != k:
                raise ValueError(f"poly at degree {k} has degree {P.degree}")
            if P.domain_dim != self.dim or P.codomain_dim != self.dim:
                raise ValueError(f"poly at degree {k} has wrong dimensions")
            if P.entries.any():
                clean[k] = P
        object.__setattr__(self, "polys", clean)

    @classmethod
    def identity(cls, dim: int, order: int = 3) -> "MappingJet":
        return cls(dim, order, {})

    def poly(self, k: int) -> HomPoly:
        """Degree-k part; the zero polynomial if absent."""
        if k in self.polys:
            return self.polys[k]
        return HomPoly.zero(k, self.dim, self.dim)

    def with_poly(self, k: int, P: HomPoly) -> "MappingJet":
        polys = dict(self.polys)
        polys[k] = P
        return MappingJet(self.dim, self.order, polys)

    def is_identity(self, atol: float = DEFAULT_ATOL) -> bool:
        return all(P.is_zero(atol) for P in self.polys.values())

    def max_coeff(self) -> float:
        """Largest entry modulus of any degree; NaN if any entry is NaN."""
        if not self.polys:
            return 0.0
        return float(np.abs(np.concatenate([P.entries for P in self.polys.values()])).max())

    def allclose(self, other: "MappingJet", atol: float = DEFAULT_ATOL) -> bool:
        if self.dim != other.dim:
            return False
        for k in set(self.polys) | set(other.polys):
            if not self.poly(k).allclose(other.poly(k), atol=atol):
                return False
        return True

    # -- evaluation -------------------------------------------------------

    def eval(self, x) -> np.ndarray:
        x = _check_vector(x, self.dim)
        if np.linalg.norm(x) >= 1:
            warnings.warn("evaluating a jet outside the unit ball", stacklevel=2)
        out = x.copy()
        for P in self.polys.values():
            out += P.eval(x)
        return out

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=complex)
        out = xs.copy()
        for P in self.polys.values():
            out += P.eval_many(xs)
        return out


# -- substitution kernel ----------------------------------------------------


def _monomials(f: MappingJet) -> list[Monomials]:
    """The components of f in monomial form, the identity's terms first."""
    n = f.dim
    exps = layout(n, 1).exponents
    blocks = [np.eye(n)]
    for k, P in f.polys.items():
        basis = layout(n, k)
        exps += basis.exponents
        blocks.append(P.entries * basis.multinomials[:, None])
    columns = np.concatenate(blocks).T.tolist()
    return [{e: c for e, c in zip(exps, col) if c} for col in columns]


def _from_monomials(comps: list[Monomials], n: int, K: int) -> MappingJet:
    """The order-K jet whose degree-2..K terms are those of ``comps``; the
    kernel computes the identity's terms too, and they are not read."""
    rows, offsets = _monomial_rows(n, K)
    dense = []
    for comp in comps:
        row = [0j] * offsets[-1]
        for e, c in comp.items():
            r = rows.get(e)
            if r is not None:
                row[r] = c
        dense.append(row)
    values = np.array(dense, dtype=complex).T
    polys = {
        k: HomPoly._trusted(
            k, n, n, values[offsets[k] : offsets[k + 1]] / layout(n, k).multinomials[:, None]
        )
        for k in range(2, K + 1)
    }
    return MappingJet(n, K, polys)


@cache
def _monomial_rows(n: int, K: int):
    """Row of each exponent of degree 2..K in one stack of the degree
    blocks (degree k in rank order of ``layout(n, k)``), and the offset of
    each block: degree k occupies rows offsets[k]:offsets[k + 1]."""
    exps = []
    offsets = [0, 0, 0]
    for k in range(2, K + 1):
        exps.extend(layout(n, k).exponents)
        offsets.append(len(exps))
    return {e: r for r, e in enumerate(exps)}, offsets


def _pmul(a: Monomials, b: Monomials, max_deg: int) -> Monomials:
    """a * b truncated at total degree ``max_deg``.

    b's terms are sorted by total degree once, keeping their order within
    a degree, so each term of a multiplies only the prefix of b that fits
    under ``max_deg`` with it: no pair is formed only to be dropped.
    """
    terms = sorted(b.items(), key=lambda t: sum(t[0]))
    degrees = [sum(e) for e, _ in terms]
    out: Monomials = {}
    for ea, ca in a.items():
        for eb, cb in islice(terms, bisect_right(degrees, max_deg - sum(ea))):
            exps = tuple(map(add, ea, eb))
            out[exps] = out.get(exps, 0.0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _power_table(g: list[Monomials], exponents, K: int) -> dict[Exponent, Monomials]:
    """g^a = prod_i g_i^(a_i), truncated at total degree K, for each nonzero
    exponent a in ``exponents``, where g is a jet in monomial form.

    Each monomial multiplies its power factors g_i^p in turn.  A jet's g_i^p
    starts at degree p, so each partial product is truncated at K minus the
    degrees of the factors still to come, and keeps no term that cannot
    survive.  The table depends only on g, so every map composed with the
    same inner map g can share it.
    """
    exponents = list(exponents)
    n = len(g)
    # the powers of each component up to the largest exponent used
    powers: list[list[Monomials]] = []
    for i in range(n):
        row = [{(0,) * n: 1.0 + 0.0j}]
        for _ in range(max((e[i] for e in exponents), default=0)):
            row.append(_pmul(row[-1], g[i], K))
        powers.append(row)

    table: dict[Exponent, Monomials] = {}
    for exps in exponents:
        factors = [(powers[i][p], p) for i, p in enumerate(exps) if p]
        term, first = factors[0]
        later = sum(exps) - first
        for fac, p in factors[1:]:
            later -= p
            term = _pmul(term, fac, K - later)
        table[exps] = term
    return table


def _combine(f: list[Monomials], table: dict[Exponent, Monomials]) -> list[Monomials]:
    """Components of sum_a f_a g^a: each monomial of f scales the power of g
    that ``table`` holds for its exponent.  Every exponent of f must be in
    ``table``."""
    out: list[Monomials] = []
    for comp in f:
        acc: Monomials = {}
        for exps, c in comp.items():
            for e, v in table[exps].items():
                acc[e] = acc.get(e, 0.0) + c * v
        # exact zeros only; callers clean up with their own tolerance
        out.append({e: v for e, v in acc.items() if v != 0})
    return out


# -- jet algebra ------------------------------------------------------------


def compose(f: MappingJet, g: MappingJet) -> MappingJet:
    """Jet of f o g, truncated at min(f.order, g.order)."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    order = min(f.order, g.order)
    F = _monomials(f)
    table = _power_table(_monomials(g), {e for comp in F for e in comp}, order)
    return _from_monomials(_combine(F, table), f.dim, order)


def invert(f: MappingJet) -> MappingJet:
    """Jet g with f o g = g o f = identity up to the jet order.

    A normalized jet's left inverse is also its right inverse, so g solves
    g o f = identity degree by degree.  With f = x + sum F_k and
    g = x + sum G_k, the degree-k part of g(f(x)) = x reads

        G_k = -F_k - sum_{2 <= j < k} [G_j(f)]_k,

    so the inner map is f at every step: one table of the powers f^a,
    for the exponents a of degrees 2..K-1 truncated at K, serves every
    degree, and step k reads only the degree-k terms of its entries
    (Brent & Kung, "Fast algorithms for manipulating formal power
    series", J. ACM 25(4), 1978).
    """
    n, K = f.dim, f.order
    if K < 2:
        return MappingJet.identity(n, K)
    F = _monomials(f)
    exponents = [e for j in range(2, K) for e in layout(n, j).exponents]
    by_degree = {k: {a: {} for a in exponents} for k in range(2, K + 1)}
    for a, power in _power_table(F, exponents, K).items():
        j = sum(a)
        for e, v in power.items():
            k = sum(e)
            if k > j:
                by_degree[k][a][e] = v
    G: list[Monomials] = [{} for _ in range(n)]
    for k in range(2, K + 1):
        lower = _combine(G, by_degree[k])
        for Gi, Fi, Li in zip(G, F, lower):
            for e in layout(n, k).exponents:
                v = -(Fi.get(e, 0.0) + Li.get(e, 0.0))
                if v:
                    Gi[e] = v
    return _from_monomials(G, n, K)


def iterate(f: MappingJet, m: int) -> MappingJet:
    """m-th iterate; negative m iterates the jet inverse.

    Left-to-right binary powering (Brent & Kung, J. ACM 25(4), 1978):
    starting from f, each bit of |m| after the leading one squares the
    result and, when the bit is set, composes the square with f.  The
    first squaring and every composition with f read one table of the
    powers of f, and each later squaring builds the table of what it
    squares, so ``iterate`` builds bit_length(|m|) - 1 power tables, all
    at the full order (one for m = 2 and m = 3), plus ``invert``'s for
    negative m.  When f is sparse, a composite can use exponents f does
    not, and f's table grows by those entries when a composition with f
    first needs them.  ``m`` must be an integer (anything
    ``operator.index`` accepts), else ``TypeError``.
    """
    try:
        m = operator.index(m)
    except TypeError:
        raise TypeError(f"iteration count must be an integer, got {m!r}") from None
    if m == 0:
        return MappingJet.identity(f.dim, f.order)
    if m < 0:
        return iterate(invert(f), -m)
    n, K = f.dim, f.order
    inner = _monomials(f)
    table: dict[Exponent, Monomials] = {}

    def after_f(comps: list[Monomials]) -> MappingJet:
        # the first call builds f's table; a sparse f's composites can
        # then use exponents that f does not
        missing = {e for comp in comps for e in comp} - table.keys()
        if missing:
            table.update(_power_table(inner, missing, K))
        return _from_monomials(_combine(comps, table), n, K)

    out = f
    for i, bit in enumerate(bin(m)[3:]):
        out = compose(out, out) if i else after_f(inner)
        if bit == "1":
            out = after_f(_monomials(out))
    return out


def unitarity_residual(U: np.ndarray) -> float:
    U = np.asarray(U, dtype=complex)
    return float(np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0])))


def unitary_conjugate(f: MappingJet, U: np.ndarray) -> MappingJet:
    """Jet of U* o f o U for a unitary matrix U."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (f.dim, f.dim):
        raise ValueError(f"expected a {f.dim}x{f.dim} matrix, got {U.shape}")
    res = unitarity_residual(U)
    if not res <= UNITARY_TOL:  # also true for a NaN residual
        raise ValueError(f"matrix is not unitary (residual {res:.3e})")
    return linear_conjugate(f, U.conj().T, U)


def linear_conjugate(f: MappingJet, A: np.ndarray, B: np.ndarray) -> MappingJet:
    """Jet with degree-k parts x -> A P_k(B x)."""
    n = f.dim
    polys = {}
    for k, P in f.polys.items():
        # output axis first, then each input slot i_t replaced by B[i_t, j_t]
        T = np.tensordot(A, P.dense(), axes=([1], [k]))
        for _ in range(k):
            T = np.tensordot(T, B, axes=([1], [0]))
        T = np.moveaxis(T, 0, -1)
        polys[k] = HomPoly._trusted(k, n, n, T[layout(n, k).cols])
    return MappingJet(f.dim, f.order, polys)


def random_jet(
    dim: int, order: int, rng: np.random.Generator, scale: float = 0.3
) -> MappingJet:
    """Random jet with complex Gaussian tensor entries, for test suites."""
    polys = {}
    for k in range(2, order + 1):
        # per entry in rank order: dim real parts, then dim imaginary parts
        z = rng.standard_normal((len(layout(dim, k).indices), 2, dim))
        polys[k] = HomPoly._trusted(k, dim, dim, scale * (z[:, 0] + 1j * z[:, 1]))
    return MappingJet(dim, order, polys)
