"""Truncated jets of normalized holomorphic self-maps of C^n.

A jet is f(x) = x + sum_{k=2}^K P_k(x) with each P_k a symmetric-tensor
homogeneous polynomial.  Composition, inversion, integer iteration and
unitary conjugation all happen at the jet level with truncation at K.

Stacks: ``compose``, ``invert`` and ``iterate`` (and ``fekete.fs_mapping``)
also take a sequence of T >= 1 jets of one (dim, order) in place of each
jet argument, and then return the list of the T results, row t equal
within rounding to the lone call on the t-th jets.  ``_stack_of`` and
``_paired`` are the one check of a stacked argument, also for the
tensors of ``fekete.operator_norm_bilinear`` and the generators of
``semigroup.flow_taylor_via_ode``: an empty sequence, a member of
another type or shape, or sequences of different lengths raise
``ValueError``, naming the index where there is one.  The kernel carries
a stack as one coefficient per monomial, a (T,) column, so each row runs
the lone call's arithmetic; a row with a NaN or infinite coefficient
stays non-finite and leaves the other rows alone.
"""

from __future__ import annotations

import math
import operator
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache
from operator import add
from typing import Mapping, NamedTuple

import numpy as np

from .tensors import (
    DEFAULT_ATOL,
    LAYOUT_BUDGET,
    HomPoly,
    _check_vector,
    layout,
)

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
        return self.eval_many(x[None])[0]

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=complex)
        out = xs.copy()
        for P in self.polys.values():
            out += P.eval_many(xs)
        return out


# -- substitution kernel ----------------------------------------------------


class _Graded(NamedTuple):
    exponents: tuple[tuple[int, ...], ...]
    degree: tuple[int, ...]
    offsets: tuple[int, ...]
    pairs: tuple[tuple[int, ...], ...]


@cache
def _graded(n: int, K: int) -> _Graded:
    """The exponents of degrees 0..K over C^n and their truncated pair table.

    Rank r is the r-th exponent, degree by degree and in the rank order of
    ``layout(n, k)`` within degree k, so a rank does not depend on K.
    Degree k occupies ranks offsets[k]:offsets[k + 1], and ``degree[r]``
    is the degree of rank r.  ``pairs[a][b]`` is the rank of exponent
    a + b, for every b below offsets[K - degree[a] + 1]: the ranks whose
    sum with a stays within degree K.  The table holds C(2n + K, K) pairs,
    counted before anything is built; over ``LAYOUT_BUDGET`` it raises
    ValueError, as ``layout`` does.
    """
    count = math.comb(2 * n + K, K)
    if count > LAYOUT_BUDGET:
        raise ValueError(
            f"the order-{K} pair table over C^{n} has {count} pairs, over the "
            f"size budget: pairs must be at most {LAYOUT_BUDGET}"
        )
    exponents = [(0,) * n]
    offsets = [0]
    for k in range(1, K + 1):
        offsets.append(len(exponents))
        exponents += layout(n, k).exponents
    offsets.append(len(exponents))
    degree = tuple(k for k in range(K + 1) for _ in range(offsets[k], offsets[k + 1]))
    rank = {e: r for r, e in enumerate(exponents)}
    pairs = tuple(
        tuple(rank[tuple(map(add, a, b))] for b in exponents[: offsets[K - d + 1]])
        for a, d in zip(exponents, degree)
    )
    return _Graded(tuple(exponents), degree, tuple(offsets), pairs)


def _terms(f, K: int) -> list[dict]:
    """The components of f up to degree K, each a dict from rank in
    ``_graded(f.dim, K)`` to monomial coefficient, in rank order: the
    identity's terms, then each degree's entries times its multinomials.
    For a list f of T jets of one dim, each coefficient is the (T,) column
    of the jets' coefficients, kept when any of them is nonzero."""
    jets = [f] if isinstance(f, MappingJet) else f
    n = jets[0].dim
    offsets = _graded(n, K).offsets
    stack = np.zeros((len(jets), offsets[-1], n), dtype=complex)
    stack[:, offsets[1] : offsets[2]] = np.eye(n)
    for row, g in zip(stack, jets):
        for k, P in g.polys.items():
            if k <= K:
                row[offsets[k] : offsets[k + 1]] = P.entries * layout(n, k).multinomials[:, None]
    if isinstance(f, MappingJet):
        return [{r: c for r, c in enumerate(col) if c} for col in stack[0].T.tolist()]
    cols = stack.transpose(2, 1, 0).copy()  # (n, ranks, T)
    return [{r: col[r] for r in np.flatnonzero(col.any(axis=1)).tolist()} for col in cols]


def _from_terms(comps: list[dict], n: int, K: int, T: int | None = None):
    """The order-K jet whose degree-2..K terms are those of ``comps``, or
    the list of T jets when each coefficient is a (T,) column; the kernel
    computes the identity's terms too, and they are not read."""
    offsets = _graded(n, K).offsets
    values = np.zeros((n, offsets[-1]) + (() if T is None else (T,)), dtype=complex)
    for row, comp in zip(values, comps):
        row[list(comp)] = list(comp.values())
    values = values.swapaxes(0, -1)  # (ranks, n), or (T, ranks, n)

    def jet(v):
        return MappingJet(n, K, {
            k: HomPoly._trusted(
                k, n, n, v[offsets[k] : offsets[k + 1]] / layout(n, k).multinomials[:, None]
            )
            for k in range(2, K + 1)
        })

    return jet(values) if T is None else [jet(v) for v in values]


def _pmul(a: dict, b: dict, max_deg: int, graded: _Graded) -> dict:
    """a * b truncated at total degree ``max_deg``, at most graded's K.
    Each coefficient is a complex number or a stack's (T,) column.

    b's terms are sorted by degree once, keeping their order within a
    degree, so each term of a multiplies only the prefix of b that fits
    under ``max_deg`` with it, and reads the rank of each product from its
    pair row: no exponent is formed, and no pair is formed only to be
    dropped.  A product that cancels stays as a zero term: sparsity is
    decided once per polynomial, in ``_terms``, not per product.
    """
    degree, offsets, pairs = graded.degree, graded.offsets, graded.pairs
    ranks = sorted(b, key=degree.__getitem__)
    terms = list(zip(ranks, map(b.__getitem__, ranks)))
    # fits[d]: the terms of b that fit under max_deg with a degree-d term,
    # those of rank below offsets[max_deg - d + 1]; ranks grow with degree,
    # so they are a prefix of ``terms`` and bisection finds its end
    fits = [
        terms[: bisect_left(ranks, offsets[max_deg - d + 1])] if d <= max_deg else []
        for d in range(len(offsets) - 1)
    ]
    out: dict[int, complex] = {}
    get = out.get
    for ra, ca in a.items():
        row = pairs[ra]
        for rb, cb in fits[degree[ra]]:
            r = row[rb]
            out[r] = get(r, 0.0) + ca * cb
    return out


def _power_table(g: list[dict], exponents, K: int) -> dict[int, dict]:
    """g^a = prod_i g_i^(a_i), truncated at total degree K, for each rank a
    in ``exponents`` (none of degree 0), where g is a jet's components.

    Each monomial multiplies its power factors g_i^p in turn.  A jet's g_i^p
    starts at degree p, so each partial product is truncated at K minus the
    degrees of the factors still to come, and keeps no term that cannot
    survive.  The table depends only on g, so every map composed with the
    same inner map g can share it.
    """
    exponents = list(exponents)
    n = len(g)
    graded = _graded(n, K)
    exps_of = graded.exponents
    # the powers of each component up to the largest exponent used
    powers: list[list[dict]] = []
    for i in range(n):
        row = [{0: 1.0 + 0.0j}]
        for _ in range(max((exps_of[a][i] for a in exponents), default=0)):
            row.append(_pmul(row[-1], g[i], K, graded))
        powers.append(row)

    table: dict[int, dict] = {}
    for a in exponents:
        factors = [(powers[i][p], p) for i, p in enumerate(exps_of[a]) if p]
        term, first = factors[0]
        later = graded.degree[a] - first
        for fac, p in factors[1:]:
            later -= p
            term = _pmul(term, fac, K - later, graded)
        table[a] = term
    return table


def _combine(f: list[dict], table: dict[int, dict]) -> list[dict]:
    """Components of sum_a f_a g^a: each term of f scales the power of g
    that ``table`` holds for its rank.  Every rank of f must be in
    ``table``.  Each component holds every rank that a product reached,
    a sum that cancels included, as ``_pmul``'s result does."""
    out: list[dict] = []
    for comp in f:
        acc: dict = {}
        get = acc.get
        for a, c in comp.items():
            for e, v in table[a].items():
                acc[e] = get(e, 0.0) + c * v
        out.append(acc)
    return out


# -- stacks -----------------------------------------------------------------


def _stack_of(f, what: str = "jet", kind: type = MappingJet, key=("dim", "order")) -> tuple:
    """(f, T, lead) for the argument f of a stacked call, whose members are
    of type ``kind`` and have the shape named by the attributes ``key``:
    one member gives (f, None, f); a sequence gives the list of its T
    members and the first of them, after checking that there is one and
    that every member is a ``kind`` of the first one's shape."""
    if isinstance(f, kind):
        return f, None, f
    f = list(f)
    if not f:
        raise ValueError(f"expected at least one {what}, got an empty sequence")
    shapes = []
    for i, g in enumerate(f):
        if not isinstance(g, kind):
            raise ValueError(f"{what} {i} is not a {kind.__name__} but {type(g).__name__}")
        shapes.append(tuple(getattr(g, a) for a in key))
        if shapes[i] != shapes[0]:
            raise ValueError(
                f"{what}s of one ({', '.join(key)}) expected: "
                f"{what} 0 has {shapes[0]}, {what} {i} has {shapes[i]}"
            )
    return f, len(f), f[0]


def _paired(T: int, count: int, what: str) -> None:
    """ValueError unless a stack of T members has ``count`` of ``what``."""
    if count != T:
        raise ValueError(f"{count} {what} for a stack of {T}: index {min(T, count)} has no partner")


def _integer(name: str, given) -> int:
    """``given`` as an int, the integer check of every count argument:
    anything ``operator.index`` accepts, so a bool counts as its int; a
    non-integer raises TypeError naming the argument."""
    try:
        return operator.index(given)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {given!r}") from None


def _count(name: str, given, least: int = 1) -> int:
    """``given`` as an int of at least ``least`` (1 or 0), the one check of
    every count argument: ``_integer``, then a smaller count raises
    ValueError naming the argument."""
    count = _integer(name, given)
    if count < least:
        raise ValueError(f"{name} must be {'positive' if least else 'nonnegative'}, got {count}")
    return count


def _identities(n: int, K: int, T: int | None):
    """The identity jet, or a list of T of them."""
    return MappingJet.identity(n, K) if T is None else [MappingJet.identity(n, K)] * T


# -- jet algebra ------------------------------------------------------------


def compose(f, g):
    """Jet of f o g, truncated at min(f.order, g.order); for two sequences
    of T jets each, the list of the T composites f[t] o g[t]."""
    f, T, f0 = _stack_of(f, "outer jet")
    g, Tg, g0 = _stack_of(g, "inner jet")
    if (T is None) != (Tg is None):
        raise ValueError("compose takes two jets or two sequences of jets")
    if T is not None:
        _paired(T, Tg, "inner jets")
    if f0.dim != g0.dim:
        raise ValueError(f"dimension mismatch: {f0.dim} vs {g0.dim}")
    order = min(f0.order, g0.order)
    F = _terms(f, order)
    table = _power_table(_terms(g, order), {a for comp in F for a in comp}, order)
    return _from_terms(_combine(F, table), f0.dim, order, T)


def invert(f):
    """Jet g with f o g = g o f = identity up to the jet order; for a
    sequence of jets, the list of their inverses.

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
    f, T, f0 = _stack_of(f)
    n, K = f0.dim, f0.order
    if K < 2:
        return _identities(n, K, T)
    F = _terms(f, K)
    graded = _graded(n, K)
    degree, offsets = graded.degree, graded.offsets
    exponents = range(offsets[2], offsets[K])
    by_degree = {k: {a: {} for a in exponents} for k in range(2, K + 1)}
    for a, power in _power_table(F, exponents, K).items():
        j = degree[a]
        for e, v in power.items():
            k = degree[e]
            if k > j:
                by_degree[k][a][e] = v
    # a stack's coefficient is kept when any row is nonzero
    keep = bool if T is None else np.any
    G: list[dict] = [{} for _ in range(n)]
    for k in range(2, K + 1):
        lower = _combine(G, by_degree[k])
        for Gi, Fi, Li in zip(G, F, lower):
            for e in range(offsets[k], offsets[k + 1]):
                v = -(Fi.get(e, 0.0) + Li.get(e, 0.0))
                if keep(v):
                    Gi[e] = v
    return _from_terms(G, n, K, T)


def iterate(f, m: int):
    """m-th iterate; negative m iterates the jet inverse.  For a sequence
    of jets, the list of their m-th iterates.

    Left-to-right binary powering (Brent & Kung, J. ACM 25(4), 1978):
    starting from f, each bit of |m| after the leading one squares the
    result and, when the bit is set, composes the square with f.  The
    first squaring and every composition with f read one table of the
    powers of f, and each later squaring builds the table of what it
    squares, so ``iterate`` builds bit_length(|m|) - 1 power tables, all
    at the full order (one for m = 2 and m = 3, none for m = 1), plus
    ``invert``'s for negative m.  f's table holds every exponent of
    degrees 1..K, since a composite can use exponents that a sparse f
    does not.  A power with a coefficient that is not finite
    stays so; a lone jet's is returned as soon as it appears, a stack
    stops once every row is not finite.  ``m`` must be an integer
    (anything ``operator.index`` accepts), else ``TypeError``.
    """
    m = _integer("iteration count", m)
    f, T, f0 = _stack_of(f)
    if m == 0:
        return _identities(f0.dim, f0.order, T)
    if m < 0:
        return iterate(invert(f), -m)
    n, K = f0.dim, f0.order
    inner = _terms(f, K)
    out = f
    for i, bit in enumerate(bin(m)[3:]):
        rows = [out] if T is None else out
        if not any(math.isfinite(g.max_coeff()) for g in rows):
            break
        if i:
            out = compose(out, out)
        else:
            # f's powers at every exponent of degrees 1..K, built once for
            # every f o (.): a composite can use exponents that f does not
            offsets = _graded(n, K).offsets
            table = _power_table(inner, range(offsets[1], offsets[-1]), K)
            out = _from_terms(_combine(inner, table), n, K, T)
        if bit == "1":
            out = _from_terms(_combine(_terms(out, K), table), n, K, T)
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
    return _normal_jets(dim, order, rng.standard_normal((1, _jet_normals(dim, order))), scale)[0]


def _jet_normals(dim: int, order: int) -> int:
    """The number of normal variates ``random_jet`` draws."""
    return sum(2 * dim * len(layout(dim, k).indices) for k in range(2, order + 1))


def _normal_jets(dim: int, order: int, z: np.ndarray, scale: float = 0.3) -> list[MappingJet]:
    """The jets ``random_jet`` builds from each row of a (T, normals) array
    of its normal variates, one array operation per degree."""
    polys: list[dict] = [{} for _ in z]
    start = 0
    for k in range(2, order + 1):
        terms = len(layout(dim, k).indices)
        # per entry in rank order: dim real parts, then dim imaginary parts
        g = z[:, start : start + 2 * dim * terms].reshape(-1, terms, 2, dim)
        start += 2 * dim * terms
        for poly, entries in zip(polys, scale * (g[:, :, 0] + 1j * g[:, :, 1])):
            poly[k] = HomPoly._trusted(k, dim, dim, entries)
    return [MappingJet(dim, order, poly) for poly in polys]
