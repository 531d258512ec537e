"""One-dimensional-type mappings f(x) = s(x) x: their jets, detection in
a mapping jet, and the n-th root transform."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .fekete import normalize_direction
from .jets import MappingJet
from .tensors import HomPoly, ScalarHomPoly, layout, slot_product


def _times_x(p: ScalarHomPoly) -> HomPoly:
    """The mapping x -> p(x) x: slot_product with M[a] the row e_a."""
    return slot_product(np.eye(p.domain_dim)[:, None, :], p)


@dataclass(frozen=True)
class OneDimJet:
    """Jet of f(x) = s(x) x with s(x) = 1 + sum_{k=1}^{K-1} p_k(x).

    ``scalar_polys[k]`` is the degree-k part of s, so the induced mapping
    jet has P_{k+1}(x) = p_k(x) x.
    """

    dim: int
    order: int
    scalar_polys: Mapping[int, ScalarHomPoly] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for k, p in self.scalar_polys.items():
            if not 1 <= k <= self.order - 1:
                raise ValueError(f"scalar degree {k} outside 1..{self.order - 1}")
            if p.degree != k or p.domain_dim != self.dim or p.codomain_dim != 1:
                raise ValueError(f"scalar poly at degree {k} has wrong shape")
            if p.entries.any():
                clean[k] = p
        object.__setattr__(self, "scalar_polys", clean)

    def scalar_part(self, k: int) -> ScalarHomPoly:
        if k in self.scalar_polys:
            return self.scalar_polys[k]
        return ScalarHomPoly(k, self.dim, {})

    def s_eval(self, x):
        """The truncated scalar factor 1 + sum p_k(x), at a point (n,) or
        at the rows of an (N, n) array, giving (N,) values."""
        x = np.asarray(x, dtype=complex)
        val = np.ones(x.shape[:-1], dtype=complex)
        for p in self.scalar_polys.values():
            val += p.eval_scalar(x)
        return complex(val) if x.ndim == 1 else val

    def eval(self, x) -> np.ndarray:
        return self.s_eval(x) * np.asarray(x, dtype=complex)

    def to_mapping_jet(self) -> MappingJet:
        polys = {k + 1: _times_x(p) for k, p in self.scalar_polys.items()}
        return MappingJet(self.dim, self.order, polys)


def detect_onedim(f: MappingJet) -> OneDimJet | None:
    """Factor each P_k as p_{k-1}(x) x if possible; None if not.

    P_k(x)_i = p(x) x_i holds exactly when, for every i, the monomial
    coefficient of x^(a+e_i) in component i equals that of x^a in p.  So
    p is read as the mean over i of those coefficients, and a degree
    factors when the lift p(x) x matches P_k to 1e-9 (1 + max|P_k|).
    """
    tol = 1e-9
    n = f.dim
    scalar_polys: dict[int, ScalarHomPoly] = {}
    for k, P in sorted(f.polys.items()):
        lower, upper = layout(n, k - 1), layout(n, k)
        # rows[a, i]: the variables of a + e_i, sorted
        rows = np.empty((len(lower.indices), n, k), dtype=np.intp)
        rows[..., :-1] = lower.variables[:, None, :]
        rows[..., -1] = np.arange(n)
        ranks = upper.rank_of(np.sort(rows, axis=-1))
        monos = P.entries[ranks, np.arange(n)] * upper.multinomials[ranks]
        p = ScalarHomPoly._trusted(k - 1, n, 1, (monos.mean(axis=1) / lower.multinomials)[:, None])
        # a NaN fails the comparison
        if not np.abs(_times_x(p).entries - P.entries).max() <= tol * (1.0 + P.max_coeff()):
            return None
        scalar_polys[k - 1] = p
    return OneDimJet(n, f.order, scalar_polys)


def _series_root(coeffs: list[complex], n: int, terms: int) -> list[complex]:
    """(1 + sum_{k>=1} a_k u^k)^(1/n) as a truncated series, principal branch.

    Miller's power recurrence: b_0 = 1 and
    b_m = (1/m) sum_{k=1}^{m} (k/n - (m - k)) a_k b_{m-k}
    (Knuth, TAOCP vol. 2, section 4.7).
    """
    a = [complex(c) for c in coeffs[:terms]]
    a += [0.0j] * (terms - len(a))
    b = [1.0 + 0.0j]
    for m in range(1, terms):
        b.append(sum((k / n - (m - k)) * a[k] * b[m - k] for k in range(1, m + 1)) / m)
    return b


def root_transform(
    f: OneDimJet, n: int, e, order: int | None = None
) -> MappingJet:
    """n-th root transform g(x) = s(<x,e>^n e)^(1/n) x as a mapping jet.

    Output order defaults to 2n+1.  Only degrees congruent to 1 mod n are
    nonzero, by construction.
    """
    if n < 2:
        raise ValueError(f"root order must be >= 2, got {n}")
    e = normalize_direction(e)
    if e.shape != (f.dim,):
        raise ValueError("direction dimension does not match the jet")
    if order is None:
        order = 2 * n + 1
    if order < 2 * n + 1:
        raise ValueError(f"output order must be >= {2 * n + 1}")
    # s(<x,e>^n e) = 1 + sum_k p_k(e) u^k with u = <x,e>^n
    max_m = (order - 1) // n
    a = [1.0 + 0.0j] + [
        f.scalar_part(k).eval_scalar(e) if k <= f.order - 1 else 0.0j
        for k in range(1, max_m + 1)
    ]
    b = _series_root(a, n, max_m + 1)
    # b_m <x,e>^{nm} has the symmetric entries b_m prod_t conj(e_{i_t}),
    # which vanish off the support of e; _times_x then multiplies by x
    support = [i for i in range(1, f.dim + 1) if e[i - 1] != 0]
    polys = {}
    for m in range(1, max_m + 1):
        idxs = itertools.combinations_with_replacement(support, n * m)
        Q = ScalarHomPoly(
            n * m, f.dim, {i: [b[m] * np.prod(np.conj(e[np.array(i) - 1]))] for i in idxs}
        )
        polys[n * m + 1] = _times_x(Q)
    return MappingJet(f.dim, order, polys)


def koebe_onedim(dim: int = 1, order: int = 3) -> OneDimJet:
    """Jet of the Koebe-type map s(x) = 1/(1 - <x, e1>)^2 truncated: the
    scalar series has p_k(x) = (k+1) x_1^k."""
    polys = {}
    for k in range(1, order):
        exps = tuple([k] + [0] * (dim - 1))
        polys[k] = ScalarHomPoly.from_scalar_monomials(k, dim, {exps: float(k + 1)})
    return OneDimJet(dim, order, polys)
