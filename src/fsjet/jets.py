"""Truncated jets of normalized holomorphic self-maps of C^n.

A jet is f(x) = x + sum_{k=2}^K P_k(x) with each P_k a symmetric-tensor
homogeneous polynomial.  Composition, inversion, integer iteration and
unitary conjugation all happen at the jet level with truncation at K.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import polyops
from .polyops import ScalarPoly
from .tensors import DEFAULT_ATOL, HomPoly, _check_vector, slot_product

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
            if P.coeffs:
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
        return max((P.max_coeff() for P in self.polys.values()), default=0.0)

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

    # -- monomial view ----------------------------------------------------

    def components(self) -> list[ScalarPoly]:
        comps = polyops.identity_map(self.dim)
        for P in self.polys.values():
            comps = [polyops.padd(a, b) for a, b in zip(comps, P.components())]
        return comps

    @classmethod
    def from_components(
        cls, comps: list[ScalarPoly], dim: int, order: int
    ) -> "MappingJet":
        """Rebuild a normalized jet; the degree-1 part must be the identity."""
        polys: dict[int, HomPoly] = {}
        for k in range(2, order + 1):
            monos: dict[tuple, np.ndarray] = {}
            for i, comp in enumerate(comps):
                for exps, c in polyops.degree_part(comp, k).items():
                    vec = monos.setdefault(exps, np.zeros(dim, dtype=complex))
                    vec[i] += c
            if monos:
                polys[k] = HomPoly.from_monomials(k, dim, dim, monos)
        for i, comp in enumerate(comps):
            lin = polyops.degree_part(comp, 1)
            expect = polyops.variable(i, dim)
            for exps in set(lin) | set(expect):
                if abs(lin.get(exps, 0) - expect.get(exps, 0)) > 1e-9:
                    raise ValueError("degree-1 part is not the identity")
            if any(abs(c) > 1e-12 for c in polyops.degree_part(comp, 0).values()):
                raise ValueError("jet has a nonzero constant term")
        return cls(dim, order, polys)


def compose(f: MappingJet, g: MappingJet) -> MappingJet:
    """Jet of f o g, truncated at min(f.order, g.order)."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    order = min(f.order, g.order)
    comps = polyops.substitute(f.components(), g.components(), order)
    result = MappingJet.from_components(comps, f.dim, order)
    if __debug__ and order >= 2:
        _check_low_degree_composition(f, g, result)
    return result


def _check_low_degree_composition(f: MappingJet, g: MappingJet, r: MappingJet):
    # closed forms for the composed degree-2/3 parts; cross-check of the
    # generic substitution on the degrees where they are known
    scale = 1.0 + f.max_coeff() + g.max_coeff()
    R2 = f.poly(2) + g.poly(2)
    assert r.poly(2).allclose(R2, atol=1e-9 * scale)
    if r.order >= 3:
        cross = slot_product(f.poly(2).dense(), g.poly(2)).scale(2.0)
        R3 = cross + f.poly(3) + g.poly(3)
        assert r.poly(3).allclose(R3, atol=1e-9 * scale * scale)


def invert(f: MappingJet) -> MappingJet:
    """Jet g with f o g = g o f = identity up to the jet order."""
    g = MappingJet.identity(f.dim, f.order)
    for k in range(2, f.order + 1):
        residual = compose(f, g).poly(k)
        g = g.with_poly(k, g.poly(k) + residual.scale(-1))
    return g


def iterate(f: MappingJet, m: int) -> MappingJet:
    """m-th iterate; negative m iterates the jet inverse."""
    if m == 0:
        return MappingJet.identity(f.dim, f.order)
    if m < 0:
        return iterate(invert(f), -m)
    out = f
    for _ in range(m - 1):
        out = compose(f, out)
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
    if res > UNITARY_TOL:
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
        idx = list(itertools.combinations_with_replacement(range(n), k))
        rows = T[tuple(np.array(idx).T)]  # (len(idx), n) copy of the sorted entries
        polys[k] = HomPoly._trusted(
            k, n, n, {tuple(i + 1 for i in j): row for j, row in zip(idx, rows)}
        )
    return MappingJet(f.dim, f.order, polys)


def random_jet(
    dim: int, order: int, rng: np.random.Generator, scale: float = 0.3
) -> MappingJet:
    """Random jet with complex Gaussian tensor entries, for test suites."""
    polys = {}
    for k in range(2, order + 1):
        coeffs = {}
        for exps in polyops.exponents_of_degree(dim, k):
            idx = tuple(
                i + 1 for i, p in enumerate(exps) for _ in range(p)
            )
            coeffs[idx] = scale * (
                rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            )
        polys[k] = HomPoly(k, dim, dim, coeffs)
    return MappingJet(dim, order, polys)
