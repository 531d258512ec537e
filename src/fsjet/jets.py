"""Truncated jets of normalized holomorphic self-maps of C^n.

A jet is f(x) = x + sum_{k=2}^K P_k(x) with each P_k a symmetric-tensor
homogeneous polynomial.  Composition, inversion, integer iteration and
unitary conjugation all happen at the jet level with truncation at K.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from functools import cache
from typing import Mapping

import numpy as np

from . import polyops
from .polyops import ScalarPoly
from .tensors import (
    DEFAULT_ATOL,
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

    # -- monomial view ----------------------------------------------------

    def components(self) -> list[ScalarPoly]:
        n = self.dim
        exps = layout(n, 1).exponents
        blocks = [np.eye(n)]
        for k, P in self.polys.items():
            basis = layout(n, k)
            exps += basis.exponents
            blocks.append(P.entries * basis.multinomials[:, None])
        columns = np.concatenate(blocks).T.tolist()
        return [{e: c for e, c in zip(exps, col) if c} for col in columns]

    @classmethod
    def from_components(
        cls, comps: list[ScalarPoly], dim: int, order: int
    ) -> "MappingJet":
        """Rebuild a normalized jet; the degree-1 part must be the identity.
        Terms above ``order`` are truncated."""
        if len(comps) != dim:
            raise ValueError(f"expected {dim} components, got {len(comps)}")
        rows, offsets, low, low_tol = _monomial_rows(dim, order)
        dense = []
        for comp in comps:
            row = [0j] * offsets[-1]
            for e, c in comp.items():
                r = rows.get(e)
                if r is not None:
                    row[r] = c
                elif len(e) != dim or min(e) < 0:
                    raise ValueError(f"monomial {e} is not one of {dim} variables")
            dense.append(row)
        values = np.array(dense, dtype=complex).T
        off = np.abs(values[: dim + 1] - low) > low_tol
        if off[1:].any():
            raise ValueError("degree-1 part is not the identity")
        if off[0].any():
            raise ValueError("jet has a nonzero constant term")
        polys = {
            k: HomPoly._trusted(
                k,
                dim,
                dim,
                values[offsets[k] : offsets[k + 1]] / layout(dim, k).multinomials[:, None],
            )
            for k in range(2, order + 1)
        }
        return cls(dim, order, polys)


@cache
def _monomial_rows(dim: int, order: int):
    """Row of each exponent of degree 0..order in one stack of the degree
    blocks (degree k in rank order of ``layout(dim, k)``), the offset of
    each block (degree k occupies rows offsets[k]:offsets[k + 1]), and the
    normalized degree-0 and degree-1 rows with their tolerances."""
    exps = [(0,) * dim]
    offsets = [0, 1]
    for k in range(1, order + 1):
        exps.extend(layout(dim, k).exponents)
        offsets.append(len(exps))
    low = np.vstack([np.zeros(dim), np.eye(dim)])
    low_tol = np.array([[1e-12]] + [[1e-9]] * dim)
    return {e: r for r, e in enumerate(exps)}, offsets, low, low_tol


def compose(f: MappingJet, g: MappingJet) -> MappingJet:
    """Jet of f o g, truncated at min(f.order, g.order)."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    order = min(f.order, g.order)
    comps = polyops.substitute(f.components(), g.components(), order)
    return MappingJet.from_components(comps, f.dim, order)


def invert(f: MappingJet) -> MappingJet:
    """Jet g with f o g = g o f = identity up to the jet order.

    Degree by degree: once g is the inverse below degree k, the degree-k
    part of f o g is G_k plus a remainder that depends only on the degrees
    <= k of f and < k of g, so G_k is minus that remainder.  Step k
    composes f and g truncated at order k, so no step recomputes the
    degrees above the one it settles (Brent & Kung, "Fast algorithms for
    manipulating formal power series", J. ACM 25(4), 1978): one
    composition at each order 2..K.
    """
    polys = {}
    for k in range(2, f.order + 1):
        low = {j: P for j, P in f.polys.items() if j <= k}
        residual = compose(MappingJet(f.dim, k, low), MappingJet(f.dim, k, polys)).poly(k)
        polys[k] = residual.scale(-1)
    return MappingJet(f.dim, f.order, polys)


def iterate(f: MappingJet, m: int) -> MappingJet:
    """m-th iterate; negative m iterates the jet inverse.

    Binary powering (Brent & Kung, J. ACM 25(4), 1978): floor(log2 |m|)
    squarings give the powers f^(2^j), and one composition per further
    set bit of |m| multiplies them in, so at most 2 floor(log2 |m|)
    compositions, each at the full order, plus one ``invert`` for negative
    m.  m = 2 and m = 3 take one and two.  ``m`` must be an integer
    (anything ``operator.index`` accepts), else ``TypeError``.
    """
    try:
        m = operator.index(m)
    except TypeError:
        raise TypeError(f"iteration count must be an integer, got {m!r}") from None
    if m == 0:
        return MappingJet.identity(f.dim, f.order)
    if m < 0:
        return iterate(invert(f), -m)
    out, power = None, f
    while True:
        if m & 1:
            out = power if out is None else compose(out, power)
        m >>= 1
        if not m:
            return out
        power = compose(power, power)


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
