"""Symmetric multilinear tensors over C^n, stored sparsely.

A degree-k vector-valued homogeneous polynomial P(x) is kept as the
symmetric tensor T with T[e_{i1},...,e_{ik}] indexed by the sorted
multi-index (i1,...,ik), entries being m-vectors.  P(x) = T[x,...,x].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, Mapping

import numpy as np

from .polyops import Exponent, ScalarPoly

MultiIndex = tuple[int, ...]

DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-10
EVAL_BLOCK_ROWS = 1024


def multi_index_to_exponents(idx: MultiIndex, nvars: int) -> Exponent:
    exps = [0] * nvars
    for i in idx:
        exps[i - 1] += 1
    return tuple(exps)


def exponents_to_multi_index(exps: Exponent) -> MultiIndex:
    idx: list[int] = []
    for i, p in enumerate(exps):
        idx.extend([i + 1] * p)
    return tuple(idx)


def multinomial(idx: MultiIndex) -> int:
    """Number of ordered arrangements of the multi-index."""
    counts: dict[int, int] = {}
    for i in idx:
        counts[i] = counts.get(i, 0) + 1
    out = math.factorial(len(idx))
    for c in counts.values():
        out //= math.factorial(c)
    return out


@dataclass(frozen=True)
class HomPoly:
    """Degree-k homogeneous polynomial C^n -> C^m as a symmetric tensor."""

    degree: int
    domain_dim: int
    codomain_dim: int
    coeffs: Mapping[MultiIndex, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be positive, got {self.degree}")
        clean: dict[MultiIndex, np.ndarray] = {}
        for idx, vec in self.coeffs.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.degree:
                raise ValueError(f"multi-index {idx} has length != degree {self.degree}")
            if idx != tuple(sorted(idx)):
                raise ValueError(f"multi-index {idx} is not sorted")
            if any(i < 1 or i > self.domain_dim for i in idx):
                raise ValueError(f"multi-index {idx} out of range 1..{self.domain_dim}")
            arr = np.asarray(vec, dtype=complex)
            if arr.shape != (self.codomain_dim,):
                raise ValueError(
                    f"coefficient at {idx} has shape {arr.shape}, "
                    f"expected ({self.codomain_dim},)"
                )
            if np.any(arr != 0):
                arr = arr.copy()
                arr.flags.writeable = False
                clean[idx] = arr
        object.__setattr__(self, "coeffs", clean)

    # -- construction -----------------------------------------------------

    @classmethod
    def _trusted(
        cls,
        degree: int,
        domain_dim: int,
        codomain_dim: int,
        coeffs: Mapping[MultiIndex, np.ndarray],
    ) -> "HomPoly":
        """Constructor for coefficients the library computed itself: sorted,
        in-range multi-indices of length ``degree`` and complex arrays of
        shape (codomain_dim,) that no caller writes to afterwards.  Drops
        exact zeros and freezes the arrays; the checks of ``__post_init__``,
        which guard outside input, are skipped."""
        clean: dict[MultiIndex, np.ndarray] = {}
        for idx, arr in coeffs.items():
            if arr.any():
                arr.flags.writeable = False
                clean[idx] = arr
        obj = object.__new__(cls)
        for name, value in (
            ("degree", degree),
            ("domain_dim", domain_dim),
            ("codomain_dim", codomain_dim),
            ("coeffs", clean),
        ):
            object.__setattr__(obj, name, value)
        return obj

    @classmethod
    def zero(cls, degree: int, domain_dim: int, codomain_dim: int) -> "HomPoly":
        return cls(degree, domain_dim, codomain_dim, {})

    @classmethod
    def from_monomials(
        cls,
        degree: int,
        domain_dim: int,
        codomain_dim: int,
        monomials: Mapping[Exponent, Iterable[complex]],
    ) -> "HomPoly":
        """Build from monomial coefficients: P(x) = sum_a c_a x^a."""
        if degree < 1:
            raise ValueError(f"degree must be positive, got {degree}")
        coeffs = {}
        for exps, vec in monomials.items():
            if len(exps) != domain_dim or min(exps) < 0 or sum(exps) != degree:
                raise ValueError(
                    f"monomial {exps} is not of degree {degree} in {domain_dim} variables"
                )
            arr = np.asarray(list(vec), dtype=complex)
            if arr.shape != (codomain_dim,):
                raise ValueError(
                    f"coefficient of {exps} has shape {arr.shape}, "
                    f"expected ({codomain_dim},)"
                )
            idx = exponents_to_multi_index(exps)
            coeffs[idx] = arr / multinomial(idx)
        return cls._trusted(degree, domain_dim, codomain_dim, coeffs)

    def to_monomials(self) -> dict[Exponent, np.ndarray]:
        return {
            multi_index_to_exponents(idx, self.domain_dim): multinomial(idx) * vec
            for idx, vec in self.coeffs.items()
        }

    def components(self) -> list[ScalarPoly]:
        """Monomial form, one scalar polynomial per output component."""
        out: list[ScalarPoly] = [{} for _ in range(self.codomain_dim)]
        for exps, vec in self.to_monomials().items():
            for c, comp in zip(vec, out):
                if c != 0:
                    comp[exps] = complex(c)
        return out

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if (self.degree, self.domain_dim, self.codomain_dim) != (
            other.degree,
            other.domain_dim,
            other.codomain_dim,
        ):
            raise ValueError("cannot add tensors of different shape")
        # stored arrays are read-only, so the sum can share the unpaired ones
        coeffs = dict(self.coeffs)
        for idx, v in other.coeffs.items():
            coeffs[idx] = coeffs[idx] + v if idx in coeffs else v
        return HomPoly._trusted(self.degree, self.domain_dim, self.codomain_dim, coeffs)

    def scale(self, c: complex) -> "HomPoly":
        return HomPoly._trusted(
            self.degree,
            self.domain_dim,
            self.codomain_dim,
            {idx: c * v for idx, v in self.coeffs.items()},
        )

    def is_zero(self, atol: float = DEFAULT_ATOL) -> bool:
        return all(np.max(np.abs(v)) <= atol for v in self.coeffs.values())

    def max_coeff(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(float(np.max(np.abs(v))) for v in self.coeffs.values())

    def allclose(
        self, other: "HomPoly", atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL
    ) -> bool:
        diff = self + other.scale(-1)
        scale = max(self.max_coeff(), other.max_coeff())
        return diff.max_coeff() <= atol + rtol * scale

    # -- evaluation -------------------------------------------------------

    @cached_property
    def _compiled(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Index columns (k arrays of length T, 0-based) and the (T, m)
        coefficient matrix with the multinomial counts folded in, one row
        per stored multi-index.  Built on first evaluation."""
        idx = np.array(list(self.coeffs), dtype=np.intp).reshape(-1, self.degree) - 1
        coef = np.array(
            [multinomial(i) * v for i, v in self.coeffs.items()], dtype=complex
        ).reshape(-1, self.codomain_dim)
        return tuple(idx.T.copy()), coef

    def eval(self, x) -> np.ndarray:
        """T[x,...,x]; homogeneous of degree k."""
        x = _check_vector(x, self.domain_dim)
        return self.eval_many(x[None])[0]

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized eval over rows of an (N, n) array."""
        xs = np.asarray(xs, dtype=complex)
        if xs.ndim != 2 or xs.shape[1] != self.domain_dim:
            raise ValueError(
                f"expected an (N, {self.domain_dim}) array, got shape {xs.shape}"
            )
        if xs.shape[0] > EVAL_BLOCK_ROWS:
            # blocks of rows bound the (rows, T) monomial buffers, which
            # would otherwise dominate the peak memory of a large batch
            return np.concatenate(
                [
                    self.eval_many(xs[lo : lo + EVAL_BLOCK_ROWS])
                    for lo in range(0, xs.shape[0], EVAL_BLOCK_ROWS)
                ]
            )
        cols, coef = self._compiled
        return monomials(xs, cols) @ coef

    def multilinear_eval(self, args) -> np.ndarray:
        """T[x_1,...,x_k], linear in each slot, symmetric in the slots.

        Arguments are sorted into a canonical order first (legitimate by
        symmetry), which makes permutation invariance bit-exact.  Each
        argument in turn is contracted with the leading slot of ``dense()``.
        """
        if len(args) != self.degree:
            raise ValueError(f"expected {self.degree} arguments, got {len(args)}")
        vecs = [_check_vector(a, self.domain_dim) for a in args]
        vecs.sort(key=lambda v: v.tobytes())
        out = self.dense()
        for v in vecs:
            out = v @ out.reshape(self.domain_dim, -1)
        return out

    def dense(self) -> np.ndarray:
        """Full symmetric tensor, shape (n,)*k + (m,); read-only, built once."""
        return self._dense

    @cached_property
    def _dense(self) -> np.ndarray:
        n, k, m = self.domain_dim, self.degree, self.codomain_dim
        rank, position_rank = _dense_layout(n, k)
        vals = np.zeros((len(rank) + 1, m), dtype=complex)  # last row: zero
        if self.coeffs:
            vals[[rank[idx] for idx in self.coeffs]] = list(self.coeffs.values())
        out = vals[position_rank].reshape((n,) * k + (m,))
        out.flags.writeable = False
        return out


def monomials(xs: np.ndarray, cols) -> np.ndarray:
    """Values (..., T) at the points xs (..., n) of the T monomials whose
    0-based variable indices are the rows of the index columns ``cols``,
    one column multiplied in at a time."""
    terms = xs[..., cols[0]]
    for col in cols[1:]:
        terms *= xs[..., col]
    return terms


def basis_coefficients(polys) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The polynomials of one degree k and shape C^n -> C^m over one basis.

    Returns the k index columns of every sorted multi-index of degree k
    over 1..n, in rank order, and a (len(polys), T, m) coefficient array
    with the multinomial counts folded in and zeros where a polynomial
    stores no entry, so that ``monomials(xs, cols) @ coef[j]`` evaluates
    polys[j] at the rows of xs as ``HomPoly.eval_many`` does."""
    P0 = polys[0]
    n, k, m = P0.domain_dim, P0.degree, P0.codomain_dim
    rank, _ = _dense_layout(n, k)
    coef = np.zeros((len(polys), len(rank), m), dtype=complex)
    for j, P in enumerate(polys):
        if (P.domain_dim, P.degree, P.codomain_dim) != (n, k, m):
            raise ValueError("polynomials of one degree and shape expected")
        if P.coeffs:
            coef[j, [rank[idx] for idx in P.coeffs]] = P._compiled[1]
    idx = np.array(list(rank), dtype=np.intp).reshape(-1, k) - 1
    return tuple(idx.T.copy()), coef


@cache
def _dense_layout(n: int, k: int) -> tuple[dict[MultiIndex, int], np.ndarray]:
    """Rank of each sorted multi-index of degree k over 1..n, and for each
    position (i_1..i_k) of an (n,)*k tensor in C order the rank of its
    sorted indices: the position holds the entry stored at that index."""
    combos = itertools.combinations_with_replacement(range(1, n + 1), k)
    rank = {idx: r for r, idx in enumerate(combos)}
    positions = np.sort(np.indices((n,) * k).reshape(k, -1), axis=0) + 1
    position_rank = np.array([rank[tuple(p)] for p in positions.T.tolist()], dtype=np.intp)
    position_rank.flags.writeable = False
    return rank, position_rank


class ScalarHomPoly(HomPoly):
    """A HomPoly with one-dimensional codomain, evaluated as a scalar."""

    def __init__(self, degree: int, domain_dim: int, coeffs: Mapping[MultiIndex, Iterable[complex]]):
        super().__init__(degree, domain_dim, 1, dict(coeffs))

    @classmethod
    def from_scalar_monomials(
        cls, degree: int, domain_dim: int, monomials: Mapping[Exponent, complex]
    ) -> "ScalarHomPoly":
        return cls.from_monomials(
            degree, domain_dim, 1, {e: [c] for e, c in monomials.items()}
        )

    def eval_scalar(self, x):
        """The scalar value at a point (n,), or the values (N,) at rows (N, n)."""
        x = np.asarray(x, dtype=complex)
        if x.ndim == 1:
            return complex(self.eval(x)[0])
        return self.eval_many(x)[:, 0]


def slot_product(M, Q: HomPoly) -> HomPoly:
    """Degree-(q+1) polynomial x -> sum_a x_a (Q(x) @ M[a]).

    ``M`` is an (n, Q.codomain_dim, m) array.  With M = B.dense() this is
    x -> B[x, Q(x)]; with M[a] the row e_a it is x -> Q(x) x for a scalar
    Q.  The symmetric entries are written directly from Q's stored ones,
    T[i_0..i_q] = (1/(q+1)) sum_s Q[i without i_s] @ M[i_s].
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 3 or M.shape[:2] != (Q.domain_dim, Q.codomain_dim):
        raise ValueError(
            f"expected an ({Q.domain_dim}, {Q.codomain_dim}, m) array, "
            f"got shape {M.shape}"
        )
    q = Q.degree
    out: dict[MultiIndex, np.ndarray] = {}
    for j, v in Q.coeffs.items():
        rows = v @ M  # rows[a - 1] = Q[j] @ M[a - 1]
        for a in range(1, Q.domain_dim + 1):
            if not rows[a - 1].any():
                continue
            idx = tuple(sorted(j + (a,)))
            term = ((j.count(a) + 1) / (q + 1)) * rows[a - 1]
            out[idx] = out[idx] + term if idx in out else term
    return HomPoly._trusted(q + 1, Q.domain_dim, M.shape[2], out)


def polarization_check(P: HomPoly, x1, x2) -> float:
    """Residual of the bilinear polarization identity for a degree-2 tensor.

    Returns ||T[x1,x2] - (T[(x1+x2)^2] - T[(x1-x2)^2]) / 4||.
    """
    if P.degree != 2:
        raise ValueError(f"polarization identity needs degree 2, got {P.degree}")
    x1 = _check_vector(x1, P.domain_dim)
    x2 = _check_vector(x2, P.domain_dim)
    lhs = P.multilinear_eval([x1, x2])
    rhs = 0.25 * (P.eval(x1 + x2) - P.eval(x1 - x2))
    return float(np.linalg.norm(lhs - rhs))


def _check_vector(x, dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=complex)
    if arr.shape != (dim,):
        raise ValueError(f"expected a vector of dimension {dim}, got shape {arr.shape}")
    return arr
