"""Symmetric multilinear tensors over C^n, stored as one array per degree.

A degree-k vector-valued homogeneous polynomial P(x) is kept as the
symmetric tensor T with T[e_{i1},...,e_{ik}] indexed by the sorted
multi-index (i1,...,ik), entries being m-vectors.  P(x) = T[x,...,x].
The entries of every sorted multi-index sit in one (len, m) array, in the
rank order of the basis ``layout(n, k)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

Exponent = tuple[int, ...]
MultiIndex = tuple[int, ...]

DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-10
EVAL_BLOCK_ROWS = 1024
# the most rows x max(dim, degree) a basis may have: that bounds both the
# (rows, dim) entries of a C^n -> C^n polynomial and the basis's own
# (rows, degree) index arrays, at a few MB each
LAYOUT_BUDGET = 1 << 18


def exponents_to_multi_index(exps: Exponent) -> MultiIndex:
    idx: list[int] = []
    for i, p in enumerate(exps):
        idx.extend([i + 1] * p)
    return tuple(idx)


def multinomial(idx: MultiIndex) -> int:
    """Ordered arrangements of the multi-index, as a product of binomials."""
    counts: dict[int, int] = {}
    for i in idx:
        counts[i] = counts.get(i, 0) + 1
    out, total = 1, 0
    for c in counts.values():
        total += c
        out *= math.comb(total, c)
    return out


@dataclass(frozen=True, eq=False)
class Layout:
    """The sorted multi-indices of degree k over 1..n, in rank order.

    ``variables`` is the (T, k) array of their 0-based variables and
    ``cols`` its columns.  Every array is read-only.
    """

    dim: int
    indices: tuple[MultiIndex, ...]
    exponents: tuple[Exponent, ...]
    rank: Mapping[MultiIndex, int]
    multinomials: np.ndarray  # (T,) float
    variables: np.ndarray
    cols: tuple[np.ndarray, ...]

    def rank_of(self, rows: np.ndarray) -> np.ndarray:
        """Ranks of sorted 0-based multi-index rows (..., k), counted exactly:
        the rows ranked before (i_1..i_k) agree with it before some slot t
        and are smaller at t; ``_before[t, v]`` counts tails with i_t < v."""
        t = np.arange(len(self.cols))
        return self._before[t, rows].sum(-1) - self._before[t[1:], rows[..., :-1]].sum(-1)

    @cached_property
    def _before(self) -> np.ndarray:
        """Sum over u < v of C(n - u + m - 1, m), the sorted tails starting
        at u when m = k - 1 - t slots follow slot t (a telescoping sum)."""
        n, k = self.dim, len(self.cols)
        counts = [[math.comb(n + m, m + 1) - math.comb(n - v + m, m + 1) for v in range(n)]
                  for m in range(k - 1, -1, -1)]
        return _frozen(np.array(counts, dtype=np.intp))

    @cached_property
    def position_rank(self) -> np.ndarray:
        """For each position (i_1..i_k) of an (n,)*k tensor in C order, the
        rank of its sorted indices: the position holds that entry."""
        n, k = self.dim, len(self.cols)
        positions = np.sort(np.indices((n,) * k).reshape(k, -1), axis=0)
        return _frozen(self.rank_of(positions.T))

    @cached_property
    def drop_rank(self) -> np.ndarray:
        """``drop_rank[r, s]``: the rank in ``layout(n, k - 1)`` of
        multi-index r without its slot s (k >= 2 only).  Built on first
        use, so a layout of any degree builds no layout below it."""
        lower = layout(self.dim, len(self.cols) - 1)
        slots = range(len(self.cols))
        drop = [lower.rank_of(np.delete(self.variables, s, axis=1)) for s in slots]
        return _frozen(np.stack(drop, axis=1))

    @cached_property
    def lift_rank(self) -> np.ndarray:
        """``lift_rank[r, i]``: the rank in ``layout(n, k + 1)`` of
        multi-index r with the 0-based variable i added, the counterpart
        of ``drop_rank``.  Built on first use, as ``drop_rank`` is."""
        upper = layout(self.dim, len(self.cols) + 1)
        rows = np.empty((len(self.indices), self.dim, len(self.cols) + 1), dtype=np.intp)
        rows[..., :-1] = self.variables[:, None, :]
        rows[..., -1] = np.arange(self.dim)
        return _frozen(upper.rank_of(np.sort(rows, axis=-1)))


def check_layout_size(n: int, k: int) -> None:
    """ValueError unless the degree-k basis over C^n fits ``LAYOUT_BUDGET``;
    counted, not enumerated."""
    rows = math.comb(n + k - 1, k)
    if rows * max(n, k) > LAYOUT_BUDGET:
        raise ValueError(
            f"the degree-{k} basis over C^{n} has {rows} rows, over the size "
            f"budget: rows x max(dim, degree) must be at most {LAYOUT_BUDGET}"
        )


@cache
def layout(n: int, k: int) -> Layout:
    """The basis of degree-k symmetric tensors over C^n, built once.  A
    basis over ``LAYOUT_BUDGET`` raises ValueError before it is built."""
    check_layout_size(n, k)
    idx = np.array(
        list(itertools.combinations_with_replacement(range(n), k)), dtype=np.intp
    ).reshape(-1, k)
    exps = (idx[:, :, None] == np.arange(n)).sum(axis=1)
    indices = tuple(map(tuple, (idx + 1).tolist()))
    # exact Python integers, rounded once: 21! does not fit in an int64
    mult = np.array([multinomial(i) for i in indices], dtype=float)
    return Layout(
        dim=n,
        indices=indices,
        exponents=tuple(map(tuple, exps.tolist())),
        rank=MappingProxyType({j: r for r, j in enumerate(indices)}),
        multinomials=_frozen(mult),
        variables=_frozen(idx),
        cols=tuple(_frozen(c) for c in idx.T.copy()),
    )


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, init=False, eq=False)
class HomPoly:
    """Degree-k homogeneous polynomial C^n -> C^m as a symmetric tensor.

    ``entries`` is one read-only (T, m) complex array: row r holds the
    tensor entry at the r-th sorted multi-index of ``layout(n, k)``, zero
    where the polynomial has no term.  ``coeffs`` is a read-only view of
    the nonzero rows keyed by multi-index, the form spec files use.
    """

    degree: int
    domain_dim: int
    codomain_dim: int
    entries: np.ndarray

    def __init__(
        self,
        degree: int,
        domain_dim: int,
        codomain_dim: int,
        coeffs: Mapping[MultiIndex, Iterable[complex]] | None = None,
    ):
        if degree < 1:
            raise ValueError(f"degree must be positive, got {degree}")
        rank = layout(domain_dim, degree).rank
        entries = np.zeros((len(rank), codomain_dim), dtype=complex)
        for idx, vec in (coeffs or {}).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != degree:
                raise ValueError(f"multi-index {idx} has length != degree {degree}")
            if idx != tuple(sorted(idx)):
                raise ValueError(f"multi-index {idx} is not sorted")
            if any(i < 1 or i > domain_dim for i in idx):
                raise ValueError(f"multi-index {idx} out of range 1..{domain_dim}")
            arr = np.asarray(vec, dtype=complex)
            if arr.shape != (codomain_dim,):
                raise ValueError(
                    f"coefficient at {idx} has shape {arr.shape}, "
                    f"expected ({codomain_dim},)"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"coefficient at {idx} is not finite")
            entries[rank[idx]] = arr
        _fill(self, degree, domain_dim, codomain_dim, entries)

    # -- construction -----------------------------------------------------

    @classmethod
    def _trusted(
        cls, degree: int, domain_dim: int, codomain_dim: int, entries: np.ndarray
    ) -> "HomPoly":
        """Constructor for an entries array the library computed itself: a
        complex (T, m) array in the rank order of ``layout(domain_dim,
        degree)`` that no caller writes to afterwards.  Freezes the array;
        the checks of ``__init__``, which guard outside input, are skipped."""
        obj = object.__new__(cls)
        _fill(obj, degree, domain_dim, codomain_dim, entries)
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
        basis = layout(domain_dim, degree)
        values = np.zeros((len(basis.indices), codomain_dim), dtype=complex)
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
            if not np.isfinite(arr).all():
                raise ValueError(f"coefficient of {exps} is not finite")
            values[basis.rank[exponents_to_multi_index(exps)]] = arr
        entries = values / basis.multinomials[:, None]
        return cls._trusted(degree, domain_dim, codomain_dim, entries)

    @cached_property
    def coeffs(self) -> Mapping[MultiIndex, np.ndarray]:
        """Read-only mapping of the nonzero entries, by sorted multi-index."""
        indices = layout(self.domain_dim, self.degree).indices
        rows = np.flatnonzero(self.entries.any(axis=1)).tolist()
        return MappingProxyType({indices[r]: self.entries[r] for r in rows})

    # -- algebra ----------------------------------------------------------

    def _check_same_shape(self, other: "HomPoly") -> None:
        if (self.degree, self.domain_dim, self.codomain_dim) != (
            other.degree,
            other.domain_dim,
            other.codomain_dim,
        ):
            raise ValueError("tensors of different shape")

    def __add__(self, other: "HomPoly") -> "HomPoly":
        self._check_same_shape(other)
        return self._trusted(
            self.degree, self.domain_dim, self.codomain_dim, self.entries + other.entries
        )

    def scale(self, c: complex) -> "HomPoly":
        return self._trusted(
            self.degree, self.domain_dim, self.codomain_dim, c * self.entries
        )

    def max_coeff(self) -> float:
        """Largest entry modulus; NaN if any entry is NaN."""
        return float(np.abs(self.entries).max(initial=0.0))

    def allclose(
        self, other: "HomPoly", atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL
    ) -> bool:
        self._check_same_shape(other)
        return entries_close(self.entries, other.entries, atol, rtol)

    # -- evaluation -------------------------------------------------------

    @cached_property
    def _compiled(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """``basis_coefficients`` of this polynomial alone: the index columns
        and its (T, m) coefficients.  Built on first evaluation."""
        cols, (coef,) = basis_coefficients([self])
        return cols, coef

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
        return _evaluate(*self._compiled, xs)

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
        out = self.entries[layout(n, k).position_rank].reshape((n,) * k + (m,))
        return _frozen(out)


def _fill(obj: HomPoly, degree: int, domain_dim: int, codomain_dim: int, entries):
    entries.flags.writeable = False
    # the instance dict, not __setattr__, which is frozen
    obj.__dict__.update(
        degree=degree, domain_dim=domain_dim, codomain_dim=codomain_dim, entries=entries
    )


def entries_close(a, b, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> bool:
    """max|a - b| <= atol + rtol * max(max|a|, max|b|) over entry arrays of
    one shape; False if any entry is NaN or infinite."""
    mods = np.abs(np.stack((a, b, a - b))).reshape(3, -1).max(axis=1, initial=0.0)
    scale = mods[:2].max()
    return bool(mods[2] <= atol + rtol * scale) and math.isfinite(scale)


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
    has no term, so that ``_evaluate(cols, coef[j], xs)`` evaluates
    polys[j] at the rows of xs, as ``HomPoly.eval_many`` does."""
    P0 = polys[0]
    n, k, m = P0.domain_dim, P0.degree, P0.codomain_dim
    if any((P.domain_dim, P.degree, P.codomain_dim) != (n, k, m) for P in polys):
        raise ValueError("polynomials of one degree and shape expected")
    basis = layout(n, k)
    coef = np.array([P.entries for P in polys]) * basis.multinomials[:, None]
    return basis.cols, coef


def eval_rows(polys, xs: np.ndarray) -> np.ndarray:
    """Row i of the (N, m) result is polys[i] at row i of the (N, n) array
    xs, for N polynomials of one degree and shape."""
    cols, coef = basis_coefficients(polys)
    return _evaluate(cols, coef, xs[:, None])[:, 0]


def _evaluate(cols, coef: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``monomials(xs, cols) @ coef``, the one product of every polynomial
    evaluation: the (..., N, m) values at the points xs (..., N, n) of the
    polynomials whose coefficients (..., T, m) are over the index columns
    ``cols`` (``basis_coefficients``), the leading axes broadcast."""
    rows = xs.shape[-2]
    if rows > EVAL_BLOCK_ROWS:
        # blocks of rows bound the (rows, T) monomial buffers, which
        # would otherwise dominate the peak memory of a large batch
        parts = [xs[..., lo : lo + EVAL_BLOCK_ROWS, :] for lo in range(0, rows, EVAL_BLOCK_ROWS)]
        return np.concatenate([_evaluate(cols, coef, part) for part in parts], axis=-2)
    terms = monomials(xs, cols)
    if coef.shape[-1] == 1:
        # a complex product with one output column runs on zgemv, which
        # a multithreaded BLAS can make hundreds of times slower; the
        # (2, T) real view [Re c; Im c] of the coefficient column, with
        # the (T, 2N) real view of the monomials' transpose, gives
        # sum c_t z_t as sum Re(c_t) z_t + i sum Im(c_t) z_t.  For m > 1
        # the complex product stays: the real form costs more on the
        # one-row evaluations of ``sup_norm_fs``
        re_im = coef.view(np.float64).swapaxes(-1, -2)
        flat = np.ascontiguousarray(terms.swapaxes(-1, -2)).view(np.float64)
        w = (re_im @ flat).view(complex)
        return (w[..., 0, :] + 1j * w[..., 1, :])[..., None]
    return terms @ coef


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
    Q.  The symmetric entries are written directly from Q's,
    T[i_0..i_q] = (1/(q+1)) sum_s Q[i without i_s] @ M[i_s].
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 3 or M.shape[:2] != (Q.domain_dim, Q.codomain_dim):
        raise ValueError(
            f"expected an ({Q.domain_dim}, {Q.codomain_dim}, m) array, "
            f"got shape {M.shape}"
        )
    q = Q.degree
    basis = layout(Q.domain_dim, q + 1)
    rows = Q.entries @ M  # rows[a, j] = Q[j] @ M[a]
    terms = rows[basis.variables, basis.drop_rank]  # (T, q+1, m)
    return HomPoly._trusted(q + 1, Q.domain_dim, M.shape[2], terms.sum(axis=1) / (q + 1))


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
