"""One-dimensional-type mappings: detection, the n-th root transform, and
sampled injectivity checking."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Mapping

import numpy as np

from .jets import MappingJet
from .reporting import Report
from .sampling import sample_ball
from .tensors import ScalarHomPoly, layout, monomials, slot_product


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
        # with M[a] the row e_a, slot_product(M, p) is x -> p(x) x
        lift = np.eye(self.dim)[:, None, :]
        polys = {k + 1: slot_product(lift, p) for k, p in self.scalar_polys.items()}
        return MappingJet(self.dim, self.order, polys)


@cache
def _probe_directions(dim: int, extra: int = 16, seed: int = 2024) -> np.ndarray:
    """2n canonical directions plus seeded random unit vectors; read-only,
    built once per dimension."""
    rng = np.random.default_rng(seed)
    probes = []
    for i in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        probes.append(v.copy())
        v[i] = 1.0j
        probes.append(v.copy())
    for _ in range(extra):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        probes.append(v / np.linalg.norm(v))
    probes = np.array(probes)
    probes.flags.writeable = False
    return probes


def detect_onedim(f: MappingJet, tol: float = 1e-9) -> OneDimJet | None:
    """Factor each P_k as p_{k-1}(x) x if possible; None if not.

    For every stored degree the scalar coefficient vector is solved by
    least squares on a probe set, then the factorization residual is
    verified on the same probes.
    """
    probes = _probe_directions(f.dim)
    scalar_polys: dict[int, ScalarHomPoly] = {}
    for k, P in sorted(f.polys.items()):
        # unknowns: monomial coefficients of p_{k-1}; one row per probe
        # and output component, monom(x) * x_i against P_k(x)_i
        basis = layout(f.dim, k - 1)
        monom_vals = monomials(probes, basis.cols)
        A = (monom_vals[:, None, :] * probes[:, :, None]).reshape(-1, monom_vals.shape[1])
        b = P.eval_many(probes).reshape(-1)
        coef, *_ = np.linalg.lstsq(A, b, rcond=None)
        residual = np.max(np.abs(A @ coef - b))
        if residual > tol * (1.0 + P.max_coeff()):
            return None
        scalar_polys[k - 1] = ScalarHomPoly._trusted(
            k - 1, f.dim, 1, (coef / basis.multinomials)[:, None]
        )
    return OneDimJet(f.dim, f.order, scalar_polys)


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
    from .fekete import normalize_direction

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
    # which vanish off the support of e; slot_product then multiplies by x
    support = [i for i in range(1, f.dim + 1) if e[i - 1] != 0]
    lift = np.eye(f.dim)[:, None, :]
    polys = {}
    for m in range(1, max_m + 1):
        idxs = itertools.combinations_with_replacement(support, n * m)
        Q = ScalarHomPoly(
            n * m, f.dim, {i: [b[m] * np.prod(np.conj(e[np.array(i) - 1]))] for i in idxs}
        )
        polys[n * m + 1] = slot_product(lift, Q)
    return MappingJet(f.dim, order, polys)


def check_injectivity_sampled(
    f: Callable[[np.ndarray], np.ndarray],
    dim: int,
    samples: int = 10_000,
    seed: int = 0,
    radius: float = 0.95,
    collision_tol: float = 1e-9,
    separation: float = 1e-3,
) -> Report:
    """Falsification test for injectivity on the ball of the given radius.

    Draws sample pairs and reports any pair mapped (numerically) to the
    same point, within ``collision_tol``, while being well separated.  The
    residual is the number of such pairs, against tolerance 0.  PASS means
    no collision was found, not a proof of univalence.
    """
    rng = np.random.default_rng(seed)
    x1 = sample_ball(rng, samples, dim, radius)
    x2 = sample_ball(rng, samples, dim, radius)
    witnesses = []
    for a, b in zip(x1, x2):
        if np.linalg.norm(a - b) <= separation:
            continue
        gap = float(np.linalg.norm(f(a) - f(b)))
        if gap < collision_tol:
            witnesses.append({"x1": a.tolist(), "x2": b.tolist(), "gap": gap})
    return Report(
        suite="injectivity-sampled",
        trials=samples,
        seed=seed,
        tolerance=0.0,
        max_residual=len(witnesses),
        witnesses=witnesses,
    )


def koebe_onedim(dim: int = 1, order: int = 3) -> OneDimJet:
    """Jet of the Koebe-type map s(x) = 1/(1 - <x, e1>)^2 truncated: the
    scalar series has p_k(x) = (k+1) x_1^k."""
    polys = {}
    for k in range(1, order):
        exps = tuple([k] + [0] * (dim - 1))
        polys[k] = ScalarHomPoly.from_scalar_monomials(k, dim, {exps: float(k + 1)})
    return OneDimJet(dim, order, polys)
