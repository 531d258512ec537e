"""The Fekete-Szego mapping of a jet, its scalar variants, and the
composition error term with its explicit bound.

Conventions: the ambient space is C^n with the Euclidean inner product
<x, y> = sum x_i conj(y_i), so the support functional at a unit vector e
is x -> <x, e>.  B denotes the degree-2 tensor of f, so D^2 f(0)[u, v]
equals 2 B[u, v].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .jets import MappingJet
from .tensors import HomPoly, _check_vector

E_NORM_TOL = 1e-6

SCALAR_VARIANT_MU = {1: 0.0, 2: 1.0, 3: 2.0 / 3.0, 4: 2.0}


def _inner(x: np.ndarray, e: np.ndarray) -> complex:
    """<x, e>, conjugate-linear in e."""
    return complex(np.vdot(e, x))


def normalize_direction(e) -> np.ndarray:
    e = np.asarray(e, dtype=complex)
    norm = np.linalg.norm(e)
    if abs(norm - 1.0) > E_NORM_TOL:
        raise ValueError(f"direction must be a unit vector (norm {norm:.6g})")
    return e / norm


@dataclass(frozen=True)
class FSContext:
    """Direction e on the unit sphere and the two complex parameters."""

    e: np.ndarray
    lam: complex
    mu: complex

    def __post_init__(self):
        object.__setattr__(self, "e", normalize_direction(self.e))
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "mu", complex(self.mu))


@dataclass(frozen=True)
class FSValue:
    vector: np.ndarray
    scalar_projection: complex


def fs_mapping(f: MappingJet, ctx: FSContext) -> FSValue:
    """Psi_e(f, lambda, mu) = P3(e) - mu B[e, P2(e)] - (lam-mu)<P2(e),e> P2(e)."""
    e = _check_vector(ctx.e, f.dim)
    P2e = f.poly(2).eval(e)
    P3e = f.poly(3).eval(e)
    vec = (
        P3e
        - ctx.mu * f.poly(2).multilinear_eval([e, P2e])
        - (ctx.lam - ctx.mu) * _inner(P2e, e) * P2e
    )
    return FSValue(vector=vec, scalar_projection=_inner(vec, e))


def fs_mapping_many(
    f: MappingJet, es: np.ndarray, lam: complex, mu: complex
) -> np.ndarray:
    """Psi over a batch of unit directions (rows of es), via dense tensors.

    Independent dense-contraction route; also the hot path for the sphere
    optimizer and grid oracles.
    """
    es = np.asarray(es, dtype=complex)
    B = f.poly(2).dense()  # (n, n, n)
    P2 = np.einsum("abm,ia,ib->im", B, es, es)
    P3 = f.poly(3).eval_many(es)
    BeP2 = np.einsum("abm,ia,ib->im", B, es, P2)
    proj = np.einsum("im,im->i", P2, es.conj())
    return P3 - mu * BeP2 - (lam - mu) * proj[:, None] * P2


def fs_scalar(f: MappingJet, e, lam: complex, variant: int = 1) -> complex:
    """psi_e^(v)(f, lam) = <Psi_e(f, lam, mu_v), e> with mu_v in {0,1,2/3,2}."""
    if variant not in SCALAR_VARIANT_MU:
        raise ValueError(f"unknown variant {variant!r}; expected 1..4")
    ctx = FSContext(e, lam, SCALAR_VARIANT_MU[variant])
    return fs_mapping(f, ctx).scalar_projection


def fs_operator_variant(f: MappingJet, e, A: np.ndarray, lam: complex) -> complex:
    """psi_e^A(f, lam) = a3A - (lam-1) a2A^2 - a22A for an n x n matrix A."""
    e = normalize_direction(np.asarray(e, dtype=complex))
    A = np.asarray(A, dtype=complex)
    if A.shape != (f.dim, f.dim) or e.shape != (f.dim,):
        raise ValueError("dimension mismatch between jet, direction and operator")
    B2 = f.poly(2)
    T3 = f.poly(3)
    Ae = A @ e
    P2e = B2.eval(e)
    P3e = T3.eval(e)
    d2_e_Ae = 2.0 * B2.multilinear_eval([e, Ae])
    d3_e2_Ae = 6.0 * T3.multilinear_eval([e, e, Ae])
    a2 = _inner(d2_e_Ae - A @ P2e, e)
    a3 = 0.25 * _inner(d3_e2_Ae - 2.0 * (A @ P3e), e)
    # the quadratic correction; the inner evaluation point is read as e
    a22 = 0.5 * _inner(
        2.0 * B2.multilinear_eval([e, d2_e_Ae])
        - 2.0 * B2.multilinear_eval([e, A @ P2e]),
        e,
    )
    return a3 - (lam - 1.0) * a2**2 - a22


class BilinearNormEstimate(NamedTuple):
    value: float
    u: np.ndarray
    v: np.ndarray


def operator_norm_bilinear(
    B: HomPoly,
    starts: int = 32,
    iters: int = 200,
    seed: int = 0,
) -> BilinearNormEstimate:
    """sup over unit u, v of ||B[u, v]|| by multistart alternating maximization.

    With one argument fixed the problem is a largest-singular-value
    computation, so each sweep alternates exact SVD solves.  All starts
    sweep together, one stacked SVD per half-sweep; a start stops at the
    first sweep that changes its value by at most 1e-14 relative.
    Deterministic for a given seed; returns the best witness pair (the
    first start that attains the largest value).
    """
    if B.degree != 2:
        raise ValueError(f"expected a degree-2 tensor, got degree {B.degree}")
    if starts < 1:
        raise ValueError(f"starts must be positive, got {starts}")
    n = B.domain_dim
    dense = B.dense()  # (n, n, m)
    if not np.any(dense):
        return BilinearNormEstimate(0.0, np.zeros(n, complex), np.zeros(n, complex))
    rng = np.random.default_rng(seed)
    inits = [np.eye(n, dtype=complex)[i] for i in range(n)]
    while len(inits) < starts:
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        inits.append(u / np.linalg.norm(u))
    us = np.array(inits[:starts])  # (starts, n)
    vs = us.copy()
    vals = np.zeros(len(us))
    active = np.arange(len(us))
    for _ in range(iters):
        if active.size == 0:
            break
        # fix u: v -> B[u, v] is the matrix M with M[:, b] = sum_a T[a,b,:] u_a
        M = np.einsum("abm,sa->smb", dense, us[active])
        _, _, vh = np.linalg.svd(M)
        v = vh[:, 0].conj()
        M2 = np.einsum("abm,sb->sma", dense, v)
        _, s2, uh = np.linalg.svd(M2)
        new_vals = s2[:, 0]
        us[active], vs[active] = uh[:, 0].conj(), v
        converged = np.abs(new_vals - vals[active]) <= 1e-14 * np.maximum(1.0, new_vals)
        vals[active] = new_vals
        active = active[~converged]
    i = int(np.argmax(vals))
    return BilinearNormEstimate(float(vals[i]), us[i].copy(), vs[i].copy())


def ell(lam: complex, mu: complex) -> float:
    """The error-term coefficient 2|lam - mu| + |mu| + |mu - 2|."""
    return 2.0 * abs(lam - mu) + abs(mu) + abs(mu - 2.0)


def fs_error_term(
    f: MappingJet, g: MappingJet, ctx: FSContext, norm_seed: int = 0
) -> tuple[np.ndarray, float]:
    """Defect R of additivity of Psi under composition, with its bound.

    R = Psi_e(f o g) - Psi_e(f) - Psi_e(g); the bound is ell(lam, mu) N_f N_g
    where N_f is the operator norm of the degree-2 tensor.
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    from .jets import compose

    fg = compose(f, g)
    R = (
        fs_mapping(fg, ctx).vector
        - fs_mapping(f, ctx).vector
        - fs_mapping(g, ctx).vector
    )
    nf = operator_norm_bilinear(f.poly(2), seed=norm_seed).value
    ng = operator_norm_bilinear(g.poly(2), seed=norm_seed + 1).value
    return R, ell(ctx.lam, ctx.mu) * nf * ng
