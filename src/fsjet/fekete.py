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

    The starts are the basis vectors, then seeded random unit vectors.  They
    run as one batch through three steps:

    1. one exact sweep: v maximizes ||B[u, v]|| at fixed u, then u at fixed
       v, each a largest-singular-vector solve (one stacked SVD per half);
    2. sweeps of the higher-order power method (HOPM): the half-steps
       v <- B[u, .]* B[u, v] and u <- B[., v]* B[u, v], each normalised
       (De Lathauwer, De Moor & Vandewalle, "On the best rank-1 and
       rank-(R1,...,RN) approximation of higher-order tensors", SIAM J.
       Matrix Anal. Appl. 21(4), 2000);
    3. exact sweeps again, on the start with the largest value only.

    A start stops at the first sweep that changes its value by at most
    1e-14 relative; a start whose exact sweep gives 0 stops there.  Steps 1
    and 2 run at most ``iters`` sweeps, step 3 at most ``iters`` more.  The
    value is the last singular value of step 3 and the returned unit pair
    attains it, ||B[u, v]|| = value, so it is a lower bound on the norm.
    Deterministic for a given seed.
    """
    if B.degree != 2:
        raise ValueError(f"expected a degree-2 tensor, got degree {B.degree}")
    if starts < 1:
        raise ValueError(f"starts must be positive, got {starts}")
    if iters < 1:
        raise ValueError(f"iters must be positive, got {iters}")
    n = B.domain_dim
    dense = B.dense()  # (n, n, m)
    if not np.any(dense):
        return BilinearNormEstimate(0.0, np.zeros(n, complex), np.zeros(n, complex))
    # each random start draws its n real parts, then its n imaginary parts
    z = np.random.default_rng(seed).standard_normal((max(starts - n, 0), 2, n))
    z = z[:, 0] + 1j * z[:, 1]
    inits = np.concatenate([np.eye(n, dtype=complex), z / _row_norms(z)[:, None]])

    vals, us, vs = _svd_sweep(dense, inits[:starts])
    # B[u, v] != 0 on every active start, so no power step divides by 0
    active = np.flatnonzero(~_converged(vals, 0.0))
    D = dense.reshape(n, -1)  # D[a, (b, k)] = B[e_a, e_b]_k
    u, v, val = us[active], vs[active], vals[active]
    for _ in range(iters - 1):
        if active.size == 0:
            break
        v, _ = _power_half_step(D, u, v)
        u, w = _power_half_step(D, v, u)
        new_val = _row_norms(w)
        done = _converged(new_val, val)
        val = new_val
        if done.any():
            us[active[done]], vals[active[done]] = u[done], val[done]
            keep = ~done
            active, u, v, val = active[keep], u[keep], v[keep], val[keep]
    us[active], vals[active] = u, val

    i = int(np.argmax(vals))
    value, u = vals[i], us[i : i + 1]
    for _ in range(iters):
        new_vals, u, v = _svd_sweep(dense, u)
        done = _converged(new_vals[0], value)
        value = new_vals[0]
        if done:
            break
    return BilinearNormEstimate(float(value), u[0], v[0])


def _converged(new, old):
    """The stopping rule: a change of at most 1e-14 relative."""
    return np.abs(new - old) <= 1e-14 * np.maximum(1.0, new)


def _svd_sweep(dense: np.ndarray, us: np.ndarray):
    """One exact alternating sweep for each row of ``us``: v maximizes
    ||B[u, v]|| at fixed u, then u at fixed v, each by an SVD of the matrix
    with the other argument fixed.  Returns (values, us, vs)."""
    # fix u: v -> B[u, v] is the matrix M with M[:, b] = sum_a T[a,b,:] u_a
    M = np.einsum("abm,sa->smb", dense, us)
    _, _, vh = np.linalg.svd(M)
    vs = vh[:, 0].conj()
    M2 = np.einsum("abm,sb->sma", dense, vs)
    _, s2, uh = np.linalg.svd(M2)
    return s2[:, 0], uh[:, 0].conj(), vs


def _power_half_step(D: np.ndarray, x: np.ndarray, y: np.ndarray):
    """y <- B[x, .]* B[x, y], normalised, for each row; also B[x, y].

    B is symmetric, so the same step updates either argument."""
    S, n = x.shape
    Bx = (x @ D).reshape(S, n, -1)  # Bx[s, b] = B[x_s, e_b]
    w = np.matmul(y[:, None, :], Bx)  # (S, 1, m): B[x_s, y_s]
    y = np.matmul(Bx.conj(), w.transpose(0, 2, 1))[:, :, 0]
    y /= _row_norms(y)[:, None]
    return y, w[:, 0]


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a, with less overhead than np.linalg.norm."""
    a = np.abs(a)
    return np.sqrt((a * a).sum(axis=1))


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
