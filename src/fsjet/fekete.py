"""The Fekete-Szego mapping of a jet, its scalar variants, the composition
defect R = Psi_e(f o g) - Psi_e(f) - Psi_e(g), and the operator norm of a
bilinear tensor, which bounds R together with ``ell``.

Conventions: the ambient space is C^n with the Euclidean inner product
<x, y> = sum x_i conj(y_i), so the support functional at a unit vector e
is x -> <x, e>.  B denotes the degree-2 tensor of f, so D^2 f(0)[u, v]
equals 2 B[u, v].
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .jets import MappingJet, compose
from .tensors import HomPoly, _check_vector

E_NORM_TOL = 1e-6

SCALAR_VARIANT_MU = {1: 0.0, 2: 1.0, 3: 2.0 / 3.0, 4: 2.0}

NORM_BLOCK_CELLS = 1024


def _inner(x: np.ndarray, e: np.ndarray) -> complex:
    """<x, e>, conjugate-linear in e."""
    return complex(np.vdot(e, x))


def normalize_direction(e) -> np.ndarray:
    e = np.asarray(e, dtype=complex)
    norm = np.linalg.norm(e)
    if not abs(norm - 1.0) <= E_NORM_TOL:  # also true for a NaN norm
        raise ValueError(f"direction must be a unit vector (norm {norm:.6g})")
    return e / norm


def finite_params(lam, mu) -> tuple[complex, complex]:
    """(lam, mu) as complex numbers; ValueError if either is NaN or infinite."""
    lam, mu = complex(lam), complex(mu)
    for name, z in (("lambda", lam), ("mu", mu)):
        if not cmath.isfinite(z):
            raise ValueError(f"{name} must be finite, got {z}")
    return lam, mu


@dataclass(frozen=True)
class FSContext:
    """Direction e on the unit sphere and the two complex parameters."""

    e: np.ndarray
    lam: complex
    mu: complex

    def __post_init__(self):
        object.__setattr__(self, "e", normalize_direction(self.e))
        lam, mu = finite_params(self.lam, self.mu)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class FSValue:
    vector: np.ndarray
    scalar_projection: complex


def fs_mapping(f: MappingJet, ctx: FSContext) -> FSValue:
    """Psi_e(f, lambda, mu) = P3(e) - mu B[e, P2(e)] - (lam-mu)<P2(e),e> P2(e)."""
    e = _check_vector(ctx.e, f.dim)
    vec = fs_mapping_many(f, e[None], ctx.lam, ctx.mu)[0]
    return FSValue(vector=vec, scalar_projection=_inner(vec, e))


def fs_mapping_many(
    f: MappingJet, es: np.ndarray, lam: complex, mu: complex
) -> np.ndarray:
    """Psi over a batch of unit directions (rows of es), via dense tensors.

    The one implementation of the formula: ``fs_mapping`` is its one-row
    case, and the sphere optimizer and grid oracles call it on batches.
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


class BilinearNormEstimate(NamedTuple):
    value: float
    u: np.ndarray
    v: np.ndarray


def operator_norm_bilinear(
    B: HomPoly | Sequence[HomPoly],
    starts: int = 32,
    iters: int = 200,
    seed: int | Sequence[int] = 0,
) -> BilinearNormEstimate | list[BilinearNormEstimate]:
    """sup over unit u, v of ||B[u, v]|| by multistart alternating maximization.

    The starts are the basis vectors, then seeded random unit vectors.  They
    run as one batch through three steps:

    1. one exact sweep: v maximizes ||B[u, v]|| at fixed u, then u at fixed
       v, each a largest-singular-vector solve (one stacked Hermitian
       eigensolve of an n x n Gram matrix per half);
    2. sweeps of the higher-order power method (HOPM): the half-steps
       v <- B[u, .]* B[u, v] and u <- B[., v]* B[u, v], each normalised
       (De Lathauwer, De Moor & Vandewalle, "On the best rank-1 and
       rank-(R1,...,RN) approximation of higher-order tensors", SIAM J.
       Matrix Anal. Appl. 21(4), 2000);
    3. exact sweeps again, on the start with the largest value only.

    A start stops at the first sweep that changes its value by at most
    1e-14 relative; a start whose exact sweep gives 0 stops there.  The
    rule bounds the last step, not the distance to the maximum: a slowly
    converging start can stop about 1e-13 relative below its local
    maximum, so two versions of this estimate may differ at that level.
    Steps 1 and 2 run at most ``iters`` sweeps, step 3 at most ``iters``
    more.  The value is the last singular value of step 3 and the returned
    unit pair attains it, ||B[u, v]|| = value, so it is a lower bound on
    the norm.  Deterministic for a given seed.

    ``B`` may also be a sequence of degree-2 tensors of one shape, with
    ``seed`` one int for all of them or a sequence of one seed per tensor.
    The result is then the list of estimates, each equal within rounding
    to the lone call on its tensor and seed.  Each (tensor, start) pair is
    a cell of the batch, which leaves it when it stops; a stack runs in
    blocks of as many tensors as fit in ``NORM_BLOCK_CELLS`` cells, at
    least one.  An empty sequence gives [].
    A tensor with a NaN or infinite entry raises ``ValueError`` naming
    its index.
    """
    if starts < 1:
        raise ValueError(f"starts must be positive, got {starts}")
    if iters < 1:
        raise ValueError(f"iters must be positive, got {iters}")
    single = isinstance(B, HomPoly)
    polys = [B] if single else list(B)
    seeds = [seed] * len(polys) if np.ndim(seed) == 0 else [int(s) for s in seed]
    if len(seeds) != len(polys):
        raise ValueError(f"got {len(seeds)} seeds for {len(polys)} tensors")
    if not polys:
        return []
    shape = None
    for i, P in enumerate(polys):
        if not isinstance(P, HomPoly) or P.degree != 2:
            got = f"degree {P.degree}" if isinstance(P, HomPoly) else type(P).__name__
            raise ValueError(f"expected a degree-2 tensor{_at(single, i)}, got {got}")
        shape = shape or (P.domain_dim, P.codomain_dim)
        if (P.domain_dim, P.codomain_dim) != shape:
            raise ValueError(
                f"tensors of one shape expected: C^{shape[0]} -> C^{shape[1]} "
                f"at index 0, C^{P.domain_dim} -> C^{P.codomain_dim}{_at(single, i)}"
            )
    n = shape[0]
    dense = np.array([P.dense() for P in polys]).reshape(len(polys), n, -1)
    if not np.isfinite(dense).all():
        i = int(np.argmin(np.isfinite(dense).all(axis=(1, 2))))
        raise ValueError(f"the tensor{_at(single, i)} has a non-finite entry")
    out = [
        BilinearNormEstimate(0.0, np.zeros(n, complex), np.zeros(n, complex))
        for _ in polys
    ]
    live = dense.any(axis=(1, 2)).nonzero()[0].tolist()
    # blocks of tensors bound the per-cell tensor copies, which would
    # otherwise dominate the peak memory of a large stack
    block = max(1, NORM_BLOCK_CELLS // starts)
    for lo in range(0, len(live), block):
        tensors = live[lo : lo + block]
        inits = np.array([_starts(n, starts, seeds[i]) for i in tensors])
        values, us, vs = _estimate(dense[tensors], inits, iters)
        for j, i in enumerate(tensors):
            out[i] = BilinearNormEstimate(float(values[j]), us[j], vs[j])
    return out[0] if single else out


def _at(single: bool, i: int) -> str:
    """Where in a stack an error lies, for error messages."""
    return "" if single else f" at index {i}"


@lru_cache(maxsize=256)
def _starts(n: int, starts: int, seed: int) -> np.ndarray:
    """The (starts, n) start points: basis vectors, then seeded random unit
    vectors, each drawing its n real parts, then its n imaginary parts.
    Read-only, as one array serves every call with the same arguments."""
    z = np.random.default_rng(seed).standard_normal((max(starts - n, 0), 2, n))
    z = z[:, 0] + 1j * z[:, 1]
    inits = np.concatenate([np.eye(n, dtype=complex), z / _row_norms(z)[:, None]])
    inits = inits[:starts]
    inits.flags.writeable = False
    return inits


def _estimate(D: np.ndarray, inits: np.ndarray, iters: int):
    """The three steps for tensors D[l] (as (n, n*m) matrices, D[l][a, (b, k)]
    = B_l[e_a, e_b]_k) from starts inits[l] of shape (S, n).

    Step 1 sweeps every start of a tensor at once.  Steps 2 and 3 run on
    cells, one per (tensor, start), each a row that carries its own copy
    of its tensor.  Returns (values, us, vs)."""
    L, S, n = inits.shape
    vals, us, vs = _exact_sweep(D, inits)  # (L, S), (L, S, n)
    vals, us, vs = vals.reshape(-1), us.reshape(-1, n), vs.reshape(-1, n)
    # B[u, v] != 0 on a cell of nonzero value, and a power step never
    # lowers ||B[u, v]||, so no power step divides by 0
    live = ~_converged(vals, 0.0)
    cells = np.repeat(np.arange(L), S)[live]  # the tensor of each cell
    vals[live], us[live], _ = _until_stable(
        _power_sweep, D[cells], vals[live], us[live], vs[live], iters - 1
    )

    def exact(D, u, v):  # v is recomputed from u
        val, u, v = _exact_sweep(D, u[:, None])
        return val[:, 0], u[:, 0], v[:, 0]

    best = vals.reshape(L, S).argmax(axis=1) + S * np.arange(L)
    return _until_stable(exact, D, vals[best], us[best], vs[best], iters)


def _until_stable(sweep, D, val, u, v, cap):
    """Apply ``sweep`` to every cell, one per row of D, val, u and v, until
    it stops or has had ``cap`` sweeps.  A cell stops at the first sweep
    that changes its value by at most 1e-14 relative, and then leaves the
    batch.  Writes each cell's last (value, u, v) into the arrays val, u
    and v, and returns them."""
    out_val, out_u, out_v = val, u, v
    cells = np.arange(len(val))
    for _ in range(cap):
        if not cells.size:
            break
        new_val, u, v = sweep(D, u, v)
        done = _converged(new_val, val)
        val = new_val
        if np.count_nonzero(done):
            c = cells[done]
            out_val[c], out_u[c], out_v[c] = val[done], u[done], v[done]
            keep = ~done
            cells, D, val, u, v = cells[keep], D[keep], val[keep], u[keep], v[keep]
    out_val[cells], out_u[cells], out_v[cells] = val, u, v
    return out_val, out_u, out_v


def _converged(new, old):
    """The stopping rule: a change of at most 1e-14 relative."""
    return np.abs(new - old) <= 1e-14 * np.maximum(1.0, new)


def _exact_sweep(D: np.ndarray, u: np.ndarray):
    """One exact alternating sweep for each start u[l, s] on the tensor D[l]:
    v maximizes ||B[u, v]|| at fixed u, then u at fixed v.  B is symmetric,
    so B[., v] is B[v, .].  Returns (values, us, vs)."""
    _, v = _top_singular_pair(D, u)
    values, u = _top_singular_pair(D, v)
    return values, u, v


def _power_sweep(D: np.ndarray, u: np.ndarray, v: np.ndarray):
    """One HOPM sweep for each row, v from u and then u from v.  Returns
    (values, us, vs)."""
    v, _ = _power_half_step(D, u, v)
    u, w = _power_half_step(D, v, u)
    return _row_norms(w), u, v


def _top_singular_pair(D: np.ndarray, x: np.ndarray):
    """max over unit y of ||B[x, y]||, and a unit y attaining it, for each
    start x[l, s] and the tensor D[l].  B[x, y] = M^T y for M = B[x, .], so
    y is the top eigenvector of the Hermitian n x n Gram matrix conj(M) M^T
    and the maximum is the square root of its top eigenvalue: the top
    singular pair of M^T, at about two thirds of the cost of an SVD for
    n <= 4."""
    M = (x @ D).reshape(x.shape + (-1,))  # M[l, s, b] = B_l[x_ls, e_b]
    w, V = np.linalg.eigh(np.matmul(M.conj(), M.swapaxes(-1, -2)))
    return np.sqrt(np.maximum(w[..., -1], 0.0)), V[..., -1]


def _power_half_step(D: np.ndarray, x: np.ndarray, y: np.ndarray):
    """y <- B[x, .]* B[x, y], normalised, for each row and the tensor
    D[row]; also B[x, y].  B is symmetric, so the same step updates either
    argument."""
    R, n = x.shape
    Bx = (x[:, None, :] @ D).reshape(R, n, -1)  # Bx[r, b] = B_r[x_r, e_b]
    w = np.matmul(y[:, None, :], Bx)  # (R, 1, m): B[x_r, y_r]
    y = np.matmul(Bx.conj(), w.transpose(0, 2, 1))[:, :, 0]
    y /= _row_norms(y)[:, None]
    return y, w[:, 0]


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, which must be contiguous, with
    less overhead than np.linalg.norm: the sum of squares of the real and
    imaginary parts, read as one float array."""
    f = a.view(np.float64)
    return np.sqrt(np.add.reduce(f * f, axis=-1))


def ell(lam: complex, mu: complex) -> float:
    """The error-term coefficient 2|lam - mu| + |mu| + |mu - 2|."""
    return 2.0 * abs(lam - mu) + abs(mu) + abs(mu - 2.0)


def _composition_defect(f: MappingJet, g: MappingJet, ctx: FSContext) -> np.ndarray:
    """R = Psi_e(f o g) - Psi_e(f) - Psi_e(g), the one place R is formed."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    return (
        fs_mapping(compose(f, g), ctx).vector
        - fs_mapping(f, ctx).vector
        - fs_mapping(g, ctx).vector
    )
