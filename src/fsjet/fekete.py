"""The Fekete-Szego mapping of a jet, its scalar variants, the composition
defect R = Psi_e(f o g) - Psi_e(f) - Psi_e(g), and the operator norm of a
bilinear tensor, which bounds R together with ``ell``.

Conventions: the ambient space is C^n with the Euclidean inner product
<x, y> = sum x_i conj(y_i), so the support functional at a unit vector e
is x -> <x, e>.  B denotes the degree-2 tensor of f, so D^2 f(0)[u, v]
equals 2 B[u, v].
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .jets import MappingJet, _paired, _stack_of, compose
from .tensors import HomPoly, _check_vector, eval_rows, layout

E_NORM_TOL = 1e-6

SCALAR_VARIANT_MU = {1: 0.0, 2: 1.0, 3: 2.0 / 3.0, 4: 2.0}

NORM_BLOCK_CELLS = 1024


def normalize_direction(e) -> np.ndarray:
    e = np.asarray(e, dtype=complex)
    norm = np.linalg.norm(e)
    if not abs(norm - 1.0) <= E_NORM_TOL:  # also true for a NaN norm
        raise ValueError(f"direction must be a unit vector (norm {norm:.6g})")
    return e / norm


def finite_params(lam, mu, T: int | None = None) -> tuple:
    """(lam, mu) as complex numbers, the one check of both.  For a stack
    of T jets, each may also be T values, one per row, returned as a
    (T, 1) column.  A non-number, a NaN or infinite value, or values of
    another shape or count raise ``ValueError``."""
    out = []
    for name, given in (("lambda", lam), ("mu", mu)):
        z = np.asarray(given)
        if z.dtype.kind not in "biufc":
            raise ValueError(f"{name} must be a number, got {given!r}")
        if z.ndim > (T is not None):
            count = "" if T is None else f" or {T} values"
            raise ValueError(f"{name} must be a scalar{count}, got shape {z.shape}")
        if z.ndim:
            _paired(T, len(z), f"{name} values")
        z = z.astype(complex)
        bad = ~np.isfinite(z)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{name} must be finite, got {z.reshape(-1)[i]}{_at(z.ndim == 0, i)}")
        out.append(z[:, None] if z.ndim else complex(z))
    return tuple(out)


def fs_mapping(f, e, lam, mu) -> np.ndarray:
    """Psi_e(f, lambda, mu) = P3(e) - mu B[e, P2(e)] - (lam-mu)<P2(e),e> P2(e).

    ``e`` is one direction of shape (n,), giving the (n,) vector Psi_e, or
    a batch of shape (N, n), giving the (N, n) array whose row i is Psi at
    row i of ``e``.  ``f`` may also be a sequence of T >= 1 jets of one
    (dim, order), checked as ``compose`` checks it, with ``e`` a (T, n)
    array of one direction per jet and ``lam`` and ``mu`` each a scalar
    or a length-T sequence: row t of the (T, n) result is Psi of jet t at
    direction t with its lam and mu.  Each direction must be a unit vector within
    ``E_NORM_TOL`` and is normalized once more.  A direction of another
    shape, off the sphere or with a NaN entry, or a lam or mu that
    ``finite_params`` rejects, raises ``ValueError`` naming the row.
    <Psi_e, e> is ``np.vdot(e, Psi_e)`` for the normalized e.
    """
    f, T, f0 = _stack_of(f)
    lam, mu = finite_params(lam, mu, T)
    es = np.asarray(e, dtype=complex)
    n = f0.dim
    if T is not None:
        if es.ndim != 2 or es.shape[1] != n:
            raise ValueError(f"expected directions of shape (T, {n}), got shape {es.shape}")
        _paired(T, len(es), "directions")
    elif es.ndim not in (1, 2) or es.shape[-1] != n:
        raise ValueError(f"expected shape ({n},) or (N, {n}), got shape {es.shape}")
    elif es.ndim == 1:
        return _psi_rows(f, normalize_direction(es)[None], lam, mu)[0]
    return _psi_rows(f, _unit_rows(es), lam, mu)


def _unit_rows(es: np.ndarray) -> np.ndarray:
    """The rows of the (N, n) array es, each checked to be a unit vector
    within ``E_NORM_TOL`` and normalized once more."""
    norms = _row_norms(np.ascontiguousarray(es))
    off = ~(np.abs(norms - 1.0) <= E_NORM_TOL)  # also true for a NaN norm
    if off.any():
        i = int(off.argmax())
        raise ValueError(f"direction {i} must be a unit vector (norm {norms[i]:.6g})")
    return es / norms[:, None]


def _psi_rows(f, es: np.ndarray, lam, mu) -> np.ndarray:
    """Psi for each row of the (N, n) array es, via dense tensors, with no
    check: the one implementation of the formula.  ``f`` is one jet, or a
    list of N jets of one dim, row i then from jet i, with lam and mu
    scalars or (N, 1) columns.  ``sup_norm_fs`` calls it on points near
    the sphere, which must not be moved onto it."""
    if isinstance(f, MappingJet):
        # the cached tensor as a stack of one, which einsum broadcasts
        B = f.poly(2).dense()[None]
        P3 = f.poly(3).eval_many(es)
    else:  # one tensor per row: (N, n, n, n) and the rows' own P3
        B = _dense2(f)
        P3 = eval_rows([g.poly(3) for g in f], es)
    P2 = np.einsum("iabm,ia,ib->im", B, es, es)
    BeP2 = np.einsum("iabm,ia,ib->im", B, es, P2)
    proj = np.einsum("im,im->i", P2, es.conj())
    return P3 - mu * BeP2 - (lam - mu) * proj[:, None] * P2


def _dense2(jets: list[MappingJet]) -> np.ndarray:
    """The (T, n, n, n) dense degree-2 tensors of T jets of one dim."""
    n = jets[0].dim
    entries = np.array([f.poly(2).entries for f in jets])
    return entries[:, layout(n, 2).position_rank].reshape(len(jets), n, n, n)


def fs_scalar(f: MappingJet, e, lam: complex, variant: int = 1) -> complex:
    """psi_e^(v)(f, lam) = <Psi_e(f, lam, mu_v), e> with mu_v in {0,1,2/3,2}."""
    if variant not in SCALAR_VARIANT_MU:
        raise ValueError(f"unknown variant {variant!r}; expected 1..4")
    e = _check_vector(e, f.dim)
    psi = fs_mapping(f, e, lam, SCALAR_VARIANT_MU[variant])
    return complex(np.vdot(normalize_direction(e), psi))


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
       Matrix Anal. Appl. 21(4), 2000), in two parts:
       (a) every start sweeps until a sweep changes its value by at most
           1e-4 of it, which settles it into its basin;
       (b) the start with the largest value then sweeps on, to the
           strict rule below;
    3. exact sweeps again, on that start only.

    The strict rule stops a start at the first sweep that changes its
    value by at most 1e-14 relative; a start whose exact sweep gives 0
    stops there.  It bounds the last step, not the distance to the
    maximum: a slowly converging start can stop about 1e-13 relative
    below its local maximum, so two versions of this estimate may differ
    at that level.  The winner is picked in (a), so a second basin within
    about 1e-4 of the winner's value may be missed.  Steps 1 and 2 run
    at most ``iters`` sweeps per start, the winner's sweeps in (a) and
    (b) counted together; step 3 runs at most ``iters`` more.  The value
    is the last singular value of step 3 and the returned unit pair
    attains it, ||B[u, v]|| = value, so it is a lower bound on the norm.
    Deterministic for a given seed.

    An exact half-sweep solves one n x n Gram eigenproblem per cell that
    shares it: in closed form when at least ``_CLOSED_FORM_FROM[n]``
    cells share it, at n = 2 (exact) and n = 3 (Smith's trigonometric
    formula, with near-equal top eigenvalues left to ``np.linalg.eigh``),
    and by ``np.linalg.eigh`` otherwise, so the last bits of a value can
    depend on how many cells ran beside it.

    ``B`` may also be a sequence of degree-2 tensors of one shape, checked
    as ``jets.compose`` checks a stack, with ``seed`` one int for all of
    them or a sequence of one seed per tensor.  The result is then the
    list of estimates, each equal within rounding to the lone call on its
    tensor and seed.  Each (tensor, start) pair is a cell of the batch,
    which leaves it when it stops.  Steps 1 and 2(a), which copy a tensor
    per cell, run in blocks of as many tensors as fit in
    ``NORM_BLOCK_CELLS`` cells, at least one; each block passes on its
    winners, and 2(b) and step 3 run once on the winners of the whole
    stack, one cell per tensor.  A tensor of another degree, or with a NaN
    or infinite entry, raises ``ValueError`` naming its index in a stack.
    A lone tensor takes one int seed; a seed sequence with it raises
    ``ValueError``.
    """
    if starts < 1:
        raise ValueError(f"starts must be positive, got {starts}")
    if iters < 1:
        raise ValueError(f"iters must be positive, got {iters}")
    polys, T, lead = _stack_of(B, "tensor", HomPoly, ("degree", "domain_dim", "codomain_dim"))
    if T is None:
        if np.ndim(seed):
            raise ValueError(f"seed must be one int for a lone tensor, got shape {np.shape(seed)}")
        polys = [polys]
    if lead.degree != 2:
        raise ValueError(f"expected a degree-2 tensor{_at(T is None, 0)}, got degree {lead.degree}")
    seeds = [seed] * len(polys) if np.ndim(seed) == 0 else [int(s) for s in seed]
    _paired(len(polys), len(seeds), "seeds")
    n = lead.domain_dim
    dense = np.array([P.dense() for P in polys]).reshape(len(polys), n, -1)
    if not np.isfinite(dense).all():
        i = int(np.argmin(np.isfinite(dense).all(axis=(1, 2))))
        raise ValueError(f"the tensor{_at(T is None, i)} has a non-finite entry")
    out = [
        BilinearNormEstimate(0.0, np.zeros(n, complex), np.zeros(n, complex))
        for _ in polys
    ]
    live = dense.any(axis=(1, 2)).nonzero()[0].tolist()
    # blocks of tensors bound the per-cell tensor copies of steps 1 and
    # 2(a), which would otherwise dominate the peak memory of a large
    # stack; each block passes on one winner per tensor
    block = max(1, NORM_BLOCK_CELLS // starts)
    winners = []
    for lo in range(0, len(live), block):
        tensors = live[lo : lo + block]
        inits = np.array([_starts(n, starts, seeds[i]) for i in tensors])
        winners.append(_basin_winners(dense[tensors], inits, iters))
    if winners:
        *state, caps = map(np.concatenate, zip(*winners))
        values, us, vs = _polish(dense[live], state, caps, iters)
        for j, i in enumerate(live):
            out[i] = BilinearNormEstimate(float(values[j]), us[j], vs[j])
    return out[0] if T is None else out


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


def _basin_winners(D: np.ndarray, inits: np.ndarray, iters: int):
    """Steps 1 and 2(a) for tensors D[l] (as (n, n*m) matrices, D[l][a, (b, k)]
    = B_l[e_a, e_b]_k) from starts inits[l] of shape (S, n).

    Step 1 sweeps every start of a tensor at once.  Step 2(a) runs on
    cells, one per (tensor, start), each a row that carries its own copy
    of its tensor, until each settles into its basin by the loose rule.
    Returns the best cell of each tensor as (old, val, u, v, caps): its
    state for ``_until_stable`` and the sweeps it has left."""
    L, S, n = inits.shape
    vals, us, vs = _exact_sweep(D, inits)  # (L, S), (L, S, n)
    state = (np.full(L * S, np.nan), vals.reshape(-1), us.reshape(-1, n), vs.reshape(-1, n))
    # a cell of value 0 gets no power sweep; B[u, v] != 0 on any other,
    # and a power step never lowers ||B[u, v]||, so none divides by 0
    caps = np.where(_converged(state[1], 0.0, _SETTLED), 0, iters - 1)
    cells = np.repeat(np.arange(L), S)  # the tensor of each cell
    _until_stable(_power_sweep, D[cells], state, caps, _BASIN)
    best = state[1].reshape(L, S).argmax(axis=1) + S * np.arange(L)
    return tuple(a[best] for a in (*state, caps))


def _polish(D: np.ndarray, winners, caps: np.ndarray, iters: int):
    """Steps 2(b) and 3 for the winner of each tensor D[l], given as its
    state (old, val, u, v) and the sweeps it has left: power sweeps to the
    strict rule within that cap, then exact sweeps.  One row per tensor,
    so D itself is the winners' tensors.  Returns (values, us, vs)."""
    _, vals, us, vs = _until_stable(_power_sweep, D, winners, caps, _SETTLED)

    def exact(D, u, v):  # v is recomputed from u
        val, u, v = _exact_sweep(D, u[:, None])
        return val[:, 0], u[:, 0], v[:, 0]

    state = (np.full(len(D), np.nan), vals, us, vs)
    return _until_stable(exact, D, state, np.full(len(D), iters), _SETTLED)[1:]


def _until_stable(sweep, D, state, caps, rule):
    """Apply ``sweep`` to every cell, one per row of D, of caps and of each
    array of state = (old, val, u, v), where old is the value before the
    cell's last sweep (NaN before its first).  A cell stops once its last
    sweep met ``rule`` (see ``_converged``) or once it has had caps[cell]
    sweeps, and then leaves the batch.  Writes each cell's last state into
    the arrays of state and the sweeps it had left into caps, and returns
    state."""
    cells = np.arange(len(caps))
    old, val, u, v = state
    cap = caps
    for k in itertools.count():
        done = (cap <= k) | _converged(val, old, rule)
        if np.count_nonzero(done):
            c = cells[done]
            for out, a in zip(state, (old, val, u, v)):
                out[c] = a[done]
            caps[c] -= k
            keep = ~done
            if not keep.any():
                return state
            cells, cap, D, old, val, u, v = (a[keep] for a in (cells, cap, D, old, val, u, v))
        old = val
        val, u, v = sweep(D, u, v)


# (tolerance, floor): a sweep meets the rule when it changes the value by
# at most tolerance * max(floor, value).  Step 2 settles every cell into
# its basin by the loose rule, which is relative for any scale of B.
_SETTLED = (1e-14, 1.0)
_BASIN = (1e-4, 0.0)


def _converged(new, old, rule):
    """Whether a change from old to new meets the stopping rule ``rule``;
    never for a NaN old."""
    tol, floor = rule
    return np.abs(new - old) <= tol * np.maximum(floor, new)


def _exact_sweep(D: np.ndarray, u: np.ndarray):
    """One exact alternating sweep for each start u[l, s] on the tensor D[l]:
    v maximizes ||B[u, v]|| at fixed u, then u at fixed v.  B is symmetric,
    so B[., v] is B[v, .].  Returns (values, us, vs)."""
    _, v = _top_singular_pair(D, u)
    squares, u = _top_singular_pair(D, v)
    return np.sqrt(np.maximum(squares, 0.0)), u, v


def _power_sweep(D: np.ndarray, u: np.ndarray, v: np.ndarray):
    """One HOPM sweep for each row, v from u and then u from v.  Returns
    (values, us, vs)."""
    v, _ = _power_half_step(D, u, v)
    u, w = _power_half_step(D, v, u)
    return _row_norms(w), u, v


def _top_singular_pair(D: np.ndarray, x: np.ndarray):
    """max over unit y of ||B[x, y]||^2, and a unit y attaining it, for
    each start x[l, s] and the tensor D[l].  B[x, y] = M^T y for
    M = B[x, .], so y is the top eigenvector of the Hermitian n x n Gram
    matrix conj(M) M^T and the maximum is its top eigenvalue: the top
    singular pair of M^T, squared, at about two thirds of the cost of an
    SVD for n <= 4."""
    M = (x @ D).reshape(x.shape + (-1,))  # M[l, s, b] = B_l[x_ls, e_b]
    return _top_eigenpair(np.matmul(M.conj(), M.swapaxes(-1, -2)))


# The batch size from which a closed form beats one stacked
# np.linalg.eigh, by n; larger n always take eigh.  Measured on a 2-vCPU
# VM (numpy 2.4.6, one BLAS thread), best of 11 x 200 calls on random
# Gram matrices: at n = 2 the closed form took 21-23 us at any batch from
# 12 to 32, eigh 19-21 us at 16 matrices and 23-24 us at 20; at n = 3 the
# closed form took 82-92 us at 40 and 85-92 us at 48, eigh 75-83 us and
# 89-95 us.
_CLOSED_FORM_FROM = {2: 20, 3: 48}
_TINY = np.finfo(float).tiny


def _top_eigenpair(G: np.ndarray):
    """The top eigenvalue and a unit eigenvector of each Hermitian positive
    semidefinite n x n matrix of the stack G (..., n, n), a Gram matrix
    here, at any scale of its entries.  A batch of at least
    ``_CLOSED_FORM_FROM[n]`` matrices takes the closed form of its n; the
    rows where that form is unreliable, and every other batch, take
    np.linalg.eigh."""
    batch, n = G.shape[:-2], G.shape[-1]
    if math.prod(batch) < _CLOSED_FORM_FROM.get(n, math.inf):
        w, V = np.linalg.eigh(G)
        return w[..., -1], V[..., -1]
    G = G.reshape(-1, n, n)
    w, y, redo = (_top_pair_2 if n == 2 else _top_pair_3)(G)
    y /= _row_norms(y)[:, None]
    if redo.any():
        wr, Vr = np.linalg.eigh(G[redo])
        w[redo], y[redo] = wr[:, -1], Vr[:, :, -1]
    return w.reshape(batch), y.reshape(batch + (n,))


def _top_pair_2(G: np.ndarray):
    """The top eigenvalue w of each 2 x 2 Hermitian [[a, c], [c*, d]] of
    the stack G, (a + d)/2 + r with h = (a - d)/2 and r = hypot(h, |c|),
    and an eigenvector, (t, c*) if h >= 0, else (c, t), for t = |h| + r:
    no entry cancels.  The vector is divided by t >= |c|, so its larger
    entry is 1 at any scale of G; t is 0 only for a multiple of the
    identity, which gets (1, 0).  Exact in form.  Returns (w, y, redo)
    with y not normalized and redo all false."""
    a, d, c = G[:, 0, 0].real, G[:, 1, 1].real, G[:, 0, 1]
    h = 0.5 * (a - d)
    r = np.hypot(h, np.abs(c))
    t = np.abs(h) + r
    c = c / np.where(t > 0, t, 1.0)
    pos = h >= 0
    y = np.empty((len(G), 2), complex)
    y[:, 0] = np.where(pos, 1.0, c)
    y[:, 1] = np.where(pos, c.conj(), 1.0)
    return 0.5 * (a + d) + r, y, np.zeros(len(G), bool)


# the cross products of rows (0, 1), (0, 2) and (1, 2) of a 3 x 3 matrix
_PAIRS = ([0, 0, 1], [1, 2, 2])
_CROSS = ([1, 2, 0], [2, 0, 1])


def _top_pair_3(G: np.ndarray):
    """The top eigenvalue of each 3 x 3 Hermitian positive semidefinite
    matrix of the stack G by the trigonometric formula (O. K. Smith,
    "Eigenvalues of a symmetric 3 x 3 matrix", Commun. ACM 4(4), 1961):
    with q = tr G / 3 and p^2 = ||G - q I||_F^2 / 6, the eigenvalues are
    q + 2p cos(phi + 2 pi k/3) for phi = arccos(det((G - q I)/p)/2)/3.  The eigenvector is the
    longest cross product of two rows of (G - w I)/p, which is
    orthogonal, without conjugation, to every row.  Scale-free: G - q I
    is first divided by q, which bounds every entry of a positive
    semidefinite G, and (G - w I)/p has entries of order 1, so no square
    or cross product overflows or underflows at any scale of G.  Returns
    (w, y, redo) with y not normalized.

    As the top two eigenvalues meet, the determinant goes to -2 and the
    arccos loses half the digits, so redo is true where it is within 2e-2
    of -2 (a gap below about p/6) and where (p/q)^2 is below the smallest
    normal number, as for a multiple of the identity."""
    flat = G.reshape(-1, 9)
    diag, off = flat[:, ::4].real, flat[:, [1, 2, 5]]  # G01, G02, G12
    q = diag.sum(axis=1) / 3.0
    m = np.maximum(q, _TINY)[:, None]  # no entry of a semidefinite G exceeds 3q
    d, off = (diag - q[:, None]) / m, off / m
    off2 = off.real * off.real + off.imag * off.imag
    p2 = ((d * d).sum(axis=1) + 2.0 * off2.sum(axis=1)) / 6.0
    scalar = p2 < _TINY  # G is about q I: redone by eigh
    p = np.sqrt(np.where(scalar, 1.0, p2))  # in units of m
    # det((G - q I)/p), from the real diagonal and the conjugate pairs
    d, off = d / p[:, None], off / p[:, None]
    off2 /= (p * p)[:, None]
    det = (
        d.prod(axis=1)
        + 2.0 * (off[:, 0] * off[:, 2] * off[:, 1].conj()).real
        - (d * off2[:, ::-1]).sum(axis=1)
    )
    half = np.clip(0.5 * det, -1.0, 1.0)
    top = 2.0 * np.cos(np.arccos(half) / 3.0)  # the top eigenvalue of (G - q I)/p
    R = np.empty((len(G), 9), complex)  # (G - w I)/p
    R[:, ::4] = d - top[:, None]
    R[:, [1, 2, 5]] = off
    R[:, [3, 6, 7]] = off.conj()
    R = R.reshape(-1, 3, 3)
    A, B = R[:, _PAIRS[0]], R[:, _PAIRS[1]]
    C = A[..., _CROSS[0]] * B[..., _CROSS[1]] - A[..., _CROSS[1]] * B[..., _CROSS[0]]
    y = C[np.arange(len(C)), (C.real * C.real + C.imag * C.imag).sum(axis=2).argmax(axis=1)]
    return q + m[:, 0] * p * top, y, scalar | (half < -0.99)


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


def _composition_defect(f, g, e, lam, mu) -> np.ndarray:
    """R = Psi_e(f o g) - Psi_e(f) - Psi_e(g), the one place R is formed;
    for stacks of jets, one row per pair, as ``fs_mapping`` takes them."""
    return (
        fs_mapping(compose(f, g), e, lam, mu)
        - fs_mapping(f, e, lam, mu)
        - fs_mapping(g, e, lam, mu)
    )
