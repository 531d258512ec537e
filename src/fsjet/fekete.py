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
import operator
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
    iters: int = 2000,
    seed: int | Sequence[int] = 0,
) -> BilinearNormEstimate | list[BilinearNormEstimate]:
    """sup over unit u, v of ||B[u, v]||, which for a symmetric B on C^n
    equals sup over unit x of ||B[x, x]|| (Banach's equality, Studia
    Math. 7, 1938), by multistart symmetric power steps on one vector,
    x <- B[x, .]* B[x, x], normalised, with no shift, so a step can lower
    ||B[x, x]||.  The witness x is returned as both ``u`` and ``v``.

    The starts are the basis vectors, then seeded random unit vectors;
    basis start e_i begins at (e_i + e_j)/sqrt(2) for the j that
    maximises ||B[e_i, e_j]||, or at e_i if that j is i, and at
    (e_i - e_j)/sqrt(2) where B[x, x] is 0 at the first.  Every start
    steps until a step raises its value by at most 1e-4 of it, or lowers
    it, which settles it into its basin; the best start then steps on
    until it is first-order optimal, ||B[x, .]* B[x, x] - ||B[x, x]||^2 x||
    at most 1e-8 ||B[x, x]||^2, a rule tested after each step that raises
    its value by at most 1e-12 of it.  A start runs at most ``iters``
    steps, the best start's in both phases counted together.  A start
    whose value is 0 does not step.  The best start is picked from
    loosely settled values, so a second basin within about 1e-4 of its
    value may be missed.  The value is measured at the returned unit
    vector, ||B[x, x]|| = value, so it is a lower bound on the norm.  Each
    tensor is divided by its largest entry modulus before the steps and
    the value multiplied back, so the estimate scales with B.
    Deterministic for a given seed.  A non-integer ``starts`` or ``iters``
    raises ``TypeError``, one below 1 ``ValueError``.

    ``B`` may also be a sequence of degree-2 tensors of one shape, checked
    as ``jets.compose`` checks a stack, with ``seed`` one int for all of
    them or a sequence of one seed per tensor.  The result is then the
    list of estimates, each equal within rounding to the lone call on its
    tensor and seed.  Each (tensor, start) pair is a cell of the batch,
    which leaves it when it stops.  The first phase, which copies a tensor
    per cell, runs in blocks of as many tensors as fit in
    ``NORM_BLOCK_CELLS`` cells, at least one; the second runs once on the
    best starts of the whole stack.  A tensor of another degree, or with a
    NaN or infinite entry, raises ``ValueError`` naming its index in a
    stack.  A lone tensor takes one int seed; a seed sequence with it
    raises ``ValueError``.
    """
    starts, iters = _count("starts", starts), _count("iters", iters)
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
    out = [BilinearNormEstimate(0.0, z, z) for z in np.zeros((len(polys), n), complex)]
    live = dense.any(axis=(1, 2)).nonzero()[0].tolist()
    if live:
        # each tensor with largest entry modulus 1, so that no product
        # below overflows or underflows at any scale of B
        scale = np.abs(dense[live]).max(axis=(1, 2))
        D = dense[live] / scale[:, None, None]
        # blocks of tensors bound the per-cell tensor copies of the first
        # phase, which would otherwise dominate the peak memory of a large
        # stack; each block passes on one winner per tensor
        block = max(1, NORM_BLOCK_CELLS // starts)
        winners = []
        for lo in range(0, len(live), block):
            inits = np.array([_starts(n, starts, seeds[i]) for i in live[lo : lo + block]])
            winners.append(_basin_winners(D[lo : lo + block], inits, iters))
        xs, caps = map(np.concatenate, zip(*winners))
        xs, values, _ = _steps(D, xs, caps)
        for j, i in enumerate(live):
            out[i] = BilinearNormEstimate(float(scale[j] * values[j]), xs[j], xs[j])
    return out[0] if T is None else out


def _count(name: str, given) -> int:
    """``given`` as an int of at least 1, else TypeError or ValueError."""
    try:
        count = operator.index(given)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {given!r}") from None
    if count < 1:
        raise ValueError(f"{name} must be positive, got {count}")
    return count


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
    """The first phase for tensors D[l] (as (n, n*m) matrices, D[l][a, (b, k)]
    = B_l[e_a, e_b]_k) from starts inits[l] of shape (S, n): one cell per
    (tensor, start), each a row that carries its own copy of its tensor.
    Polarises the basis starts in ``inits`` first, as B_l[e_i, e_i] can be
    0; a polarised start of value 0, which does not step, steps again from
    e_i - e_j.  Returns the best cell of each tensor as (x, steps left)."""
    L, S, n = inits.shape
    k = min(S, n)
    # j[l, i] maximises ||B_l[e_i, e_j]||; e_i + e_j is 2 e_i where j = i
    j = np.linalg.norm(D[:, :k].reshape(L, k, n, -1), axis=-1).argmax(axis=2)
    inits[:, :k] += np.eye(n)[j]
    inits[:, :k] /= _row_norms(inits[:, :k])[:, :, None]
    cells = np.repeat(np.arange(L), S)  # the tensor of each cell
    x, vals, caps = _steps(D[cells], inits.reshape(-1, n), np.full(L * S, iters), basin=True)
    # where (e_i + e_j)/sqrt(2) has B_l[x, x] = 0, (e_i - e_j)/sqrt(2) has
    # B_l[x, x] = -2 B_l[e_i, e_j], which is 0 only where B_l[e_i, .] is
    l, i = ((vals.reshape(L, S)[:, :k] == 0) & (j != np.arange(k))).nonzero()
    if len(l):
        inits[l, i, j[l, i]] *= -1
        c = l * S + i
        x[c], vals[c], caps[c] = _steps(D[l], inits[l, i], np.full(len(c), iters), basin=True)
    best = vals.reshape(L, S).argmax(axis=1) + S * np.arange(L)
    return x[best], caps[best]


# A first-phase step that raises its cell's value by at most _BASIN of it,
# or lowers it, settles the cell; the second phase stops a cell once its
# first-order residual is at most _FIRST_ORDER * ||B[x, x]||^2, tested
# after steps that raise the value by at most _NEAR of it.
_BASIN = 1e-4
_FIRST_ORDER = 1e-8
_NEAR = 1e-12


def _steps(D: np.ndarray, x: np.ndarray, caps: np.ndarray, basin: bool = False):
    """Symmetric power steps for every cell, one per row of D and x, until
    it has had caps[cell] steps (none if its value ||B[x, x]|| is 0) or
    its last step met the basin rule, with ``basin``, else the first-order
    rule.  Returns each cell's last x, its value there and the steps it
    had left, in new arrays."""
    val, z = _step_terms(D, x)
    caps = np.where(val > 0, caps, 0)
    out = [x.copy(), val, caps]
    cells, stop = np.arange(len(x)), np.zeros(len(x), bool)
    for k in itertools.count():
        done = stop | (caps <= k)
        if np.count_nonzero(done):
            c = cells[done]
            for a, y in zip(out, (x, val, caps - k)):
                a[c] = y[done]
            keep = ~done
            if not np.count_nonzero(keep):
                return out
            cells, D, x, z, val, caps = (a[keep] for a in (cells, D, x, z, val, caps))
        x = z / _row_norms(z)[:, None]
        old, (val, z) = val, _step_terms(D, x)
        if basin:
            stop = val - old <= _BASIN * val
        else:
            # from a point with residual r, a step raises the value by
            # about (r / rho)^2 of it, so a step that still raised it by
            # more than _NEAR of it is taken as unconverged without the test
            stop = val - old <= _NEAR * val
            if np.count_nonzero(stop):
                rho = val * val
                stop &= _row_norms(z - rho[:, None] * x) <= _FIRST_ORDER * rho


def _step_terms(D: np.ndarray, x: np.ndarray):
    """For each row and the tensor D[row]: the value ||B[x, x]|| and
    B[x, .]* B[x, x], which normalised is the step's new x."""
    Bx = (x[:, None, :] @ D).reshape(len(x), x.shape[1], -1)  # Bx[r, b] = B_r[x_r, e_b]
    w = np.matmul(x[:, None, :], Bx).transpose(0, 2, 1)  # (rows, m, 1): B[x, x]
    return _row_norms(w[:, :, 0]), np.matmul(Bx.conj(), w)[:, :, 0]


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
