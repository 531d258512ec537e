"""The Fekete-Szego mapping of a jet, its scalar variants, the composition
defect R = Psi_e(f o g) - Psi_e(f) - Psi_e(g), and the operator norm of a
bilinear tensor, which bounds R together with ``ell``.

Conventions: the ambient space is C^n with the Euclidean inner product
<x, y> = sum x_i conj(y_i), so the support functional at a unit vector e
is x -> <x, e>.  B denotes the degree-2 tensor of f, so D^2 f(0)[u, v]
equals 2 B[u, v].
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .jets import MappingJet, _count, _paired, _stack_of, compose
from .tensors import HomPoly, _check_vector, _evaluate, basis_coefficients, layout

E_NORM_TOL = 1e-6

SCALAR_VARIANT_MU = {1: 0.0, 2: 1.0, 3: 2.0 / 3.0, 4: 2.0}

def normalize_direction(e) -> np.ndarray:
    e = np.asarray(e, dtype=complex)
    norm = np.linalg.norm(e)
    if not abs(norm - 1.0) <= E_NORM_TOL:  # also true for a NaN norm
        raise ValueError(f"direction must be a unit vector (norm {norm:.6g})")
    return e / norm


def finite_params(lam, mu, T: int | None = None) -> tuple:
    """(lam, mu) as complex numbers, the one check of both.  For a stack
    of T jets, each may also be T values, one per jet, returned as a
    (T, 1, 1) array.  A non-number, a NaN or infinite value, or values of
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
        out.append(z[:, None, None] if z.ndim else complex(z))
    return tuple(out)


def fs_mapping(f, e, lam, mu) -> np.ndarray:
    """Psi_e(f, lambda, mu) = P3(e) - mu B[e, P2(e)] - (lam-mu)<P2(e),e> P2(e).

    ``e`` is one direction of shape (n,), giving the (n,) vector Psi_e, or
    a batch of shape (N, n), giving the (N, n) array whose row i is Psi at
    row i of ``e``.  ``f`` may also be a sequence of T >= 1 jets of one
    (dim, order), checked as ``compose`` checks it, with ``e`` a (T, n)
    array of one direction per jet, giving the (T, n) array of Psi of jet
    t at direction t, or a (T, D, n) array of D directions per jet, giving
    the (T, D, n) array; ``lam`` and ``mu`` are each a scalar or a
    length-T sequence, one value per jet.  Each direction must be a unit
    vector within ``E_NORM_TOL`` and is normalized once more.  A direction
    of another shape, off the sphere or with a NaN entry, or a lam or mu
    that ``finite_params`` rejects, raises ``ValueError`` naming where it
    is.  <Psi_e, e> is ``np.vdot(e, Psi_e)`` for the normalized e.
    """
    f, T, f0 = _stack_of(f)
    lam, mu = finite_params(lam, mu, T)
    es = np.asarray(e, dtype=complex)
    n, stacked = f0.dim, T is not None
    if es.ndim - stacked not in (1, 2) or es.shape[-1] != n:
        shapes = f"(T, {n}) or (T, D, {n})" if stacked else f"({n},) or (N, {n})"
        raise ValueError(f"expected directions of shape {shapes}, got shape {es.shape}")
    if stacked:
        _paired(T, len(es), "directions")
    units = _unit_rows(es) if es.ndim > 1 else normalize_direction(es)
    # every form as the (T, D, n) directions of _psi_rows, a lone jet as T = 1
    return _psi_rows(f, units.reshape(T or 1, -1, n), lam, mu).reshape(es.shape)


def _unit_rows(es: np.ndarray) -> np.ndarray:
    """The directions along the last axis of es, each checked to be a unit
    vector within ``E_NORM_TOL`` and normalized once more."""
    norms = _row_norms(np.ascontiguousarray(es))
    off = ~(np.abs(norms - 1.0) <= E_NORM_TOL)  # also true for a NaN norm
    if off.any():
        at = np.unravel_index(int(off.argmax()), off.shape)
        where = int(at[0]) if off.ndim == 1 else tuple(map(int, at))
        raise ValueError(f"direction {where} must be a unit vector (norm {norms[at]:.6g})")
    return es / norms[..., None]


def _psi_rows(f, es: np.ndarray, lam, mu) -> np.ndarray:
    """Psi of jet t at direction es[t, d] of the (T, D, n) array es, via
    dense tensors, with no check: the one implementation of the formula.
    ``f`` is one jet, which serves as T = 1, or a list of T jets of one
    dim, with lam and mu scalars or (T, 1, 1) arrays.  ``sup_norm_fs``
    calls it on points near the sphere, which must not be moved onto it."""
    if isinstance(f, MappingJet):
        # the cached tensor and coefficients as a stack of one
        B = f.poly(2).dense()[None]
        cols, coef = f.poly(3)._compiled
    else:
        B = _dense2(f)
        cols, coef = basis_coefficients([g.poly(3) for g in f])
    P2 = np.einsum("tabm,tda,tdb->tdm", B, es, es)
    BeP2 = np.einsum("tabm,tda,tdb->tdm", B, es, P2)
    proj = np.einsum("tdm,tdm->td", P2, es.conj())
    return _evaluate(cols, coef, es) - mu * BeP2 - (lam - mu) * proj[..., None] * P2


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
    iters: int = 5000,
    seed: int | Sequence[int] = 0,
) -> BilinearNormEstimate | list[BilinearNormEstimate]:
    """sup over unit u, v of ||B[u, v]||, which for a symmetric B on C^n
    equals sup over unit x of ||B[x, x]|| (Banach's equality, Studia
    Math. 7, 1938), by multistart symmetric power steps on one vector,
    x <- B[x, .]* B[x, x], normalised, with no shift, so a step can lower
    ||B[x, x]||.  The witness x is returned as both ``u`` and ``v``.

    The starts are the basis vectors, then seeded random unit vectors;
    basis start e_i begins at (e_i + s e_j)/sqrt(2) for the j that
    maximises ||B[e_i, e_j]||, with the sign s = +1 or -1 that gives the
    larger ||B[x, x]|| (+1 on a tie), or at e_i if that j is i, so its
    value is 0 only where B[e_i, .] is.  Every start takes min(``iters``,
    8) steps, with no stopping rule; the start of largest value then
    steps on until it is first-order optimal, ||B[x, .]* B[x, x] -
    ||B[x, x]||^2 x|| at most 1e-8 ||B[x, x]||^2, or for at most
    ``iters`` steps; the default lets nearly flat maxima, where the steps
    converge slowly, meet the rule.  A start whose value is 0 does not
    step.  The best start is picked after 8 steps, so a second basin of
    nearly its value may be missed.  The value is measured at the
    returned unit vector, ||B[x, x]|| = value, so it is a lower bound on
    the norm.  Each tensor is divided by its largest entry modulus before
    the steps and the value multiplied back, so the estimate scales with
    B.  Deterministic for a given seed.  A non-integer ``starts``,
    ``iters`` or seed raises ``TypeError``, a ``starts`` or ``iters``
    below 1 or a negative seed ``ValueError``.

    ``B`` may also be a sequence of degree-2 tensors of one shape, checked
    as ``jets.compose`` checks a stack, with ``seed`` one int for all of
    them or a sequence of one seed per tensor.  The result is then the
    list of estimates, each equal within rounding to the lone call on its
    tensor and seed.  The first phase steps all (tensor, start) pairs as
    one batch, so its memory grows with tensors times starts; the second
    runs once on the best starts of the whole stack, and a start leaves
    it when it stops.  A tensor of another degree, or with a NaN or
    infinite entry, raises ``ValueError`` naming its index in a stack.  A
    lone tensor takes one int seed; a seed sequence with it raises
    ``ValueError``.
    """
    starts, iters = _count("starts", starts), _count("iters", iters)
    polys, T, lead = _stack_of(B, "tensor", HomPoly, ("degree", "domain_dim", "codomain_dim"))
    if T is None:
        if np.ndim(seed):
            raise ValueError(f"seed must be one int for a lone tensor, got shape {np.shape(seed)}")
        polys = [polys]
    if lead.degree != 2:
        raise ValueError(f"expected a degree-2 tensor{_at(T is None, 0)}, got degree {lead.degree}")
    given = [seed] * len(polys) if np.ndim(seed) == 0 else seed
    seeds = [_count("seed", s, least=0) for s in given]
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
        inits = np.array([_starts(n, starts, seeds[i]) for i in live])
        xs, values = _steps(D, _basin_winners(D, inits, iters), iters)
        for j, i in enumerate(live):
            out[i] = BilinearNormEstimate(float(scale[j] * values[j]), xs[j], xs[j])
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


def _basin_winners(D: np.ndarray, x: np.ndarray, iters: int):
    """The first phase for tensors D[l] (as (n, n*m) matrices, D[l][a, (b, k)]
    = B_l[e_a, e_b]_k) from starts x[l] of shape (S, n), which it
    overwrites: polarises the basis starts, as B_l[e_i, e_i] can be 0,
    then takes min(``iters``, _FIRST_STEPS) steps from every start as one
    (L, S, n) batch.  Returns the x of the start of largest value of each
    tensor."""
    L, S, n = x.shape
    k = min(S, n)
    B = D.reshape(L, n, n, -1)
    # j[l, i] maximises ||B_l[e_i, e_j]||; e_i + e_j is 2 e_i where j = i
    j = np.linalg.norm(B[:, :k], axis=-1).argmax(axis=2)
    # e_j takes the sign s with the larger ||B_ii + B_jj + 2 s B_ij||, plus
    # on a tie and where j = i; the two values differ by 4 B_ij, so both
    # are 0 only where the row B_l[e_i, .] is
    l, i = np.indices((L, k))
    diag, cross = B[l, i, i] + B[l, j, j], 2.0 * B[l, i, j]
    sign = np.where(_row_norms(diag - cross) > _row_norms(diag + cross), -1.0, 1.0)
    x[:, :k] += sign[:, :, None] * np.eye(n)[j]
    x[:, :k] /= _row_norms(x[:, :k])[:, :, None]
    val, z = _step_terms(D, x)
    for _ in range(min(iters, _FIRST_STEPS)):
        # a start of value 0 stays where it is
        np.divide(z, _row_norms(z)[:, :, None], out=x, where=(val > 0)[:, :, None])
        val, z = _step_terms(D, x)
    return x[np.arange(L), val.argmax(axis=1)]


# The first phase takes _FIRST_STEPS steps from every start; the second
# stops a start once its first-order residual is at most
# _FIRST_ORDER * ||B[x, x]||^2.
_FIRST_STEPS = 8
_FIRST_ORDER = 1e-8


def _steps(D: np.ndarray, x: np.ndarray, cap: int):
    """Symmetric power steps for every start, one per row of D and x, until
    it has had ``cap`` steps (none if its value ||B[x, x]|| is 0) or its
    last step met the first-order rule; a start leaves the batch when it
    stops.  Returns each start's last x and its value there, in new
    arrays."""
    val, z = _step_terms(D, x)
    xs, vals = x.copy(), val
    cells, stop = np.arange(len(x)), ~(val > 0)
    for k in range(cap + 1):
        done = stop | (k == cap)
        if np.count_nonzero(done):
            c = cells[done]
            xs[c], vals[c] = x[done], val[done]
            keep = ~done
            if not np.count_nonzero(keep):
                return xs, vals
            cells, D, x, z, val = (a[keep] for a in (cells, D, x, z, val))
        x = z / _row_norms(z)[:, None]
        val, z = _step_terms(D, x)
        rho = val * val
        stop = _row_norms(z - rho[:, None] * x) <= _FIRST_ORDER * rho


def _step_terms(D: np.ndarray, x: np.ndarray):
    """For tensors D[l] and points x[l], each one x of shape (n,) or a
    batch of shape (S, n): the values ||B[x, x]|| and B[x, .]* B[x, x],
    which normalised is the step's new x, in the shapes of x without its
    last axis and of x."""
    Bx = np.matmul(x.reshape(len(D), -1, x.shape[-1]), D).reshape(*x.shape, -1)  # B[x, e_b]
    w = np.matmul(x[..., None, :], Bx)  # (..., 1, m): B[x, x]
    z = np.matmul(Bx, w.conj().swapaxes(-1, -2))  # (..., n, 1): conj(B[x, .]* B[x, x])
    return _row_norms(w[..., 0, :]), z[..., 0].conj()


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
