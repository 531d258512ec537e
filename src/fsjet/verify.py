"""Seeded verification suites for every identity and inequality the
library implements.

Each suite returns a list of Reports, one per named check, and is fully
deterministic for a given seed.  Every check keeps one contract, and the
runner (``_run``, then ``_report``) keeps it for all of them but
``root/koebe-golden``, which is one evaluation:

- each check draws from its own stream, ``_rng(seed, stream)``, so its
  inputs do not depend on which other checks ran;
- trial i runs in dimension ``dims[i % len(dims)]``;
- the inputs of every trial are drawn first, by one ``draw`` call for
  the whole check, which takes all its normal variates from one
  ``standard_normal`` call and splits them in trial order
  (``bounds/bounded-onedim``, which draws other variates too, loops over
  its trials), so each trial gets, bit for bit, what it would draw
  alone; the check then runs once per
  dimension on that dimension's inputs, as one stacked call where the
  routine it checks takes a stack (``polarization``,
  ``semigroup/flow-property`` and ``duality/onedim-equivalence`` loop
  over the inputs);
- the residual is the worst of the residuals of every trial, NaN if any
  of them is NaN, so a NaN fails the check;
- ``trials=0`` runs no trial and passes vacuously.

A check whose trials pass or fail outright, as
``duality/onedim-equivalence`` does, gives each trial the residual 0.0
or 1.0 against the tolerance 0.0, so a failing run reports 1.0.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, NamedTuple

import numpy as np

from . import fekete
from .estimates import bounded_onedim_bound
from .fekete import fs_mapping
from .jets import _integer, _jet_normals, _normal_jets, compose, invert, iterate, unitary_conjugate
from .reporting import Report
from .sampling import _params, _sphere, sample_params, sample_sphere
from .semigroup import (
    SAMPLE_SCALE,
    _shrink,
    flow_taylor_via_ode,
    generator_from_starlike,
    semigroup_jet,
    starlike_from_generator,
)
from .tensors import ScalarHomPoly, check_layout_size, eval_rows, layout, polarization_check
from .transforms import OneDimJet, detect_onedim, koebe_onedim, root_transform

ITERATE_RANGE = (-3, -2, -1, 1, 2, 3)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _unitaries(z: np.ndarray) -> np.ndarray:
    """Random unitaries from a (T, 2, n, n) array of normal variates, the
    real parts of a matrix then its imaginary parts: one stacked QR, each
    Q's columns turned so that R has a positive diagonal.  Each is bit for
    bit the unitary of a lone QR."""
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def random_onedim_jet(
    dim: int, order: int, rng: np.random.Generator, scale: float = 0.4
) -> OneDimJet:
    z = rng.standard_normal((1, _onedim_normals(dim, order)))
    return _normal_onedim_jets(dim, order, z, scale)[0]


def _onedim_normals(dim: int, order: int) -> int:
    """The number of normal variates ``random_onedim_jet`` draws."""
    return sum(2 * len(layout(dim, k).indices) for k in range(1, order))


def _normal_onedim_jets(dim: int, order: int, z: np.ndarray, scale: float = 0.4) -> list:
    """The jets ``random_onedim_jet`` builds from each row of a (T, normals)
    array of its normal variates, one array operation per degree."""
    polys: list[dict] = [{} for _ in z]
    start = 0
    for k in range(1, order):
        # per monomial in rank order: the real part, then the imaginary part
        basis = layout(dim, k)
        terms = len(basis.indices)
        g = z[:, start : start + 2 * terms].reshape(-1, terms, 2)
        start += 2 * terms
        monos = scale * (g[:, :, 0] + 1j * g[:, :, 1])
        for poly, entries in zip(polys, monos / basis.multinomials):
            poly[k] = ScalarHomPoly._trusted(k, dim, 1, entries[:, None])
    return [OneDimJet(dim, order, poly) for poly in polys]


def _worst(*values: float) -> float:
    """The largest value, NaN if any value is NaN.

    Builtin max drops a NaN that is not its first argument, which would
    let a NaN residual pass its check."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _run(draw, trials: int, seed: int, stream: int, dims, check) -> list[list]:
    """The residuals of each trial of a check, listed trial by trial.

    Trial i runs in the dimension ``n = dims[i % len(dims)]``.  The
    inputs of every trial come from one call ``draw(rng, ns)`` on the
    check's own generator ``_rng(seed, stream)``, with ``ns`` the trials'
    dimensions in trial order, before any check runs; it returns one
    input tuple per trial, in trial order.  Then ``check(inputs)`` runs
    once per dimension on the list of that dimension's inputs, in trial
    order, and returns one list of residuals per input, so that a check
    can make one stacked call per dimension."""
    rng = _rng(seed, stream)
    ns = [dims[i % len(dims)] for i in range(trials)]
    drawn = draw(rng, ns)
    rows: list = [None] * trials
    for n in dict.fromkeys(ns):
        idx = [i for i, d in enumerate(ns) if d == n]
        for i, row in zip(idx, check([drawn[i] for i in idx]), strict=True):
            rows[i] = list(row)
    return rows


def _columns(inputs: list[tuple]) -> list:
    """The inputs of a dimension's trials, one tuple per trial, as columns:
    an array for numbers and vectors, a list for anything else."""
    return [
        np.array(c) if isinstance(c[0], (np.ndarray, np.number, complex, float)) else list(c)
        for c in zip(*inputs)
    ]


def _rows(*columns) -> list[list[float]]:
    """Per-trial residual rows from columns of residuals, one per check."""
    return [[float(r) for r in row] for row in zip(*columns)]


def _norms(rows: np.ndarray) -> np.ndarray:
    return np.linalg.norm(rows, axis=-1)


def _entries(jets, k: int) -> np.ndarray:
    """The (T, terms, n) degree-k entries of T jets of one dim."""
    return np.array([f.poly(k).entries for f in jets])


def _report(check: str, tol: float, seed: int, rows: list) -> Report:
    """The Report of a check whose trial i gave the residuals ``rows[i]``:
    its residual is their NaN-aware worst, 0.0 when no trial ran."""
    return Report(check, len(rows), seed, tol, _worst(0.0, *(r for row in rows for r in row)))


class _Part(NamedTuple):
    """Inputs a trial draws from ``size(n)`` normal variates in dimension
    n.  ``build(n, z)`` makes the inputs of every trial of dimension n at
    once from the (T, size) array of their variates: one tuple per trial,
    bit for bit what the lone sampler makes of that trial's variates."""

    size: Callable[[int], int]
    build: Callable[[int, np.ndarray], list[tuple]]


def _draw(parts):
    """The ``draw(rng, ns)`` of a check whose trial i in dimension n takes
    the inputs of ``parts``, a tuple of parts, in order, or of
    ``parts(i, n)`` if it is callable.

    The normal variates of every trial come from one ``standard_normal``
    call, split in trial order, so each trial takes the variates it would
    draw alone and the stream ends where the lone draws leave it; each
    part is built once per dimension (per dimension and trial kind where
    ``parts`` is callable)."""
    parts_of = parts if callable(parts) else lambda i, n: parts

    def draw(rng, ns):
        keys = [(parts_of(i, n), n) for i, n in enumerate(ns)]
        # each trial's variates, part by part, end where the next trial's begin
        cuts = {k: np.cumsum([0, *(p.size(k[1]) for p in k[0])]) for k in dict.fromkeys(keys)}
        ends = np.cumsum([cuts[k][-1] for k in keys], dtype=int)
        z = rng.standard_normal(ends[-1] if keys else 0)
        inputs: list = [()] * len(keys)
        for key, cut in cuts.items():
            (trial_parts, n), idx = key, [i for i, k in enumerate(keys) if k == key]
            rows = z[(ends[idx] - cut[-1])[:, None] + np.arange(cut[-1])]
            built = [p.build(n, rows[:, a:b]) for p, a, b in zip(trial_parts, cut, cut[1:])]
            for i, *values in zip(idx, *built, strict=True):
                inputs[i] = sum(values, ())
        return inputs

    return draw


def _split(z: np.ndarray) -> np.ndarray:
    """(T, 2 m) rows of variates, each m real parts then m imaginary
    parts, as the (2, T, m) array the samplers draw for T rows of m."""
    return z.reshape(len(z), 2, -1).transpose(1, 0, 2)


# the inputs the checks draw: order-3 jets, one-dimensional jets, their
# lifts, generators, the degree-2 part of an order-2 jet, vectors with
# Gaussian entries, unitaries, unit directions, and parameters
_JET = _Part(lambda n: _jet_normals(n, 3), lambda n, z: [(f,) for f in _normal_jets(n, 3, z)])
_ONEDIM = _Part(
    lambda n: _onedim_normals(n, 3), lambda n, z: [(f,) for f in _normal_onedim_jets(n, 3, z)]
)
_LIFT = _Part(
    _ONEDIM.size, lambda n, z: [(f.to_mapping_jet(),) for f in _normal_onedim_jets(n, 3, z)]
)
_GENERATOR = _Part(
    _JET.size, lambda n, z: [(h,) for h in _shrink(_normal_jets(n, 3, z, SAMPLE_SCALE))]
)
_QUADRATIC = _Part(
    lambda n: _jet_normals(n, 2), lambda n, z: [(f.poly(2),) for f in _normal_jets(n, 2, z)]
)
_VECTOR = _Part(lambda n: 2 * n, lambda n, z: [(x,) for x in z[:, :n] + 1j * z[:, n:]])
_UNITARY = _Part(
    lambda n: 2 * n * n, lambda n, z: [(u,) for u in _unitaries(z.reshape(-1, 2, n, n))]
)
_DIRECTION = _Part(lambda n: 2 * n, lambda n, z: [(e,) for e in _sphere(_split(z))])
# lambda and mu as two inputs, and lambda alone
_LAM_MU = _Part(lambda n: 4, lambda n, z: [tuple(p) for p in _params(_split(z))])
_LAM = _Part(lambda n: 2, lambda n, z: [tuple(p) for p in _params(_split(z))])

# A direction e on the unit sphere of C^n, then lambda and mu.  e is as
# drawn: ``fs_mapping`` normalizes it once more, which can change its
# last bits, so a check that also uses e itself takes the rows as
# ``fs_mapping`` normalizes them (``fekete._unit_rows``).
_POINT = (_DIRECTION, _LAM_MU)


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def suite_polarization(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def check(inputs):
        rows = []
        for P, x1, x2 in inputs:
            scale = (1.0 + np.linalg.norm(x1) ** 2 + np.linalg.norm(x2) ** 2) * (
                1.0 + P.max_coeff()
            )
            rows.append([polarization_check(P, x1, x2) / scale])
        return rows

    draw = _draw((_QUADRATIC, _VECTOR, _VECTOR))
    return [_report("polarization", 1e-12, seed, _run(draw, trials, seed, 0, dims, check))]


def _psi_compo_rhs(f: list, g: list, e, lam, mu) -> np.ndarray:
    """The right side of the composition identity for stacks f and g, with
    one direction, lambda and mu per row."""
    psi = fs_mapping(f, e, lam, mu) + fs_mapping(g, e, lam, mu)
    u = fekete._unit_rows(e)
    P2u, Q2u = (eval_rows([h.poly(2) for h in jets], u) for jets in (f, g))
    B, C = fekete._dense2(f), fekete._dense2(g)
    uP2u = np.einsum("im,im->i", u.conj(), P2u)[:, None]
    uQ2u = np.einsum("im,im->i", u.conj(), Q2u)[:, None]
    lam, mu = lam[:, None], mu[:, None]
    return (
        psi
        - (lam - mu) * (uP2u * Q2u + uQ2u * P2u)
        - mu * np.einsum("iabm,ia,ib->im", C, u, P2u)
        - (mu - 2.0) * np.einsum("iabm,ia,ib->im", B, u, Q2u)
    )


def suite_compose(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def check(inputs):
        f, g, e, lam, mu = _columns(inputs)
        lhs = fs_mapping(compose(f, g), e, lam, mu)
        return _rows(_norms(lhs - _psi_compo_rhs(f, g, e, lam, mu)))

    rows = _run(_draw((_JET, _JET, *_POINT)), trials, seed, 1, dims, check)
    return [_report("compose/psi-composition-identity", 1e-11, seed, rows)]


def suite_inverse(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def check(inputs):
        f, e, lam, mu = _columns(inputs)
        g = invert(f)
        lhs = fs_mapping(g, e, lam, mu)
        rhs = -fs_mapping(f, e, 2.0 - lam, 2.0 - mu)
        # degree-3 part of the inverse along e equals -Psi_e(f, 2, 2)
        third = eval_rows([h.poly(3) for h in g], e) + fs_mapping(f, e, 2.0, 2.0)
        return _rows(_norms(lhs - rhs), _norms(third))

    # one trial feeds both checks: its duality residual, then its degree-3 one
    rows = _run(_draw((_JET, *_POINT)), trials, seed, 2, dims, check)
    return [
        _report("inverse/psi-duality", 1e-11, seed, [row[:1] for row in rows]),
        _report("inverse/third-derivative", 1e-11, seed, [row[1:] for row in rows]),
    ]


def suite_iterate(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def check(inputs):
        f, e, lam, mu = _columns(inputs)
        residuals = []
        for m in ITERATE_RANGE:
            fm = iterate(f, m)
            lhs = fs_mapping(fm, e, lam, mu)
            rhs = m * fs_mapping(f, e, m * lam - m + 1, m * mu - m + 1)
            residuals.append(_norms(lhs - rhs))
            # degree-2 part scales linearly in the iteration count
            scaled = _entries(fm, 2) + -float(m) * _entries(f, 2)
            residuals.append(np.abs(scaled).max(axis=(1, 2)))
        return _rows(*residuals)

    rows = _run(_draw((_JET, *_POINT)), trials, seed, 3, dims, check)
    return [_report("iterate/psi-scaling", 1e-10, seed, rows)]


def suite_unitary(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def check(inputs):
        f, U, e, lam, mu = _columns(inputs)
        g = [unitary_conjugate(fi, Ui) for fi, Ui in zip(f, U)]
        lhs = fs_mapping(g, e, lam, mu)
        psi = fs_mapping(f, np.einsum("iab,ib->ia", U, e), lam, mu)
        rhs = np.einsum("iba,ib->ia", U.conj(), psi)
        return _rows(_norms(lhs - rhs))

    rows = _run(_draw((_JET, _UNITARY, *_POINT)), trials, seed, 4, dims, check)
    return [_report("unitary/psi-conjugation", 1e-11, seed, rows)]


ROOT_ORDERS = (2, 3)
# the root suite's order-(2n+1) jets have the highest degree of any suite
SUITE_MAX_DEGREE = 2 * max(ROOT_ORDERS) + 1


def suite_root(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    n_mu = 5  # values of mu per root order, drawn as one array per order
    mu_values = _Part(lambda n: 2 * n_mu, lambda n, z: [(mu,) for mu in _params(_split(z))])
    draw = _draw((_ONEDIM, _DIRECTION, *[mu_values] * len(ROOT_ORDERS)))

    def check(inputs):
        ods, e, *mus = _columns(inputs)
        lifts = [od.to_mapping_jet() for od in ods]
        P2 = eval_rows([f.poly(2) for f in lifts], e)
        rows = [[] for _ in inputs]
        for j, nroot in enumerate(ROOT_ORDERS):
            gs = [root_transform(od, nroot, ei) for od, ei in zip(ods, e)]
            for row, g in zip(rows, gs):
                row += [g.poly(k).max_coeff() for k in g.polys if (k - 1) % nroot != 0]
            qn1 = eval_rows([g.poly(nroot + 1) for g in gs], e)
            q2n1 = eval_rows([g.poly(2 * nroot + 1) for g in gs], e)
            # Psi at the order's lambda and each trial's n_mu values of mu
            psi = fs_mapping(
                [f for f in lifts for _ in range(n_mu)],
                np.repeat(e, n_mu, axis=0),
                (nroot - 1) / (2.0 * nroot),
                mus[j].ravel(),
            ).reshape(len(inputs), n_mu, -1)
            gaps = np.linalg.norm(q2n1[:, None] - psi / nroot, axis=2)
            for row, a, b in zip(rows, _norms(qn1 - P2 / nroot), gaps):
                row += [float(a), *map(float, b)]
        return rows

    # golden series: the square-root transform of the Koebe function
    golden = []
    if trials > 0:
        one = np.array([1.0 + 0j])
        g = root_transform(koebe_onedim(), 2, one)
        got = [complex(g.poly(k).eval(one)[0]) for k in (2, 3, 4, 5)]
        golden.append([abs(a - b) for a, b in zip(got, (0.0, 1.0, 0.0, 1.0))])
    return [
        _report("root/jet-relations", 1e-10, seed, _run(draw, trials, seed, 5, dims, check)),
        _report("root/koebe-golden", 1e-12, seed, golden),
    ]


def suite_error_bound(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def defect(inputs):
        f, g, e, lam, mu = _columns(inputs)
        R = _norms(fekete._composition_defect(f, g, e, lam, mu))
        # the norms of each trial's two degree-2 tensors, in one call
        tensors = [P for fi, gi in zip(f, g) for P in (fi.poly(2), gi.poly(2))]
        est = fekete.operator_norm_bilinear(tensors, seed=[seed, seed + 1] * len(f))
        norms = np.array([x.value for x in est]).reshape(-1, 2)
        coef = np.array([fekete.ell(a, b) for a, b in zip(lam, mu)])
        return _rows(R - coef * norms[:, 0] * norms[:, 1])

    def onedim_defect(inputs):
        fo, go, e, lam, mu = _columns(inputs)
        f, g = [x.to_mapping_jet() for x in fo], [x.to_mapping_jet() for x in go]
        R = _norms(fekete._composition_defect(f, g, e, lam, mu))
        s_f, s_g = (eval_rows([x.scalar_part(1) for x in xs], e)[:, 0] for xs in (fo, go))
        return _rows(np.abs(R - 2.0 * np.abs(1.0 - lam) * np.abs(s_f * s_g)))

    return [
        _report(
            "error-bound/ell-bound",
            1e-9,
            seed,
            _run(_draw((_JET, _JET, *_POINT)), trials, seed, 6, dims, defect),
        ),
        _report(
            "error-bound/onedim-equality",
            1e-11,
            seed,
            _run(_draw((_ONEDIM, _ONEDIM, *_POINT)), trials, seed, 7, dims, onedim_defect),
        ),
    ]


def suite_semigroup(trials: int, seed: int, dims=(2,)) -> list[Report]:
    def flow_property(inputs):
        rows = []
        for (h,) in inputs:
            combined = semigroup_jet(h, 0.3).compose(semigroup_jet(h, 0.5))
            direct = semigroup_jet(h, 0.8)
            rows.append(
                [(combined.poly(k) + direct.poly(k).scale(-1.0)).max_coeff() for k in (2, 3)]
            )
        return rows

    times, degrees = (0.1, 0.7, 2.0), (2, 3)

    def closed_form(inputs):
        # one integration for every generator of the dimension
        gens, dirs = _columns(inputs)
        extracted = flow_taylor_via_ode(gens, times, dirs, degrees, step=5e-3)
        rows = []
        for h, e, by_time in zip(gens, dirs, extracted):
            row = []
            for t, by_degree in zip(times, by_time):
                flow = semigroup_jet(h, t)
                for k, coef in zip(degrees, by_degree):
                    row.append(float(np.linalg.norm(flow.poly(k).eval(e) - coef)))
            rows.append(row)
        return rows

    flow_trials = max(1, trials // 4) if trials else 0
    return [
        _report(
            "semigroup/closed-form-vs-ode",
            1e-6,
            seed,
            _run(_draw((_GENERATOR, _DIRECTION)), trials, seed, 8, dims, closed_form),
        ),
        _report(
            "semigroup/flow-property",
            1e-10,
            seed,
            _run(_draw((_GENERATOR,)), flow_trials, seed, 9, dims, flow_property),
        ),
    ]


def suite_duality(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def pairing(inputs):
        h, e, lam, mu = _columns(inputs)
        f = [starlike_from_generator(x) for x in h]
        lhs = fs_mapping(h, e, 2 * lam, 2 * mu)
        rhs = -2.0 * fs_mapping(f, e, 1 - lam, 1 - mu)
        # round trip through the pairing
        back = [generator_from_starlike(x) for x in f]
        trip = [np.abs(_entries(back, k) - _entries(h, k)).max(axis=(1, 2)) for k in (2, 3)]
        return _rows(_norms(lhs - rhs), *trip)

    def generator_bound(inputs):
        h, e, lam = _columns(inputs)
        psi = fs_mapping(h, e, lam, 0.0)
        val = np.abs(np.einsum("im,im->i", fekete._unit_rows(e).conj(), psi))
        return _rows(val - 2.0 * np.maximum(1.0, np.abs(2.0 * lam - 1.0)))

    def onedim_equivalence(inputs):
        # 1.0 where h and its starlike partner disagree on being of
        # one-dimensional type
        kinds = [
            [detect_onedim(g) is None for g in (h, starlike_from_generator(h))] for (h,) in inputs
        ]
        return [[float(a != b)] for a, b in kinds]

    # a lifted one-dimensional jet at even trials, a generic jet at odd ones
    onedim_draw = _draw(lambda i, n: (_JET,) if i % 2 else (_LIFT,))

    return [
        _report(
            "duality/psi-pairing",
            1e-11,
            seed,
            _run(_draw((_JET, *_POINT)), trials, seed, 10, dims, pairing),
        ),
        _report(
            "duality/generator-scalar-bound",
            1e-9,
            seed,
            _run(_draw((_GENERATOR, _DIRECTION, _LAM)), trials, seed, 11, dims, generator_bound),
        ),
        _report(
            "duality/onedim-equivalence",
            0.0,
            seed,
            _run(onedim_draw, trials, seed, 12, dims, onedim_equivalence),
        ),
    ]


# every fourth bounded draw of a dimension reaches the bound; the others
# take SCHUR_KERNELS kernels, and each draw is checked on BOUNDED_DIRECTIONS
BOUNDARY_EVERY = 4
SCHUR_KERNELS = 3
BOUNDED_DIRECTIONS = 64
BOUNDED_M_RANGE = (1.01, 20.0)


def _bounded_jet(M: float, weights, kernels, powers):
    """The exact order-3 jet of s(x) x with |s| < M on the ball, where
    s = (1 + M w)/(1 + w/M) and w(x) = sum_j weights[j] <x, kernels[j]>^powers[j]
    for weights on the simplex, kernels of norm at most 1 and powers 1 or 2.

    |w| < 1 on the ball and s is a disc automorphism of w scaled by M, so
    s(0) = 1 and |s| < M.  With c = M - 1/M, s = 1 + c w - (c/M) w^2 + O(w^3),
    so p_1 = c w_1 and p_2 = c (w_2 - w_1^2/M), w_k the degree-k part of w."""
    n = kernels.shape[1]
    c = M - 1.0 / M
    b, lin, quad = kernels.conj(), powers == 1, powers == 2
    w1 = weights[lin] @ b[lin]
    i, j = layout(n, 2).cols
    w2 = np.einsum("t,ta,ta->a", weights[quad], b[quad][:, i], b[quad][:, j])
    polys = {
        1: ScalarHomPoly._trusted(1, n, 1, (c * w1)[:, None]),
        2: ScalarHomPoly._trusted(2, n, 1, (c * (w2 - w1[i] * w1[j] / M))[:, None]),
    }
    return OneDimJet(n, 3, polys).to_mapping_jet()


def _bounded_draw(rng: np.random.Generator, n: int, boundary: bool):
    """A bounded map of one-dimensional type whose M is known: the jet,
    M log-uniform on ``BOUNDED_M_RANGE``, lambda and the directions to
    check it on.

    A boundary draw takes one unit kernel a with the power that reaches
    the active branch of ``bounded_onedim_bound(M, lambda)`` at e = a, and
    puts a first among its directions, so that there the bound is met."""
    M = math.exp(rng.uniform(*np.log(BOUNDED_M_RANGE)))
    lam = sample_params(rng, 1)[0]
    if boundary:
        kernels = sample_sphere(rng, 1, n)
        weights = np.ones(1)
        powers = np.array([2 if abs(((M * M - 1.0) * lam + 1.0) / M) <= 1.0 else 1])
    else:
        kernels = sample_sphere(rng, SCHUR_KERNELS, n) * rng.random(SCHUR_KERNELS)[:, None]
        weights = rng.dirichlet(np.ones(SCHUR_KERNELS))
        powers = rng.integers(1, 3, SCHUR_KERNELS)
    directions = sample_sphere(rng, BOUNDED_DIRECTIONS, n)
    if boundary:
        directions[0] = kernels[0]
    return _bounded_jet(M, weights, kernels, powers), M, lam, directions


def suite_bounds(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def bounded_draw(rng, ns):
        # uniform, Dirichlet and integer draws besides the normal ones, so
        # trial by trial; trial i is trial i // len(dims) of its dimension
        return [
            _bounded_draw(rng, n, i // len(dims) % BOUNDARY_EVERY == 0) for i, n in enumerate(ns)
        ]

    def bounded(inputs):
        # one-dimensional type: ||Psi_e|| = |p_2(e) - lam p_1(e)^2| for every mu
        f, M, lam, es = _columns(inputs)
        worst = _norms(fs_mapping(f, es, lam, 0.0)).max(axis=1)
        return _rows(worst - [bounded_onedim_bound(*p) for p in zip(M, lam)])

    def starlikes(n, z):
        bases = [od.to_mapping_jet() for od in _normal_onedim_jets(n, 3, z, scale=0.3)]
        return [(starlike_from_generator(h),) for h in _shrink(bases)]

    starlike_draw = _draw((_Part(_ONEDIM.size, starlikes), *_POINT))

    def starlike(inputs):
        f, e, lam, mu = _columns(inputs)
        val = _norms(fs_mapping(f, e, lam, mu))
        return _rows(val - np.maximum(1.0, np.abs(4.0 * lam - 3.0)))

    return [
        _report(
            "bounds/bounded-onedim", 1e-6, seed, _run(bounded_draw, trials, seed, 13, dims, bounded)
        ),
        _report(
            "bounds/starlike-onedim",
            1e-9,
            seed,
            _run(starlike_draw, trials, seed, 14, dims, starlike),
        ),
    ]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_SUITES = {
    "polarization": suite_polarization,
    "compose": suite_compose,
    "inverse": suite_inverse,
    "iterate": suite_iterate,
    "unitary": suite_unitary,
    "root": suite_root,
    "error-bound": suite_error_bound,
    "semigroup": suite_semigroup,
    "duality": suite_duality,
    "bounds": suite_bounds,
}

SUITE_NAMES = (*_SUITES, "all")

DEFAULT_TRIALS = {
    "polarization": 100,
    "compose": 100,
    "inverse": 100,
    "iterate": 50,
    "unitary": 100,
    "root": 50,
    "error-bound": 200,
    "semigroup": 20,
    "duality": 100,
    "bounds": 50,
}


class SuiteArgumentError(ValueError):
    """A dimension below 1 or over the size budget, a negative seed, a
    negative trial count, or a NaN, infinite or negative tolerance given to
    ``run_suite``."""


def run_suite(
    name: str,
    trials: int | None = None,
    seed: int = 0,
    tol: float | None = None,
    dims=None,
) -> list[Report]:
    """Run one named suite (or "all"); returns one Report per check.

    A dimension below 1 in ``dims``, or one whose degree-``SUITE_MAX_DEGREE``
    basis is over ``tensors.LAYOUT_BUDGET``, a negative ``seed``, a
    negative ``trials``, or a NaN, infinite or negative ``tol`` raises
    ``SuiteArgumentError``, a ``ValueError``, before any suite runs.
    ``trials``, ``seed`` and each dimension go through the integer check
    of every count: a non-integer raises ``TypeError`` naming the
    argument, and a bool counts as its int."""
    if trials is not None:
        trials = _integer("trials", trials)
    seed = _integer("seed", seed)
    dims = [_integer("dims", d) for d in dims or ()]
    for d in dims:
        if d < 1:
            raise SuiteArgumentError(f"dimension {d} is not positive")
        try:
            check_layout_size(d, SUITE_MAX_DEGREE)
        except ValueError as exc:
            raise SuiteArgumentError(f"dimension {d} is too large: {exc}") from None
    if seed < 0:
        raise SuiteArgumentError(f"seed {seed} is negative")
    if trials is not None and trials < 0:
        raise SuiteArgumentError(f"trials {trials} is negative")
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise SuiteArgumentError(f"tolerance {tol} is not a finite nonnegative number")
    if name == "all":
        out = []
        for key in _SUITES:
            out.extend(run_suite(key, trials, seed, tol, dims))
        return out
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; valid suites: {', '.join(SUITE_NAMES)}"
        )
    n_trials = DEFAULT_TRIALS[name] if trials is None else trials
    kwargs = {}
    if dims:
        kwargs["dims"] = tuple(dims)
    reports = _SUITES[name](n_trials, seed, **kwargs)
    if tol is not None:
        reports = [dataclasses.replace(r, tolerance=tol, passed=None) for r in reports]
    return reports
