"""Seeded verification suites for every identity and inequality the
library implements.

Each suite returns a list of Reports, one per named check, and is fully
deterministic for a given seed.  Every check keeps one contract, and the
runner (``_run``, then ``_report``) keeps it for all of them but
``root/koebe-golden``, which is one evaluation:

- each check draws from its own stream, ``_rng(seed, stream)``, so its
  inputs do not depend on which other checks ran;
- trial i runs in dimension ``dims[i % len(dims)]``;
- every trial draws its inputs first, in trial order, so each trial
  draws what it would draw alone; the check then runs once per
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
import itertools
import math

import numpy as np

from . import fekete
from .estimates import bounded_onedim_bound
from .fekete import fs_mapping
from .jets import _integer, compose, invert, iterate, random_jet, unitary_conjugate
from .reporting import Report
from .sampling import sample_params, sample_sphere
from .semigroup import (
    flow_taylor_via_ode,
    generator_from_starlike,
    generator_shrink,
    sample_generator,
    semigroup_jet,
    starlike_from_generator,
)
from .tensors import ScalarHomPoly, check_layout_size, eval_rows, layout, polarization_check
from .transforms import OneDimJet, detect_onedim, koebe_onedim, root_transform

ITERATE_RANGE = (-3, -2, -1, 1, 2, 3)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_onedim_jet(
    dim: int, order: int, rng: np.random.Generator, scale: float = 0.4
) -> OneDimJet:
    polys = {}
    for k in range(1, order):
        # per monomial in rank order: the real part, then the imaginary part
        basis = layout(dim, k)
        z = rng.standard_normal((len(basis.indices), 2))
        monos = scale * (z[:, 0] + 1j * z[:, 1])
        polys[k] = ScalarHomPoly._trusted(k, dim, 1, (monos / basis.multinomials)[:, None])
    return OneDimJet(dim, order, polys)


def _worst(*values: float) -> float:
    """The largest value, NaN if any value is NaN.

    Builtin max drops a NaN that is not its first argument, which would
    let a NaN residual pass its check."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _run(draw, trials: int, seed: int, stream: int, dims, check) -> list[list]:
    """The residuals of each trial of a check, listed trial by trial.

    Trial i draws its inputs by ``draw(rng, n)`` from the check's own
    generator ``_rng(seed, stream)`` in the dimension
    ``n = dims[i % len(dims)]``; ``draw`` is called exactly once per
    trial, in trial order, before any check runs, and a draw may count
    its calls to know its trial (``duality/onedim-equivalence`` does).
    Then ``check(inputs)`` runs once per dimension on the list of that
    dimension's inputs, in trial order, and returns one list of residuals
    per input, so that a check can make one stacked call per dimension."""
    rng = _rng(seed, stream)
    ns = [dims[i % len(dims)] for i in range(trials)]
    drawn = [draw(rng, n) for n in ns]
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


def _draw_point(rng: np.random.Generator, n: int):
    """A direction e on the unit sphere of C^n, then lambda and mu.

    e is returned as drawn: ``fs_mapping`` normalizes it once more, which
    can change its last bits, so a check that also uses e itself takes
    the rows as ``fs_mapping`` normalizes them (``fekete._unit_rows``)."""
    e = sample_sphere(rng, 1, n)[0]
    lam, mu = sample_params(rng, 2)
    return e, lam, mu


def _jet_and_point(rng: np.random.Generator, n: int):
    return (random_jet(n, 3, rng), *_draw_point(rng, n))


def _two_jets_and_point(rng: np.random.Generator, n: int):
    return (random_jet(n, 3, rng), random_jet(n, 3, rng), *_draw_point(rng, n))


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def suite_polarization(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def draw(rng, n):
        P = random_jet(n, 2, rng).poly(2)
        x1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return P, x1, x2

    def check(inputs):
        rows = []
        for P, x1, x2 in inputs:
            scale = (1.0 + np.linalg.norm(x1) ** 2 + np.linalg.norm(x2) ** 2) * (
                1.0 + P.max_coeff()
            )
            rows.append([polarization_check(P, x1, x2) / scale])
        return rows

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

    rows = _run(_two_jets_and_point, trials, seed, 1, dims, check)
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
    rows = _run(_jet_and_point, trials, seed, 2, dims, check)
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

    rows = _run(_jet_and_point, trials, seed, 3, dims, check)
    return [_report("iterate/psi-scaling", 1e-10, seed, rows)]


def suite_unitary(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def draw(rng, n):
        f = random_jet(n, 3, rng)
        return (f, _random_unitary(n, rng), *_draw_point(rng, n))

    def check(inputs):
        f, U, e, lam, mu = _columns(inputs)
        g = [unitary_conjugate(fi, Ui) for fi, Ui in zip(f, U)]
        lhs = fs_mapping(g, e, lam, mu)
        psi = fs_mapping(f, np.einsum("iab,ib->ia", U, e), lam, mu)
        rhs = np.einsum("iba,ib->ia", U.conj(), psi)
        return _rows(_norms(lhs - rhs))

    rows = _run(draw, trials, seed, 4, dims, check)
    return [_report("unitary/psi-conjugation", 1e-11, seed, rows)]


ROOT_ORDERS = (2, 3)
# the root suite's order-(2n+1) jets have the highest degree of any suite
SUITE_MAX_DEGREE = 2 * max(ROOT_ORDERS) + 1


def suite_root(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    n_mu = 5  # values of mu per root order

    def draw(rng, n):
        od = random_onedim_jet(n, 3, rng)
        e = sample_sphere(rng, 1, n)[0]
        return od, e, [sample_params(rng, n_mu) for _ in ROOT_ORDERS]

    def check(inputs):
        ods, e, mus = _columns(inputs)
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
                np.concatenate([mu[j] for mu in mus]),
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

    def onedim_draw(rng, n):
        return (random_onedim_jet(n, 3, rng), random_onedim_jet(n, 3, rng), *_draw_point(rng, n))

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
            _run(_two_jets_and_point, trials, seed, 6, dims, defect),
        ),
        _report(
            "error-bound/onedim-equality",
            1e-11,
            seed,
            _run(onedim_draw, trials, seed, 7, dims, onedim_defect),
        ),
    ]


def suite_semigroup(trials: int, seed: int, dims=(2,)) -> list[Report]:
    def flow_property(gens):
        rows = []
        for h in gens:
            combined = semigroup_jet(h, 0.3).compose(semigroup_jet(h, 0.5))
            direct = semigroup_jet(h, 0.8)
            rows.append(
                [(combined.poly(k) + direct.poly(k).scale(-1.0)).max_coeff() for k in (2, 3)]
            )
        return rows

    def draw(rng, n):
        return sample_generator(n, rng), sample_sphere(rng, 1, n)[0]

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
            "semigroup/closed-form-vs-ode", 1e-6, seed, _run(draw, trials, seed, 8, dims, closed_form)
        ),
        _report(
            "semigroup/flow-property",
            1e-10,
            seed,
            _run(lambda rng, n: sample_generator(n, rng), flow_trials, seed, 9, dims, flow_property),
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

    def generator_draw(rng, n):
        h = sample_generator(n, rng)
        e = sample_sphere(rng, 1, n)[0]
        return h, e, sample_params(rng, 1)[0]

    def generator_bound(inputs):
        h, e, lam = _columns(inputs)
        psi = fs_mapping(h, e, lam, 0.0)
        val = np.abs(np.einsum("im,im->i", fekete._unit_rows(e).conj(), psi))
        return _rows(val - 2.0 * np.maximum(1.0, np.abs(2.0 * lam - 1.0)))

    trial = itertools.count()

    def onedim_draw(rng, n):
        # a lifted one-dimensional jet at even trials, a generic jet at odd
        # ones; the counter is the trial index only because ``_run`` calls
        # draw once per trial in trial order, as its docstring promises
        if next(trial) % 2 == 0:
            return random_onedim_jet(n, 3, rng).to_mapping_jet()
        return random_jet(n, 3, rng)

    def onedim_equivalence(gens):
        # 1.0 where h and its starlike partner disagree on being of
        # one-dimensional type
        kinds = [[detect_onedim(g) is None for g in (h, starlike_from_generator(h))] for h in gens]
        return [[float(a != b)] for a, b in kinds]

    return [
        _report(
            "duality/psi-pairing", 1e-11, seed, _run(_jet_and_point, trials, seed, 10, dims, pairing)
        ),
        _report(
            "duality/generator-scalar-bound",
            1e-9,
            seed,
            _run(generator_draw, trials, seed, 11, dims, generator_bound),
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
    trial = itertools.count()

    def bounded_draw(rng, n):
        # trial i is trial i // len(dims) of its dimension; the counter is
        # the trial index because ``_run`` draws once per trial, in order
        return _bounded_draw(rng, n, next(trial) // len(dims) % BOUNDARY_EVERY == 0)

    def bounded(inputs):
        # one-dimensional type: ||Psi_e|| = |p_2(e) - lam p_1(e)^2| for every mu
        f, M, lam, es = _columns(inputs)
        worst = _norms(fs_mapping(f, es, lam, 0.0)).max(axis=1)
        return _rows(worst - [bounded_onedim_bound(*p) for p in zip(M, lam)])

    def starlike_draw(rng, n):
        base = random_onedim_jet(n, 3, rng, scale=0.3).to_mapping_jet()
        return (starlike_from_generator(generator_shrink(base)), *_draw_point(rng, n))

    def starlike(inputs):
        f, e, lam, mu = _columns(inputs)
        val = _norms(fs_mapping(f, e, lam, mu))
        return _rows(val - np.maximum(1.0, np.abs(4.0 * lam - 3.0)))

    return [
        _report(
            "bounds/bounded-onedim", 1e-6, seed, _run(bounded_draw, trials, seed, 13, dims, bounded)
        ),
        _report(
            "bounds/starlike-onedim", 1e-9, seed, _run(starlike_draw, trials, seed, 14, dims, starlike)
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
