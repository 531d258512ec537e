"""The three benchmark workloads.

Each workload is one closed-loop caller: it issues the calls of a fixed,
seeded list one after another, each only after the previous one returned.
Inputs come from the workload seed alone.  Calls go through attributes of
the ``fsjet`` package at call time, so the tracer's wrappers see them.

* ``verify-default``: the ten suites of ``fsjet verify all`` at their
  default trial counts, in suite order.  Stresses the SVD loop of
  ``fekete.operator_norm_bilinear``, ``polyops.peval`` (bounds suite),
  16-row RK4 batches of ``HomPoly.eval_many`` and 1,300 order-3
  ``compose`` calls.
* ``jet-algebra``: ``compose``, ``invert``, ``iterate(f, 3)`` and
  ``unitary_conjugate`` at (n, K) in {(2,7), (3,6), (4,5)}.  Almost all
  time is ``polyops.pmul``; ``fekete``, ``estimates`` and ``semigroup``
  are bypassed.
* ``sphere-estimates``: ``sup_norm_fs`` at n in {2,3},
  ``operator_norm_bilinear`` at n in {2,3,4} and
  ``check_bounded_onedim_bound`` at n in {2,3}.  Stresses 1-row
  ``HomPoly.eval_many`` calls and ``HomPoly.dense`` rebuilt per call;
  ``polyops`` and ``jets`` are bypassed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles

WORKLOADS = ("verify-default", "jet-algebra", "sphere-estimates")

JET_SIZES = ((2, 7), (3, 6), (4, 5))
# Input sets per size or dimension in one cycle.  More work per cycle
# averages over the drift in machine speed, and keeps one whole cycle per
# run at the seed commit, so the tail's rank does not jump with the
# number of cycles that fit.
JET_SETS = 3
SPHERE_SETS = 2
JET_OPS = ("compose", "invert", "iterate", "unitary_conjugate")
ITERATE_COUNT = 3
REFERENCE_SEED = 2406_02752  # reference jets of sphere-estimates
SPHERE_DIMS = {"sup_norm_fs": (2, 3), "operator_norm_bilinear": (2, 3, 4),
               "check_bounded_onedim_bound": (2, 3)}


@dataclass
class Call:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


@dataclass
class Workload:
    calls: list[Call]
    warm_up: Callable[[], None]


def size_label(n: int, k: int | None = None) -> str:
    return f"n{n}" if k is None else f"n{n}k{k}"


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def complex_params(rng: np.random.Generator, count: int) -> list[complex]:
    return [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(count)]


def build(name: str, fsjet, seed: int, tiny: bool = False) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed % 2**63, WORKLOADS.index(name)])
    make = {"verify-default": _verify_default, "jet-algebra": _jet_algebra,
            "sphere-estimates": _sphere_estimates}[name]
    return make(fsjet, rng, tiny)


# -- verify-default ------------------------------------------------------------


def _verify_default(fsjet, rng, tiny):
    suites = [s for s in fsjet.SUITE_NAMES if s != "all"]
    suite_seed = int(rng.integers(0, 2**31))
    trials = 2 if tiny else None  # None: the suite's DEFAULT_TRIALS

    def suite_call(suite):
        return Call(
            f"suite.{suite}",
            lambda: fsjet.run_suite(suite, trials=trials, seed=suite_seed),
            oracles.check_reports,
        )

    def warm_up():
        for suite in suites:
            fsjet.run_suite(suite, trials=1, seed=suite_seed + 1)

    return Workload([suite_call(s) for s in suites], warm_up)


# -- jet-algebra ---------------------------------------------------------------


def _jet_calls(fsjet, rng, n, K):
    f = fsjet.random_jet(n, K, rng)
    g = fsjet.random_jet(n, K, rng)
    U = random_unitary(n, rng)
    es = oracles.sphere_points(rng, 2, n)
    size = size_label(n, K)
    return [
        Call(f"compose.{size}", lambda: fsjet.compose(f, g),
             lambda out: oracles.check_compose(out, f, g, es)),
        Call(f"invert.{size}", lambda: fsjet.invert(f),
             lambda out: oracles.check_invert(out, f, es)),
        Call(f"iterate.{size}", lambda: fsjet.iterate(f, ITERATE_COUNT),
             lambda out: oracles.check_iterate(out, f, ITERATE_COUNT, es)),
        Call(f"unitary_conjugate.{size}", lambda: fsjet.unitary_conjugate(f, U),
             lambda out: oracles.check_unitary_conjugate(out, f, U, es)),
    ]


def _jet_algebra(fsjet, rng, tiny):
    sizes = ((2, 3), (3, 3), (4, 2)) if tiny else JET_SIZES
    calls = [c for _ in range(JET_SETS) for n, K in sizes for c in _jet_calls(fsjet, rng, n, K)]
    warm = _jet_calls(fsjet, np.random.default_rng(0), 2, 3)

    def warm_up():
        for c in warm:
            c.run()

    return Workload(calls, warm_up)


# -- sphere-estimates ----------------------------------------------------------


def _onedim_jet(fsjet, n, rng, scale):
    """s(x) = 1 + p_1(x) + p_2(x) with complex Gaussian monomial coefficients."""
    polys = {}
    for k in (1, 2):
        monos = {}
        for exps in _exponents(n, k):
            monos[exps] = scale * complex(rng.standard_normal(), rng.standard_normal())
        polys[k] = fsjet.ScalarHomPoly.from_scalar_monomials(k, n, monos)
    return fsjet.OneDimJet(n, 3, polys)


def _exponents(n, k):
    if n == 1:
        return [(k,)]
    return [(a,) + rest for a in range(k, -1, -1) for rest in _exponents(n - 1, k - a)]


def _sphere_estimates(fsjet, rng, tiny):
    # The sphere maximisations run until they converge, and how long that
    # takes differs by a factor of two between random jets.  So the jets
    # are fixed reference jets turned by a seeded unitary U (U* f(U x)):
    # each seed poses the same problem in another orientation, relative
    # to fixed starting points, and the work per cycle stays nearly equal.
    reference = np.random.default_rng(REFERENCE_SEED)
    sup_refs = {n: (fsjet.random_jet(n, 3, reference), *complex_params(reference, 2))
                for n in SPHERE_DIMS["sup_norm_fs"]}
    opnorm_refs = {n: fsjet.random_jet(n, 2, reference) for n in SPHERE_DIMS["operator_norm_bilinear"]}
    check_rng = np.random.default_rng(rng.integers(0, 2**63))
    sup_config = fsjet.SupNormConfig(starts=8, steps=60) if tiny else fsjet.SupNormConfig()
    opnorm_kwargs = {"starts": 4, "iters": 50} if tiny else {}
    bound_kwargs = {"samples": 500, "directions": 8} if tiny else {}

    def turned(f0):
        return fsjet.unitary_conjugate(f0, random_unitary(f0.dim, rng))

    calls = []
    for _ in range(SPHERE_SETS):
        for n, (f0, lam, mu) in sup_refs.items():
            f = turned(f0)
            calls.append(Call(
                f"sup_norm_fs.{size_label(n)}",
                lambda f=f, lam=lam, mu=mu: fsjet.sup_norm_fs(f, lam, mu, sup_config),
                lambda out, f=f, lam=lam, mu=mu: oracles.check_sup_norm(out, f, lam, mu, check_rng),
            ))
        for n, f0 in opnorm_refs.items():
            B = turned(f0).poly(2)
            seed = int(rng.integers(0, 2**31))
            calls.append(Call(
                f"operator_norm_bilinear.{size_label(n)}",
                lambda B=B, seed=seed: fsjet.operator_norm_bilinear(B, seed=seed, **opnorm_kwargs),
                lambda out, B=B: oracles.check_operator_norm(out, B, check_rng),
            ))
        for n in SPHERE_DIMS["check_bounded_onedim_bound"]:
            od = _onedim_jet(fsjet, n, rng, scale=0.3 / n)
            (lam,) = complex_params(rng, 1)
            seed = int(rng.integers(0, 2**31))
            calls.append(Call(
                f"check_bounded_onedim_bound.{size_label(n)}",
                lambda od=od, lam=lam, seed=seed: fsjet.check_bounded_onedim_bound(
                    od, od.s_eval, lam, seed=seed, **bound_kwargs),
                lambda out, od=od, lam=lam: oracles.check_bounded_onedim(out, od, lam),
            ))

    warm_rng = np.random.default_rng(0)
    warm_f = fsjet.random_jet(2, 3, warm_rng)
    warm_od = _onedim_jet(fsjet, 2, warm_rng, scale=0.15)

    def warm_up():
        fsjet.sup_norm_fs(warm_f, 0.5, 0.5, fsjet.SupNormConfig(starts=1, steps=3))
        fsjet.operator_norm_bilinear(warm_f.poly(2), starts=1, iters=3)
        fsjet.check_bounded_onedim_bound(warm_od, warm_od.s_eval, 0.5, samples=200, directions=2)

    return Workload(calls, warm_up)
