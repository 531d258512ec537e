"""Seeded verification suites for every identity and inequality the
library implements.

Each suite returns a list of Reports (one per named check) and is fully
deterministic for a given seed.  Suites accept ``trials=0`` and then pass
vacuously.
"""

from __future__ import annotations

import numpy as np

from . import polyops
from .estimates import check_bounded_onedim_bound
from .fekete import FSContext, _inner, fs_mapping
from .jets import MappingJet, compose, invert, iterate, random_jet, unitary_conjugate
from .reporting import Report, make_report
from .sampling import sample_params, sample_sphere
from .semigroup import (
    GeneratorJet,
    flow_taylor_via_ode,
    generator_from_starlike,
    generator_shrink,
    sample_generator,
    semigroup_jet,
    starlike_from_generator,
)
from .tensors import HomPoly, ScalarHomPoly, polarization_check
from .transforms import OneDimJet, detect_onedim, koebe_onedim, root_transform

SUITE_NAMES = (
    "polarization",
    "compose",
    "inverse",
    "iterate",
    "unitary",
    "root",
    "error-bound",
    "semigroup",
    "duality",
    "bounds",
    "all",
)

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
        monos = {
            exps: scale * complex(rng.standard_normal(), rng.standard_normal())
            for exps in polyops.exponents_of_degree(dim, k)
        }
        polys[k] = ScalarHomPoly.from_scalar_monomials(k, dim, monos)
    return OneDimJet(dim, order, polys)


def _dims_cycle(dims, i):
    return dims[i % len(dims)]


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def suite_polarization(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    rng = _rng(seed, 0)
    worst = 0.0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        P = random_jet(n, 2, rng).poly(2)
        x1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        res = polarization_check(P, x1, x2)
        scale = (1.0 + np.linalg.norm(x1) ** 2 + np.linalg.norm(x2) ** 2) * (
            1.0 + P.max_coeff()
        )
        res /= scale
        if res > worst:
            worst = res
    return [make_report("polarization", trials, seed, 1e-12, worst)]


def _psi_compo_rhs(f: MappingJet, g: MappingJet, ctx: FSContext) -> np.ndarray:
    e = ctx.e
    B, C = f.poly(2), g.poly(2)
    P2e, Q2e = B.eval(e), C.eval(e)
    return (
        fs_mapping(f, ctx).vector
        + fs_mapping(g, ctx).vector
        - (ctx.lam - ctx.mu) * (_inner(P2e, e) * Q2e + _inner(Q2e, e) * P2e)
        - ctx.mu * C.multilinear_eval([e, P2e])
        - (ctx.mu - 2.0) * B.multilinear_eval([e, Q2e])
    )


def suite_compose(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    rng = _rng(seed, 1)
    worst = 0.0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        f = random_jet(n, 3, rng)
        g = random_jet(n, 3, rng)
        e = sample_sphere(rng, 1, n)[0]
        lam, mu = sample_params(rng, 2)
        ctx = FSContext(e, lam, mu)
        lhs = fs_mapping(compose(f, g), ctx).vector
        rhs = _psi_compo_rhs(f, g, ctx)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return [make_report("compose/psi-composition-identity", trials, seed, 1e-11, worst)]


def suite_inverse(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    rng = _rng(seed, 2)
    worst_dual = 0.0
    worst_q3 = 0.0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        f = random_jet(n, 3, rng)
        g = invert(f)
        e = sample_sphere(rng, 1, n)[0]
        lam, mu = sample_params(rng, 2)
        lhs = fs_mapping(g, FSContext(e, lam, mu)).vector
        rhs = -fs_mapping(f, FSContext(e, 2.0 - lam, 2.0 - mu)).vector
        worst_dual = max(worst_dual, float(np.linalg.norm(lhs - rhs)))
        # degree-3 part of the inverse along e equals -Psi_e(f, 2, 2)
        q3 = g.poly(3).eval(e)
        psi22 = fs_mapping(f, FSContext(e, 2.0, 2.0)).vector
        worst_q3 = max(worst_q3, float(np.linalg.norm(q3 + psi22)))
    return [
        make_report("inverse/psi-duality", trials, seed, 1e-11, worst_dual),
        make_report("inverse/third-derivative", trials, seed, 1e-11, worst_q3),
    ]


def suite_iterate(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    rng = _rng(seed, 3)
    worst = 0.0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        f = random_jet(n, 3, rng)
        e = sample_sphere(rng, 1, n)[0]
        lam, mu = sample_params(rng, 2)
        for m in ITERATE_RANGE:
            fm = iterate(f, m)
            lhs = fs_mapping(fm, FSContext(e, lam, mu)).vector
            rhs = m * fs_mapping(
                f, FSContext(e, m * lam - m + 1, m * mu - m + 1)
            ).vector
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
            # degree-2 part scales linearly in the iteration count
            t2 = fm.poly(2) + f.poly(2).scale(-float(m))
            worst = max(worst, t2.max_coeff())
    return [make_report("iterate/psi-scaling", trials, seed, 1e-10, worst)]


def suite_unitary(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    rng = _rng(seed, 4)
    worst = 0.0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        f = random_jet(n, 3, rng)
        U = _random_unitary(n, rng)
        g = unitary_conjugate(f, U)
        e = sample_sphere(rng, 1, n)[0]
        lam, mu = sample_params(rng, 2)
        lhs = fs_mapping(g, FSContext(e, lam, mu)).vector
        rhs = U.conj().T @ fs_mapping(f, FSContext(U @ e, lam, mu)).vector
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return [make_report("unitary/psi-conjugation", trials, seed, 1e-11, worst)]


def suite_root(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    rng = _rng(seed, 5)
    worst = 0.0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        od = random_onedim_jet(n, 3, rng)
        f = od.to_mapping_jet()
        e = sample_sphere(rng, 1, n)[0]
        for nroot in (2, 3):
            g = root_transform(od, nroot, e)
            for k in g.polys:
                if (k - 1) % nroot != 0:
                    worst = max(worst, g.poly(k).max_coeff())
            qn1 = g.poly(nroot + 1).eval(e)
            worst = max(
                worst,
                float(np.linalg.norm(qn1 - f.poly(2).eval(e) / nroot)),
            )
            q2n1 = g.poly(2 * nroot + 1).eval(e)
            lam = (nroot - 1) / (2.0 * nroot)
            for mu in sample_params(rng, 5):
                psi = fs_mapping(f, FSContext(e, lam, mu)).vector
                worst = max(worst, float(np.linalg.norm(q2n1 - psi / nroot)))
    reports = [make_report("root/jet-relations", trials, seed, 1e-10, worst)]

    # golden series: the square-root transform of the Koebe function
    koebe_res = 0.0
    if trials > 0:
        g = root_transform(koebe_onedim(), 2, np.array([1.0 + 0j]))
        got = [complex(g.poly(k).eval(np.array([1.0 + 0j]))[0]) for k in (2, 3, 4, 5)]
        expect = [0.0, 1.0, 0.0, 1.0]
        koebe_res = max(abs(a - b) for a, b in zip(got, expect))
    reports.append(
        make_report("root/koebe-golden", min(trials, 1), seed, 1e-12, koebe_res)
    )
    return reports


def suite_error_bound(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    from .fekete import ell, fs_error_term

    rng = _rng(seed, 6)
    worst_violation = 0.0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        f = random_jet(n, 3, rng)
        g = random_jet(n, 3, rng)
        e = sample_sphere(rng, 1, n)[0]
        lam, mu = sample_params(rng, 2)
        R, bound = fs_error_term(f, g, FSContext(e, lam, mu), norm_seed=seed)
        worst_violation = max(worst_violation, float(np.linalg.norm(R)) - bound)
    reports = [
        make_report(
            "error-bound/ell-bound", trials, seed, 1e-9, max(0.0, worst_violation)
        )
    ]

    rng2 = _rng(seed, 7)
    worst_eq = 0.0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        fo = random_onedim_jet(n, 3, rng2)
        go = random_onedim_jet(n, 3, rng2)
        f, g = fo.to_mapping_jet(), go.to_mapping_jet()
        e = sample_sphere(rng2, 1, n)[0]
        lam, mu = sample_params(rng2, 2)
        ctx = FSContext(e, lam, mu)
        R = (
            fs_mapping(compose(f, g), ctx).vector
            - fs_mapping(f, ctx).vector
            - fs_mapping(g, ctx).vector
        )
        expect = 2.0 * abs(1.0 - lam) * abs(
            fo.scalar_part(1).eval_scalar(e) * go.scalar_part(1).eval_scalar(e)
        )
        worst_eq = max(worst_eq, abs(float(np.linalg.norm(R)) - expect))
    reports.append(
        make_report("error-bound/onedim-equality", trials, seed, 1e-11, worst_eq)
    )
    return reports


def suite_semigroup(trials: int, seed: int, dims=(2,)) -> list[Report]:
    rng = _rng(seed, 8)
    worst = 0.0
    times, degrees = (0.1, 0.7, 2.0), (2, 3)
    for i in range(trials):
        n = _dims_cycle(dims, i)
        h = sample_generator(n, rng)
        e = sample_sphere(rng, 1, n)[0]
        extracted = flow_taylor_via_ode(h, times, e, degrees, step=5e-3)
        for t, by_degree in zip(times, extracted):
            flow = semigroup_jet(h, t)
            for k, coef in zip(degrees, by_degree):
                closed = flow.poly(k).eval(e)
                worst = max(worst, float(np.linalg.norm(closed - coef)))
    reports = [make_report("semigroup/closed-form-vs-ode", trials, seed, 1e-6, worst)]

    rng2 = _rng(seed, 9)
    worst_comp = 0.0
    for i in range(max(1, trials // 4) if trials else 0):
        n = _dims_cycle(dims, i)
        h = sample_generator(n, rng2)
        a, b = semigroup_jet(h, 0.3), semigroup_jet(h, 0.5)
        combined = a.compose(b)
        direct = semigroup_jet(h, 0.8)
        for k in (2, 3):
            diff = combined.poly(k) + direct.poly(k).scale(-1.0)
            worst_comp = max(worst_comp, diff.max_coeff())
    reports.append(
        make_report("semigroup/flow-property", trials, seed, 1e-10, worst_comp)
    )
    return reports


def suite_duality(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    rng = _rng(seed, 10)
    worst_pair = 0.0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        h = GeneratorJet(random_jet(n, 3, rng))
        f = starlike_from_generator(h)
        e = sample_sphere(rng, 1, n)[0]
        lam, mu = sample_params(rng, 2)
        lhs = fs_mapping(h.jet, FSContext(e, 2 * lam, 2 * mu)).vector
        rhs = -2.0 * fs_mapping(f, FSContext(e, 1 - lam, 1 - mu)).vector
        worst_pair = max(worst_pair, float(np.linalg.norm(lhs - rhs)))
        # round trip through the pairing
        back = generator_from_starlike(f)
        for k in (2, 3):
            diff = back.jet.poly(k) + h.jet.poly(k).scale(-1.0)
            worst_pair = max(worst_pair, diff.max_coeff())
    reports = [make_report("duality/psi-pairing", trials, seed, 1e-11, worst_pair)]

    rng2 = _rng(seed, 11)
    worst_bound = 0.0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        h = sample_generator(n, rng2)
        e = sample_sphere(rng2, 1, n)[0]
        lam = sample_params(rng2, 1)[0]
        val = abs(fs_mapping(h.jet, FSContext(e, lam, 0.0)).scalar_projection)
        bound = 2.0 * max(1.0, abs(2.0 * lam - 1.0))
        worst_bound = max(worst_bound, val - bound)
    reports.append(
        make_report(
            "duality/generator-scalar-bound",
            trials,
            seed,
            1e-9,
            max(0.0, worst_bound),
        )
    )

    rng3 = _rng(seed, 12)
    mismatches = 0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        if i % 2 == 0:
            h = GeneratorJet(random_onedim_jet(n, 3, rng3).to_mapping_jet())
        else:
            h = GeneratorJet(random_jet(n, 3, rng3))
        f = starlike_from_generator(h)
        if (detect_onedim(h.jet) is None) != (detect_onedim(f) is None):
            mismatches += 1
    reports.append(
        make_report(
            "duality/onedim-equivalence", trials, seed, 0.0, float(mismatches)
        )
    )
    return reports


def suite_bounds(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    rng = _rng(seed, 13)
    worst_margin = 0.0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        od = random_onedim_jet(n, 3, rng, scale=0.3 / n)
        lam = sample_params(rng, 1)[0]
        report = check_bounded_onedim_bound(
            od, od.s_eval, lam, seed=int(rng.integers(0, 2**31))
        )
        worst_margin = max(worst_margin, -report.margin)
    reports = [
        make_report(
            "bounds/bounded-onedim", trials, seed, 1e-6, max(0.0, worst_margin)
        )
    ]

    rng2 = _rng(seed, 14)
    worst_star = 0.0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        h = _sample_onedim_generator(n, rng2)
        f = starlike_from_generator(h)
        e = sample_sphere(rng2, 1, n)[0]
        lam, mu = sample_params(rng2, 2)
        val = float(np.linalg.norm(fs_mapping(f, FSContext(e, lam, mu)).vector))
        bound = max(1.0, abs(4.0 * lam - 3.0))
        worst_star = max(worst_star, val - bound)
    reports.append(
        make_report(
            "bounds/starlike-onedim", trials, seed, 1e-9, max(0.0, worst_star)
        )
    )
    return reports


def _sample_onedim_generator(dim: int, rng: np.random.Generator) -> GeneratorJet:
    """One-dimensional-type member of the generator class, by rescaling."""
    od = random_onedim_jet(dim, 3, rng, scale=0.3)
    c = generator_shrink(od.to_mapping_jet(), rng)
    polys = {
        k: ScalarHomPoly(k, dim, {i: c * v for i, v in p.coeffs.items()})
        for k, p in od.scalar_polys.items()
    }
    return GeneratorJet(OneDimJet(dim, 3, polys).to_mapping_jet())


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


def run_suite(
    name: str,
    trials: int | None = None,
    seed: int = 0,
    tol: float | None = None,
    dims=None,
) -> list[Report]:
    """Run one named suite (or "all"); returns one Report per check."""
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
        reports = [
            make_report(r.suite, r.trials, r.seed, tol, r.max_residual, r.witnesses)
            for r in reports
        ]
    return reports
