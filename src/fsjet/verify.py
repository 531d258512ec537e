"""Seeded verification suites for every identity and inequality the
library implements.

Each suite returns a list of Reports (one per named check) and is fully
deterministic for a given seed.  Suites accept ``trials=0`` and then pass
vacuously.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import fekete
from .estimates import check_bounded_onedim_bound
from .fekete import FSContext, _inner, fs_mapping
from .jets import MappingJet, compose, invert, iterate, random_jet, unitary_conjugate
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
from .tensors import ScalarHomPoly, layout, polarization_check
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
        worst = _worst(worst, res / scale)
    return [Report("polarization", trials, seed, 1e-12, worst)]


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
        worst = _worst(worst, float(np.linalg.norm(lhs - rhs)))
    return [Report("compose/psi-composition-identity", trials, seed, 1e-11, worst)]


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
        worst_dual = _worst(worst_dual, float(np.linalg.norm(lhs - rhs)))
        # degree-3 part of the inverse along e equals -Psi_e(f, 2, 2)
        q3 = g.poly(3).eval(e)
        psi22 = fs_mapping(f, FSContext(e, 2.0, 2.0)).vector
        worst_q3 = _worst(worst_q3, float(np.linalg.norm(q3 + psi22)))
    return [
        Report("inverse/psi-duality", trials, seed, 1e-11, worst_dual),
        Report("inverse/third-derivative", trials, seed, 1e-11, worst_q3),
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
            worst = _worst(worst, float(np.linalg.norm(lhs - rhs)))
            # degree-2 part scales linearly in the iteration count
            t2 = fm.poly(2) + f.poly(2).scale(-float(m))
            worst = _worst(worst, t2.max_coeff())
    return [Report("iterate/psi-scaling", trials, seed, 1e-10, worst)]


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
        worst = _worst(worst, float(np.linalg.norm(lhs - rhs)))
    return [Report("unitary/psi-conjugation", trials, seed, 1e-11, worst)]


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
                    worst = _worst(worst, g.poly(k).max_coeff())
            qn1 = g.poly(nroot + 1).eval(e)
            worst = _worst(
                worst,
                float(np.linalg.norm(qn1 - f.poly(2).eval(e) / nroot)),
            )
            q2n1 = g.poly(2 * nroot + 1).eval(e)
            lam = (nroot - 1) / (2.0 * nroot)
            for mu in sample_params(rng, 5):
                psi = fs_mapping(f, FSContext(e, lam, mu)).vector
                worst = _worst(worst, float(np.linalg.norm(q2n1 - psi / nroot)))
    reports = [Report("root/jet-relations", trials, seed, 1e-10, worst)]

    # golden series: the square-root transform of the Koebe function
    koebe_res = 0.0
    if trials > 0:
        g = root_transform(koebe_onedim(), 2, np.array([1.0 + 0j]))
        got = [complex(g.poly(k).eval(np.array([1.0 + 0j]))[0]) for k in (2, 3, 4, 5)]
        expect = [0.0, 1.0, 0.0, 1.0]
        koebe_res = _worst(*(abs(a - b) for a, b in zip(got, expect)))
    reports.append(
        Report("root/koebe-golden", min(trials, 1), seed, 1e-12, koebe_res)
    )
    return reports


def suite_error_bound(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    rng = _rng(seed, 6)
    # per dimension: (||R||, ell(lam, mu)) of each trial and its two
    # degree-2 tensors, whose norms are then estimated in one call
    by_dim: dict[int, tuple[list, list]] = {}
    for i in range(trials):
        n = _dims_cycle(dims, i)
        f = random_jet(n, 3, rng)
        g = random_jet(n, 3, rng)
        e = sample_sphere(rng, 1, n)[0]
        lam, mu = sample_params(rng, 2)
        ctx = FSContext(e, lam, mu)
        R = fekete._composition_defect(f, g, ctx)
        defects, tensors = by_dim.setdefault(n, ([], []))
        defects.append((float(np.linalg.norm(R)), fekete.ell(ctx.lam, ctx.mu)))
        tensors += [f.poly(2), g.poly(2)]
    worst_violation = 0.0
    for defects, tensors in by_dim.values():
        seeds = [seed, seed + 1] * len(defects)
        est = fekete.operator_norm_bilinear(tensors, seed=seeds)
        for (r, coef), nf, ng in zip(defects, est[::2], est[1::2]):
            worst_violation = _worst(worst_violation, r - coef * nf.value * ng.value)
    reports = [
        Report(
            "error-bound/ell-bound", trials, seed, 1e-9, _worst(0.0, worst_violation)
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
        worst_eq = _worst(worst_eq, abs(float(np.linalg.norm(R)) - expect))
    reports.append(
        Report("error-bound/onedim-equality", trials, seed, 1e-11, worst_eq)
    )
    return reports


def suite_semigroup(trials: int, seed: int, dims=(2,)) -> list[Report]:
    rng = _rng(seed, 8)
    times, degrees = (0.1, 0.7, 2.0), (2, 3)
    # every generator and direction first, then one integration per dim
    by_dim: dict[int, tuple[list, list]] = {}
    for i in range(trials):
        n = _dims_cycle(dims, i)
        gens, dirs = by_dim.setdefault(n, ([], []))
        gens.append(sample_generator(n, rng))
        dirs.append(sample_sphere(rng, 1, n)[0])
    worst = 0.0
    for gens, dirs in by_dim.values():
        extracted = flow_taylor_via_ode(
            gens, times, np.array(dirs), degrees, step=5e-3
        )
        for h, e, by_time in zip(gens, dirs, extracted):
            for t, by_degree in zip(times, by_time):
                flow = semigroup_jet(h, t)
                for k, coef in zip(degrees, by_degree):
                    closed = flow.poly(k).eval(e)
                    worst = _worst(worst, float(np.linalg.norm(closed - coef)))
    reports = [Report("semigroup/closed-form-vs-ode", trials, seed, 1e-6, worst)]

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
            worst_comp = _worst(worst_comp, diff.max_coeff())
    reports.append(
        Report("semigroup/flow-property", trials, seed, 1e-10, worst_comp)
    )
    return reports


def suite_duality(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    rng = _rng(seed, 10)
    worst_pair = 0.0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        h = random_jet(n, 3, rng)
        f = starlike_from_generator(h)
        e = sample_sphere(rng, 1, n)[0]
        lam, mu = sample_params(rng, 2)
        lhs = fs_mapping(h, FSContext(e, 2 * lam, 2 * mu)).vector
        rhs = -2.0 * fs_mapping(f, FSContext(e, 1 - lam, 1 - mu)).vector
        worst_pair = _worst(worst_pair, float(np.linalg.norm(lhs - rhs)))
        # round trip through the pairing
        back = generator_from_starlike(f)
        for k in (2, 3):
            diff = back.poly(k) + h.poly(k).scale(-1.0)
            worst_pair = _worst(worst_pair, diff.max_coeff())
    reports = [Report("duality/psi-pairing", trials, seed, 1e-11, worst_pair)]

    rng2 = _rng(seed, 11)
    worst_bound = 0.0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        h = sample_generator(n, rng2)
        e = sample_sphere(rng2, 1, n)[0]
        lam = sample_params(rng2, 1)[0]
        val = abs(fs_mapping(h, FSContext(e, lam, 0.0)).scalar_projection)
        bound = 2.0 * max(1.0, abs(2.0 * lam - 1.0))
        worst_bound = _worst(worst_bound, val - bound)
    reports.append(
        Report(
            "duality/generator-scalar-bound",
            trials,
            seed,
            1e-9,
            _worst(0.0, worst_bound),
        )
    )

    rng3 = _rng(seed, 12)
    mismatches = 0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        if i % 2 == 0:
            h = random_onedim_jet(n, 3, rng3).to_mapping_jet()
        else:
            h = random_jet(n, 3, rng3)
        f = starlike_from_generator(h)
        if (detect_onedim(h) is None) != (detect_onedim(f) is None):
            mismatches += 1
    reports.append(
        Report(
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
        worst_margin = _worst(worst_margin, -report.margin)
    reports = [
        Report(
            "bounds/bounded-onedim", trials, seed, 1e-6, _worst(0.0, worst_margin)
        )
    ]

    rng2 = _rng(seed, 14)
    worst_star = 0.0
    for i in range(trials):
        n = _dims_cycle(dims, i)
        base = random_onedim_jet(n, 3, rng2, scale=0.3).to_mapping_jet()
        h = generator_shrink(base, rng2)
        f = starlike_from_generator(h)
        e = sample_sphere(rng2, 1, n)[0]
        lam, mu = sample_params(rng2, 2)
        val = float(np.linalg.norm(fs_mapping(f, FSContext(e, lam, mu)).vector))
        bound = max(1.0, abs(4.0 * lam - 3.0))
        worst_star = _worst(worst_star, val - bound)
    reports.append(
        Report(
            "bounds/starlike-onedim", trials, seed, 1e-9, _worst(0.0, worst_star)
        )
    )
    return reports


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


class SuiteArgumentError(ValueError):
    """A dimension below 1 or a negative seed given to ``run_suite``."""


def run_suite(
    name: str,
    trials: int | None = None,
    seed: int = 0,
    tol: float | None = None,
    dims=None,
) -> list[Report]:
    """Run one named suite (or "all"); returns one Report per check.

    A dimension below 1 in ``dims`` or a negative ``seed`` raises
    ``SuiteArgumentError``, a ``ValueError``, before any suite runs."""
    for d in dims or ():
        if d < 1:
            raise SuiteArgumentError(f"dimension {d} is not positive")
    if seed < 0:
        raise SuiteArgumentError(f"seed {seed} is negative")
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
