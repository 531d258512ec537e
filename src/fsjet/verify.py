"""Seeded verification suites for every identity and inequality the
library implements.

Each suite returns a list of Reports, one per named check, and is fully
deterministic for a given seed.  Every check keeps one contract, and the
runner (``_run``, then ``_report``) keeps it for all but two of them:

- each check draws from its own stream, ``_rng(seed, stream)``, so its
  inputs do not depend on which other checks ran;
- trial i runs in dimension ``dims[i % len(dims)]``;
- the residual is the worst of everything the trials yield, NaN if any
  of it is NaN, so a NaN fails the check;
- ``trials=0`` runs no trial and passes vacuously.

``duality/onedim-equivalence`` keeps its own loop, because its residual
counts mismatches, and ``root/koebe-golden`` is one evaluation.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import fekete
from .estimates import check_bounded_onedim_bound
from .fekete import fs_mapping, normalize_direction
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
from .tensors import ScalarHomPoly, check_layout_size, layout, polarization_check
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


def _run(trial, trials: int, seed: int, stream: int, dims) -> list[list]:
    """What each trial of a check yields, listed trial by trial.

    Trial i calls ``trial(rng, n)`` with the check's own generator
    ``_rng(seed, stream)`` and the dimension ``n = dims[i % len(dims)]``;
    a trial returns or yields its residuals, or the draws of a stacked
    check."""
    rng = _rng(seed, stream)
    return [list(trial(rng, dims[i % len(dims)])) for i in range(trials)]


def _report(check: str, tol: float, seed: int, rows: list) -> Report:
    """The Report of a check whose trial i gave the residuals ``rows[i]``:
    its residual is their NaN-aware worst, 0.0 when no trial ran."""
    return Report(check, len(rows), seed, tol, _worst(0.0, *(r for row in rows for r in row)))


def _draw_point(rng: np.random.Generator, n: int):
    """A direction e on the unit sphere of C^n, then lambda and mu.

    e is returned as drawn: ``fs_mapping`` normalizes it once more, which
    can change its last bits, so a check that also uses e itself takes
    ``normalize_direction`` of the drawn e."""
    e = sample_sphere(rng, 1, n)[0]
    lam, mu = sample_params(rng, 2)
    return e, lam, mu


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def suite_polarization(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def trial(rng, n):
        P = random_jet(n, 2, rng).poly(2)
        x1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        scale = (1.0 + np.linalg.norm(x1) ** 2 + np.linalg.norm(x2) ** 2) * (
            1.0 + P.max_coeff()
        )
        yield polarization_check(P, x1, x2) / scale

    return [_report("polarization", 1e-12, seed, _run(trial, trials, seed, 0, dims))]


def _psi_compo_rhs(f: MappingJet, g: MappingJet, e, lam: complex, mu: complex) -> np.ndarray:
    u = normalize_direction(e)
    B, C = f.poly(2), g.poly(2)
    P2u, Q2u = B.eval(u), C.eval(u)
    return (
        fs_mapping(f, e, lam, mu)
        + fs_mapping(g, e, lam, mu)
        - (lam - mu) * (np.vdot(u, P2u) * Q2u + np.vdot(u, Q2u) * P2u)
        - mu * C.multilinear_eval([u, P2u])
        - (mu - 2.0) * B.multilinear_eval([u, Q2u])
    )


def suite_compose(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def trial(rng, n):
        f = random_jet(n, 3, rng)
        g = random_jet(n, 3, rng)
        point = _draw_point(rng, n)
        lhs = fs_mapping(compose(f, g), *point)
        yield float(np.linalg.norm(lhs - _psi_compo_rhs(f, g, *point)))

    rows = _run(trial, trials, seed, 1, dims)
    return [_report("compose/psi-composition-identity", 1e-11, seed, rows)]


def suite_inverse(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def trial(rng, n):
        f = random_jet(n, 3, rng)
        g = invert(f)
        e, lam, mu = _draw_point(rng, n)
        lhs = fs_mapping(g, e, lam, mu)
        rhs = -fs_mapping(f, e, 2.0 - lam, 2.0 - mu)
        yield float(np.linalg.norm(lhs - rhs))
        # degree-3 part of the inverse along e equals -Psi_e(f, 2, 2)
        psi22 = fs_mapping(f, e, 2.0, 2.0)
        yield float(np.linalg.norm(g.poly(3).eval(e) + psi22))

    # one trial feeds both checks: its duality residual, then its degree-3 one
    rows = _run(trial, trials, seed, 2, dims)
    return [
        _report("inverse/psi-duality", 1e-11, seed, [row[:1] for row in rows]),
        _report("inverse/third-derivative", 1e-11, seed, [row[1:] for row in rows]),
    ]


def suite_iterate(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def trial(rng, n):
        f = random_jet(n, 3, rng)
        e, lam, mu = _draw_point(rng, n)
        for m in ITERATE_RANGE:
            fm = iterate(f, m)
            lhs = fs_mapping(fm, e, lam, mu)
            rhs = m * fs_mapping(f, e, m * lam - m + 1, m * mu - m + 1)
            yield float(np.linalg.norm(lhs - rhs))
            # degree-2 part scales linearly in the iteration count
            yield (fm.poly(2) + f.poly(2).scale(-float(m))).max_coeff()

    return [_report("iterate/psi-scaling", 1e-10, seed, _run(trial, trials, seed, 3, dims))]


def suite_unitary(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def trial(rng, n):
        f = random_jet(n, 3, rng)
        U = _random_unitary(n, rng)
        g = unitary_conjugate(f, U)
        e, lam, mu = _draw_point(rng, n)
        lhs = fs_mapping(g, e, lam, mu)
        rhs = U.conj().T @ fs_mapping(f, U @ e, lam, mu)
        yield float(np.linalg.norm(lhs - rhs))

    return [_report("unitary/psi-conjugation", 1e-11, seed, _run(trial, trials, seed, 4, dims))]


ROOT_ORDERS = (2, 3)
# the root suite's order-(2n+1) jets have the highest degree of any suite
SUITE_MAX_DEGREE = 2 * max(ROOT_ORDERS) + 1


def suite_root(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def trial(rng, n):
        od = random_onedim_jet(n, 3, rng)
        f = od.to_mapping_jet()
        e = sample_sphere(rng, 1, n)[0]
        for nroot in ROOT_ORDERS:
            g = root_transform(od, nroot, e)
            for k in g.polys:
                if (k - 1) % nroot != 0:
                    yield g.poly(k).max_coeff()
            qn1 = g.poly(nroot + 1).eval(e)
            yield float(np.linalg.norm(qn1 - f.poly(2).eval(e) / nroot))
            q2n1 = g.poly(2 * nroot + 1).eval(e)
            lam = (nroot - 1) / (2.0 * nroot)
            for mu in sample_params(rng, 5):
                psi = fs_mapping(f, e, lam, mu)
                yield float(np.linalg.norm(q2n1 - psi / nroot))

    # golden series: the square-root transform of the Koebe function
    golden = []
    if trials > 0:
        one = np.array([1.0 + 0j])
        g = root_transform(koebe_onedim(), 2, one)
        got = [complex(g.poly(k).eval(one)[0]) for k in (2, 3, 4, 5)]
        golden.append([abs(a - b) for a, b in zip(got, (0.0, 1.0, 0.0, 1.0))])
    return [
        _report("root/jet-relations", 1e-10, seed, _run(trial, trials, seed, 5, dims)),
        _report("root/koebe-golden", 1e-12, seed, golden),
    ]


def suite_error_bound(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def defect(rng, n):
        f = random_jet(n, 3, rng)
        g = random_jet(n, 3, rng)
        e, lam, mu = _draw_point(rng, n)
        R = fekete._composition_defect(f, g, e, lam, mu)
        return n, float(np.linalg.norm(R)), fekete.ell(lam, mu), f.poly(2), g.poly(2)

    def onedim_defect(rng, n):
        fo = random_onedim_jet(n, 3, rng)
        go = random_onedim_jet(n, 3, rng)
        f, g = fo.to_mapping_jet(), go.to_mapping_jet()
        e, lam, mu = _draw_point(rng, n)
        R = fekete._composition_defect(f, g, e, lam, mu)
        expect = 2.0 * abs(1.0 - lam) * abs(
            fo.scalar_part(1).eval_scalar(e) * go.scalar_part(1).eval_scalar(e)
        )
        yield abs(float(np.linalg.norm(R)) - expect)

    # per dimension: (||R||, ell(lam, mu)) of each trial and its two
    # degree-2 tensors, whose norms are then estimated in one call
    by_dim: dict[int, tuple[list, list]] = {}
    for n, r, coef, B, C in _run(defect, trials, seed, 6, dims):
        defects, tensors = by_dim.setdefault(n, ([], []))
        defects.append((r, coef))
        tensors += [B, C]
    rows = []
    for defects, tensors in by_dim.values():
        seeds = [seed, seed + 1] * len(defects)
        est = fekete.operator_norm_bilinear(tensors, seed=seeds)
        for (r, coef), nf, ng in zip(defects, est[::2], est[1::2]):
            rows.append([r - coef * nf.value * ng.value])
    return [
        _report("error-bound/ell-bound", 1e-9, seed, rows),
        _report(
            "error-bound/onedim-equality", 1e-11, seed, _run(onedim_defect, trials, seed, 7, dims)
        ),
    ]


def suite_semigroup(trials: int, seed: int, dims=(2,)) -> list[Report]:
    def flow_property(rng, n):
        h = sample_generator(n, rng)
        combined = semigroup_jet(h, 0.3).compose(semigroup_jet(h, 0.5))
        direct = semigroup_jet(h, 0.8)
        for k in (2, 3):
            yield (combined.poly(k) + direct.poly(k).scale(-1.0)).max_coeff()

    def draw(rng, n):
        return n, sample_generator(n, rng), sample_sphere(rng, 1, n)[0]

    times, degrees = (0.1, 0.7, 2.0), (2, 3)
    # every generator and direction first, then one integration per dim
    by_dim: dict[int, tuple[list, list]] = {}
    for n, h, e in _run(draw, trials, seed, 8, dims):
        gens, dirs = by_dim.setdefault(n, ([], []))
        gens.append(h)
        dirs.append(e)
    rows = []
    for gens, dirs in by_dim.values():
        extracted = flow_taylor_via_ode(
            gens, times, np.array(dirs), degrees, step=5e-3
        )
        for h, e, by_time in zip(gens, dirs, extracted):
            row = []
            for t, by_degree in zip(times, by_time):
                flow = semigroup_jet(h, t)
                for k, coef in zip(degrees, by_degree):
                    row.append(float(np.linalg.norm(flow.poly(k).eval(e) - coef)))
            rows.append(row)
    flow_trials = max(1, trials // 4) if trials else 0
    return [
        _report("semigroup/closed-form-vs-ode", 1e-6, seed, rows),
        _report(
            "semigroup/flow-property", 1e-10, seed, _run(flow_property, flow_trials, seed, 9, dims)
        ),
    ]


def suite_duality(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def pairing(rng, n):
        h = random_jet(n, 3, rng)
        f = starlike_from_generator(h)
        e, lam, mu = _draw_point(rng, n)
        lhs = fs_mapping(h, e, 2 * lam, 2 * mu)
        rhs = -2.0 * fs_mapping(f, e, 1 - lam, 1 - mu)
        yield float(np.linalg.norm(lhs - rhs))
        # round trip through the pairing
        back = generator_from_starlike(f)
        for k in (2, 3):
            yield (back.poly(k) + h.poly(k).scale(-1.0)).max_coeff()

    def generator_bound(rng, n):
        h = sample_generator(n, rng)
        e = sample_sphere(rng, 1, n)[0]
        lam = sample_params(rng, 1)[0]
        val = abs(np.vdot(normalize_direction(e), fs_mapping(h, e, lam, 0.0)))
        yield val - 2.0 * max(1.0, abs(2.0 * lam - 1.0))

    rng3 = _rng(seed, 12)
    mismatches = 0
    for i in range(trials):
        n = dims[i % len(dims)]
        if i % 2 == 0:
            h = random_onedim_jet(n, 3, rng3).to_mapping_jet()
        else:
            h = random_jet(n, 3, rng3)
        f = starlike_from_generator(h)
        if (detect_onedim(h) is None) != (detect_onedim(f) is None):
            mismatches += 1
    return [
        _report("duality/psi-pairing", 1e-11, seed, _run(pairing, trials, seed, 10, dims)),
        _report(
            "duality/generator-scalar-bound",
            1e-9,
            seed,
            _run(generator_bound, trials, seed, 11, dims),
        ),
        Report("duality/onedim-equivalence", trials, seed, 0.0, float(mismatches)),
    ]


def suite_bounds(trials: int, seed: int, dims=(2, 3)) -> list[Report]:
    def bounded(rng, n):
        od = random_onedim_jet(n, 3, rng, scale=0.3 / n)
        lam = sample_params(rng, 1)[0]
        report = check_bounded_onedim_bound(
            od, od.s_eval, lam, seed=int(rng.integers(0, 2**31))
        )
        yield -report.margin

    def starlike(rng, n):
        base = random_onedim_jet(n, 3, rng, scale=0.3).to_mapping_jet()
        f = starlike_from_generator(generator_shrink(base, rng))
        e, lam, mu = _draw_point(rng, n)
        val = float(np.linalg.norm(fs_mapping(f, e, lam, mu)))
        yield val - max(1.0, abs(4.0 * lam - 3.0))

    return [
        _report("bounds/bounded-onedim", 1e-6, seed, _run(bounded, trials, seed, 13, dims)),
        _report("bounds/starlike-onedim", 1e-9, seed, _run(starlike, trials, seed, 14, dims)),
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
    ``SuiteArgumentError``, a ``ValueError``, before any suite runs."""
    for d in dims or ():
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
