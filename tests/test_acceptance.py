"""End-to-end acceptance checks.

Every identity and inequality the library claims is exercised here at full
trial counts, one check per test, each printing a single pass/fail line.
Run with ``pytest -rP`` (the default addopts) to see the lines for passing
tests as well.
"""

import math

import numpy as np

from fsjet.estimates import SupNormConfig, sup_norm_fs
from fsjet.fekete import fs_mapping
from fsjet.gallery import example_gallery
from fsjet.jets import MappingJet, random_jet
from fsjet.semigroup import is_generator, semigroup_jet, semigroup_ode
from fsjet.tensors import HomPoly
from fsjet.verify import run_suite

from sphere_grid import grid_sup_dim2

SEED = 20240824


def _report(name: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def _suite_line(reports):
    return "; ".join(
        f"{r.suite} max_residual={r.max_residual:.3e} tol={r.tolerance:g}"
        for r in reports
    )


def test_01_composition_identity():
    reports = run_suite("compose", trials=100, seed=SEED)
    _report(
        "composition identity, 100 jet pairs in C^2/C^3",
        all(r.passed for r in reports),
        _suite_line(reports),
    )


def test_02_inverse_duality():
    reports = run_suite("inverse", trials=100, seed=SEED)
    _report(
        "inverse duality and inverse degree-3 part, 100 trials",
        all(r.passed for r in reports),
        _suite_line(reports),
    )


def test_03_iterates():
    reports = run_suite("iterate", trials=50, seed=SEED)
    _report(
        "iterate scaling law for m in -3..3 (m != 0)",
        all(r.passed for r in reports),
        _suite_line(reports),
    )


def test_04_root_transform():
    reports = run_suite("root", trials=50, seed=SEED)
    _report(
        "root transform jet relations (n = 2, 3) and Koebe golden series",
        all(r.passed for r in reports),
        _suite_line(reports),
    )


def test_05_unitary_transform():
    reports = run_suite("unitary", trials=100, seed=SEED)
    _report(
        "unitary conjugation identity, 100 random 2x2/3x3 unitaries",
        all(r.passed for r in reports),
        _suite_line(reports),
    )


def test_06_error_term_bound():
    reports = run_suite("error-bound", trials=200, seed=SEED)
    _report(
        "composition error bound (200 pairs) and its one-dim equality case",
        all(r.passed for r in reports),
        _suite_line(reports),
    )


def test_07_semigroup_closed_form():
    reports = run_suite("semigroup", trials=20, seed=SEED)
    # the time-dependent coefficient factors must come out bit-exact on
    # unit tensors
    factors_ok = True
    one = np.array([1.0 + 0j])
    H2 = HomPoly.from_monomials(2, 1, 1, {(2,): [1.0]})
    H3 = HomPoly.from_monomials(3, 1, 1, {(3,): [1.0]})
    for t in (0.1, 0.7, 2.0):
        et = math.exp(-t)
        flow2 = semigroup_jet(MappingJet(1, 3, {2: H2}), t)
        flow3 = semigroup_jet(MappingJet(1, 3, {3: H3}), t)
        factors_ok &= complex(flow2.poly(2).eval(one)[0]) == et * (et - 1.0)
        factors_ok &= complex(flow3.poly(3).eval(one)[0]) == et * (
            0.5 * (et * et - 1.0)
        )
    _report(
        "semigroup flow jet vs ODE oracle (20 generators, t in {0.1,0.7,2.0}) "
        "and exact coefficient factors",
        all(r.passed for r in reports) and factors_ok,
        _suite_line(reports) + f"; factors exact={factors_ok}",
    )


def test_08_generator_starlike_duality():
    reports = run_suite("duality", trials=100, seed=SEED)
    _report(
        "generator/starlike pairing duality (100 pairs) and generator "
        "scalar bound",
        all(r.passed for r in reports),
        _suite_line(reports),
    )


def test_09_worked_examples():
    e = np.array([1.0, 0.0], dtype=complex)
    grid = np.linspace(-1.0, 1.0, 5)
    worst = 0.0
    f56 = example_gallery("example_5_6").jet
    f57 = example_gallery("example_5_7")
    for lam in grid:
        for mu in grid:
            got = fs_mapping(f56, e, lam, mu)
            expect = (1.0 - lam) / 4.0 * np.array([1.0, 1.0])
            worst = max(worst, float(np.linalg.norm(got - expect)))
            got = fs_mapping(f57.jet, e, lam, mu)
            expect = np.array([0.0, (1.0 - mu) / 2.0])
            worst = max(worst, float(np.linalg.norm(got - expect)))
            # the asserted norm is the computed |1 - mu| / 2
            worst = max(
                worst, abs(np.linalg.norm(got) - abs(1.0 - mu) / 2.0)
            )
    gen_report = is_generator(
        example_gallery("example_5_6_generator").jet, seed=SEED
    )
    flagged = f57.expected.get("printed_norm_discrepancy") is True
    ok = worst < 1e-12 and gen_report.passed and flagged
    _report(
        "worked examples on a 5x5 parameter grid, generator membership, "
        "and the flagged norm discrepancy",
        ok,
        f"max_residual={worst:.3e} tol=1e-12; "
        f"generator pass={gen_report.passed}; discrepancy flagged={flagged}",
    )


def test_10_bounded_onedim_estimate():
    reports = run_suite("bounds", trials=50, seed=SEED)
    _report(
        "bounded one-dimensional-type estimate, 50 sampled mappings",
        all(r.passed for r in reports),
        _suite_line(reports),
    )


def test_11a_hygiene_polarization():
    reports = run_suite("polarization", trials=100, seed=SEED)
    _report(
        "polarization identity residuals below 1e-12",
        all(r.passed for r in reports),
        _suite_line(reports),
    )


def test_11b_hygiene_sup_norm_vs_grid():
    rng = np.random.default_rng(SEED)
    f = random_jet(2, 3, rng)
    lam, mu = 0.6 - 0.3j, 1.2
    # dense-grid oracle over the sphere of C^2 modulo the global phase,
    # refined around the coarse argmax
    grid_sup = grid_sup_dim2(lambda es: np.linalg.norm(fs_mapping(f, es, lam, mu), axis=1))
    opt_sup, _ = sup_norm_fs(f, lam, mu, SupNormConfig(starts=12, steps=150))
    gap = abs(opt_sup - grid_sup)
    _report(
        "sphere supremum of the mapping norm vs dense-grid oracle (C^2)",
        gap < 1e-4,
        f"optimizer={opt_sup:.8f} grid={grid_sup:.8f} gap={gap:.2e} tol=1e-4",
    )


def test_11c_hygiene_rk4_order():
    h = example_gallery("example_5_6_generator").jet
    x0 = np.array([0.3, 0.2 + 0.1j])
    t = 1.0
    u1 = semigroup_ode(h, t, x0, step=0.1)
    u2 = semigroup_ode(h, t, x0, step=0.05)
    u3 = semigroup_ode(h, t, x0, step=0.025)
    ratio = float(np.linalg.norm(u1 - u2) / np.linalg.norm(u2 - u3))
    _report(
        "ODE integrator shows 4th-order convergence under step halving",
        13.0 <= ratio <= 19.0,
        f"error ratio={ratio:.2f}, expected 16 +/- 3",
    )
