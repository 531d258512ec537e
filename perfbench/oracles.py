"""Output checks for the benchmark workloads.

Every check here shares no code path with the call it checks: tensors are
read from their raw coefficient dicts and evaluated by the loops below,
jet coefficients are extracted from pointwise ``MappingJet.eval`` by
roots of unity, and the Fekete-Szego mapping is rebuilt from dense
tensors assembled here.  A check returns a list of ``(name, ok, detail)``.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np

# Largest relative error a correct output may show.  The coefficient
# oracle agrees with the library to about 3e-15 relative at the workload
# sizes; a coefficient changed by 1e-6 moves the compared values by more
# than 1e-8 relative.
JET_RTOL = 1e-10
REPLAY_RTOL = 1e-9
# A sampled point may exceed a sphere supremum estimate by this much.
SAMPLE_RTOL = 1e-6
SPHERE_SAMPLES = 4096
# Radius of the circle for coefficient extraction: small enough that the
# high-degree tail of a composite stays below the wanted coefficients
# (0.5 loses four digits on iterate at (4,5)), large enough that dividing
# by radius**K costs no accuracy.
TAYLOR_RADIUS = 0.3


def _multinomial(idx) -> int:
    out = math.factorial(len(idx))
    for _, group in itertools.groupby(sorted(idx)):
        out //= math.factorial(len(list(group)))
    return out


def tensor_at(P, x: np.ndarray) -> np.ndarray:
    """P(x) for a symmetric tensor, read from its coefficient dict."""
    out = np.zeros(P.codomain_dim, dtype=complex)
    for idx, vec in P.coeffs.items():
        term = complex(_multinomial(idx))
        for i in idx:
            term *= x[i - 1]
        out += term * np.asarray(vec)
    return out


def tensor_dense(P, dim: int, degree: int) -> np.ndarray:
    """Full symmetric tensor (n,)*k + (m,); zeros for a missing part."""
    out = np.zeros((dim,) * degree + (dim,), dtype=complex)
    if P is None:
        return out
    for idx, vec in P.coeffs.items():
        for perm in set(itertools.permutations(idx)):
            out[tuple(i - 1 for i in perm)] = vec
    return out


def jet_part_at(jet, k: int, x: np.ndarray) -> np.ndarray:
    P = jet.polys.get(k)
    return np.zeros(jet.dim, dtype=complex) if P is None else tensor_at(P, x)


def taylor_along(fn, e: np.ndarray, degree_bound: int, order: int) -> np.ndarray:
    """Taylor coefficients c_0..c_order of z -> fn(z e), via the FFT.

    fn must be a polynomial map of degree <= degree_bound in z; more
    nodes than that degree means no coefficient aliases.
    """
    nodes = 1 << max(3, degree_bound.bit_length())
    zs = TAYLOR_RADIUS * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # points may leave the unit ball
        vals = np.array([fn(z * e) for z in zs])
    coeffs = np.fft.fft(vals, axis=0)[: order + 1] / nodes
    return coeffs / TAYLOR_RADIUS ** np.arange(order + 1)[:, None]


def _compare_parts(name, got_jet, want, order, extra_scale=0.0):
    """Compare degrees 2..order of got_jet at e with want[k]."""
    worst, scale = 0.0, 1.0 + extra_scale
    for e, coeffs in want:
        for k in range(2, order + 1):
            scale = max(scale, float(np.linalg.norm(coeffs[k])))
    for e, coeffs in want:
        for k in range(2, order + 1):
            got = np.zeros(len(e)) if got_jet is None else jet_part_at(got_jet, k, e)
            worst = max(worst, float(np.linalg.norm(got - coeffs[k])))
    rel = worst / scale
    return (name, rel <= JET_RTOL, f"rel_err={rel:.3e} tol={JET_RTOL:.0e}")


def _shape_ok(name, out, dim, order):
    ok = out.dim == dim and out.order == order
    return (f"{name}/shape", ok, f"dim={out.dim} order={out.order}")


def check_compose(out, f, g, es):
    K = min(f.order, g.order)
    want = [(e, taylor_along(lambda x: f.eval(g.eval(x)), e, K * K, K)) for e in es]
    return [_shape_ok("compose", out, f.dim, K), _compare_parts("compose/taylor", out, want, K)]


def check_invert(out, f, es):
    K = f.order
    want = [(e, taylor_along(lambda x: f.eval(out.eval(x)), e, K * K, K)) for e in es]
    # f(out(z e)) must be z e up to degree K: compare with the zero jet
    scale = max(
        float(np.linalg.norm(jet_part_at(j, k, e)))
        for j in (f, out) for e in es for k in range(2, K + 1)
    )
    zero = [(e, {k: c[k] for k in range(2, K + 1)}) for e, c in want]
    return [
        _shape_ok("invert", out, f.dim, K),
        _compare_parts("invert/taylor", None, zero, K, extra_scale=scale),
    ]


def check_iterate(out, f, m, es):
    K = f.order

    def fm(x):
        for _ in range(m):
            x = f.eval(x)
        return x

    want = [(e, taylor_along(fm, e, K**m, K)) for e in es]
    return [_shape_ok("iterate", out, f.dim, K), _compare_parts("iterate/taylor", out, want, K)]


def check_unitary_conjugate(out, f, U, es):
    K = f.order
    Uh = U.conj().T
    want = [(e, taylor_along(lambda x: Uh @ f.eval(U @ x), e, K, K)) for e in es]
    return [
        _shape_ok("unitary_conjugate", out, f.dim, K),
        _compare_parts("unitary_conjugate/pointwise", out, want, K),
    ]


# -- sphere estimates ---------------------------------------------------------


def psi_many(f, es: np.ndarray, lam: complex, mu: complex) -> np.ndarray:
    """Psi_e(f, lam, mu) for rows of es, from dense tensors built here."""
    n = f.dim
    B = tensor_dense(f.polys.get(2), n, 2)
    T = tensor_dense(f.polys.get(3), n, 3)
    P2 = np.einsum("abm,ia,ib->im", B, es, es)
    P3 = np.einsum("abcm,ia,ib,ic->im", T, es, es, es)
    BeP2 = np.einsum("abm,ia,ib->im", B, es, P2)
    proj = np.einsum("im,im->i", P2, es.conj())
    return P3 - mu * BeP2 - (lam - mu) * proj[:, None] * P2


def sphere_points(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _replay(name, replayed, value, unit_err):
    err = abs(replayed - value) / max(1.0, abs(value))
    ok = bool(err <= REPLAY_RTOL and unit_err <= REPLAY_RTOL)
    return (name, ok, f"rel_err={err:.3e} unit_err={unit_err:.3e}")


def _no_sample_exceeds(name, sampled_max, value):
    excess = (sampled_max - value) / max(1.0, abs(value))
    return (name, excess <= SAMPLE_RTOL, f"sampled_max={sampled_max:.12g} estimate={value:.12g}")


def check_sup_norm(out, f, lam, mu, rng):
    value, witness = out
    w = np.asarray(witness, dtype=complex)
    replayed = float(np.linalg.norm(psi_many(f, w[None, :], lam, mu)[0]))
    sampled = np.linalg.norm(psi_many(f, sphere_points(rng, SPHERE_SAMPLES, f.dim), lam, mu), axis=1)
    return [
        _replay("sup_norm_fs/witness", replayed, value, abs(np.linalg.norm(w) - 1.0)),
        _no_sample_exceeds("sup_norm_fs/sampled", float(sampled.max()), value),
    ]


def check_operator_norm(out, B, rng):
    n = B.domain_dim
    T = tensor_dense(B, n, 2)
    u, v = np.asarray(out.u, dtype=complex), np.asarray(out.v, dtype=complex)
    replayed = float(np.linalg.norm(np.einsum("abm,a,b->m", T, u, v)))
    unit_err = max(abs(np.linalg.norm(u) - 1.0), abs(np.linalg.norm(v) - 1.0))
    us = sphere_points(rng, SPHERE_SAMPLES, n)
    vs = sphere_points(rng, SPHERE_SAMPLES, n)
    sampled = np.linalg.norm(np.einsum("abm,ia,ib->im", T, us, vs), axis=1)
    return [
        _replay("operator_norm_bilinear/witness", replayed, out.value, unit_err),
        _no_sample_exceeds("operator_norm_bilinear/sampled", float(sampled.max()), out.value),
    ]


def onedim_bound(M: float, lam: complex) -> float:
    return (M * M - 1.0) / M * max(1.0, abs(((M * M - 1.0) * lam + 1.0) / M))


def check_bounded_onedim(report, od, lam):
    w = np.asarray(report.witness, dtype=complex)
    p1 = complex(tensor_at(od.scalar_polys[1], w)[0]) if 1 in od.scalar_polys else 0j
    p2 = complex(tensor_at(od.scalar_polys[2], w)[0]) if 2 in od.scalar_polys else 0j
    replayed = abs(p2 - lam * p1 * p1)
    M = float(report.params["M"])
    bound = onedim_bound(M, lam)
    bound_err = abs(bound - report.bound) / max(1.0, abs(bound))
    holds = report.estimate <= bound + report.tol
    return [
        _replay("bounded_onedim/witness", replayed, report.estimate, abs(np.linalg.norm(w) - 1.0)),
        (
            "bounded_onedim/bound",
            M > 1.0 and bound_err <= REPLAY_RTOL and holds and report.passed is True,
            f"M={M:.12g} bound_err={bound_err:.3e} margin={bound - report.estimate:.3e}",
        ),
    ]


# -- verification suites -----------------------------------------------------


def check_reports(reports):
    out = []
    for r in reports:
        consistent = (r.max_residual <= r.tolerance) == bool(r.passed)
        out.append((
            f"report/{r.suite}",
            bool(r.passed) and consistent,
            f"max_residual={r.max_residual:.3e} tol={r.tolerance:.0e}",
        ))
    if not out:
        out.append(("report/none", False, "suite returned no reports"))
    return out
