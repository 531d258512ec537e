"""Sphere-supremum estimation for the Fekete-Szego mapping and the
inequality checkers for bounded one-dimensional-type mappings."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fekete import _psi_rows, finite_params
from .jets import MappingJet, _count
from .sampling import sample_sphere
from .transforms import OneDimJet


# the central-difference step of the gradient and the first ascent rate
FD_STEP = 1e-6
INIT_RATE = 0.1
# the radius of the sphere on which estimate_sup_modulus samples s
SUP_SAMPLE_RADIUS = 0.999


@dataclass
class SupNormConfig:
    """The ascent of ``sup_norm_fs``: ``starts`` at least 1, ``steps`` at
    least 0, else TypeError (not an integer) or ValueError."""

    starts: int = 32
    steps: int = 200

    def __post_init__(self):
        self.starts = _count("starts", self.starts)
        self.steps = _count("steps", self.steps, least=0)


@dataclass
class BoundReport:
    """Comparison of an estimated quantity against a theoretical bound."""

    bound_name: str
    params: dict
    estimate: float
    bound: float
    witness: list
    trials: int
    seed: int
    tol: float = 1e-9
    margin: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.margin = self.bound - self.estimate
        self.passed = self.margin >= -self.tol

    def to_dict(self) -> dict:
        return {
            "bound_name": self.bound_name,
            "params": self.params,
            "estimate": self.estimate,
            "bound": self.bound,
            "margin": self.margin,
            "witness": self.witness,
            "trials": self.trials,
            "seed": self.seed,
            "pass": self.passed,
        }


def _realify(e: np.ndarray) -> np.ndarray:
    return np.concatenate([e.real, e.imag])


def _complexify(v: np.ndarray) -> np.ndarray:
    n = v.size // 2
    return v[:n] + 1j * v[n:]


def sup_norm_fs(
    f: MappingJet,
    lam: complex,
    mu: complex,
    config: SupNormConfig | None = None,
) -> tuple[float, np.ndarray]:
    """sup over the unit sphere of ||Psi_e(f, lam, mu)||, with a witness.

    Multistart projected gradient ascent on the realified sphere; the
    ascent direction is the central finite-difference gradient of
    ||Psi_e||^2 projected to the tangent space.  The random starts are
    drawn from seed 0, so the result is deterministic.  A NaN or infinite
    lam or mu, or a jet with a NaN or infinite coefficient, raises
    ``ValueError``: every comparison of the ascent with a NaN is false.
    """
    finite_params(lam, mu)
    if not np.isfinite(f.max_coeff()):
        raise ValueError("the jet has a non-finite coefficient")
    if config is None:
        config = SupNormConfig()
    n = f.dim
    rng = np.random.default_rng(0)

    def value(v: np.ndarray) -> float:
        # v may lie up to FD_STEP off the sphere: Psi is evaluated there as
        # it is, without the check and normalization of fs_mapping
        e = _complexify(v)
        return float(np.linalg.norm(_psi_rows(f, e[None, None], lam, mu), axis=-1)[0, 0]) ** 2

    def gradient(v: np.ndarray) -> np.ndarray:
        h = FD_STEP
        g = np.zeros_like(v)
        for i in range(v.size):
            dv = np.zeros_like(v)
            dv[i] = h
            g[i] = (value(v + dv) - value(v - dv)) / (2 * h)
        return g

    starts = [np.eye(n, dtype=complex)[i] for i in range(n)]
    starts += list(sample_sphere(rng, max(0, config.starts - n), n))
    best_val, best_e = -1.0, starts[0]
    for e0 in starts[: config.starts]:
        v = _realify(np.asarray(e0, dtype=complex))
        v /= np.linalg.norm(v)
        rate = INIT_RATE
        fv = value(v)
        for _ in range(config.steps):
            g = gradient(v)
            g_tan = g - np.dot(g, v) * v
            if np.linalg.norm(g_tan) < 1e-14:
                break
            cand = v + rate * g_tan
            cand /= np.linalg.norm(cand)
            fc = value(cand)
            if fc > fv:
                v, fv = cand, fc
                rate = min(rate * 1.5, 1.0)
            else:
                rate *= 0.5
                if rate < 1e-12:
                    break
        if fv > best_val:
            best_val, best_e = fv, _complexify(v)
    return float(np.sqrt(max(best_val, 0.0))), best_e


def bounded_onedim_bound(M: float, lam: complex) -> float:
    """The right-hand side of the bounded one-dimensional-type estimate."""
    return (M * M - 1.0) / M * max(1.0, abs(((M * M - 1.0) * lam + 1.0) / M))


def estimate_sup_modulus(
    s: Callable[[np.ndarray], np.ndarray],
    dim: int,
    samples: int = 10_000,
    seed: int = 0,
) -> float:
    """max |s(x)| over samples on the sphere of radius ``SUP_SAMPLE_RADIUS``,
    next to the boundary; a falsifiable estimate.

    ``s`` is batched: it is called once on the (samples, dim) array of
    sample points and must return their (samples,) values.  A ``samples``
    that is not an integer of at least 1, or a ``seed`` that is not one of
    at least 0, raises TypeError or ValueError.
    """
    samples = _count("samples", samples)
    seed = _count("seed", seed, least=0)
    rng = np.random.default_rng(seed)
    xs = sample_sphere(rng, samples, dim)
    xs *= SUP_SAMPLE_RADIUS
    vals = np.asarray(s(xs))
    if vals.shape != (samples,):
        raise ValueError(
            f"s must map a ({samples}, {dim}) array of points to shape "
            f"({samples},), got shape {vals.shape}"
        )
    return float(np.max(np.abs(vals)))


def check_bounded_onedim_bound(
    f: OneDimJet,
    s: Callable[[np.ndarray], np.ndarray],
    lam: complex,
    directions: int = 64,
    samples: int = 10_000,
    seed: int = 0,
) -> BoundReport:
    """Check ||Psi_e(f)|| <= (M^2-1)/M max{1, |((M^2-1) lam + 1)/M|}.

    The bound uses the sampled M, ``params["M"]``: the largest |s(x)| on
    ``samples`` seeded points near the boundary (``estimate_sup_modulus``),
    a lower estimate of sup ||f(x)|| = sup |s(x)| ||x||.  Beside it,
    ``params["M_upper"]`` = 1 + sum_k ||p_k||_F, over the Frobenius norms of
    the ``dense()`` tensors of f's scalar parts p_k, is a certified upper
    bound: |p_k(x)| <= ||p_k||_F ||x||^k by Cauchy-Schwarz, so
    |f.s_eval| <= M_upper on the closed ball.  ``s`` is batched, as in
    ``estimate_sup_modulus``; ``f.s_eval`` is one.  The mapping must
    genuinely be bounded with M > 1 for the hypothesis to apply; M <= 1 is
    rejected.  A ``directions`` or ``samples`` that is not an integer of
    at least 1, or a ``seed`` that is not one of at least 0, raises
    TypeError or ValueError before any sampling.
    """
    directions = _count("directions", directions)
    seed = _count("seed", seed, least=0)
    M = estimate_sup_modulus(s, f.dim, samples=samples, seed=seed)
    if M <= 1.0:
        raise ValueError(f"sampled bound M={M:.6g} <= 1; the estimate needs M > 1")
    rng = np.random.default_rng(seed + 1)
    es = sample_sphere(rng, directions, f.dim)
    # one-dimensional type: ||Psi_e|| = |p_2(e) - lam p_1(e)^2|
    p1 = f.scalar_part(1).eval_scalar(es)
    p2 = f.scalar_part(2).eval_scalar(es)
    vals = np.abs(p2 - lam * p1**2)
    i = int(np.argmax(vals))
    bound = bounded_onedim_bound(M, lam)
    M_upper = 1.0 + sum(float(np.linalg.norm(p.dense())) for p in f.scalar_polys.values())
    return BoundReport(
        bound_name="bounded-onedim",
        params={"lambda": complex(lam), "M": M, "M_upper": M_upper},
        estimate=float(vals[i]),
        bound=bound,
        witness=es[i].tolist(),
        trials=directions,
        seed=seed,
        tol=1e-6,
    )
