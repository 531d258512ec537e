"""Semigroup generators, flow jets, and the generator/starlike link.

A generator candidate is a normalized jet h(x) = x + sum H_k(x).  The
associated flow u_t solves du/dt = -h(u), u_0 = id, and its low-degree
Taylor parts have closed forms in terms of the H_k.  The starlike map f
paired with h satisfies Df(x)[h(x)] = f(x); at jet level the pairing is
P_2 = -H_2 and P_3(x) = -H_3(x)/2 + TH2[x, H_2(x)], with TH2 the
degree-2 tensor of h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import MappingJet, compose
from .reporting import Report
from .sampling import sample_ball
from .tensors import HomPoly, _check_vector, slot_product


@dataclass(frozen=True)
class GeneratorJet:
    """A jet regarded as a candidate semigroup generator."""

    jet: MappingJet

    @property
    def dim(self) -> int:
        return self.jet.dim

    @property
    def order(self) -> int:
        return self.jet.order

    def eval(self, x) -> np.ndarray:
        return self.jet.eval(x)

    def eval_many(self, xs) -> np.ndarray:
        return self.jet.eval_many(xs)


@dataclass(frozen=True)
class FlowJet:
    """Jet of a semigroup element u_t(x) = exp(-t) * bracket(x).

    ``bracket`` is the normalized jet x + sum S_k(t, x); the linear part
    of u_t itself is exp(-t) Id.
    """

    t: float
    bracket: MappingJet

    @property
    def dim(self) -> int:
        return self.bracket.dim

    def scale(self) -> float:
        return math.exp(-self.t)

    def eval(self, x) -> np.ndarray:
        return self.scale() * self.bracket.eval(x)

    def poly(self, k: int) -> HomPoly:
        """Degree-k homogeneous part of u_t (scale included)."""
        return self.bracket.poly(k).scale(self.scale())

    def compose(self, other: "FlowJet") -> "FlowJet":
        """Jet of self o other (flow at time self.t applied after other).

        With u_s = e^{-s} b_s and u_t = e^{-t} b_t, u_s o u_t equals
        e^{-(s+t)} (b^_s o b_t), where b^_s is b_s with its degree-k part
        scaled by e^{-t(k-1)}.
        """
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        shrink = math.exp(-other.t)
        outer = MappingJet(
            self.dim,
            self.bracket.order,
            {k: P.scale(shrink ** (k - 1)) for k, P in self.bracket.polys.items()},
        )
        return FlowJet(self.t + other.t, compose(outer, other.bracket))


def is_generator(
    h: GeneratorJet, samples: int = 4096, seed: int = 0
) -> Report:
    """Sampled test of Re <h(x), x> >= 0 on the ball (falsification only)."""
    rng = np.random.default_rng(seed)
    xs = sample_ball(rng, samples, h.dim, radius=1.0 - 1e-3)
    vals = np.real(np.einsum("ij,ij->i", h.eval_many(xs), xs.conj()))
    worst = float(vals.min(initial=np.inf))
    tolerance = 1e-10
    residual = max(0.0, -worst)
    witnesses = []
    if residual > tolerance:
        i = int(np.argmin(vals))
        witnesses.append({"x": xs[i].tolist(), "re_inner": float(vals[i])})
    return Report(
        suite="is-generator",
        trials=samples,
        seed=seed,
        tolerance=tolerance,
        max_residual=residual,
        passed=residual <= tolerance,
        witnesses=witnesses,
    )


def semigroup_jet(h: GeneratorJet, t: float) -> FlowJet:
    """Closed-form order-3 jet of the semigroup element u_t.

    S_2(t, x) = (exp(-t) - 1) H_2(x) and
    S_3(t, x) = (exp(-2t) - 1)/2 * [H_3(x) - q(t) D^2 h(0)[x, H_2(x)]]
    with q(t) = (1 - exp(-t)) / (1 + exp(-t)).
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    et = math.exp(-t)
    H2 = h.jet.poly(2)
    H3 = h.jet.poly(3)
    S2 = H2.scale(et - 1.0)
    q = (1.0 - et) / (1.0 + et)
    d2h_x_H2x = slot_product(H2.dense(), H2).scale(2.0)
    S3 = (H3 + d2h_x_H2x.scale(-q)).scale(0.5 * (et * et - 1.0))
    bracket = MappingJet(h.dim, 3, {k: P for k, P in ((2, S2), (3, S3)) if P.coeffs})
    return FlowJet(t, bracket)


def semigroup_ode(
    h: GeneratorJet, t: float, x0, step: float = 1e-3
) -> np.ndarray:
    """Flow point u_t(x0) by classical fixed-step RK4 on du/dt = -h(u)."""
    x0 = _check_vector(x0, h.dim)
    if np.linalg.norm(x0) >= 1:
        raise ValueError("initial point must lie in the open unit ball")
    return _rk4(h, (t,), x0[None, :], step)[0, 0]


def _rk4(h: GeneratorJet, ts, xs: np.ndarray, step: float) -> np.ndarray:
    """Flow of every row of ``xs`` at each of the increasing times ``ts``.

    One trajectory is integrated piecewise through the times; each gap
    takes ceil(gap/step) equal steps, so a single time t gets exactly the
    steps of a direct integration to t.  Returns shape (len(ts),) + xs.shape.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or not np.all(np.isfinite(ts)):
        raise ValueError(f"times must be a sequence of finite numbers, got {ts}")
    if ts.size and ts[0] < 0:
        raise ValueError(f"times must be nonnegative, got {ts}")
    if np.any(np.diff(ts) <= 0):
        raise ValueError(f"times must be increasing, got {ts}")
    u = np.array(xs, dtype=complex)
    snapshots = []
    prev = 0.0
    for t in ts:
        gap = float(t) - prev
        nsteps = max(1, math.ceil(gap / step))
        dt = gap / nsteps
        for _ in range(nsteps):
            k1 = -h.eval_many(u)
            k2 = -h.eval_many(u + 0.5 * dt * k1)
            k3 = -h.eval_many(u + 0.5 * dt * k2)
            k4 = -h.eval_many(u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        snapshots.append(u)
        prev = float(t)
    out = np.array(snapshots).reshape(ts.shape + u.shape)
    if np.any(np.linalg.norm(out, axis=-1) >= 1.0):
        raise RuntimeError(
            "trajectory left the unit ball; the field is likely not a generator"
        )
    return out


def flow_taylor_via_ode(
    h: GeneratorJet,
    t,
    direction,
    degree,
    radius: float = 0.2,
    nodes: int = 16,
    step: float = 2e-3,
) -> np.ndarray:
    """Degree-k Taylor coefficient of z -> u_t(z e) extracted from the ODE.

    Since the flow is holomorphic in the initial point, the coefficient is
    a Cauchy integral, evaluated by sampling on a circle of complex radii
    (roots of unity) and averaging.  Independent oracle for semigroup_jet.

    ``t`` may be an increasing sequence of times and ``degree`` a sequence
    of degrees: one integration then serves every pair, and the result
    has shape (len(t), len(degree), n).  A scalar drops its axis, so
    scalar ``t`` and ``degree`` give the (n,) coefficient.
    """
    e = _check_vector(direction, h.dim)
    zs = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    pts = zs[:, None] * e[None, :]
    ut = _rk4(h, np.ravel(t), pts, step)  # (times, nodes, n)
    ks = [int(k) for k in np.ravel(degree)]
    weights = np.array([np.exp(-2j * np.pi * k * np.arange(nodes) / nodes) for k in ks])
    norms = np.array([nodes * radius**k for k in ks])
    coef = (weights[None, :, :, None] * ut[:, None]).sum(axis=2) / norms[:, None]
    return coef.reshape(np.shape(t) + np.shape(degree) + (h.dim,))


def starlike_from_generator(h: GeneratorJet) -> MappingJet:
    """The starlike jet paired with h by Df(x)[h(x)] = f(x), as an order-3
    jet: only degrees 2 and 3 are solved, so higher parts of h are ignored."""
    H2 = h.jet.poly(2)
    H3 = h.jet.poly(3)
    P2 = H2.scale(-1.0)
    P3 = H3.scale(-0.5) + slot_product(H2.dense(), H2)
    polys = {k: P for k, P in ((2, P2), (3, P3)) if P.coeffs}
    return MappingJet(h.dim, 3, polys)


def generator_from_starlike(f: MappingJet) -> GeneratorJet:
    """Inverse of starlike_from_generator at jet level, as an order-3 jet
    (degrees 2 and 3; higher parts of f are ignored)."""
    P2 = f.poly(2)
    P3 = f.poly(3)
    H2 = P2.scale(-1.0)
    # P3 = -H3/2 + TH2[x, H2(x)]  with  TH2 = tensor of H2
    H3 = (slot_product(H2.dense(), H2) + P3.scale(-1.0)).scale(2.0)
    polys = {k: P for k, P in ((2, H2), (3, H3)) if P.coeffs}
    return GeneratorJet(MappingJet(f.dim, 3, polys))


def starlike_residual(f: MappingJet, h: GeneratorJet, x) -> float:
    """|| Df(x)[h(x)] - f(x) ||, evaluated directly; O(||x||^4) for pairs."""
    x = _check_vector(x, f.dim)
    hx = h.eval(x)
    # Df(x)[v] = v + 2 B[x, v] + 3 T3[x, x, v] for an order-3 jet
    v = hx.copy()
    v += 2.0 * f.poly(2).multilinear_eval([x, hx])
    if f.order >= 3:
        v += 3.0 * f.poly(3).multilinear_eval([x, x, hx])
    return float(np.linalg.norm(v - f.eval(x)))


def sample_generator(
    dim: int,
    rng: np.random.Generator,
    order: int = 3,
    scale: float = 0.25,
    probe: int = 2048,
) -> GeneratorJet:
    """Random jet rescaled until the sampled generator inequality holds.

    Draws small H_2, H_3 tensors and shrinks them by ``generator_shrink``.
    """
    from .jets import random_jet

    base = random_jet(dim, order, rng, scale=scale)
    c = generator_shrink(base, rng, probe)
    polys = {k: P.scale(c) for k, P in base.polys.items()}
    return GeneratorJet(MappingJet(dim, order, polys))


def generator_shrink(
    jet: MappingJet, rng: np.random.Generator, probe: int = 2048
) -> float:
    """Factor c <= 1 for which x + c (jet(x) - x) is a sampled generator.

    c is 0.9 times the largest factor keeping min Re <h(x), x> nonnegative
    on ``probe`` seeded points of the ball (1 if the jet already passes).
    """
    xs = sample_ball(rng, probe, jet.dim, radius=1.0 - 1e-3)
    pert = jet.eval_many(xs) - xs
    w = np.real(np.einsum("ij,ij->i", pert, xs.conj()))
    nrm2 = np.linalg.norm(xs, axis=1) ** 2
    neg = w < 0
    if not np.any(neg):
        return 1.0
    return min(1.0, 0.9 * float(np.min(nrm2[neg] / (-w[neg]))))
