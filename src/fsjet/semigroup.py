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
from typing import Sequence

import numpy as np

from .jets import MappingJet, compose, random_jet
from .reporting import Report
from .sampling import sample_ball
from .tensors import (
    HomPoly,
    _check_vector,
    basis_coefficients,
    monomials,
    slot_product,
)

# the size of sample_generator's random parts, and the number of seeded
# points on which generator_shrink tests the generator inequality
SAMPLE_SCALE = 0.25
SHRINK_PROBE = 2048
# flow_taylor_via_ode's circle of initial points z e: its radius, and its
# number of nodes, which bounds the degrees it can extract
FLOW_TAYLOR_RADIUS = 0.2
FLOW_TAYLOR_NODES = 16


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
    h: MappingJet, samples: int = 4096, seed: int = 0
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
        witnesses=witnesses,
    )


def semigroup_jet(h: MappingJet, t: float) -> FlowJet:
    """Closed-form order-3 jet of the semigroup element u_t.

    S_2(t, x) = (exp(-t) - 1) H_2(x) and
    S_3(t, x) = (exp(-2t) - 1)/2 * [H_3(x) - q(t) D^2 h(0)[x, H_2(x)]]
    with q(t) = (1 - exp(-t)) / (1 + exp(-t)).
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    et = math.exp(-t)
    H2 = h.poly(2)
    H3 = h.poly(3)
    S2 = H2.scale(et - 1.0)
    q = (1.0 - et) / (1.0 + et)
    d2h_x_H2x = slot_product(H2.dense(), H2).scale(2.0)
    S3 = (H3 + d2h_x_H2x.scale(-q)).scale(0.5 * (et * et - 1.0))
    bracket = MappingJet(h.dim, 3, {2: S2, 3: S3})
    return FlowJet(t, bracket)


def semigroup_ode(
    h: MappingJet, t: float, x0, step: float = 1e-3
) -> np.ndarray:
    """Flow point u_t(x0) by classical fixed-step RK4 on du/dt = -h(u)."""
    x0 = _check_vector(x0, h.dim)
    if np.linalg.norm(x0) >= 1:
        raise ValueError("initial point must lie in the open unit ball")
    return _rk4([h], (t,), x0[None, None, :], step)[0, 0, 0]


def _rk4(hs, ts, xs: np.ndarray, step: float) -> np.ndarray:
    """Flow of each generator hs[j] from every row of xs[j] at each of the
    increasing times ``ts``.

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
    field = _field(hs)
    u = np.array(xs, dtype=complex)
    snapshots = []
    prev = 0.0
    for t in ts:
        gap = float(t) - prev
        nsteps = max(1, math.ceil(gap / step))
        dt = gap / nsteps
        for _ in range(nsteps):
            k1 = -field(u)
            k2 = -field(u + 0.5 * dt * k1)
            k3 = -field(u + 0.5 * dt * k2)
            k4 = -field(u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        snapshots.append(u)
        prev = float(t)
    out = np.array(snapshots).reshape(ts.shape + u.shape)
    # "not < 1" also catches a trajectory that overflowed to inf or NaN
    inside = (np.linalg.norm(out, axis=-1) < 1.0).all(axis=(0, 2))
    if not inside.all():
        raise RuntimeError(
            f"the trajectory of generator {int(np.argmin(inside))} left the unit "
            "ball; the field is likely not a generator"
        )
    return out


def _field(hs):
    """The fields x -> h_j(x) of generators of one (dim, order), as one
    function of a (J, N, n) array whose slice j holds points for h_j.

    Each degree k has one coefficient array over the sorted multi-index
    basis (``tensors.basis_coefficients``), so a stage costs one gather of
    monomials and one batched product per degree, whatever J is."""
    degrees = []
    for k in range(2, hs[0].order + 1):
        cols, coef = basis_coefficients([h.poly(k) for h in hs])
        if coef.any():
            degrees.append((cols, coef))

    def field(x: np.ndarray) -> np.ndarray:
        out = x.copy()
        for cols, coef in degrees:
            out += np.matmul(monomials(x, cols), coef)
        return out

    return field


def flow_taylor_via_ode(
    h: MappingJet | Sequence[MappingJet],
    t,
    direction,
    degree,
    step: float = 2e-3,
) -> np.ndarray:
    """Degree-k Taylor coefficient of z -> u_t(z e) extracted from the ODE.

    Since the flow is holomorphic in the initial point, the coefficient is
    a Cauchy integral, evaluated by averaging over ``FLOW_TAYLOR_NODES``
    points of the circle of radius ``FLOW_TAYLOR_RADIUS``.  Independent
    oracle for semigroup_jet.

    ``t`` may be an increasing sequence of times and ``degree`` a sequence
    of degrees: one integration then serves every pair, and the result
    has shape (len(t), len(degree), n).  A scalar drops its axis, so
    scalar ``t`` and ``degree`` give the (n,) coefficient.  A degree must
    satisfy 0 <= k < ``FLOW_TAYLOR_NODES``; others would alias and raise
    ``ValueError``.

    ``h`` may also be a sequence of J generators of one dim and order,
    with ``direction`` a (J, n) array of one direction per generator.  One
    integration then carries all of them, and the result gains a leading
    axis of length J; each element equals the lone call on its generator
    and direction within rounding.
    """
    single = isinstance(h, MappingJet)
    hs = [h] if single else list(h)
    if not hs:
        raise ValueError("expected at least one generator")
    dim, order = hs[0].dim, hs[0].order
    for j, g in enumerate(hs):
        if (g.dim, g.order) != (dim, order):
            raise ValueError(
                f"generators of one dim and order expected: ({dim}, {order}) "
                f"at index 0, ({g.dim}, {g.order}) at index {j}"
            )
    es = np.asarray(direction, dtype=complex)
    expected = (dim,) if single else (len(hs), dim)
    if es.shape != expected:
        raise ValueError(f"expected directions of shape {expected}, got {es.shape}")
    ks = [int(k) for k in np.ravel(degree)]
    radius, nodes = FLOW_TAYLOR_RADIUS, FLOW_TAYLOR_NODES
    if any(not 0 <= k < nodes for k in ks):
        raise ValueError(f"degrees must lie in 0..{nodes - 1}, got {degree}")
    zs = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    pts = zs[:, None] * es[..., None, :]  # ([J,] nodes, n)
    ut = _rk4(hs, np.ravel(t), pts.reshape(len(hs), nodes, dim), step)
    weights = np.array([np.exp(-2j * np.pi * k * np.arange(nodes) / nodes) for k in ks])
    norms = np.array([nodes * radius**k for k in ks])
    # ut: (times, J, nodes, n) -> coef: (J, times, degrees, n)
    coef = (weights[:, :, None] * ut[:, :, None]).sum(axis=3) / norms[:, None]
    shape = np.shape(t) + np.shape(degree) + (dim,)
    coef = np.moveaxis(coef, 1, 0)
    return coef.reshape(shape) if single else coef.reshape((len(hs),) + shape)


def starlike_from_generator(h: MappingJet) -> MappingJet:
    """The starlike jet paired with h by Df(x)[h(x)] = f(x), as an order-3
    jet: only degrees 2 and 3 are solved, so higher parts of h are ignored."""
    H2 = h.poly(2)
    H3 = h.poly(3)
    P2 = H2.scale(-1.0)
    P3 = H3.scale(-0.5) + slot_product(H2.dense(), H2)
    return MappingJet(h.dim, 3, {2: P2, 3: P3})


def generator_from_starlike(f: MappingJet) -> MappingJet:
    """Inverse of starlike_from_generator at jet level, as an order-3 jet
    (degrees 2 and 3; higher parts of f are ignored)."""
    P2 = f.poly(2)
    P3 = f.poly(3)
    H2 = P2.scale(-1.0)
    # P3 = -H3/2 + TH2[x, H2(x)]  with  TH2 = tensor of H2
    H3 = (slot_product(H2.dense(), H2) + P3.scale(-1.0)).scale(2.0)
    return MappingJet(f.dim, 3, {2: H2, 3: H3})


def starlike_residual(f: MappingJet, h: MappingJet, x) -> float:
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
    dim: int, rng: np.random.Generator, order: int = 3
) -> MappingJet:
    """Random jet with parts of size ``SAMPLE_SCALE``, shrunk into the
    sampled generator class by ``generator_shrink``."""
    return generator_shrink(random_jet(dim, order, rng, scale=SAMPLE_SCALE), rng)


def generator_shrink(jet: MappingJet, rng: np.random.Generator) -> MappingJet:
    """The jet x + c (jet(x) - x) for a factor c <= 1 that makes it a
    sampled generator.

    c is 0.9 times the largest factor keeping min Re <h(x), x> nonnegative
    on ``SHRINK_PROBE`` seeded points of the ball (1 if the jet already
    passes).
    """
    xs = sample_ball(rng, SHRINK_PROBE, jet.dim, radius=1.0 - 1e-3)
    pert = jet.eval_many(xs) - xs
    w = np.real(np.einsum("ij,ij->i", pert, xs.conj()))
    nrm2 = np.linalg.norm(xs, axis=1) ** 2
    neg = w < 0
    c = min(1.0, 0.9 * float(np.min(nrm2[neg] / (-w[neg])))) if neg.any() else 1.0
    return MappingJet(jet.dim, jet.order, {k: P.scale(c) for k, P in jet.polys.items()})
