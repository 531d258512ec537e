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
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fekete import _count, _unit_rows
from .jets import MappingJet, _stack_of, compose, random_jet
from .reporting import Report
from .sampling import sample_ball
from .tensors import (
    HomPoly,
    _check_vector,
    basis_coefficients,
    monomials,
    slot_product,
)

# the size of sample_generator's random parts
SAMPLE_SCALE = 0.25
# flow_taylor_via_ode's circle of initial points z e: its radius, and its
# number of nodes, which bounds the degrees it can extract
FLOW_TAYLOR_RADIUS = 0.2
FLOW_TAYLOR_NODES = 16
# the most RK4 steps one integration may take, ceil(last time / step)
RK4_MAX_STEPS = 10**7


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
    """Sampled test of Re <h(x), x> >= 0 on the ball (falsification only).
    A NaN value, as a jet with a non-finite coefficient gives, makes the
    residual NaN, so the report fails.  A ``samples`` that is not an
    integer of at least 1 raises TypeError or ValueError."""
    samples = _count("samples", samples)
    rng = np.random.default_rng(seed)
    xs = sample_ball(rng, samples, h.dim, radius=1.0 - 1e-3)
    vals = np.real(np.einsum("ij,ij->i", h.eval_many(xs), xs.conj()))
    worst = float(vals.min(initial=np.inf))
    tolerance = 1e-10
    residual = float(np.maximum(0.0, -worst))  # NaN stays NaN
    witnesses = []
    if not residual <= tolerance:
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
    if not np.linalg.norm(x0) < 1:  # also true for a NaN entry
        raise ValueError("initial point must lie in the open unit ball")
    return _rk4([h], (t,), x0[None, None, :], step)[0, 0, 0]


def _rk4(hs, ts, xs: np.ndarray, step: float) -> np.ndarray:
    """Flow of each generator hs[j] from every row of xs[j] at each of the
    increasing times ``ts``.

    One trajectory is integrated piecewise through the times; each gap
    takes ceil(gap/step) equal steps, so a single time t gets exactly the
    steps of a direct integration to t.  Returns shape (len(ts),) + xs.shape.
    A step that is not finite and positive, or so small that the last time
    needs more than ``RK4_MAX_STEPS`` steps, raises ``ValueError`` before
    any integration.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or not np.all(np.isfinite(ts)):
        raise ValueError(f"times must be a sequence of finite numbers, got {ts}")
    if ts.size and ts[0] < 0:
        raise ValueError(f"times must be nonnegative, got {ts}")
    if np.any(np.diff(ts) <= 0):
        raise ValueError(f"times must be increasing, got {ts}")
    # ceil(t / step) > N exactly when t / step > N, an overflow to inf too
    if ts.size and float(ts[-1]) / float(step) > RK4_MAX_STEPS:
        raise ValueError(
            f"step {step} is too small for times up to {ts[-1]}: more than "
            f"{RK4_MAX_STEPS} RK4 steps"
        )
    field = _field(hs)
    # each point with a last coordinate 1, which the field keeps fixed
    u = np.ones(xs.shape[:-1] + (xs.shape[-1] + 1,), complex)
    u[..., :-1] = xs
    out = np.empty(ts.shape + xs.shape, complex)
    prev = 0.0
    for i, t in enumerate(ts):
        gap = float(t) - prev
        nsteps = max(1, math.ceil(gap / step))
        dt = gap / nsteps
        half, sixth = 0.5 * dt, dt / 6.0
        for _ in range(nsteps):
            # the stages of du/dt = -h(u), each h1..h4 the field itself
            h1 = field(u)
            h2 = field(u - half * h1)
            h3 = field(u - half * h2)
            h4 = field(u - dt * h3)
            u -= sixth * (h1 + 2.0 * (h2 + h3) + h4)
        out[i] = u[..., :-1]
        prev = float(t)
    # "not < 1" also catches a trajectory that overflowed to inf or NaN
    inside = (np.linalg.norm(out, axis=-1) < 1.0).all(axis=(0, 2))
    if not inside.all():
        raise RuntimeError(
            f"the trajectory of generator {int(np.argmin(inside))} left the unit "
            "ball; the field is likely not a generator"
        )
    return out


def _field(hs):
    """The fields x -> h_j(x) of generators of one (dim, order) = (n, K),
    as one function of a (J, N, n + 1) array whose slice j holds points
    for h_j, each followed by a coordinate 1.  The value at a point is
    h_j(x) followed by 0, so RK4 stages keep that coordinate 1.

    Every degree from 1 (the identity) to K is one block of coefficients
    over its sorted multi-index basis (``tensors.basis_coefficients``).
    The blocks are concatenated, the index columns of a degree below K
    padded with the index n of the coordinate 1, so a stage costs one
    gather of the monomials of every degree and one batched product,
    whatever J is."""
    n, J = hs[0].dim, len(hs)
    blocks = [((np.arange(n),), np.eye(n))]
    for k in range(2, hs[0].order + 1):
        cols, coef = basis_coefficients([h.poly(k) for h in hs])
        if coef.any():
            blocks.append((cols, coef))
    width = sum(len(cols[0]) for cols, _ in blocks)
    index = np.full((len(blocks[-1][0]), width), n)
    # one more output column, 0, for the coordinate 1
    coef = np.zeros((J, width, n + 1), complex)
    lo = 0
    for cols, c in blocks:
        hi = lo + len(cols[0])
        index[: len(cols), lo:hi] = cols
        coef[:, lo:hi, :n] = c
        lo = hi
    index = tuple(index)

    def field(x: np.ndarray) -> np.ndarray:
        return np.matmul(monomials(x, index), coef)

    return field


def flow_taylor_via_ode(
    hs: Sequence[MappingJet],
    times: Sequence[float],
    directions,
    degrees: Sequence[int],
    step: float = 2e-3,
) -> np.ndarray:
    """Degree-k Taylor coefficients of z -> u_t(z e) extracted from the ODE,
    for each of J generators with its own direction, at each time and
    degree: the (J, len(times), len(degrees), n) array.

    Since the flow is holomorphic in the initial point, a coefficient is a
    Cauchy integral, evaluated by averaging over ``FLOW_TAYLOR_NODES``
    points of the circle of radius ``FLOW_TAYLOR_RADIUS``.  Independent
    oracle for semigroup_jet.

    ``hs`` is a sequence of J generators of one dim and order, checked as
    ``jets.compose`` checks a stack, and ``directions`` the (J, n) array of
    one direction per generator, each a unit vector within
    ``fekete.E_NORM_TOL`` (else ``ValueError`` naming its row, before any
    integration); ``times`` is an increasing sequence.  One
    integration serves every generator, time and degree, and each element
    equals, within rounding, the call on its generator alone.  A degree
    must be an integer (``operator.index``, else ``TypeError``) with
    0 <= k < ``FLOW_TAYLOR_NODES``; others would alias and raise
    ``ValueError``.  ``semigroup_ode`` flows one point of one generator.
    """
    hs, J, h0 = _stack_of(list(hs), "generator")
    dim = h0.dim
    es = np.asarray(directions, dtype=complex)
    if es.shape != (J, dim):
        raise ValueError(f"expected directions of shape {(J, dim)}, got {es.shape}")
    _unit_rows(es)  # a check only: the directions are used as given
    ks = [operator.index(k) for k in degrees]
    radius, nodes = FLOW_TAYLOR_RADIUS, FLOW_TAYLOR_NODES
    if any(not 0 <= k < nodes for k in ks):
        raise ValueError(f"degrees must lie in 0..{nodes - 1}, got {degrees}")
    zs = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    pts = zs[:, None] * es[:, None, :]  # (J, nodes, n)
    ut = _rk4(hs, times, pts, step)
    weights = np.array(
        [np.exp(-2j * np.pi * k * np.arange(nodes) / nodes) for k in ks], dtype=complex
    ).reshape(len(ks), nodes)  # also for no degrees
    norms = np.array([nodes * radius**k for k in ks])
    # ut: (times, J, nodes, n) -> coef: (times, J, degrees, n)
    coef = (weights[:, :, None] * ut[:, :, None]).sum(axis=3) / norms[:, None]
    return np.moveaxis(coef, 1, 0)


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


def sample_generator(dim: int, rng: np.random.Generator) -> MappingJet:
    """Random order-3 jet with parts of size ``SAMPLE_SCALE``, shrunk into
    the generator class by ``generator_shrink``; the shrink draws nothing
    from ``rng``."""
    return generator_shrink(random_jet(dim, 3, rng, scale=SAMPLE_SCALE))


def generator_shrink(jet: MappingJet) -> MappingJet:
    """The jet x + c (jet(x) - x) with c = min(1, 1 / sum_k sigma_k), a
    generator by proof.

    sigma_k is the largest singular value of the (n^k, n) flattening M_k
    of H_k's tensor, so H_k(x) = M_k^T (x (x) ... (x) x) and
    ||H_k(x)|| <= sigma_k ||x||^k.  On the closed unit ball, where
    ||x||^(k+1) <= ||x||^2, this gives

        Re <h(x), x> >= ||x||^2 - c sum_k sigma_k ||x||^(k+1)
                     >= ||x||^2 (1 - c sum_k sigma_k) >= 0,

    at any dimension and order.  A jet with a NaN or infinite coefficient
    raises ``ValueError`` naming its degree.
    """
    total = 0.0
    for k, P in sorted(jet.polys.items()):
        if not np.isfinite(P.entries).all():
            raise ValueError(f"the degree-{k} part of the jet has a non-finite coefficient")
        total += float(np.linalg.norm(P.dense().reshape(-1, jet.dim), 2))
    c = 1.0 / max(1.0, total)
    return MappingJet(jet.dim, jet.order, {k: P.scale(c) for k, P in jet.polys.items()})
