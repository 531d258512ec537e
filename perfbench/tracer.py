"""Outside-in tracer for fsjet.

The tracer wraps functions of the fsjet modules from outside the package:
it replaces every module attribute that *is* a target function (by object
identity) with a timing wrapper, so that names imported with
``from .jets import compose`` in ``verify`` or ``estimates`` are traced
too, and it replaces the target methods on their classes.  Nothing under
``src/`` changes.

Two kinds of target:

* cold targets (suites, transforms, solvers) record one span each, with
  name, start, end, parent span and request id, kept in memory until
  ``spans()`` is read at the end of the run;
* hot leaves (``pmul``, ``peval``, ``HomPoly.eval_many`` ...) are called
  up to a million times per cycle and only add to counters: calls,
  inclusive time and self time.

Self time is a call's duration minus the time covered by traced calls
made inside it, where a child's covered time includes the wrapper's own
bookkeeping, so tracer overhead does not leak into a parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import Counter

# (module, attribute, kind).  An attribute "Class.method" is a method
# wrapped on its class.  The metric prefix is "<module>.<method name>".
TARGETS = (
    ("polyops", "pmul", "hot"),
    ("polyops", "peval", "hot"),
    ("polyops", "substitute", "cold"),
    ("tensors", "HomPoly.eval_many", "hot"),
    ("tensors", "HomPoly.dense", "hot"),
    ("tensors", "HomPoly.eval", "hot"),
    ("tensors", "HomPoly.multilinear_eval", "hot"),
    ("jets", "compose", "cold"),
    ("jets", "invert", "cold"),
    ("jets", "iterate", "cold"),
    ("jets", "unitary_conjugate", "cold"),
    ("jets", "MappingJet.components", "cold"),
    ("jets", "MappingJet.from_components", "cold"),
    ("fekete", "fs_mapping", "hot"),
    ("fekete", "fs_mapping_many", "hot"),
    ("fekete", "operator_norm_bilinear", "cold"),
    ("estimates", "sup_norm_fs", "cold"),
    ("estimates", "estimate_sup_modulus", "cold"),
    ("estimates", "check_bounded_onedim_bound", "cold"),
    ("semigroup", "flow_taylor_via_ode", "cold"),
    ("semigroup", "sample_generator", "cold"),
    ("semigroup", "semigroup_jet", "cold"),
    ("transforms", "detect_onedim", "cold"),
    ("transforms", "root_transform", "cold"),
    ("verify", "run_suite", "cold"),
)

PACKAGE = "fsjet"
OPNORM = "fekete.operator_norm_bilinear"
SUP_NORM = "estimates.sup_norm_fs"
FLOW_ODE = "semigroup.flow_taylor_via_ode"


def stat_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Wraps fsjet targets on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s]
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.stack: list[list] = []  # frames: [covered_s, span_id]
        self.span_records: list[tuple] = []
        self.request = 0
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {}
        for module, _, _ in TARGETS:
            if module not in modules:
                try:
                    modules[module] = importlib.import_module(f"{PACKAGE}.{module}")
                except ImportError:
                    modules[module] = None
        replacements = {}  # id(original function) -> (original, wrapper)
        for module, attr, kind in TARGETS:
            name = stat_name(module, attr)
            self.stats[name] = [0, 0.0, 0.0]
            mod = modules[module]
            owner, _, method = attr.rpartition(".")
            if mod is None:
                self.missing.append(f"{module}.{attr}")
                continue
            if owner:
                cls = getattr(mod, owner, None)
                raw = None if cls is None else cls.__dict__.get(method)
                if raw is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = self._wrap(name, fn, kind)
                setattr(cls, method, classmethod(wrapped) if is_classmethod else wrapped)
                self._restore.append((cls, method, raw))
            else:
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    self.missing.append(f"{module}.{attr}")
                    continue
                replacements[id(fn)] = (fn, self._wrap(name, fn, kind))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for key, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
                    self._restore.append((mod, key, value))
        self._install_svd_counter()

    def _install_svd_counter(self) -> None:
        import numpy.linalg

        svd = numpy.linalg.svd
        active, counts = self.active, self.counts

        @functools.wraps(svd)
        def counted_svd(*args, **kwargs):
            if active[OPNORM]:
                counts["svd_calls"] += 1
            return svd(*args, **kwargs)

        numpy.linalg.svd = counted_svd
        self._restore.append((numpy.linalg, "svd", svd))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        hook = _HOOKS.get(name)
        if hook is not None:
            hook = hook(self, fn)
        if kind == "hot":
            return self._wrap_hot(name, fn, hook)
        return self._wrap_cold(name, fn, hook)

    def _wrap_hot(self, name, fn, hook):
        clock, stack, stat = self.clock, self.stack, self.stats[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += t1 - t0
                stat[2] += t1 - t0 - frame[0]
                if hook is not None:
                    hook(args, kwargs, None)
                if stack:
                    stack[-1][0] += clock() - t_in

        return traced

    def _wrap_cold(self, name, fn, hook):
        clock, stack, stat = self.clock, self.stack, self.stats[name]
        active, records, ids = self.active, self.span_records, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            span_id = next(ids)
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            active[name] += 1
            token = hook.enter() if hook is not None else None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[0] += 1
                if active[name] == 1:  # outermost activation only
                    stat[1] += t1 - t0
                stat[2] += t1 - t0 - frame[0]
                active[name] -= 1
                records.append((span_id, parent, self.request, name, t0, t1))
                if hook is not None:
                    hook(args, kwargs, token)
                if stack:
                    stack[-1][0] += clock() - t_in

        return traced

    # -- results -----------------------------------------------------------

    def spans(self) -> list[dict]:
        return [
            {"id": i, "parent": p, "request": r, "name": n, "start": s, "end": e}
            for i, p, r, n, s, e in self.span_records
        ]


# -- hooks: counts measured where the work happens ---------------------------


class _PmulPairs:
    """Pairs tried and pairs kept under the truncation degree."""

    def __init__(self, tracer, fn):
        self.counts = tracer.counts
        self.signature = inspect.signature(fn)

    def __call__(self, args, kwargs, token):
        if len(args) == 3:
            a, b, max_deg = args
        else:
            a, b, max_deg = self.signature.bind(*args, **kwargs).arguments.values()
        da = Counter(sum(e) for e in a)
        db = Counter(sum(e) for e in b)
        self.counts["pmul_pairs_tried"] += len(a) * len(b)
        self.counts["pmul_pairs_kept"] += sum(
            ca * cb for i, ca in da.items() for j, cb in db.items() if i + j <= max_deg
        )


class _Rows:
    """Rows per batched call; attributes calls to an enclosing cold span."""

    def __init__(self, tracer, fn, rows_key, under, under_key):
        self.counts, self.active = tracer.counts, tracer.active
        self.rows_key, self.under, self.under_key = rows_key, under, under_key

    def __call__(self, args, kwargs, token):
        self.counts[self.rows_key] += len(args[1])
        if self.active[self.under]:
            self.counts[self.under_key] += 1


class _OpnormStarts:
    """Starts that ran at least one SVD sweep, for sweeps per start."""

    def __init__(self, tracer, fn):
        self.counts = tracer.counts
        self.signature = inspect.signature(fn)

    def enter(self):
        return self.counts["svd_calls"]

    def __call__(self, args, kwargs, token):
        if self.counts["svd_calls"] > token:
            bound = self.signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["opnorm_starts"] += int(bound.arguments.get("starts", 1))


_HOOKS = {
    "polyops.pmul": _PmulPairs,
    "tensors.eval_many": lambda t, fn: _Rows(
        t, fn, "eval_many_rows", FLOW_ODE, "rk4_stages"
    ),
    "fekete.fs_mapping_many": lambda t, fn: _Rows(
        t, fn, "fs_mapping_many_rows", SUP_NORM, "sup_norm_evals"
    ),
    OPNORM: _OpnormStarts,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced cycle, keyed by metric name."""
    st, c = tracer.stats, tracer.counts

    def calls(name):
        return st[name][0]

    def incl(name):
        return st[name][1]

    def self_s(name):
        return st[name][2]

    return {
        "polyops.pmul.calls": calls("polyops.pmul"),
        "polyops.pmul.self_s": self_s("polyops.pmul"),
        "polyops.pmul.kept_ratio": _ratio(c["pmul_pairs_kept"], c["pmul_pairs_tried"]),
        "polyops.substitute.calls": calls("polyops.substitute"),
        "polyops.substitute.self_s": self_s("polyops.substitute"),
        "polyops.peval.calls": calls("polyops.peval"),
        "polyops.peval.self_s": self_s("polyops.peval"),
        "tensors.eval_many.calls": calls("tensors.eval_many"),
        "tensors.eval_many.self_s": self_s("tensors.eval_many"),
        "tensors.eval_many.rows_per_call": _ratio(
            c["eval_many_rows"], calls("tensors.eval_many")
        ),
        "tensors.dense.calls": calls("tensors.dense"),
        "tensors.dense.self_s": self_s("tensors.dense"),
        "tensors.eval.calls": calls("tensors.eval"),
        "tensors.multilinear_eval.calls": calls("tensors.multilinear_eval"),
        "jets.compose.calls": calls("jets.compose"),
        "jets.compose.incl_s": incl("jets.compose"),
        "jets.convert.self_s": self_s("jets.components") + self_s("jets.from_components"),
        "fekete.operator_norm_bilinear.calls": calls(OPNORM),
        "fekete.operator_norm_bilinear.self_s": self_s(OPNORM),
        "fekete.operator_norm_bilinear.svd_calls": c["svd_calls"],
        "fekete.operator_norm_bilinear.sweeps_per_start": _ratio(
            c["svd_calls"] / 2, c["opnorm_starts"]
        ),
        "fekete.fs_mapping_many.calls": calls("fekete.fs_mapping_many"),
        "fekete.fs_mapping_many.rows_per_call": _ratio(
            c["fs_mapping_many_rows"], calls("fekete.fs_mapping_many")
        ),
        "fekete.fs_mapping_many.self_s": self_s("fekete.fs_mapping_many"),
        "fekete.fs_mapping.calls": calls("fekete.fs_mapping"),
        "estimates.sup_norm_fs.evals_per_call": _ratio(
            c["sup_norm_evals"], calls(SUP_NORM)
        ),
        "estimates.estimate_sup_modulus.calls": calls("estimates.estimate_sup_modulus"),
        "estimates.estimate_sup_modulus.self_s": self_s("estimates.estimate_sup_modulus"),
        "semigroup.flow_taylor_via_ode.calls": calls(FLOW_ODE),
        "semigroup.flow_taylor_via_ode.incl_s": incl(FLOW_ODE),
        "semigroup.rk4_stages": c["rk4_stages"],
        "semigroup.sample_generator.incl_s": incl("semigroup.sample_generator"),
        "transforms.detect_onedim.incl_s": incl("transforms.detect_onedim"),
        "transforms.root_transform.incl_s": incl("transforms.root_transform"),
    }
