"""Measuring process of the benchmark: one closed-loop caller, one thread.

Started by ``run.py``.  It imports fsjet from the checkout's ``src/``,
builds the seeded inputs, warms up, prints ``READY`` (the end of set-up),
then runs cycles of the workload's call list and checks every output
outside the timed region.  Its last line is ``RESULT <json>``.
"""

import os

# Pinned before numpy loads: the hot loops are many tiny LAPACK calls,
# which a second OpenBLAS thread slows down.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402


def run_cycles(workload, budget_s, max_cycles=None, tracer=None):
    """Cycles of the call list until budget_s reference seconds have passed
    (at least one whole cycle).  Each call is bracketed by calibration
    kernels; its time is kept in reference seconds and in wall seconds."""
    clock = time.perf_counter
    cycles, elapsed = [], 0.0
    kernel_before = calibrate.kernel_s()
    while not cycles or (elapsed < budget_s and len(cycles) != max_cycles):
        calls = []
        for i, call in enumerate(workload.calls):
            if tracer is not None:
                tracer.request = i + 1
            t0 = clock()
            out = call.run()
            wall = clock() - t0
            kernel_after = calibrate.kernel_s()
            speed = calibrate.REFERENCE_S / (0.5 * (kernel_before + kernel_after))
            calls.append((call.label, wall * speed, out, wall))
            kernel_before = kernel_after
        cycle_s = sum(c[1] for c in calls)
        cycles.append({"cycle_s": cycle_s, "wall_s": sum(c[3] for c in calls), "calls": calls})
        elapsed += cycle_s
    return cycles


def check_cycles(workload, cycles):
    attempted, failures = 0, []
    for n, cycle in enumerate(cycles):
        for call, (label, _, out, _) in zip(workload.calls, cycle["calls"]):
            for name, ok, detail in call.check(out):
                attempted += 1
                if not ok:
                    failures.append({"cycle": n, "call": label, "check": name, "detail": detail})
    return attempted, failures


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is
    given then.  Returns (value, rank, count), rank 1-based ascending.
    """
    ordered = sorted(values)
    count = len(ordered)
    rank = count - 10 if count > 10 else count
    return ordered[rank - 1], rank, count


def label_medians(cycles):
    per_label = {}
    for cycle in cycles:
        for label, seconds, _, _ in cycle["calls"]:
            per_label.setdefault(label, []).append(seconds)
    return {label: statistics.median(v) for label, v in per_label.items()}


def end_to_end(cycles):
    latencies_ms = [s * 1e3 for c in cycles for _, s, _, _ in c["calls"]]
    value, rank, count = tail(latencies_ms)
    return {
        "cycle_s": statistics.median(c["cycle_s"] for c in cycles),
        "op_ms.p50": statistics.median(latencies_ms),
        "op_ms.tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"tail_rank": rank, "tail_count": count, "tail_percentile": 100.0 * rank / count,
        "cycles": len(cycles), "cycle_s": [c["cycle_s"] for c in cycles],
        "wall_cycle_s": [c["wall_s"] for c in cycles]}


def call_level(medians, workloads_mod, suites):
    """Per-call latencies that name a layer: ms per size, seconds per suite."""
    out = {}
    for n, K in workloads_mod.JET_SIZES:
        for op in workloads_mod.JET_OPS:
            size = workloads_mod.size_label(n, K)
            out[f"jets.{op}.ms.{size}"] = 1e3 * medians.get(f"{op}.{size}", 0.0)
    for n in workloads_mod.SPHERE_DIMS["sup_norm_fs"]:
        size = workloads_mod.size_label(n)
        out[f"estimates.sup_norm_fs.ms.{size}"] = 1e3 * medians.get(f"sup_norm_fs.{size}", 0.0)
    for suite in suites:
        out[f"verify.suite_s.{suite}"] = medians.get(f"suite.{suite}", 0.0)
    return out


def provenance(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": openblas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "optimize_flag": sys.flags.optimize,
        "debug_checks": __debug__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    import numpy as np

    import fsjet

    fsjet_file = Path(fsjet.__file__).resolve()
    if ROOT / "src" not in fsjet_file.parents:
        print(f"fsjet imported from {fsjet_file}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.build(args.workload, fsjet, args.seed, tiny=args.tiny)
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"provenance": provenance(np)}
    if args.trace == 0:
        cycles = run_cycles(workload, args.seconds)
        metrics, result["latency"] = end_to_end(cycles)
    else:
        import tracer as tracing

        plain = run_cycles(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_cycles(workload, 0.0, max_cycles=1, tracer=tracer)
        finally:
            tracer.uninstall()
        # tracer times are wall seconds: rescale them like the traced cycle
        speed = traced[0]["cycle_s"] / traced[0]["wall_s"]
        metrics = {k: v * speed if k.endswith("_s") else v
                   for k, v in tracing.layer_metrics(tracer).items()}
        suites = [s for s in fsjet.SUITE_NAMES if s != "all"]
        metrics.update(call_level(label_medians(plain), workloads, suites))
        metrics["trace.overhead_ratio"] = traced[0]["cycle_s"] / statistics.median(
            c["cycle_s"] for c in plain
        )
        result["latency"] = {"cycles": len(plain), "traced_cycles": 1,
                             "cycle_s": [c["cycle_s"] for c in plain + traced],
                             "wall_cycle_s": [c["wall_s"] for c in plain + traced]}
        result["trace_missing_targets"] = tracer.missing
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                for span in tracer.spans():
                    fh.write(json.dumps(span) + "\n")
        cycles = plain + traced

    attempted, failures = check_cycles(workload, cycles)
    result.update(metrics=metrics, attempted=attempted, failures=failures,
                  call_ms={k: 1e3 * v for k, v in label_medians(cycles).items()})
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
