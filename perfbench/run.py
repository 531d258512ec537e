"""fsjet benchmark: one command per workload, metrics by name and unit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload jet-algebra --seed 1 --seconds 4 --trace 0

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` prints the per-layer metrics of a traced cycle.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Set-up time is measured from
process start to the first timed call, over several fresh processes.
Times are in reference seconds (see ``calibrate.py``).  A run record,
with wall times too, and for traced runs the spans, are written under
``.bench_out/``.

The measuring runs in a child process (``worker.py``) with OpenBLAS and
OpenMP pinned to one thread and without ``-O``.  This process imports
neither numpy nor fsjet.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 4  # fresh processes timed for set-up, besides the measuring one
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def source_identity() -> dict:
    """The fsjet commit when the checkout is a git repository, and a digest
    of the library sources, which identifies the code in any checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fsjet").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": _git_head(), "src_sha256": digest.hexdigest()[:16]}


def _git_head() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONOPTIMIZE", None)  # users run without -O
    return env


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from spawn to READY, RESULT payload).

    The seconds are rescaled to reference speed (see ``calibrate.py``) by
    a calibration kernel run here just before the spawn; after READY the
    worker may be measuring, so nothing runs here then."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the worker started")
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    kernel_s = calibrate.kernel_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    ready_s, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready_s is None:
                ready_s = (time.perf_counter() - t0) * calibrate.REFERENCE_S / kernel_s
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(argv)}")
    if ready_s is None:
        raise BenchError("worker never reached the end of set-up")
    return ready_s, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes and trial counts, for the self-test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "fsjet" / "__init__.py").is_file():
        print(f"error: no fsjet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; expected one of {names}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (
        ["--tiny"] if args.tiny else [])
    run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--spans-out", str(OUT_DIR / f"{stem}-spans.jsonl")]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(common + ["--seconds", "0", "--setup-only"],
                                         deadline)[0])
        ready_s, result = run_worker(run_args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if result is None:
        print("error: worker printed no result", file=sys.stderr)
        return 3

    values = dict(result["metrics"])
    if not args.trace:
        setups.append(ready_s)
        values["setup_s"] = statistics.median(setups)
        result["setup_samples_s"] = setups
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(result["failures"])
    attempted = result["attempted"]
    result["provenance"].update(source_identity())
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, tiny=args.tiny, failed_ratio=failed / max(1, attempted))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        lat = result["latency"]
        print(f"op_ms.tail is p{lat['tail_percentile']:.1f}: rank {lat['tail_rank']} "
              f"of {lat['tail_count']} calls over {lat['cycles']} cycles")
    print(f"failed_ratio = {failed}/{attempted} = {failed / max(1, attempted):.6g}")
    for failure in result["failures"][:20]:
        print(f"FAILED {failure['call']} {failure['check']}: {failure['detail']}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
