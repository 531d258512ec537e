"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Every output check passes on the real output and rejects a
   deliberately perturbed one (a coefficient moved by 1e-6, an estimate
   moved by 1e-6 relative, a failed report ...).
2. Every workload runs end to end at a tiny size, untraced and traced,
   and prints every metric BENCHMARK.json names, with its unit.
3. Two traced runs with the same seed give identical counts.
4. In a directory holding only BENCHMARK.json and the benchmark, the
   command exits non-zero without printing a result.

Exits 0 when all pass.  Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import fsjet  # noqa: E402
import workloads  # noqa: E402

DELTA = 1e-6
COUNT_UNITS = {"count", "ratio", "rows/call", "sweeps/start", "evals/call"}
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def verdicts(checks) -> dict[str, bool]:
    return {name: bool(ok) for name, ok, _ in checks}


def expect_rejects(call, out, check_name: str, how: str) -> None:
    result = verdicts(call.check(out))
    expect(result.get(check_name) is False, f"{call.label}: {check_name} rejects {how}")


# -- perturbations ------------------------------------------------------------


def with_coefficient_moved(jet, k: int):
    P = jet.polys[k]
    idx = sorted(P.coeffs)[len(P.coeffs) // 2]
    coeffs = dict(P.coeffs)
    coeffs[idx] = coeffs[idx] + DELTA * np.eye(jet.dim)[0]
    polys = dict(jet.polys)
    polys[k] = fsjet.HomPoly(k, jet.dim, jet.dim, coeffs)
    return fsjet.MappingJet(jet.dim, jet.order, polys)


def jet_checks():
    wl = workloads.build("jet-algebra", fsjet, seed=5, tiny=True)
    for call in wl.calls:
        out = call.run()
        op = call.label.split(".")[0]
        coeff_check = f"{op}/pointwise" if op == "unitary_conjugate" else f"{op}/taylor"
        expect(all(verdicts(call.check(out)).values()), f"{call.label}: real output passes")
        for k in (2, out.order):
            expect_rejects(call, with_coefficient_moved(out, k), coeff_check,
                           f"a degree-{k} coefficient moved by {DELTA:g}")
        longer = fsjet.MappingJet(out.dim, out.order + 1, dict(out.polys))
        expect_rejects(call, longer, f"{op}/shape", "a wrong jet order")


def sphere_checks():
    wl = workloads.build("sphere-estimates", fsjet, seed=5, tiny=True)
    for call in wl.calls:
        out = call.run()
        expect(all(verdicts(call.check(out)).values()), f"{call.label}: real output passes")
        if call.label.startswith("sup_norm_fs"):
            value, witness = out
            expect_rejects(call, (value * (1 + DELTA), witness), "sup_norm_fs/witness",
                           f"the value moved by {DELTA:g} relative")
            expect_rejects(call, (value, witness * (1 + DELTA)), "sup_norm_fs/witness",
                           "a witness off the sphere")
            expect_rejects(call, (0.5 * value, witness), "sup_norm_fs/sampled",
                           "an estimate below sampled points")
        elif call.label.startswith("operator_norm_bilinear"):
            expect_rejects(call, out._replace(value=out.value * (1 + DELTA)),
                           "operator_norm_bilinear/witness",
                           f"the value moved by {DELTA:g} relative")
            expect_rejects(call, out._replace(value=0.5 * out.value),
                           "operator_norm_bilinear/sampled", "an estimate below sampled points")
        else:
            expect_rejects(call, dataclasses.replace(out, estimate=out.estimate * (1 + DELTA)),
                           "bounded_onedim/witness", f"the estimate moved by {DELTA:g} relative")
            expect_rejects(call, dataclasses.replace(out, bound=out.bound * (1 + DELTA)),
                           "bounded_onedim/bound", f"the bound moved by {DELTA:g} relative")
            over = dataclasses.replace(out, estimate=out.bound + 1.0)
            expect(verdicts(call.check(over)).get("bounded_onedim/bound") is False,
                   f"{call.label}: bounded_onedim/bound rejects a violated bound")


def verify_checks():
    wl = workloads.build("verify-default", fsjet, seed=5, tiny=True)
    call = wl.calls[1]
    reports = call.run()
    expect(all(verdicts(call.check(reports)).values()), f"{call.label}: real output passes")
    r = reports[0]
    failed = dataclasses.replace(r, max_residual=r.tolerance * 2, passed=False)
    expect_rejects(call, [failed] + reports[1:], f"report/{r.suite}", "a failed report")
    inconsistent = dataclasses.replace(r, max_residual=r.tolerance * 2)
    expect_rejects(call, [inconsistent] + reports[1:], f"report/{r.suite}",
                   "a residual above tolerance marked passed")


# -- end to end ---------------------------------------------------------------


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 7):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if proc.returncode == 0 else None), proc


def end_to_end():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out, proc = run_bench(ROOT, name, trace)
            expect(code == 0, f"{name} trace={trace}: exits 0")
            if out is None:
                print(proc.stderr[-2000:])
                continue
            expect(set(out) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: result has exactly the four keys")
            expect(out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1,
                   f"{name} trace={trace}: outputs correct ({out['attempted']} checks)")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in out["metrics"].items()}
            expect(got == want, f"{name} trace={trace}: emits every {key} metric with its unit")
            if trace:
                _, again, _ = run_bench(ROOT, name, trace)
                counts = {m for m, u in want.items() if u in COUNT_UNITS}
                counts.discard("trace.overhead_ratio")
                same = again is not None and all(
                    out["metrics"][m]["value"] == again["metrics"][m]["value"] for m in counts)
                expect(same, f"{name}: two traced runs give identical counts ({len(counts)})")


def bare_directory():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        code, _, proc = run_bench(bare, "jet-algebra", 0)
        printed = proc.stdout.strip().splitlines()
        expect(code != 0 and not (printed and printed[-1].startswith("{")),
               "without the sources: exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    jet_checks()
    sphere_checks()
    verify_checks()
    end_to_end()
    bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
