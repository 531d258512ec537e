"""Paired, alternating runs of ``bench/`` against two source trees.

Separate pytest-benchmark runs of unchanged code can differ by a third on
a busy machine, so before/after numbers come from pairs: each pair runs
the bench files of this directory once against each tree, the order
alternating from pair to pair, and a case counts as a win for the second
tree when its median in that pair is lower.

    python bench/paired.py OLD_ROOT NEW_ROOT [--pairs 10]

OLD_ROOT and NEW_ROOT are checkouts with the package under ``src/``.
Prints, per case, the median over pairs of each tree's per-run median,
their ratio and the number of pairs the second tree won.  BLAS runs on one
thread, as in ``perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

INI = """[pytest]
pythonpath = {src}
python_files = bench_*.py
python_functions = bench_*
"""


def _prepare(root: Path, workdir: Path) -> Path:
    """A copy of this directory's bench files that imports ``root/src``."""
    src = root.resolve() / "src"
    if not (src / "fsjet").is_dir():
        raise SystemExit(f"{root}: no src/fsjet")
    bench = workdir / "bench"
    bench.mkdir(parents=True)
    for path in HERE.glob("bench_*.py"):
        shutil.copy(path, bench)
    (bench / "pytest.ini").write_text(INI.format(src=src))
    return bench


def _run(bench: Path, out: Path) -> dict[str, float]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "-m", "pytest", str(bench), "-q", "-p", "no:cacheprovider",
           f"--benchmark-json={out}"]
    done = subprocess.run(cmd, env=env, cwd=bench, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"bench run against {bench} failed")
    data = json.loads(out.read_text())
    return {b["name"]: b["stats"]["median"] for b in data["benchmarks"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    runs: dict[str, list[dict[str, float]]] = {"old": [], "new": []}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        benches = {side: _prepare(getattr(args, side), tmp / side) for side in runs}
        for i in range(args.pairs):
            order = ("old", "new") if i % 2 == 0 else ("new", "old")
            for side in order:
                runs[side].append(_run(benches[side], tmp / f"{side}-{i}.json"))
            print(f"pair {i + 1}/{args.pairs} done ({' then '.join(order)})", file=sys.stderr)

    cases = [c for c in runs["old"][0] if all(c in r for r in runs["old"] + runs["new"])]
    print(f"{'case':45s} {'old ms':>10s} {'new ms':>10s} {'new/old':>8s} {'wins':>6s}")
    for case in cases:
        old = [r[case] for r in runs["old"]]
        new = [r[case] for r in runs["new"]]
        wins = sum(b < a for a, b in zip(old, new))
        mo, mn = statistics.median(old), statistics.median(new)
        print(f"{case:45s} {1e3 * mo:10.4f} {1e3 * mn:10.4f} {mn / mo:8.3f} {wins:>3d}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
