"""Paired, alternating runs of ``bench/`` against two source trees.

Separate pytest-benchmark runs of unchanged code can differ by a third on
a busy machine, so before/after numbers come from pairs: each pair runs
the bench files of this directory once against each tree, the order
alternating from pair to pair, and a case counts as a win for the second
tree when its median in that pair is lower.

    python bench/paired.py OLD_ROOT NEW_ROOT [--pairs 10]

OLD_ROOT and NEW_ROOT are checkouts with the package under ``src/``.
Prints, per case, the quartiles over pairs of each tree's per-run median,
the ratio of the medians, the number of pairs the second tree won and a
verdict (see ``verdict``).  BLAS runs on one thread, as in ``perfbench``.
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


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of xs."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(old: list[float], new: list[float]) -> str:
    """The verdict on one case, from its per-pair times in each tree:
    "faster" when the new tree wins at least 9 of every 10 pairs (a tie
    counts for neither tree) and its median is below the old one by more
    than the old tree's interquartile range, "slower" for the same with
    the trees swapped, and "unresolved" otherwise."""
    q1, old_median, q3 = quartiles(old)
    gap = statistics.median(new) - old_median
    wins = sum(b < a for a, b in zip(old, new))
    losses = sum(b > a for a, b in zip(old, new))
    if 10 * wins >= 9 * len(old) and -gap > q3 - q1:
        return "faster"
    if 10 * losses >= 9 * len(old) and gap > q3 - q1:
        return "slower"
    return "unresolved"


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
    quart = "q1 / median / q3 ms"
    print(f"{'case':40s} {'old ' + quart:>30s} {'new ' + quart:>30s} {'new/old':>8s} {'wins':>6s}  verdict")
    for case in cases:
        old = [r[case] for r in runs["old"]]
        new = [r[case] for r in runs["new"]]
        wins = sum(b < a for a, b in zip(old, new))
        qo, qn = quartiles(old), quartiles(new)
        spans = ["/".join(f"{1e3 * q:.4g}" for q in qs) for qs in (qo, qn)]
        print(f"{case:40s} {spans[0]:>30s} {spans[1]:>30s} {qn[1] / qo[1]:8.3f} "
              f"{wins:>3d}/{args.pairs}  {verdict(old, new)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
