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

A case's time can depend on the cases that ran before it in the same
pytest session, so both trees time the same cases in the same order.
First one untimed run per tree finds the cases that pass there; then
every timed run, in either tree, runs only the cases that passed in
both, in the new tree's order.  A case that times an API the old tree
lacks thus runs in neither tree.  Only the cases that every timed run of
both trees timed are paired; a case that fails or is missing in a tree
is listed after the table with the trees that lack it.
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


def shared_cases(runs: dict[str, list[dict[str, float]]]) -> tuple[list[str], dict[str, list[str]]]:
    """The cases that every run of both trees timed, in the order of the
    first run of the new tree, and each other case with the trees that
    lack it in at least one run."""
    cases = list(dict.fromkeys(c for side in ("new", "old") for r in runs[side] for c in r))
    lacking = {c: [side for side in ("old", "new") if any(c not in r for r in runs[side])]
               for c in cases}
    return [c for c in cases if not lacking[c]], {c: s for c, s in lacking.items() if s}


def passed_ids(report: str) -> list[str]:
    """The node ids that pytest's ``-rp`` summary lists as passed, in
    order."""
    return [line.split(" ", 1)[1] for line in report.splitlines() if line.startswith("PASSED ")]


def _pytest(bench: Path, *args: str) -> str:
    """pytest's output on the bench copy ``bench`` with ``args``; exit
    code 1, some cases failed, is a result, not an error."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    done = subprocess.run(cmd, env=env, cwd=bench, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"bench run against {bench} failed")
    return done.stdout


def _passing(bench: Path) -> list[str]:
    """The node ids of the cases that pass in one untimed run, which goes
    on past a file that does not import."""
    return passed_ids(_pytest(bench, str(bench), "--continue-on-collection-errors",
                              "--benchmark-disable", "-rp"))


def _run(bench: Path, out: Path, ids: list[str]) -> dict[str, float]:
    """Each case's median time in one pytest-benchmark run of the node
    ids ``ids``, in that order; a case that fails is left out."""
    _pytest(bench, *ids, f"--benchmark-json={out}")
    if not out.exists():
        raise SystemExit(f"bench run against {bench} wrote no {out.name}")
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
        ids, skipped = shared_cases({side: [dict.fromkeys(_passing(benches[side]))] for side in runs})
        if not ids:
            raise SystemExit("no case passes in both trees")
        for i in range(args.pairs):
            order = ("old", "new") if i % 2 == 0 else ("new", "old")
            for side in order:
                runs[side].append(_run(benches[side], tmp / f"{side}-{i}.json", ids))
            print(f"pair {i + 1}/{args.pairs} done ({' then '.join(order)})", file=sys.stderr)

    cases, lacking = shared_cases(runs)
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
    for case, sides in {**skipped, **lacking}.items():
        print(f"{case:40s} not paired: failed or missing in the {' and '.join(sides)} tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
