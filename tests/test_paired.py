"""The verdict of ``bench/paired.py`` on synthetic pairs, and the cases
it runs and pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "paired", Path(__file__).resolve().parent.parent / "bench" / "paired.py"
)
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)

# the old tree's times over ten pairs: quartiles 10, 11 and 12
OLD = [12.0, 10.0, 13.0, 10.0, 11.0, 14.0, 10.0, 12.0, 11.0, 10.0]


def _shifted(shift, losses=0, ties=0):
    """The new tree's times: the old ones moved by ``shift``, except that
    the first ``losses`` pairs lose by 1 and the next ``ties`` tie."""
    new = [a + shift for a in OLD]
    for i in range(losses):
        new[i] = OLD[i] + 1.0
    for i in range(losses, losses + ties):
        new[i] = OLD[i]
    return new


def test_quartiles_of_the_old_times():
    assert paired.quartiles(OLD) == (10.0, 11.0, 12.0)
    assert paired.quartiles([3.0]) == (3.0, 3.0, 3.0)


@pytest.mark.parametrize("new,want", [
    (_shifted(-3.0), "faster"),  # 10 of 10 wins, 3 > the IQR of 2
    (_shifted(-3.0, losses=1), "faster"),  # 9 of 10 wins
    (_shifted(-3.0, losses=2), "unresolved"),  # 8 of 10
    (_shifted(-3.0, ties=1), "faster"),  # 9 wins and a tie
    (_shifted(-3.0, ties=2), "unresolved"),  # a tie is no win
    (_shifted(-1.5), "unresolved"),  # every pair won, but within the IQR
    (_shifted(+3.0), "slower"),
    (_shifted(+1.5), "unresolved"),
    (list(OLD), "unresolved"),  # ten ties
])
def test_verdict_on_synthetic_pairs(new, want):
    assert paired.verdict(OLD, new) == want


def test_only_the_cases_every_run_timed_are_paired():
    # "stack" times an API the old tree lacks, so every old run fails it;
    # "flaky" failed in one new run
    runs = {
        "old": [{"a": 1.0, "b": 2.0, "flaky": 3.0}] * 2,
        "new": [{"stack": 0.5, "b": 1.5, "a": 0.9, "flaky": 2.0}, {"stack": 0.5, "a": 0.8, "b": 1.0}],
    }
    cases, lacking = paired.shared_cases(runs)
    assert cases == ["b", "a"]
    assert lacking == {"stack": ["old"], "flaky": ["new"]}
    assert paired.shared_cases({"old": [{"a": 1.0}], "new": [{"a": 2.0}]}) == (["a"], {})


def test_the_passed_ids_are_read_from_the_summary():
    report = """..F.
=========================== short test summary info ============================
PASSED bench_verify_repeat.py::bench_compose[2-3]
PASSED bench_verify_repeat.py::bench_invert_stack
FAILED bench_verify_repeat.py::bench_compose_stack - ValueError: no
1 failed, 2 passed in 1.00s
"""
    assert paired.passed_ids(report) == [
        "bench_verify_repeat.py::bench_compose[2-3]",
        "bench_verify_repeat.py::bench_invert_stack",
    ]


def test_both_trees_time_only_the_cases_that_pass_in_both_in_one_order(
    monkeypatch, tmp_path, capsys
):
    # "stack" passes its untimed run only in the new tree, so no timed run
    # of either tree runs it, and both time "b" before "a"
    passing = {"old": ["f.py::a", "f.py::b"], "new": ["f.py::stack", "f.py::b", "f.py::a"]}
    timed = []

    def pytest_run(bench, *args):
        side = bench.parent.name
        if "--benchmark-disable" in args:
            return "\n".join(f"PASSED {i}" for i in passing[side])
        *ids, json_arg = args
        timed.append((side, ids))
        benchmarks = [{"name": i.split("::")[1], "stats": {"median": 1.0}} for i in ids]
        Path(json_arg.split("=", 1)[1]).write_text(json.dumps({"benchmarks": benchmarks}))
        return ""

    monkeypatch.setattr(paired, "_pytest", pytest_run)
    for side in passing:
        (tmp_path / side / "src" / "fsjet").mkdir(parents=True)
    assert paired.main([str(tmp_path / "old"), str(tmp_path / "new"), "--pairs", "2"]) == 0
    shared = ["f.py::b", "f.py::a"]
    assert timed == [("old", shared), ("new", shared), ("new", shared), ("old", shared)]
    assert "f.py::stack" in capsys.readouterr().out
