"""The verdict of ``bench/paired.py`` on synthetic pairs."""

import importlib.util
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
