"""Structured verification results shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    """Outcome of one verification suite run.

    ``passed`` is equivalent to ``max_residual <= tolerance``; witnesses
    list the offending inputs and are empty on pass.
    """

    suite: str
    trials: int
    seed: int
    tolerance: float
    max_residual: float
    passed: bool
    witnesses: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "pass": self.passed,
            "witnesses": self.witnesses,
        }


def make_report(
    suite: str, trials: int, seed: int, tolerance: float, max_residual: float, witnesses=None
) -> Report:
    # plain Python scalars, so that a residual computed in numpy still
    # serializes to JSON
    max_residual = float(max_residual)
    return Report(
        suite=suite,
        trials=trials,
        seed=seed,
        tolerance=tolerance,
        max_residual=max_residual,
        passed=bool(max_residual <= tolerance),
        witnesses=witnesses or [],
    )
