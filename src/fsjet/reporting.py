"""Structured verification results shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    """Outcome of one verification suite run.

    ``passed`` defaults to ``max_residual <= tolerance``, so a NaN residual
    fails; pass it explicitly only to build a deliberately inconsistent
    report.  Witnesses list the offending inputs and are empty on pass.
    """

    suite: str
    trials: int
    seed: int
    tolerance: float
    max_residual: float
    passed: bool | None = None
    witnesses: list = field(default_factory=list)

    def __post_init__(self):
        # a plain Python float, so that a residual computed in numpy still
        # serializes to JSON
        self.max_residual = float(self.max_residual)
        if self.passed is None:
            self.passed = bool(self.max_residual <= self.tolerance)

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

