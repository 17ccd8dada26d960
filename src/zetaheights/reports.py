"""Structured report records shared by the bound evaluators."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class BoundReport:
    """One theorem-style inequality evaluation.

    rhs_total always equals the sum of rhs_terms; margin = lhs - rhs_total.
    asymptotic_slack marks statements whose source carries O(1)/o(1) terms,
    so the margin is informative rather than pass/fail.
    """

    theorem_id: str
    lhs: float
    rhs_terms: dict
    asymptotic_slack: bool = False
    notes: dict = field(default_factory=dict)

    @property
    def rhs_total(self) -> float:
        return math.fsum(self.rhs_terms.values())

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs_total

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "lhs": self.lhs,
            "rhs_terms": dict(self.rhs_terms),
            "rhs_total": self.rhs_total,
            "margin": self.margin,
            "slack_flag": self.asymptotic_slack,
            "notes": self.notes,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)


@dataclass(frozen=True)
class SMembership:
    """Outcome of the small-norm prime membership test."""

    delta: float
    epsilon: float
    witness_Y: int | None
    qualifying_primes: tuple
    in_S: bool
    aa_lower_bound: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)
