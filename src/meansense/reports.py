"""Structured check reports and diff-stable serialization helpers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"
CAPPED = "CAPPED"


def fmt17(x: float) -> str:
    """Fixed float formatting: 17 significant digits, '.' decimal point."""
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@dataclass
class Report:
    """Outcome of one named check.

    Serializes to the fixed JSON schema
    {check, params, verdict, witnesses[], caveats[]}; numeric payloads live
    inside params and witnesses so the envelope stays stable.
    """

    check: str
    params: dict = field(default_factory=dict)
    verdict: str = INCONCLUSIVE
    witnesses: List[dict] = field(default_factory=list)
    caveats: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "caveats": self.caveats,
        }

    def to_json_str(self) -> str:
        return canonical_json(self.to_json())

    @staticmethod
    def from_json(d: dict) -> "Report":
        return Report(d["check"], d.get("params", {}), d.get("verdict"),
                      d.get("witnesses", []), d.get("caveats", []))


@dataclass
class AverageReport:
    """A Cesaro or windowed average with explicit truncation accounting.

    ``value`` is computed from exactly-known per-step distances;
    ``truncation_correction`` bounds how much the true average could exceed
    it because of comparisons cut off at the metric depth or horizon.  No
    report ever claims a limit; ``window`` records the finite range used.
    ``upper_exact``, where a route computes it, is the exact rational value
    of ``upper`` for verdicts to compare, and ``rounding_bound``, where a
    float route states one, bounds |upper - exact upper| for verdicts to
    clear.  Nothing serializes the report itself: checks copy the fields
    they print into their report's params.
    """

    value: float
    window: tuple
    truncation_correction: float
    samples: int
    method: str = "exact"
    caveats: List[str] = field(default_factory=list)
    upper_exact: Optional[Fraction] = None
    rounding_bound: Optional[float] = None

    @property
    def upper(self) -> float:
        return self.value + self.truncation_correction


def series_csv(values) -> str:
    """Per-step series as ``step,value`` lines from step 0 (header included)."""
    lines = ["step,value"]
    for i, v in enumerate(values):
        lines.append(f"{i},{fmt17(v)}")
    return "\n".join(lines) + "\n"
