"""Structured check reports and diff-stable serialization helpers."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from fractions import Fraction

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"
CAPPED = "CAPPED"


def fmt17(x: float) -> str:
    """Fixed float formatting: 17 significant digits, '.' decimal point."""
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class Report:
    """Outcome of one named check.

    Serializes to the fixed JSON schema
    {check, params, verdict, witnesses[], caveats[]}; numeric payloads live
    inside params and witnesses so the envelope stays stable.  A ``None``
    argument stands for a new empty dict or list.
    """

    def __init__(self, check: str, params: Optional[dict] = None,
                 verdict: str = INCONCLUSIVE, witnesses: Optional[list] = None,
                 caveats: Optional[list] = None):
        self.check = check
        self.params = {} if params is None else params
        self.verdict = verdict
        self.witnesses = [] if witnesses is None else witnesses
        self.caveats = [] if caveats is None else caveats

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
        rep = Report(d["check"])
        # the values as read, a JSON null included
        rep.params, rep.verdict = d.get("params", {}), d.get("verdict")
        rep.witnesses, rep.caveats = d.get("witnesses", []), d.get("caveats", [])
        return rep


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

    def __init__(self, value: float, window: tuple,
                 truncation_correction: float, method: str = "exact",
                 upper_exact: Optional[Fraction] = None,
                 rounding_bound: Optional[float] = None):
        self.value = value
        self.window = window
        self.truncation_correction = truncation_correction
        self.method = method
        self.upper_exact = upper_exact
        self.rounding_bound = rounding_bound

    @property
    def upper(self) -> float:
        return self.value + self.truncation_correction


def series_csv(values) -> str:
    """Per-step series as ``step,value`` lines from step 0 (header included)."""
    lines = ["step,value"]
    for i, v in enumerate(values):
        lines.append(f"{i},{fmt17(v)}")
    return "\n".join(lines) + "\n"
