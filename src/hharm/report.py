"""Check results and deterministic JSON verification reports.

Reports depend only on the configuration (fixed seeds), never on wall time
or host identity, so byte-identical reruns stay byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CheckResult", "VerificationReport", "REPORT_SCHEMA"]

REPORT_SCHEMA = "hharm-report/1"


def _jsonable(x):
    """Recursively coerce numpy/complex values into plain JSON types."""
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (complex, np.complexfloating)):
        return {"re": _jsonable(np.real(x)), "im": _jsonable(np.imag(x))}
    if isinstance(x, (np.floating, float)):
        v = float(x)
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        # 12 significant digits: far below every tolerance in the suite, but
        # coarse enough that last-ulp jitter from threaded BLAS reductions
        # cannot leak into the serialized report
        return float(f"{v:.12g}")
    return x


@dataclass
class CheckResult:
    """One verified statement: measured numbers against their targets."""

    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    targets: dict = field(default_factory=dict)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}"

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": _jsonable(self.measured),
            "targets": _jsonable(self.targets),
        }


@dataclass
class VerificationReport:
    config: dict
    results: list
    diagnostics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def counts(self) -> tuple:
        ok = sum(1 for r in self.results if r.passed)
        return ok, len(self.results)

    def to_json(self) -> str:
        doc = {
            "schema": REPORT_SCHEMA,
            "config": _jsonable(self.config),
            "diagnostics": _jsonable(self.diagnostics),
            "passed": self.passed,
            "results": [r.as_dict() for r in self.results],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
