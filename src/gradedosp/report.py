"""Structured outcome of an identity-verification run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class CheckReport:
    """Pass/fail bookkeeping for one check over many instances.

    Failures are data, not exceptions: the report keeps counts plus a
    capped list of counterexamples in deterministic (enumeration) order.
    """

    check: str
    spec: Optional[dict] = None
    total: int = 0
    failed: int = 0
    counterexamples: list = field(default_factory=list)
    details: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def record(self, ok: bool, counterexample=None, max_counterexamples: int = 10) -> None:
        self.total += 1
        if not ok:
            self.failed += 1
            if counterexample is not None and self.keeps_counterexample(max_counterexamples):
                self.counterexamples.append(counterexample)

    def keeps_counterexample(self, max_counterexamples: int = 10) -> bool:
        """Whether `record` would keep the counterexample of the next
        failing instance, so a caller builds it only when this is true."""
        return len(self.counterexamples) < max_counterexamples

    def record_passes(self, count: int) -> None:
        """Record `count` passing instances at once."""
        self.total += count

    def to_json(self) -> dict:
        doc = {
            "check": self.check,
            "spec": self.spec,
            "total": self.total,
            "failed": self.failed,
            "counterexamples": self.counterexamples,
        }
        if self.details is not None:
            doc["details"] = self.details
        return doc
