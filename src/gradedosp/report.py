"""Structured outcome of an identity-verification run."""

from __future__ import annotations

from typing import Callable, Optional


class CheckReport:
    """Pass/fail bookkeeping for one check over many instances.

    Failures are data, not exceptions. `failed` counts every failure; the
    first `max_counterexamples` counterexamples are kept, in enumeration
    order, and no other is built: a check hands `record` a zero-argument
    callable, which is called only for a failure that is kept.
    """

    __slots__ = (
        "check", "spec", "max_counterexamples", "total", "failed", "counterexamples", "details"
    )

    def __init__(self, check: str, spec: Optional[dict] = None, max_counterexamples: int = 10):
        self.check = check
        self.spec = spec
        self.max_counterexamples = max_counterexamples
        self.total = 0
        self.failed = 0
        self.counterexamples: list = []
        self.details: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def record(self, ok: bool, counterexample: Optional[Callable[[], object]] = None) -> None:
        """Record one instance; `counterexample()` builds its counterexample."""
        self.total += 1
        if not ok:
            self._fail(counterexample)

    def record_passes(self, count: int) -> None:
        """Record `count` passing instances at once."""
        self.total += count

    def record_coverage(self, declared: int) -> None:
        """Fail the check, outside its instances, when it enumerated other
        than `declared` instances; the counterexample names both counts."""
        if self.total != declared:
            self._fail(lambda: {"indices": {"enumerated": self.total, "declared_total": declared}})

    def _fail(self, counterexample: Optional[Callable[[], object]]) -> None:
        self.failed += 1
        if counterexample is not None and len(self.counterexamples) < self.max_counterexamples:
            self.counterexamples.append(counterexample())

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
