"""Formal C&C semantics (paper appendix §8) and the end-to-end checker."""

from repro.semantics.model import (
    HistoryView,
    currency,
    delta_consistency_bound,
    distance,
    is_snapshot_consistent,
    stale_point,
    xtime,
)
from repro.semantics.checker import CheckReport, ResultChecker, Violation

__all__ = [
    "CheckReport",
    "HistoryView",
    "ResultChecker",
    "Violation",
    "currency",
    "delta_consistency_bound",
    "distance",
    "is_snapshot_consistent",
    "stale_point",
    "xtime",
]
