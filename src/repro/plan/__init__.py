"""Compiled plans: the plan cache both tiers share, and plan snapshots.

:mod:`repro.plan.compiler` is the compiled-plan cache (text LRU,
per-shape templates of :mod:`repro.plan.template`, the compile loop)
that the cache and every back-end server own one of.
:mod:`repro.plan.snapshot` serializes an optimized plan — operator tree,
compiled predicates (as the restricted IR of :mod:`repro.engine.ir`),
placement and currency-guard parameters — into a compact, versioned,
JSON-compatible form that any cache node can instantiate without
re-parsing or re-optimizing the SQL.  :mod:`repro.plan.store` is the
fleet-shared keyed store those snapshots live in.
"""

from repro.plan.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotPlan,
    SnapshotUnsupported,
    instantiate_snapshot,
    serialize_plan,
)
from repro.plan.store import PlanSnapshotStore

__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotPlan",
    "SnapshotUnsupported",
    "instantiate_snapshot",
    "serialize_plan",
    "PlanSnapshotStore",
]
