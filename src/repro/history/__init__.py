"""Run histories and formal consistency certification.

The chaos invariant checker audits results one at a time, as they are
delivered; it cannot see *cross-query* anomalies — a session whose reads
step backwards in snapshot time, a timeline bracket violated two queries
apart, Δ-consistency drift between the copies one consistency class
read.  Those are exactly the properties the paper's appendix defines
over a *history*, so this package records one:

* :class:`~repro.history.records.History` — an append-only,
  JSON-lines-serializable sequence of records: every transaction commit
  from every replication source (shard-precise ids), every query's
  local reads with region snapshot times and agent progress, session
  floors, DML commits, TIMEORDERED brackets and lifecycle/fault
  events.  Seed-deterministic: the same seeded run
  produces byte-identical JSONL (and therefore the same
  :meth:`~repro.history.records.History.digest`).
* :class:`~repro.history.recorder.HistoryRecorder` — the low-overhead
  capture hook.  Off by default; enabled with ``record_history=`` on
  :class:`~repro.cache.mtcache.MTCache`,
  :class:`~repro.fleet.config.FleetConfig` and the chaos env builders.
* :class:`~repro.history.certify.ConsistencyCertifier` — offline checks
  implementing the appendix's formal semantics (currency bounds,
  snapshot consistency, Δ-consistency distance, session monotonic
  reads + read-your-writes, timeline order), each emitting a
  :class:`~repro.history.certify.Certificate` with structured
  :class:`~repro.history.certify.Anomaly` records.

``python -m repro.history`` records seeded chaos schedules and
certifies saved histories from the shell (see the README quickstart).
"""

from repro.history.certify import (
    Anomaly,
    Certificate,
    CertificationReport,
    ConsistencyCertifier,
)
from repro.history.records import RECORD_KINDS, History
from repro.history.recorder import HistoryRecorder
from repro.history.render import ascii_timeline, render_certificates

__all__ = [
    "Anomaly",
    "Certificate",
    "CertificationReport",
    "ConsistencyCertifier",
    "History",
    "HistoryRecorder",
    "RECORD_KINDS",
    "ascii_timeline",
    "render_certificates",
]
