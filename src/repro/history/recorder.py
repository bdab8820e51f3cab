"""The capture hook: turns a live run into a :class:`History`.

One :class:`HistoryRecorder` serves a whole deployment — a standalone
:class:`~repro.cache.mtcache.MTCache` creates its own when constructed
with ``record_history=True``; a :class:`~repro.fleet.fleet.CacheFleet`
creates one and shares it across every node, the back-end and the fleet
event log, so the history interleaves commits, queries and faults in
the order they actually happened on the simulated clock.

Capture cost is kept off the hot path three ways: recording is off by
default (``cache.history is None`` is the only per-query check), commit
observation is an empty-list check inside
:meth:`~repro.txn.manager.TransactionManager._commit`, and per-read
capture inside currency guards is gated on a single
``ctx.capture_reads`` boolean that only a recording cache sets.  The
overhead budget is <=5% on the mixed ledger workload
(``benchmarks/test_bench_history_overhead.py``).
"""

from repro.history.records import History

__all__ = ["HistoryRecorder"]

#: Event kinds mirrored from an attached event log into the history.
#: Fault injections, lifecycle transitions, failovers, breaker moves and
#: invariant violations are the run's *environmental* record; per-guard
#: chatter stays in the node registries (the query records already carry
#: the guard outcomes that matter).
EVENT_KINDS = frozenset({
    "outage", "partition", "agent_stall", "lifecycle",
    "failover", "breaker", "invariant", "certify",
    "backend_crash", "promotion",
})


def _jsonable(value):
    """Clamp an event attribute to the JSON-serializable scalars the
    canonical encoding accepts (repr() anything exotic)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class HistoryRecorder:
    """Appends structured records for one run into a :class:`History`."""

    def __init__(self, history=None):
        self.history = history if history is not None else History()
        self._next_qid = 1
        #: True while hooks should record (flip off to freeze a history
        #: mid-run, e.g. around benchmark warm-up).
        self.enabled = True

    def __len__(self):
        return len(self.history)

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach_backend(self, backend):
        """Observe every replication source's commit point.

        One observer per :meth:`~repro.common.backend.Backend.
        transaction_managers` entry, so a sharded back-end yields
        shard-precise ``commit`` records (source ``p0``/``p1``/...)
        exactly matching the commit floors DML reports.
        """
        for source, manager in backend.transaction_managers():
            manager.observers.append(self._commit_observer(source))
        return self

    def _commit_observer(self, source):
        def observe(txn):
            if not self.enabled:
                return
            tables = sorted({op.table for op in txn._ops})
            self.history.append({
                "kind": "commit",
                "source": source,
                "txn": txn.txn_id,
                "time": txn.commit_time,
                "tables": tables,
                "n_ops": len(txn._ops),
            })
        return observe

    def attach_events(self, registry):
        """Mirror an event log's fault/lifecycle records into the
        history (sets the log's sink; see :class:`~repro.obs.events.
        EventLog`)."""
        registry.events.sink = self._on_event
        return self

    def _on_event(self, event):
        if not self.enabled or event.kind not in EVENT_KINDS:
            return
        self.history.append({
            "kind": "event",
            "event": event.kind,
            "severity": event.severity,
            "message": event.message,
            "time": event.time,
            "attrs": {
                k: _jsonable(v) for k, v in sorted(event.attrs.items())
            },
        })

    # ------------------------------------------------------------------
    # Per-statement records (called by the cache/fleet hot paths)
    # ------------------------------------------------------------------
    def record_query(self, *, node, sql, time, bound, classes, routing,
                     snapshots, reads, branches, warnings, remote_queries,
                     session, floors, rows):
        """One completed SELECT; returns its ``qid`` (stable, 1-based,
        shared across the deployment)."""
        if not self.enabled:
            return None
        qid = self._next_qid
        self._next_qid += 1
        self.history.append({
            "kind": "query",
            "qid": qid,
            "node": node,
            "time": time,
            "sql": sql,
            "bound": bound,
            "classes": classes,
            "routing": routing,
            "snapshots": snapshots,
            "reads": reads,
            "branches": branches,
            "warnings": warnings,
            "remote_queries": remote_queries,
            "session": session,
            "floors": floors,
            "rows": rows,
        })
        return qid

    def record_dml(self, *, node, sql, time, table, rowcount, commits,
                   session):
        if not self.enabled:
            return None
        qid = self._next_qid
        self._next_qid += 1
        self.history.append({
            "kind": "dml",
            "qid": qid,
            "node": node,
            "time": time,
            "sql": sql,
            "table": table,
            "rowcount": rowcount,
            "commits": [[source, txn] for source, txn in commits],
            "session": session,
        })
        return qid

    def record_timeline(self, *, node, event, time):
        if not self.enabled:
            return None
        self.history.append({
            "kind": "timeline",
            "node": node,
            "event": event,
            "time": time,
        })

    def __repr__(self):
        return f"<HistoryRecorder {len(self.history)} records>"
