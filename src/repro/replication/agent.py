"""Distribution agents (paper §3.1).

A distribution agent owns one currency region: the set of local materialized
views it refreshes, plus the region's local heartbeat table.  It is the
cache tier's sink of :class:`~repro.replication.tailer.LogTailer`: every
wake hands it the back-end's committed transactions whole and in commit
order, and it applies each change to every subscribed view whose predicate
the row satisfies.  Because a region's views are only ever updated together
by the same agent, they are mutually consistent at all times — which is the
invariant the compile-time consistency checker relies on.

The propagation **delay** models delivery latency: an agent waking at time
``t`` applies transactions committed up to ``t − delay``, so immediately
after propagation the region's data is exactly ``delay`` stale — the bottom
of the paper's Figure 3.2 sawtooth.
"""

from repro.common.errors import ReplicationError
from repro.engine.expressions import OutputCol, RowBinding, evaluator
from repro.obs.metrics import NULL_REGISTRY
from repro.replication.heartbeat import HEARTBEAT_TABLE, local_heartbeat_name
from repro.replication.tailer import LogTailer, upsert
from repro.txn.log import Operation


class _ViewSubscription:
    """Precompiled application state for one materialized view."""

    def __init__(self, view, base_table):
        self.view = view
        base_schema = base_table.schema
        self.positions = [base_schema.index_of(c) for c in view.columns]
        if view.predicate is not None:
            binding = RowBinding([OutputCol(c.name) for c in base_schema.columns])
            self.predicate = evaluator(view.predicate, binding)
        else:
            self.predicate = None
        # Position of the base table's primary-key columns inside the view
        # row, used to locate rows for UPDATE/DELETE application.
        if not base_table.primary_key:
            raise ReplicationError(
                f"base table {base_table.name} needs a primary key for replication"
            )
        view_cols = [c.lower() for c in view.columns]
        for pk_col in base_table.primary_key:
            if pk_col not in view_cols:
                raise ReplicationError(
                    f"view {view.view_name if hasattr(view, 'view_name') else view.name}: "
                    f"primary key column {pk_col} must be included for replication"
                )

    def project(self, base_values):
        return tuple(base_values[p] for p in self.positions)

    def satisfies(self, base_values):
        return self.predicate is None or self.predicate(base_values) is True


class DistributionAgent(LogTailer):
    """Propagates committed back-end changes to one currency region."""

    def __init__(self, region_info, backend_catalog, replication_log, cache_catalog, clock,
                 registry=None, checkpoints=None, shard_id=None, checkpoint_key=None):
        # The checkpoint key is distinct per shard agent (e.g. ``"r#p1"``)
        # so sibling agents of one region don't clobber each other's
        # resume cutoffs.
        super().__init__(
            clock, checkpoints,
            checkpoint_key if checkpoint_key is not None else region_info.cid,
        )
        self.region = region_info
        self.backend_catalog = backend_catalog
        self.log = replication_log
        self.cache_catalog = cache_catalog
        #: Partition this agent tails (None: unsharded back-end).  On a
        #: sharded deployment a region runs one agent per partition; each
        #: writes its own entry in ``view.shard_snapshots`` and the view's
        #: scalar ``snapshot_time`` is the minimum over shards — a result
        #: is only as current as its stalest contributing shard.
        self.shard_id = shard_id
        self._subscriptions = {}  # base table name -> [_ViewSubscription]
        self._local_heartbeat = None
        #: Metrics registry: refresh counts, records applied, staleness
        #: gauge — all labelled by region.  The owning cache sets this.
        self.registry = registry if registry is not None else NULL_REGISTRY
        #: Simulated time of the last propagation wake that actually ran
        #: (injected stall windows skip the wake without touching this),
        #: which is what the failover supervisor watches.
        self.last_progress_at = clock.now()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def attach_heartbeat(self, local_heartbeat_table):
        """Register the cache-local heartbeat table for this region."""
        self._local_heartbeat = local_heartbeat_table

    def subscribe(self, view, truncate=True):
        """Subscribe a materialized view and populate it from the back-end.

        To keep the whole region on a single snapshot, any pending changes
        are first propagated with zero delay, bringing existing views to
        "now"; the new view is then populated by scanning the base table.

        ``truncate=False`` keeps existing view rows: on a sharded back-end
        M sibling agents subscribe the *same* view (each contributing its
        partition's rows), so only the first caller may wipe it — the
        orchestrating cache passes ``truncate=False`` when the view is
        known to be freshly created (and therefore already empty).
        """
        base_entry = self.backend_catalog.table(view.base_table)
        subscription = _ViewSubscription(view, base_entry.table)
        self.propagate(cutoff=self.clock.now())
        if truncate:
            view.table.truncate()
        for _, values in base_entry.table.scan():
            if subscription.satisfies(values):
                view.table.insert(subscription.project(values))
        now = self.clock.now()
        self._subscriptions.setdefault(view.base_table, []).append(subscription)
        # This agent's slice of the region is now synchronized to "now".
        self.snapshot_time = now
        self._sync_view(view)
        self._sync_views_metadata()
        self.checkpoint()

    def unsubscribe(self, view):
        """Remove a view's subscription (it stops receiving updates)."""
        subscriptions = self._subscriptions.get(view.base_table, [])
        self._subscriptions[view.base_table] = [
            s for s in subscriptions if s.view is not view
        ]
        if not self._subscriptions[view.base_table]:
            del self._subscriptions[view.base_table]

    def start(self, scheduler, interval=None):
        """Begin periodic propagation on the scheduler."""
        if interval is None:
            interval = self.region.update_interval
        return super().start(
            scheduler, interval, self.propagate, f"agent:{self.checkpoint_key}"
        )

    def rebind(self, backend_catalog, replication_log):
        """Re-point at a promoted shard primary.  Its log is a
        prefix-consistent copy of the dead one's, so the tail position
        and the durable checkpoint stay valid."""
        self.backend_catalog = backend_catalog
        self.log = replication_log

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def propagate(self, cutoff=None):
        """Apply all log records committed at or before ``cutoff``.

        The default cutoff is ``now − update_delay``.  Returns the number of
        records applied.
        """
        self.last_progress_at = self.clock.now()
        if cutoff is None:
            cutoff = self.clock.now() - self.region.update_delay
        if cutoff < self.snapshot_time:
            return 0
        applied = self.advance(self.log, cutoff)
        self.snapshot_time = max(self.snapshot_time, cutoff)
        self._sync_views_metadata()
        self.checkpoint()
        labels = {"region": self.region.cid}
        if self.shard_id is not None:
            labels["shard"] = str(self.shard_id)
        registry = self.registry
        registry.counter("replication_refreshes_total", labels=labels,
                         help="agent propagation runs").inc()
        if applied:
            registry.counter("replication_records_applied_total", labels=labels,
                             help="log records applied to local views").inc(applied)
            registry.event(
                "replication",
                f"agent {self.region.cid} applied {applied} records "
                f"(through txn {self.applied_txn})",
                severity="debug", time=self.clock.now(),
                region=self.region.cid, applied=applied,
            )
        bound = self.staleness_bound()
        if bound is not None:
            registry.gauge("replication_staleness_seconds", labels=labels,
                           help="guaranteed staleness bound from the local heartbeat"
                           ).set(bound)
        return applied

    def _sync_view(self, view):
        """Publish this agent's snapshot onto one view's metadata.

        Unsharded: the agent owns the view outright.  Sharded: the agent
        owns one entry of ``view.shard_snapshots`` and the scalar
        ``snapshot_time`` is normalized to the minimum over shards (the
        per-shard C&C rule: worst contributing shard wins).
        """
        view.applied_txn = self.applied_txn
        if self.shard_id is None:
            view.snapshot_time = self.snapshot_time
        else:
            view.shard_snapshots[self.shard_id] = self.snapshot_time
            view.snapshot_time = min(view.shard_snapshots.values())

    def _sync_views_metadata(self):
        for subs in self._subscriptions.values():
            for sub in subs:
                self._sync_view(sub.view)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def adopt(self, other):
        """Take over ``other``'s subscriptions and local heartbeat table.

        The standby writes to the *same* local views — it is the same
        region, just a fresh process.  Resume state (``applied_txn`` /
        ``snapshot_time``) is NOT copied: a promoted standby must trust
        only the durable checkpoint, never the dead primary's memory.
        """
        self._subscriptions = {
            table: list(subs) for table, subs in other._subscriptions.items()
        }
        self._local_heartbeat = other._local_heartbeat
        self._interval = other._interval
        return self

    # ------------------------------------------------------------------
    # Sink: idempotent application of one transaction
    # ------------------------------------------------------------------
    def apply_transaction(self, records):
        """The number of records that changed a local table."""
        return sum(1 for record in records if self._apply(record))

    def _apply(self, record):
        """Apply one log record; returns True if anything changed locally."""
        if record.table == HEARTBEAT_TABLE:
            return self._apply_heartbeat(record)
        subscriptions = self._subscriptions.get(record.table)
        if not subscriptions:
            return False
        changed = False
        for sub in subscriptions:
            if self._apply_to_view(sub, record):
                changed = True
        return changed

    @staticmethod
    def _apply_to_view(sub, record):
        """Apply one record to one view: the row may enter, leave, or
        change within the view's predicate."""
        keep = record.op is not Operation.DELETE and sub.satisfies(record.values)
        return upsert(
            sub.view.table, record, sub.project(record.values) if keep else None
        )

    def _apply_heartbeat(self, record):
        """Replicate this region's heartbeat row into the local table."""
        if (
            self._local_heartbeat is None
            or record.pk[0] != self.region.cid
            or record.op is Operation.DELETE
        ):
            return False
        return upsert(self._local_heartbeat, record, record.values)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def local_heartbeat_value(self):
        """The replicated heartbeat timestamp (None before first beat)."""
        if self._local_heartbeat is None:
            return None
        for _, values in self._local_heartbeat.scan():
            return values[1]
        return None

    def staleness_bound(self):
        """Guaranteed upper bound on this region's staleness, from the
        local heartbeat (None if no heartbeat has arrived yet)."""
        ts = self.local_heartbeat_value()
        if ts is None:
            return None
        return self.clock.now() - ts

    def __repr__(self):
        return (
            f"<DistributionAgent region={self.region.cid} applied_txn={self.applied_txn} "
            f"snapshot_time={self.snapshot_time:.3f}>"
        )

    @staticmethod
    def local_heartbeat_table_name(cid):
        return local_heartbeat_name(cid)
