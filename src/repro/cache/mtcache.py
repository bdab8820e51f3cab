"""MTCache: the mid-tier database cache (paper §3).

The cache DBMS holds a *shadow* copy of the back-end schema (empty tables,
back-end statistics), local materialized views grouped into currency
regions, and the local heartbeat tables those regions replicate.  All
queries are submitted here; the optimizer decides — entirely cost-based —
whether to compute each piece locally, remotely, or mixed, subject to the
query's C&C constraint:

* consistency is enforced at compile time through delivered/required plan
  properties;
* currency is enforced at run time by SwitchUnion operators whose selector
  (the *currency guard*) tests the region's replicated heartbeat;
* inserts/deletes/updates are forwarded transparently to the back-end.
"""

import contextlib
import enum
import functools
import hashlib
import time

from repro.cache.guard import decide
from repro.cache.placement import CachePlacement
from repro.catalog.catalog import Catalog
from repro.cc.constraint import constraint_from_select
from repro.cc.timeline import TimelineSession
from repro.common.errors import CatalogError, CurrencyError, OptimizerError
from repro.engine import operators as ops
from repro.engine.analyze import analysis_rows, instrument, render_analysis
from repro.engine.executor import ExecutionContext, Executor, PhaseTimings, QueryResult
from repro.engine.expressions import OutputCol, RowBinding
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.ring import Ring
from repro.obs.trace import NULL_TRACE, TraceLog
from repro.optimizer.optimizer import Optimizer, OptimizedPlan
from repro.optimizer.query_info import analyze_select
from repro.plan.compiler import PLAN_CACHE_SIZE, PlanCompiler, is_select_text
from repro.plan.snapshot import (
    SnapshotUnsupported,
    instantiate_snapshot,
    serialize_plan,
)
from repro.replication.agent import DistributionAgent
from repro.replication.checkpoint import CheckpointStore
from repro.replication.heartbeat import heartbeat_schema, local_heartbeat_name
from repro.sql import ast
from repro.sql.parser import parse, parse_expression
from repro.storage.table import HeapTable


class QueryLogEntry:
    """One executed query, as remembered by the monitoring log; its lists
    are the finished execution context's own."""

    __slots__ = ("sql", "summary", "branches", "remote_queries", "rows",
                 "elapsed", "sim_time", "warnings")

    def __init__(self, sql, summary, branches, remote_queries, rows, elapsed,
                 sim_time, warnings):
        self.sql = sql
        self.summary = summary
        self.branches = branches
        self.remote_queries = remote_queries
        self.rows = rows
        self.elapsed = elapsed
        self.sim_time = sim_time
        self.warnings = warnings

    @property
    def served_locally(self):
        return bool(self.branches) and all(i == 0 for _, i in self.branches)

    def __repr__(self):
        where = "local" if self.served_locally else "remote/mixed"
        return f"QueryLogEntry({self.sql[:40]!r}... {where}, {self.rows} rows)"


class QueryLog(Ring):
    """A bounded ring of QueryLogEntry records."""

    def __init__(self, capacity=200):
        super().__init__(capacity)

    def recent(self, n=10):
        return super().recent(n)

    def summary(self):
        """Aggregate counters over the retained window."""
        total = len(self._entries)
        local = sum(1 for e in self._entries if e.served_locally)
        remote_queries = sum(len(e.remote_queries) for e in self._entries)
        return {
            "queries": total,
            "local": local,
            "local_fraction": local / total if total else 0.0,
            "remote_queries": remote_queries,
        }


class FallbackPolicy(enum.Enum):
    """What a currency guard does when local data is not fresh enough
    (paper §1's possible actions)."""

    REMOTE = "remote"
    ERROR = "error"
    SERVE_STALE = "serve_stale"


def _coerce_policy(value):
    """Validate a fallback policy (enum member or its string value,
    case-insensitive).  Rejections name the accepted values so a typo'd
    knob is a one-glance fix."""
    if isinstance(value, FallbackPolicy):
        return value
    try:
        return FallbackPolicy(str(value).lower())
    except ValueError:
        allowed = ", ".join(p.value for p in FallbackPolicy)
        raise ValueError(
            f"unknown fallback policy: {value!r} (expected one of: {allowed})"
        ) from None


#: The floors of a read no session floor binds (never mutated).
_NO_FLOORS = {}


class _GuardMetrics:
    """The metric handles one currency guard feeds, resolved once per
    registry (guards sit on the hottest path there is)."""

    __slots__ = ("passed", "failed", "staleness", "slack", "local", "remote",
                 "stale", "session_local", "session_remote")

    def __init__(self, registry, view):
        self.passed, self.failed = (registry.counter(
            "currency_guard_total", labels={"view": view.name, "outcome": outcome},
            help="currency-guard probes by outcome") for outcome in ("pass", "fail"))
        self.staleness = registry.gauge(
            "replication_staleness_seconds", labels={"region": view.region},
            help="guaranteed staleness bound from the local heartbeat")
        # Headroom the bound had at probe time: the per-region SLO signal.
        self.slack = registry.histogram(
            "currency_slack_seconds", labels={"region": view.region},
            help="B - d at guard evaluation (negative: bound missed)")
        self.local, self.remote, self.stale = (registry.counter(
            "currency_guard_region_total",
            labels={"region": view.region, "outcome": outcome},
            help="guard routing outcomes per currency region",
        ) for outcome in ("local", "remote", "stale"))
        self.session_local, self.session_remote = (registry.counter(
            "session_guard_total", labels={"view": view.name, "outcome": outcome},
            help="session floor checks on strict-table reads",
        ) for outcome in ("local", "remote"))


def _miss_message(view_name, bound, decision, heartbeat_ts, now):
    """The event/warning text for a local copy a guard did not vouch for."""
    if decision.reason == "session_floor":
        return (f"session floor not yet applied by {view_name}: source "
                f"{decision.lagging_source} lags the session's own commit")
    if decision.reason == "timeline":
        return f"timeline constraint not met by {view_name}"
    staleness = float("inf") if heartbeat_ts is None else now - heartbeat_ts
    return (f"currency constraint not met by {view_name}: staleness bound "
            f"{staleness:.3f}s exceeds {bound:g}s")


class MTCache:
    """The cache DBMS front-end applications talk to.

    :meth:`execute` is the single public query entry point; it accepts any
    supported statement and, for SELECTs, returns a
    :class:`~repro.engine.executor.QueryResult` with the stable contract
    ``rows`` / ``columns`` / ``plan`` / ``timings`` / ``routing`` /
    ``warnings``.

    Tuning knobs are keyword-only:

    * ``cost_model`` — overrides the back-end's cost model;
    * ``fallback_policy`` — a :class:`FallbackPolicy` (or its string
      value) controlling what a currency guard does when the local data
      is not fresh enough: ``"remote"`` (default) transparently uses the
      back-end branch, ``"error"`` aborts with :class:`CurrencyError`,
      ``"serve_stale"`` returns local data with a violation warning
      attached to ``result.warnings``;
    * ``plan_cache_size`` — LRU capacity of the compiled-plan cache (of
      its statement texts, and of the plan templates they share);
    * ``metrics`` — a :class:`~repro.obs.MetricsRegistry` (default) or
      :class:`~repro.obs.NullRegistry` to turn instrumentation off;
    * ``snapshot_store`` — an optional shared
      :class:`~repro.plan.store.PlanSnapshotStore`: on a local plan-cache
      miss the cache tries to instantiate a published snapshot before
      re-optimizing, and publishes freshly optimized plans back.
    """

    FALLBACK_POLICIES = tuple(p.value for p in FallbackPolicy)

    def __init__(self, backend, *, cost_model=None, fallback_policy=FallbackPolicy.REMOTE,
                 plan_cache_size=PLAN_CACHE_SIZE, metrics=None,
                 snapshot_store=None, record_history=False):
        self._fallback_policy = _coerce_policy(fallback_policy).value
        #: Observability registry: every hot-path component below reports
        #: into it (see repro.obs).  Real by default — instrumentation is
        #: always-on; pass NullRegistry() for zero-overhead micro-runs.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._resolve_plan_cache_counters()
        #: Compiled-plan cache (paper §3.2: "This approach requires
        #: re-optimization only if a view's consistency properties
        #: change"): texts, shape recipes and templates, see
        #: repro.plan.compiler.  Invalidated whenever the catalog changes
        #: in a way that can affect plan choice or validity.  A text's
        #: entry is a BoundPlan or an instantiated SnapshotPlan.
        self._plans = PlanCompiler(
            self._optimize_select, self._plan_cache_event, capacity=plan_cache_size,
        )
        #: Ring buffer of recent query executions (monitoring aid).
        self.query_log = QueryLog()
        #: Ring buffer of finished query traces (look up by
        #: ``result.trace_id``; rendered by ``\trace`` and TraceExporter).
        self.traces = TraceLog(64)
        self.backend = backend
        self.clock = self.backend.clock
        self.scheduler = self.backend.scheduler
        self.catalog = Catalog()
        # One cost model on both tiers: the local branch is priced the
        # way the back-end prices the same pipeline.
        self.cost_model = cost_model or backend.cost_model
        self.placement = CachePlacement(self, self.cost_model)
        self.optimizer = Optimizer(self.placement, registry=self.metrics)
        self.executor = Executor(clock=self.clock, registry=self.metrics)
        #: Optional fleet-shared snapshot store (see repro.plan.store).
        self.snapshot_store = snapshot_store
        #: Back-end schema/statistics version the cached plans were
        #: compiled under; checked on the execute hot path so DDL on the
        #: back-end invalidates explicitly rather than going stale.
        self._plans_ddl_epoch = self.backend.ddl_epoch
        self.session = TimelineSession()
        #: table name -> "strict" (absent: relaxed).  Strict tables always
        #: guard reads to the caller's session floor, whatever the query's
        #: currency bound says (Antidote-style per-table declarations).
        self._table_consistency = {}
        #: table name -> rows mutated through the cache since the last
        #: statistics refresh (the DML write path feeds this; crossing the
        #: threshold triggers a back-end statistics refresh, which bumps
        #: the ddl epoch and invalidates plans and snapshots fleet-wide).
        self._dml_mods = {}
        #: agent key -> DistributionAgent.  The key is the region cid on
        #: an unsharded back-end; on a sharded one a region runs one agent
        #: per partition, keyed ``"{cid}#p{shard}"``.
        self.agents = {}
        #: region cid -> [(shard_id, agent_key)] in partition order.
        self._region_agent_keys = {}
        #: Durable agent resume cutoffs ("the disk"): survives simulated
        #: agent death and node crashes, feeding restart and failover.
        self.checkpoints = CheckpointStore()
        self._local_heartbeats = {}  # agent key -> HeapTable
        #: Optional :class:`~repro.history.recorder.HistoryRecorder` (off
        #: by default; ``record_history=True`` creates one and observes
        #: the back-end's commit points; a fleet instead shares one
        #: recorder across its nodes via ``CacheFleet.attach_history``).
        self.history = None
        if record_history:
            from repro.history.recorder import HistoryRecorder

            if isinstance(record_history, HistoryRecorder):
                self.history = record_history
            else:
                self.history = HistoryRecorder()
                self.history.attach_backend(backend)
        self.mirror_backend()

    def set_metrics(self, registry):
        """Swap the metrics registry and re-point every instrumented
        component at it (used to A/B the instrumentation cost itself).

        Cached plans embed guard selectors that read ``self.metrics``
        dynamically, so they do not need invalidation.
        """
        self.metrics = registry if registry is not None else NullRegistry()
        self._resolve_plan_cache_counters()
        self.executor.set_registry(self.metrics)
        self.optimizer.registry = self.metrics
        for agent in self.agents.values():
            agent.registry = self.metrics
        return self.metrics

    def _resolve_plan_cache_counters(self):
        """Pre-resolve the plan-cache hit/miss counters: they fire once
        per query, so the hot path must not rebuild label dicts."""
        registry = self.metrics
        self._c_plan = {
            event: registry.counter(
                "plan_cache_events_total", labels={"event": event},
                help="compiled-plan cache activity")
            for event in ("hits", "misses", "binds", "evictions")
        }
        # queries_total is labelled by run-time routing outcome, which is
        # only known post-execution — resolve lazily but memoize per label.
        self._c_queries_by_routing = {}
        #: Null registries skip per-query counter feeding wholesale.
        self._counters_null = isinstance(registry, NullRegistry)

    # ------------------------------------------------------------------
    # Plan cache
    # ------------------------------------------------------------------
    @property
    def fallback_policy(self):
        return self._fallback_policy

    @fallback_policy.setter
    def fallback_policy(self, value):
        value = _coerce_policy(value).value
        if value != self._fallback_policy:
            self._fallback_policy = value
            # Cached plans embed guard selectors built under the old policy.
            self.invalidate_plans()

    @property
    def plan_cache_stats(self):
        """Plan-cache counters as a plain dict (compat view over the
        metrics registry: ``plan_cache_events_total{event=...}``)."""
        return {
            event: self.metrics.counter(
                "plan_cache_events_total", labels={"event": event}
            ).value
            for event in ("hits", "misses", "invalidations", "evictions")
        }

    def _plan_cache_event(self, event, n=1):
        counter = self._c_plan.get(event)
        if counter is None:
            counter = self.metrics.counter(
                "plan_cache_events_total", labels={"event": event},
                help="compiled-plan cache activity")
        counter.inc(n)

    def invalidate_plans(self, reason="ddl"):
        """Drop all cached plans (view/region/statistics changes).

        A node-level invalidation also wipes the shared snapshot store:
        whatever changed here (DDL, region reconfiguration) changes the
        config fingerprint every published snapshot was keyed under, so
        keeping them would only produce fingerprint misses anyway.
        """
        if self._plans.cache or self._plans.cache.templates:
            self._plan_cache_event("invalidations")
        self._plans.clear()
        if self.snapshot_store is not None and len(self.snapshot_store):
            self.snapshot_store.invalidate(reason)

    def _check_plan_epoch(self):
        """Hot-path staleness gate: one integer compare per query.  DDL on
        the back-end (new tables/indexes, refreshed statistics) bumps its
        ``ddl_epoch``; plans and snapshots compiled under an older epoch
        are dropped before they can be reused."""
        epoch = self.backend.ddl_epoch
        if epoch != self._plans_ddl_epoch:
            self.invalidate_plans(reason="backend-ddl")
            self._plans_ddl_epoch = epoch
            # The epoch moves on statistics refreshes too (e.g. a peer
            # node's write-driven refresh): re-mirror so this node's next
            # optimization sees the fresh cardinalities, not the stale
            # shadow copy it attached with.
            self._resync_shadow_stats()

    # ------------------------------------------------------------------
    # Plan snapshots (repro.plan)
    # ------------------------------------------------------------------
    def config_fingerprint(self):
        """Digest of everything plan choice depends on besides SQL text.

        Two nodes may share a precompiled snapshot only when this matches:
        fallback policy, shard topology, every region's
        currency parameters and every view's definition and indexes.
        Fleet nodes suffix their region cids with ``@node``; the digest
        strips the suffix so identically-configured replicas fingerprint
        identically — that is the whole point of the shared store.
        """
        parts = [
            "v1",
            self._fallback_policy,
            str(getattr(self.backend, "partition_count", 1)),
        ]
        if self._table_consistency:
            # Strictness changes guard construction; only appended when
            # declared so pre-existing fingerprints stay stable.
            parts.append("strict:" + ",".join(sorted(self._table_consistency)))
        def bare(cid):
            return cid.split("@", 1)[0] if isinstance(cid, str) else str(cid)
        regions = sorted(self.catalog.regions(), key=lambda r: bare(r.cid))
        for region in regions:
            parts.append(
                f"region:{bare(region.cid)}:{region.update_interval}:{region.update_delay}"
            )
        views = sorted(self.catalog.matviews(), key=lambda v: v.name)
        for view in views:
            indexes = ",".join(
                f"{name}({'+'.join(ix.column_names)}{'!u' if ix.unique else ''})"
                for name, ix in sorted(view.table.indexes.items())
            )
            parts.append(
                f"view:{view.name}:{bare(view.region)}:{view.definition_sql()}:{indexes}"
            )
        return hashlib.sha1("|".join(parts).encode()).hexdigest()

    def _probe_snapshots(self, sql):
        """Try to satisfy a plan-cache miss from the shared snapshot
        store: instantiate (no parse, no optimize) when a fingerprint- and
        epoch-valid snapshot exists."""
        store = self.snapshot_store
        if store is None:
            return None
        snapshot = store.get(
            sql, self.config_fingerprint(), epoch=self.backend.ddl_epoch)
        if snapshot is None:
            return None
        try:
            return instantiate_snapshot(snapshot, self)
        except SnapshotUnsupported:
            return None

    def _publish_snapshot(self, sql, plan):
        """Publish a freshly optimized plan to the shared store so peer
        nodes (and this node after a restart) skip parse + optimize.
        Plans outside the snapshot vocabulary just stay node-local."""
        store = self.snapshot_store
        if store is None:
            return
        try:
            snapshot = serialize_plan(plan)
        except SnapshotUnsupported:
            return
        store.publish(
            sql, self.config_fingerprint(), snapshot, epoch=self.backend.ddl_epoch)

    # ------------------------------------------------------------------
    # Shadow database
    # ------------------------------------------------------------------
    def mirror_backend(self):
        """(Re)create shadow tables for every back-end table, carrying the
        back-end's statistics but no data (paper §3, step 1)."""
        for entry in self.backend.catalog.tables():
            if not self.catalog.has_table(entry.name):
                shadow = self.catalog.create_table(
                    entry.name,
                    entry.schema,
                    primary_key=entry.table.primary_key,
                    shadow=True,
                )
            else:
                shadow = self.catalog.table(entry.name)
            shadow.stats = entry.stats

    def refresh_shadow_stats(self):
        """Recompute back-end statistics and copy them into the shadow."""
        self.backend.refresh_statistics()
        self.mirror_backend()
        for view in self.catalog.matviews():
            self._refresh_view_stats(view)
        self.invalidate_plans()

    def _refresh_view_stats(self, view):
        base_stats = self.backend.catalog.table(view.base_table).stats
        stats = base_stats.project(view.columns)
        if view.predicate is not None:
            _, rows, _ = self.backend.estimate(
                ast.Select(
                    [ast.SelectItem(ast.ColumnRef(view.columns[0]))],
                    [ast.FromTable(view.base_table)],
                    where=view.predicate,
                )
            )
            stats = stats.scaled(rows / max(base_stats.row_count, 1))
        view.stats = stats

    def _resync_shadow_stats(self):
        """Copy the back-end's current statistics into the shadow catalog
        (and every view's derived stats) without recomputing them — the
        cheap half of :meth:`refresh_shadow_stats`, used when the back-end
        already refreshed (write-driven or by a peer node)."""
        self.mirror_backend()
        for view in self.catalog.matviews():
            self._refresh_view_stats(view)

    # ------------------------------------------------------------------
    # Regions, agents, views
    # ------------------------------------------------------------------
    @staticmethod
    def _agent_key(cid, shard_id):
        """Key a region's agent per replication source (partition)."""
        return cid if shard_id is None else f"{cid}#p{shard_id}"

    def region_agents(self, cid):
        """The region's distribution agents, one per replication source."""
        keys = self._region_agent_keys.get(cid)
        if keys is None:
            agent = self.agents.get(cid)
            return [agent] if agent is not None else []
        return [self.agents[key] for _, key in keys if key in self.agents]

    def build_agent(self, region, backend_catalog, log, shard_id):
        """The one place a distribution agent is constructed (region
        creation, cold restart, standby promotion): wired to this cache's
        catalog, clock, metrics and checkpoint store, keyed per
        replication source, with the local heartbeat table attached."""
        key = self._agent_key(region.cid, shard_id)
        agent = DistributionAgent(
            region, backend_catalog, log, self.catalog, self.clock,
            registry=self.metrics, checkpoints=self.checkpoints,
            shard_id=shard_id, checkpoint_key=key,
        )
        agent.attach_heartbeat(self._local_heartbeats[key])
        return agent

    def create_region(self, cid, update_interval, update_delay, heartbeat_interval=2.0):
        """Create a currency region with its agent and heartbeat plumbing.

        On a sharded back-end the region becomes partition-scoped: one
        distribution agent (and one local heartbeat table) per replication
        source, each tailing its own partition's transaction log.
        """
        region = self.catalog.create_region(cid, update_interval, update_delay)
        self.backend.heartbeats.register_region(cid, beat_interval=heartbeat_interval)
        keys = []
        for source in self.backend.replication_sources():
            key = self._agent_key(cid, source.shard_id)
            self._local_heartbeats[key] = HeapTable(
                local_heartbeat_name(key), heartbeat_schema(), primary_key=["cid"]
            )
            agent = self.build_agent(region, source.catalog, source.log, source.shard_id)
            agent.start(self.scheduler, interval=update_interval)
            self.agents[key] = agent
            keys.append((source.shard_id, key))
        self._region_agent_keys[cid] = keys
        self.invalidate_plans()
        return region

    def create_matview(self, name, base_table, columns, predicate=None, region=None):
        """Define and populate a local materialized view (paper §3, steps
        2–3): the matching replication subscription is created and the view
        is populated immediately."""
        if region is None:
            raise CatalogError("a materialized view must belong to a currency region")
        if isinstance(predicate, str):
            predicate = parse_expression(predicate)
        if not self.catalog.has_table(base_table) and self.backend.catalog.has_table(
            base_table
        ):
            # The base table was created after this cache attached (e.g. a
            # FleetConfig-built fleet defines DDL last): pick it up now.
            self.mirror_backend()
        view = self.catalog.create_matview(
            name, base_table, columns, predicate=predicate, region=region
        )
        agents = self.region_agents(region)
        if not agents:
            raise KeyError(region)
        for agent in agents:
            # The view was just created (empty): every source agent adds
            # its partition's rows without wiping its siblings' work.
            agent.subscribe(view, truncate=False)
        self._refresh_view_stats(view)
        self.invalidate_plans()
        return view

    def drop_matview(self, name):
        """Drop a local materialized view and its subscription."""
        view = self.catalog.drop_matview(name)
        for agent in self.region_agents(view.region):
            agent.unsubscribe(view)
        self.invalidate_plans()
        return view

    def drop_region(self, cid):
        """Drop an (empty) currency region: stop its agent and heartbeat."""
        region = self.catalog.drop_region(cid)
        for _, key in self._region_agent_keys.pop(cid, [(None, cid)]):
            agent = self.agents.pop(key, None)
            if agent is not None:
                agent.stop()
            self._local_heartbeats.pop(key, None)
        self.backend.heartbeats.stop(cid)
        self.invalidate_plans()
        return region

    def alter_region(self, cid, update_interval=None, update_delay=None):
        """Reconfigure a region's currency parameters (ALTER-style DDL).

        The new interval re-paces the region's distribution agents; both
        parameters feed the optimizer's guard-probability model, so every
        cached plan — and every published snapshot, whose fingerprint
        embeds the old parameters — is invalidated.
        """
        region = self.catalog.region(cid)
        if update_interval is not None:
            region.update_interval = float(update_interval)
            for agent in self.region_agents(cid):
                agent.start(self.scheduler, interval=region.update_interval)
        if update_delay is not None:
            region.update_delay = float(update_delay)
        self.invalidate_plans(reason="alter-region")
        return region

    def create_view_index(self, view_name, index_name, columns, unique=False):
        view = self.catalog.matview(view_name)
        index = view.table.create_index(index_name, columns, unique=unique)
        self.invalidate_plans()
        return index

    # ------------------------------------------------------------------
    # Per-table consistency declarations
    # ------------------------------------------------------------------
    def declare_table_consistency(self, table, mode):
        """Declare a base table ``strict`` or ``relaxed`` (the default).

        Reads of a *strict* table always guard to the caller's session
        floor — even at CURRENCY UNBOUNDED — so a session sees its own
        writes no matter what the query's currency clause allows.  Reads
        of a *relaxed* table obey the query's currency bound alone.
        Changing a declaration invalidates cached plans (guards are
        compiled in) and shifts the config fingerprint, so fleet-shared
        snapshots cannot cross a strictness boundary.
        """
        mode = str(mode).lower()
        if mode not in ("strict", "relaxed"):
            raise ValueError(
                f"table consistency must be 'strict' or 'relaxed', not {mode!r}"
            )
        table = table.lower()
        current = self._table_consistency.get(table, "relaxed")
        if mode != current:
            if mode == "relaxed":
                self._table_consistency.pop(table, None)
            else:
                self._table_consistency[table] = "strict"
            self.invalidate_plans(reason="table-consistency")
        return mode

    def table_consistency(self, table):
        """The declared consistency mode of a base table."""
        return self._table_consistency.get(table.lower(), "relaxed")

    # ------------------------------------------------------------------
    # Currency guards
    # ------------------------------------------------------------------
    def _view_snapshot(self, view, shard):
        """The snapshot a guard vouches for: the pinned shard's own
        snapshot when the plan touches one partition, else the view's
        normalized (min-over-shards) snapshot time."""
        if shard is not None and view.shard_snapshots:
            return view.shard_snapshots.get(shard, view.snapshot_time)
        return view.snapshot_time

    def _guard_heartbeats(self, region_cid, shard):
        """Local heartbeat tables a guard must consult.

        Unsharded: the region's single table.  Sharded: every source's
        table — unless the plan is pinned to one shard, in which case only
        that partition's replication lag matters (per-shard C&C: a result
        is as current as its stalest *contributing* shard, and a pinned
        point lookup contributes exactly one).
        """
        keys = self._region_agent_keys.get(region_cid)
        if keys is None:
            return [self._local_heartbeats[region_cid]]
        if shard is not None:
            pinned = [self._local_heartbeats[k] for s, k in keys if s == shard]
            if pinned:
                return pinned
        return [self._local_heartbeats[k] for _, k in keys]

    def _read_sources(self, region_cid, shard):
        """Per-source agent progress, ``{source: applied_txn}``, over the
        replication sources a (possibly pinned) read of the region
        contributes: the session floors a strict read is checked against,
        and the sync points the certifier's session and Δ-consistency
        checks audit."""
        pairs = self._region_agent_keys.get(region_cid) or [(None, region_cid)]
        out = {}
        for shard_id, key in pairs:
            if shard is not None and shard_id is not None and shard_id != shard:
                continue
            agent = self.agents.get(key)
            source = "backend" if shard_id is None else f"p{shard_id}"
            out[source] = agent.applied_txn if agent is not None else 0
        return out

    def remote_state(self, shards=None):
        """The remote branch's availability as a guard sees it: ``"up"``,
        ``"unreachable"`` or ``"failover"``.  A lone cache always
        reaches its back-end; :class:`~repro.fleet.node.FleetNode`
        overrides this."""
        return "up"

    def _count_guard_fallback(self, view, decision):
        """Hook for a guard that found the remote branch unavailable
        (only a fleet node's can): it bumps the fleet's counters."""

    def make_currency_guard(self, view, bound, shard=None):
        """The selector of a SwitchUnion: 0 = local branch, 1 = remote.

        :func:`repro.cache.guard.decide` decides; the selector gathers its
        inputs — the *minimum* heartbeat over the contributing partitions
        (all of them, or just the pinned one), the view snapshot, the
        session's floors and the agents' progress — then applies the
        decision: metrics, one event, a warning, the read's provenance.
        """
        heartbeats = self._guard_heartbeats(view.region, shard)
        clock = self.clock
        policy = self.fallback_policy
        strict = self.table_consistency(view.base_table) == "strict"
        remote_state = functools.partial(
            self.remote_state, None if shard is None else (shard,)
        )
        mtcache = self  # guards read the *current* registry on each probe
        # Single-slot memo of resolved metric handles per registry (None
        # for a null registry: guards sit on the hottest path there is).
        memo = [None, None]

        def selector(ctx):
            registry = mtcache.metrics
            if memo[0] is not registry:
                memo[0] = registry
                memo[1] = (None if isinstance(registry, NullRegistry)
                           else _GuardMetrics(registry, view))
            handles = memo[1]
            session = ctx.session
            floors = applied = _NO_FLOORS
            if strict and session is not None and session.floors:
                applied = mtcache._read_sources(view.region, shard)
                floors = {source: session.floor_for(source) for source in applied
                          if session.floor_for(source) > 0}
            ts = None
            for heartbeat in heartbeats:
                values = heartbeat.first_values()
                shard_ts = values[1] if values is not None else None
                if shard_ts is None:
                    ts = None  # a silent partition caps the whole probe
                    break
                ts = shard_ts if ts is None else min(ts, shard_ts)
            now = clock.now()
            snapshot_time = mtcache._view_snapshot(view, shard)
            decision = decide(bound, ts, now, snapshot_time, ctx.timeline, floors,
                              applied, policy, remote_state, strict)
            branch, _, lagging, availability = decision
            if lagging is not None:
                ctx.record_session_decision(view.name, "remote", lagging)
                if handles is not None:
                    handles.session_remote.inc()
            else:
                if floors:
                    ctx.record_session_decision(view.name, "local", None)
                    if handles is not None:
                        handles.session_local.inc()
                if handles is not None:
                    (handles.passed if branch == "local" else handles.failed).inc()
                    if ts is not None:
                        handles.staleness.set(now - ts)
                        handles.slack.observe(bound - (now - ts))
            if availability not in (None, "up"):
                mtcache._count_guard_fallback(view, decision)
            if branch == "local":
                if handles is not None:
                    handles.local.inc()
            elif branch == "degraded":
                node = getattr(mtcache, "name", "cache")
                served = (
                    ("shard failover in progress" if availability == "failover"
                     else "back-end unreachable")
                    + f" from {node}; serving {view.name} beyond its {bound:g}s bound"
                )
                ctx.record_warning(f"degraded: {served}")
                registry.counter(
                    "currency_guard_region_total",
                    labels={"region": view.region, "outcome": "degraded"},
                ).inc()
                registry.counter(
                    "currency_guard_degraded_total", labels={"view": view.name},
                    help="guard fallbacks forced by back-end unavailability",
                ).inc()
                registry.event(
                    "degraded", served, severity="warning", time=now,
                    node=node, view=view.name,
                )
            else:
                message = _miss_message(view.name, bound, decision, ts, now)
                if branch == "remote":
                    if lagging is None and handles is not None:
                        handles.remote.inc()
                    registry.event(
                        "guard", f"{message}; using remote branch", time=now,
                        view=view.name, region=view.region,
                        outcome="remote" if lagging is None else "session-remote",
                    )
                    return 1
                if branch == "error":
                    registry.event(
                        "guard", message, severity="error", time=now,
                        view=view.name, region=view.region, outcome="error",
                    )
                    raise CurrencyError(message)
                # stale: serve the local copy but flag the violation.
                if handles is not None:
                    handles.stale.inc()
                registry.event(
                    "guard", f"{message}; serving stale", severity="warning", time=now,
                    view=view.name, region=view.region, outcome="stale",
                )
                ctx.record_warning(message)
            ctx.record_snapshot(snapshot_time)
            if ctx.capture_reads:
                ctx.record_read(
                    view.name, view.base_table, view.region, shard,
                    snapshot_time, strict,
                    mtcache._read_sources(view.region, shard),
                )
            return 0

        #: Serializable recipe for plan snapshots: any cache can rebuild
        #: an equivalent guard from (view, bound, shard) against its own
        #: local heartbeat state.
        selector.guard_params = {"view": view.name, "bound": bound, "shard": shard}
        return selector

    def shard_hint(self, operand):
        """The single partition an operand's sargs pin it to, or None.

        Equality and IN sargs on the base table's partition column
        intersect; only an unambiguous single-shard pin is returned —
        anything wider falls back to the conservative all-shards guard.
        A plan template's bindable key is classified by its shard, not
        read, and an IN-list's items as one set, so the template is keyed
        on the shards it spans.
        """
        pcol = self.backend.partition_column(operand.table_name)
        if pcol is None:
            return None
        # A partial, not a closure: a classed template keeps it for life.
        shard_of = functools.partial(self.backend.shard_of, operand.table_name)
        pinned = None
        for sarg in operand.sargs:
            if sarg.column != pcol:
                continue
            if sarg.op == "=":
                shards = {ast.classify(sarg.value, shard_of)}
            elif sarg.op == "in":
                shards = ast.classify_set(sarg.value, shard_of)
            else:
                continue
            pinned = shards if pinned is None else pinned & shards
        if pinned is not None and len(pinned) == 1:
            return next(iter(pinned))
        return None

    def remote_executor(self, sql, shards=None):
        """Connection to the back-end used by RemoteQuery operators."""
        trace = self.metrics.active_trace
        if not trace:
            return self.backend.execute_remote(sql, shards=shards)
        with trace.span("backend.remote_query", sql=sql[:60]):
            return self.backend.execute_remote(sql, shards=shards)

    # ------------------------------------------------------------------
    # Query processing
    # ------------------------------------------------------------------
    def optimize(self, sql_or_select, use_cache=True):
        """Optimize a SELECT; returns an executable plan.

        A SQL text engages the plan cache: dynamic plans are reused until
        the cache's consistency-relevant state changes (views, regions,
        statistics); the run-time currency guards keep reused plans
        correct across replication progress.  A parsed Select, or
        ``use_cache=False``, optimizes exactly that statement, literals
        and all, and stores nothing.  Complex queries (derived tables /
        subqueries) are shipped whole.
        """
        if not isinstance(sql_or_select, str):
            return self._optimize_select(sql_or_select)
        if use_cache:
            plan = self._lookup_plan(sql_or_select)
            if plan is not None:
                return plan
        select = parse(sql_or_select, registry=self.metrics)
        if use_cache:
            return self._compile_plan(sql_or_select, select)
        return self._optimize_select(select)

    def _lookup_plan(self, sql):
        """The one probe of the plan cache, shared by :meth:`execute` and
        :meth:`optimize`: the text LRU, then the shared snapshot store (a
        plan published for this very text), then the templates
        (fingerprint the text, bind its literals into the shape's compiled
        plan).  None: the text has to be parsed (a first-of-its-key SELECT
        goes on to :meth:`_compile_plan`)."""
        self._check_plan_epoch()
        plans = self._plans
        plan = plans.probe(sql)
        if plan is not None or not is_select_text(sql):
            return plan
        plan = self._probe_snapshots(sql)
        if plan is not None:
            # Precompiled by a peer (or a past life of this node): no
            # parse, no optimize — but an instantiation, hence a miss.
            self._plan_cache_event("misses")
            plans.remember(sql, plan)
            return plan
        plan = plans.bind(sql)
        if plan is not None:
            # The shared store stays text-keyed: a text this node resolved
            # without a snapshot is published, bound or compiled, exactly
            # when it used to be (ROADMAP 3(c) folds the store into the
            # templates and drops this).
            self._publish_snapshot(sql, plan)
        return plan

    def _compile_plan(self, sql, select):
        """Plan-cache miss: compile ``select`` (the parse of ``sql``) into
        a template, bound to this statement's literals, and publish it."""
        plan = self._plans.compile(sql, select)
        self._publish_snapshot(sql, plan)
        return plan

    def _optimize_select(self, select):
        """Run the optimizer on one parsed Select; returns an OptimizedPlan."""
        with self.metrics.span("optimize"):
            try:
                query_info = analyze_select(select, self.catalog)
            except CatalogError:
                # The back-end may have grown tables since this cache
                # attached (e.g. DDL after FleetConfig.build()); re-mirror
                # the shadow catalog once before giving up.
                self.mirror_backend()
                query_info = analyze_select(select, self.catalog)
            if select.nested:
                # Subquery-bearing statements ship to the back-end wholesale;
                # the master trivially satisfies any C&C constraint.
                names = [name for _, name in query_info.items]
                candidate = self.placement.remote_candidate(
                    select.replace(currency=None), RowBinding([OutputCol(n) for n in names]),
                    query_info.constraint.operands or {"__all__"}, "remote-query",
                )
                return OptimizedPlan(candidate, names, query_info)
            return self.optimizer.optimize_info(query_info)

    def execute(self, sql_or_stmt, *, trace=None, session=None):
        """Execute any statement submitted to the cache.

        The single public query entry point.  SELECTs return a
        :class:`~repro.engine.executor.QueryResult` (stable contract:
        ``rows``, ``columns``, ``plan``, ``timings``, ``routing``,
        ``warnings``, ``trace_id``); DML returns the affected-row count;
        DDL returns the created object; TIMEORDERED brackets return None.

        ``trace`` is the cross-tier :class:`~repro.obs.TraceContext`: the
        fleet router passes the one it opened so the node's spans join
        the router's tree; standalone callers leave it None and the cache
        creates (and records, in ``self.traces``) its own.

        ``session`` is an optional read-your-writes
        :class:`~repro.session.Session`: DML advances its commit floors
        with the transaction ids the back-end reports, and reads of
        strict tables consult the floors through the currency guard.
        """
        if isinstance(sql_or_stmt, str):
            # Hot path: a SQL text with a cached plan skips the parser and
            # the optimizer entirely — epoch compare, one dict probe, then
            # execution; a new text of a known shape binds its literals.
            plan = self._lookup_plan(sql_or_stmt)
            if plan is not None:
                return self._execute_plan(
                    plan, sql_text=sql_or_stmt, trace=trace, session=session
                )
            with self._trace_scope(trace) as trace:
                # Parse inside the trace window so the parse span joins it.
                stmt = parse(sql_or_stmt, registry=self.metrics)
                return self._dispatch(
                    stmt, sql_text=sql_or_stmt, trace=trace, session=session
                )
        return self._dispatch(sql_or_stmt, sql_text=None, trace=trace, session=session)

    @contextlib.contextmanager
    def _trace_scope(self, trace):
        """Make ``trace`` the registry's active trace for the block, so the
        parse/optimize spans join it.  Given None (no caller opened one),
        a fresh trace is yielded and recorded in ``self.traces`` on exit."""
        registry = self.metrics
        owned = trace is None
        if owned:
            trace = registry.new_trace()
        prev = registry.active_trace
        registry.active_trace = trace
        try:
            yield trace
        finally:
            registry.active_trace = prev
            if owned:
                self.traces.record(trace)

    def _dispatch(self, stmt, sql_text=None, trace=None, session=None):
        if isinstance(stmt, ast.BeginTimeordered):
            self.session.begin()
            if self.history is not None:
                self.history.record_timeline(
                    node=getattr(self, "name", "cache"), event="begin",
                    time=self.clock.now(),
                )
            return None
        if isinstance(stmt, ast.EndTimeordered):
            self.session.end()
            if self.history is not None:
                self.history.record_timeline(
                    node=getattr(self, "name", "cache"), event="end",
                    time=self.clock.now(),
                )
            return None
        if isinstance(stmt, ast.Explain):
            return self.explain(stmt, session=session)
        if isinstance(stmt, ast.Select):
            return self._execute_select(
                stmt, sql_text=sql_text, trace=trace, session=session
            )
        if isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
            return self._execute_dml(stmt, session=session)
        if isinstance(stmt, ast.CreateRegion):
            kwargs = {}
            if stmt.heartbeat is not None:
                kwargs["heartbeat_interval"] = stmt.heartbeat
            return self.create_region(stmt.name, stmt.interval, stmt.delay, **kwargs)
        if isinstance(stmt, ast.CreateMatview):
            return self._create_matview_from_ast(stmt)
        raise OptimizerError(f"unsupported statement on the cache: {type(stmt).__name__}")

    def _create_matview_from_ast(self, stmt):
        """CREATE MATERIALIZED VIEW: validate the defining select against
        the prototype's restrictions (single-table projection/selection)."""
        select = stmt.select
        if len(select.from_items) != 1 or not isinstance(select.from_items[0], ast.FromTable):
            raise CatalogError("a materialized view must select from one base table")
        if select.group_by or select.having or select.distinct or select.order_by:
            raise CatalogError(
                "materialized views are projections/selections of one table"
            )
        base = select.from_items[0].name
        base_entry = self.catalog.table(base)
        columns = []
        for item in select.items:
            if item.star:
                columns.extend(base_entry.schema.names())
            elif isinstance(item.expr, ast.ColumnRef):
                columns.append(item.expr.name)
            else:
                raise CatalogError("materialized view items must be plain columns")
        return self.create_matview(
            stmt.name, base, columns, predicate=select.where, region=stmt.region
        )

    # ------------------------------------------------------------------
    # Write path (paper §3 step 5, session-aware)
    # ------------------------------------------------------------------
    def backend_dml(self, stmt):
        """Ship one DML statement to the back-end; returns
        ``(rowcount, commits)`` per :meth:`Backend.execute_dml`.  Fleet
        nodes override this with their retry/breaker network path."""
        return self.backend.execute_dml(stmt)

    def _execute_dml(self, stmt, session=None):
        """Route INSERT/UPDATE/DELETE to the back-end (shard-aware: the
        sharded back-end buckets rows / pins predicates itself), stamp the
        session's commit floor, and account the mutation toward the
        table's statistics-refresh threshold."""
        self.metrics.counter("dml_forwarded_total",
                             help="DML statements forwarded to the back-end").inc()
        rowcount, commits = self.backend_dml(stmt)
        if session is not None and commits:
            session.observe_commit(commits)
        if self.history is not None:
            self.history.record_dml(
                node=getattr(self, "name", "cache"),
                sql=stmt.to_sql() if hasattr(stmt, "to_sql") else repr(stmt),
                time=self.clock.now(),
                table=stmt.table,
                rowcount=rowcount,
                commits=commits,
                session=session.name if session is not None else None,
            )
        self._note_table_mutation(stmt.table, rowcount)
        return rowcount

    def _note_table_mutation(self, table, rowcount):
        """DML must invalidate what it stales: once cache-routed writes
        have churned a meaningful fraction of a table, refresh its
        back-end statistics — which bumps the ddl epoch, so cached plans
        *and* fleet-shared snapshots with now-stale cardinalities are
        dropped everywhere, exactly as DDL would drop them."""
        mods = self._dml_mods.get(table, 0) + max(int(rowcount), 1)
        baseline = 0
        if self.catalog.has_table(table):
            baseline = self.catalog.table(table).stats.row_count
        # The floor is deliberately high: a refresh bumps the *global*
        # ddl epoch (every node drops every cached plan and snapshot),
        # so small-table churn must not wipe the fleet's plan caches on
        # every few dozen rows.
        if mods < max(200, 0.2 * baseline):
            self._dml_mods[table] = mods
            return
        self._dml_mods[table] = 0
        self.backend.refresh_statistics(table)
        self.metrics.counter(
            "auto_stats_refresh_total", labels={"table": table},
            help="write-driven statistics refreshes",
        ).inc()
        # The epoch just moved; resync our own shadow now (peers resync
        # on their next _check_plan_epoch).
        self._check_plan_epoch()

    def _execute_select(self, select, sql_text=None, trace=None, session=None):
        with self._trace_scope(trace) as trace:
            # A text reaches here parsed, after missing the plan cache:
            # compile it into the cache.  The optimize span enrolls in
            # the active trace.
            if sql_text is not None:
                plan = self._compile_plan(sql_text, select)
            else:
                plan = self._optimize_select(select)
            return self._execute_plan(
                plan, sql_text=sql_text, select=select, trace=trace, session=session
            )

    def _plan_history_meta(self, plan):
        """The plan's static history metadata ``(bound, classes)``:
        the tightest finite currency bound of its normalized constraint
        (None: unbounded) and the declared consistency classes as sorted
        base-table name lists.  Memoized on the plan — the recording
        overhead per cached-plan execution is one attribute probe."""
        meta = getattr(plan, "_history_meta", None)
        if meta is None:
            bound = None
            classes = []
            info = getattr(plan, "query_info", None)
            constraint = getattr(info, "constraint", None)
            if constraint is not None:
                for cc_tuple in constraint.tuples:
                    tables = set()
                    for alias in cc_tuple.operands:
                        operand = info.operands.get(alias)
                        tables.add(
                            operand.table_name if operand is not None else alias
                        )
                    classes.append(sorted(tables))
                    if cc_tuple.bound != ast.UNBOUNDED and (
                        bound is None or cc_tuple.bound < bound
                    ):
                        bound = cc_tuple.bound
                classes.sort()
            meta = (bound, classes)
            try:
                plan._history_meta = meta
            except AttributeError:
                pass
        return meta

    def _record_query_history(self, recorder, plan, sql_text, select, result,
                              started, session):
        ctx = result.context
        bound, classes = self._plan_history_meta(plan)
        result.history_qid = recorder.record_query(
            node=getattr(self, "name", "cache"),
            sql=sql_text if sql_text is not None else (
                select.to_sql() if select is not None else plan.summary()
            ),
            time=started,
            bound=bound,
            classes=classes,
            routing=result.routing,
            snapshots=list(ctx.snapshots_used),
            reads=list(ctx.reads),
            branches=[[label, index] for label, index in ctx.branches],
            warnings=len(ctx.warnings),
            remote_queries=len(ctx.remote_queries),
            session=session.name if session is not None else None,
            floors=dict(session.floors) if session is not None else None,
            rows=len(result.rows),
        )

    def _execute_plan(self, plan, sql_text=None, select=None, trace=None, session=None):
        registry = self.metrics
        recorder = self.history
        # Query time is stamped at execution *start*: remote waits inside
        # the run must not count against the snapshots' measured age.
        started = self.clock.now() if recorder is not None else 0.0
        owned = trace is None
        if owned:
            trace = registry.new_trace()
        # NULL_TRACE: skip the span/active-trace ceremony entirely on
        # zero-instrumentation runs (this is the per-query hot path).
        if trace is NULL_TRACE:
            result = self._run_plan(plan, trace, session=session)
        else:
            prev = registry.active_trace
            registry.active_trace = trace
            # mtcache.execute is two clock reads: the trace writes its
            # record when a span nests in it or a reader asks.
            stamps = trace.stamps
            stamps.append({"node": getattr(self, "name", "cache")})
            stamps.append(time.perf_counter())
            try:
                result = self._run_plan(plan, trace, session=session)
            finally:
                stamps.append(None)
                stamps.append(time.perf_counter())
                registry.active_trace = prev
                if owned:
                    self.traces.record(trace)
        ctx = result.context
        if not self._counters_null:
            counter = self._c_queries_by_routing.get(result.routing)
            if counter is None:
                counter = self.metrics.counter(
                    "queries_total", labels={"routing": result.routing},
                    help="SELECTs by run-time routing outcome")
                self._c_queries_by_routing[result.routing] = counter
            counter.inc()
        self.query_log.record(
            QueryLogEntry(
                sql_text if sql_text is not None else select.to_sql(),
                plan.summary() if hasattr(plan, "summary") else "?",
                ctx.branches,
                ctx.remote_queries,
                len(result.rows),
                result.timings.total,
                self.clock.now(),
                ctx.warnings,
            )
        )
        if recorder is not None:
            self._record_query_history(
                recorder, plan, sql_text, select, result, started, session
            )
        return result

    def _run_plan(self, plan, trace, session=None):
        ctx = ExecutionContext(
            clock=self.clock, timeline=self.session, trace=trace, session=session
        )
        if self.history is not None:
            ctx.capture_reads = True
        root = plan.root()
        if isinstance(root, ops.RemoteQuery) and not plan.column_names:
            # Complex shipped query with unknown output shape (e.g. ``*`` of
            # a derived table): execute directly on the back-end.
            backend_result = self.backend.execute(parse(root.sql))
            ctx.record_remote_query(root.sql, len(backend_result.rows))
            result = QueryResult(
                backend_result.columns, backend_result.rows, backend_result.timings, ctx
            )
        else:
            result = self.executor.execute(root, ctx=ctx, column_names=plan.column_names)
        self._observe_timeline(ctx)
        result.plan = plan
        return result

    def explain(self, select, analyze=False, session=None):
        """EXPLAIN on the cache: the plan the optimizer would run, with the
        normalized C&C constraint it enforces.

        With ``analyze=True`` (or ``EXPLAIN ANALYZE`` SQL) the query is
        *executed* on a freshly built, instrumented operator tree and the
        rendering shows estimate-vs-actual rows, loops, batches, wall
        time, fused-pipeline membership, the SwitchUnion branch taken,
        and per-node Q-error (which also feeds the ``cost_model_q_error``
        histogram family).  The fresh tree keeps instrumentation
        wrappers off cached/reused plans; the returned result carries the
        structured per-node records in ``result.analysis``.

        The ``template:`` line says how the statement's text is cached:
        its shape and, per literal slot, ``free`` (bound per statement),
        ``class=<shard>`` (keyed by the shard the value lives on) or
        ``pinned=<value>`` (part of the key: a literal the plan depends
        on, or one the optimizer tried to read) — i.e. which statements
        share this compiled plan.

        Pass a read-your-writes ``session`` to see the session decision:
        each strict-table guard that consulted the session's commit floor
        contributes a ``session guard`` line saying whether the floor was
        already applied locally or forced the remote branch.
        """
        text = None
        if isinstance(select, str):
            text = select
            select = parse(select, registry=self.metrics)
        if isinstance(select, ast.Explain):
            analyze = analyze or select.analyze
            select, text = select.select, select.text
        if analyze or text is None:
            # A fresh plan for exactly this statement (ANALYZE instruments
            # the tree, which a cached one must not be).
            plan = self._optimize_select(select)
        else:
            # The plan executing this text would run, compiled on a miss.
            plan = self._lookup_plan(text) or self._compile_plan(text, select)
        if plan.query_info is not None:
            constraint = plan.query_info.constraint
        else:  # instantiated from a snapshot
            constraint, _ = constraint_from_select(select)
        header = [
            f"summary: {plan.summary()}",
            f"estimated cost: {plan.cost:.1f}",
            f"constraint: {constraint!r}",
            self._plans.describe(text),
        ]
        if not analyze:
            lines = header + plan.explain().splitlines()
            ctx = ExecutionContext(clock=self.clock)
            return QueryResult(["plan"], [(line,) for line in lines], PhaseTimings(), ctx)
        root = plan.root()
        instrument(root)
        # Under the caller's trace when there is one (EXPLAIN ANALYZE via
        # execute()), else an owned one: either way trace_id resolves.
        with self._trace_scope(self.metrics.active_trace) as trace:
            result = self._run_plan(plan, trace, session=session)
        records = analysis_rows(root)
        for record in records:
            if record["q_error"] is not None:
                self.metrics.histogram(
                    "cost_model_q_error", labels={"op": record["op"]},
                    help="max(est/actual, actual/est) cardinality Q-error",
                ).observe(record["q_error"])
        session_lines = [
            f"session guard: {view} -> {outcome}"
            + (f" (source {source} lags the session floor)" if source else
               " (floor already applied)")
            for view, outcome, source in result.context.session_decisions
        ]
        lines = header + [
            f"actual: {len(result.rows)} rows, routing={result.routing}, "
            f"total {result.timings.total * 1e3:.3f}ms",
        ] + session_lines + render_analysis(records)
        out = QueryResult(
            ["plan"], [(line,) for line in lines], result.timings, result.context, plan=plan
        )
        out.analysis = records
        return out

    def status(self):
        """Monitoring snapshot: per-region staleness and view freshness.

        Returns a dict keyed by region cid with the catalog estimates, the
        live heartbeat staleness bound, and each view's snapshot age.
        """
        now = self.clock.now()
        out = {}
        for region in self.catalog.regions():
            agents = self.region_agents(region.cid)
            views = {}
            for name in region.view_names:
                view = self.catalog.matview(name)
                views[name] = {
                    "rows": view.table.row_count,
                    "snapshot_age": now - view.snapshot_time,
                    "applied_txn": view.applied_txn,
                }
                if view.shard_snapshots:
                    views[name]["shard_snapshot_ages"] = {
                        shard: now - t
                        for shard, t in sorted(view.shard_snapshots.items())
                    }
            # The region's bound is its *worst* source: any silent
            # partition (no heartbeat yet) makes the bound unknown.
            bounds = [agent.staleness_bound() for agent in agents]
            bound = None if (not bounds or any(b is None for b in bounds)) else max(bounds)
            out[region.cid] = {
                "update_interval": region.update_interval,
                "update_delay": region.update_delay,
                "staleness_bound": bound,
                "views": views,
            }
        return out

    def _observe_timeline(self, ctx):
        if not self.session.active:
            return
        for snapshot_time in ctx.snapshots_used:
            self.session.observe(snapshot_time)
        if ctx.remote_queries:
            self.session.observe(self.clock.now())

    # ------------------------------------------------------------------
    # Simulation helpers
    # ------------------------------------------------------------------
    def run_for(self, seconds):
        """Advance simulated time (heartbeats, agents)."""
        return self.scheduler.run_for(seconds)

    def __repr__(self):
        return (
            f"<MTCache views={[v.name for v in self.catalog.matviews()]} "
            f"regions={[r.cid for r in self.catalog.regions()]}>"
        )
