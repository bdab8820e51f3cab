"""The cache fleet: N MTCache nodes, one back-end, one front door.

:class:`CacheFleet` owns the nodes, the shared
:class:`~repro.fleet.network.SimulatedNetwork`, and a fleet-level metrics
registry; :class:`FleetRouter` is the front door applications submit SQL
to.  DDL helpers (:meth:`CacheFleet.create_region`,
:meth:`CacheFleet.create_matview`) fan the definition out to every node —
each node gets its *own* currency region (suffixed ``@node``) because the
back-end heartbeat table keys one row per region id, and each node's
agent replicates independently.

Besides routing, the router keeps the simulated-capacity ledger: each
query occupies its node for the wall-clock time it actually took, so
``simulated_makespan()`` reports how long the workload would have taken
with the nodes truly running in parallel.  That is the number the fleet
throughput benchmark compares against a single cache.
"""

from repro.common.errors import FleetStateError
from repro.fleet.config import FleetConfig
from repro.fleet.network import SimulatedNetwork
from repro.fleet.node import FleetNode, NodeLifecycle
from repro.fleet.routing import bound_from_sql, make_policy
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.trace import TraceLog
from repro.plan.store import PlanSnapshotStore

#: Floor on a query's simulated service time, so zero-cost results still
#: occupy their node for a tick.
_MIN_SERVICE = 1e-6


class FleetRouter:
    """Routes queries to nodes according to a pluggable policy.

    Every statement goes to one node.  A select that spans several
    shards needs no splitting here: the node's plan reads them in one
    pass under a guard over the contributing shards, so the result is as
    current as its stalest shard (per-shard C&C).
    """

    def __init__(self, fleet, policy="round_robin"):
        self.fleet = fleet
        self.policy = make_policy(policy)

    def set_policy(self, policy):
        self.policy = make_policy(policy)
        return self.policy

    def route(self, sql, bound=None):
        """Pick the node for one statement (no execution).

        Lifecycle-aware: crashed and draining nodes never receive
        queries, and WARMING nodes (just restarted, caches cold) are
        only eligible when no fully-UP node exists.  With every node
        out of rotation, routing fails fast with
        :class:`~repro.common.errors.FleetStateError` instead of
        handing a query to a dead node.
        """
        if bound is None:
            bound = bound_from_sql(sql)
        nodes = self.fleet.nodes
        up = [n for n in nodes if n.lifecycle is NodeLifecycle.UP]
        candidates = up or [n for n in nodes if n.accepting]
        if not candidates:
            states = {n.name: n.lifecycle.value for n in nodes}
            raise FleetStateError(f"no fleet node accepting queries: {states}")
        return self.policy.choose(candidates, bound=bound)

    def execute(self, sql, bound=None, session=None):
        """Route and execute one statement: charge the capacity ledger,
        record the query's trace tree and annotate the result with the
        serving node's name (``result.node``).  A read-your-writes
        ``session`` rides along to whichever node the policy picks —
        tokens are keyed by replication source, so the floor means the
        same thing on every node.

        The router is the tier that first sees the query, so it creates
        the query's :class:`~repro.obs.trace.TraceContext` here and passes
        it down: the node's parse/optimize/execute spans and any simulated
        network calls all land in one tree, recorded in ``fleet.traces``.
        """
        fleet = self.fleet
        trace = fleet.metrics.new_trace()
        span = (
            trace.open("fleet.route", {"policy": self.policy.name})
            if trace else None
        )
        try:
            node = self.route(sql, bound=bound)
            if span is not None:
                trace.annotate(span, "node", node.name)
            fleet.metrics.counter(
                "fleet_routed_total",
                labels={"node": node.name, "policy": self.policy.name},
                help="queries routed, by node and policy",
            ).inc()
            node.inflight += 1
            node.queries_routed += 1
            start = max(fleet.clock.now(), node.busy_until)
            try:
                result = node.execute(
                    sql, trace=trace if trace else None, session=session
                )
            finally:
                node.inflight -= 1
        finally:
            if span is not None:
                trace.close(span)
            fleet.traces.record(trace)
        timings = getattr(result, "timings", None)
        service = max(timings.total if timings is not None else 0.0, _MIN_SERVICE)
        node.busy_until = start + service
        node.busy_seconds += service
        staleness = fleet.max_staleness()
        if staleness is not None:
            fleet.metrics.gauge(
                "fleet_region_staleness_max_seconds",
                help="worst region staleness bound across the fleet",
            ).set(staleness)
        if hasattr(result, "rows"):
            result.node = node.name
        return result


class CacheFleet:
    """N cache nodes over one shared back-end.

    Keyword knobs:

    * ``policy`` — routing policy name/instance (``round_robin``,
      ``least_loaded``, ``staleness_aware``);
    * ``network`` — a preconfigured :class:`SimulatedNetwork` (default: a
      fault-free one on the back-end's clock and scheduler);
    * ``metrics`` — the fleet-level registry (routing, retries, breaker
      state); each node still owns its per-node registry;
    * breaker tuning (``failure_threshold``, ``reset_timeout``,
      ``max_remote_wait``) is applied to every node;
    * remaining keyword arguments (``fallback_policy``, ``plan_cache_size``, ...)
      are forwarded to each :class:`FleetNode`/MTCache.

    Instead of a backend + knobs, the first argument may be a
    :class:`~repro.fleet.config.FleetConfig` — the fleet then builds its
    own back-end (sharded when ``config.partitions > 1``) and takes every
    unspecified knob from the config (see :meth:`from_config`).
    """

    @classmethod
    def from_config(cls, config):
        """Build the fleet (and its back-end) from a
        :class:`~repro.fleet.config.FleetConfig`."""
        return cls(config)

    def __init__(self, backend, n_nodes=None, *, names=None, policy=None,
                 network=None, metrics=None, failure_threshold=None,
                 reset_timeout=None, max_remote_wait=None,
                 restart_defer_epsilon=None, record_history=None,
                 **node_kwargs):
        config = backend if isinstance(backend, FleetConfig) else None
        if config is not None:
            backend = config.resolve_backend()
            node_kwargs = {**config.node_kwargs, **node_kwargs}
        defaults = config if config is not None else FleetConfig()
        n_nodes = defaults.nodes if n_nodes is None else n_nodes
        names = defaults.names if names is None else names
        policy = defaults.policy if policy is None else policy
        network = defaults.network if network is None else network
        metrics = defaults.metrics if metrics is None else metrics
        failure_threshold = (
            defaults.failure_threshold if failure_threshold is None
            else failure_threshold
        )
        reset_timeout = (
            defaults.reset_timeout if reset_timeout is None else reset_timeout
        )
        max_remote_wait = (
            defaults.max_remote_wait if max_remote_wait is None
            else max_remote_wait
        )
        restart_defer_epsilon = (
            defaults.restart_defer_epsilon if restart_defer_epsilon is None
            else restart_defer_epsilon
        )
        record_history = (
            defaults.record_history if record_history is None
            else record_history
        )
        if names is None:
            names = [f"node{i}" for i in range(n_nodes)]
        if not names:
            raise ValueError("a fleet needs at least one node")
        self.backend = backend
        self.clock = backend.clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if network is None:
            network = SimulatedNetwork(
                backend.clock, backend.scheduler, registry=self.metrics
            )
        elif isinstance(network.registry, NullRegistry):
            # A hand-built network without its own registry reports into
            # the fleet's.
            network.registry = self.metrics
        self.network = network
        # A registry-less back-end reports into the fleet's too, so shard
        # crash/promotion events land in the same event log the chaos
        # history and the certifier read.
        if isinstance(getattr(backend, "metrics", None), NullRegistry):
            backend.metrics = self.metrics
        # Shard-role availability (a fenced primary awaiting promotion)
        # counts as network unavailability for every node.
        if getattr(backend, "replica_count", 0) > 0 or hasattr(backend, "shard_is_down"):
            network.role_faults = backend.shards_available
        #: Fleet-shared precompiled-plan snapshot store: the first node to
        #: optimize a statement publishes; identically-configured peers
        #: instantiate without re-parse/re-optimize (see repro.plan).
        self.snapshot_store = node_kwargs.pop(
            "snapshot_store", PlanSnapshotStore(backend.clock)
        )
        self.nodes = [
            FleetNode(
                name, backend, network,
                fleet_metrics=self.metrics,
                failure_threshold=failure_threshold,
                reset_timeout=reset_timeout,
                max_remote_wait=max_remote_wait,
                restart_defer_epsilon=restart_defer_epsilon,
                snapshot_store=self.snapshot_store,
                **node_kwargs,
            )
            for name in names
        ]
        if hasattr(backend, "add_promotion_listener"):
            backend.add_promotion_listener(self._on_promotion)
        self.router = FleetRouter(self, policy)
        #: Recent end-to-end query traces (router → node → network), for
        #: the CLI's ``\trace`` and post-mortem inspection.
        self.traces = TraceLog(128)
        self.regions = {}  # base cid -> {node name: per-node cid}
        self._epoch = self.clock.now()
        #: Optional shared history recorder (repro.history), None when
        #: recording is off.
        self.history = None
        if record_history:
            from repro.history.recorder import HistoryRecorder

            self.attach_history(
                record_history
                if isinstance(record_history, HistoryRecorder)
                else HistoryRecorder()
            )

    def _on_promotion(self, info):
        """Re-resolve the cache tier onto a freshly promoted shard
        primary: every agent tailing the dead primary's log re-binds to
        the new one's (the replica's log is a prefix-consistent copy, so
        agent checkpoints stay valid), and fleet-shared plan snapshots
        are dropped — they may embed placements chosen against the dead
        server's statistics."""
        shard = info["shard"]
        for node in self.nodes:
            for agent in node.agents.values():
                if getattr(agent, "shard_id", None) == shard:
                    agent.rebind(info["catalog"], info["log"])
        self.snapshot_store.invalidate(reason="shard-promotion")

    def attach_history(self, recorder):
        """Share one :class:`~repro.history.recorder.HistoryRecorder`
        across the whole deployment: commit observers on every
        replication source, the fleet event log's sink, and every node's
        per-query capture.  Returns the recorder."""
        self.history = recorder
        recorder.attach_backend(self.backend)
        recorder.attach_events(self.metrics)
        for node in self.nodes:
            node.history = recorder
        return recorder

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def node(self, name):
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no fleet node named {name!r}")

    def region_cid(self, cid, node):
        """The per-node region id for base region ``cid`` on ``node``."""
        name = node if isinstance(node, str) else node.name
        return f"{cid}@{name}"

    # ------------------------------------------------------------------
    # Fleet-wide DDL
    # ------------------------------------------------------------------
    def create_region(self, cid, update_interval, update_delay, heartbeat_interval=2.0):
        """Create region ``cid`` on every node (as ``cid@node``)."""
        created = {}
        for node in self.nodes:
            node_cid = self.region_cid(cid, node)
            node.create_region(
                node_cid, update_interval, update_delay,
                heartbeat_interval=heartbeat_interval,
            )
            created[node.name] = node_cid
        self.regions[cid] = created
        return created

    def create_matview(self, name, base_table, columns, predicate=None, region=None):
        """Define the view on every node, in that node's copy of ``region``."""
        if region not in self.regions:
            raise KeyError(f"unknown fleet region {region!r}; create_region first")
        views = {}
        for node in self.nodes:
            views[node.name] = node.create_matview(
                name, base_table, columns,
                predicate=predicate, region=self.regions[region][node.name],
            )
        return views

    def declare_table_consistency(self, table, mode):
        """Declare a base table ``strict``/``relaxed`` on every node.

        Strictness shapes guard construction and the snapshot
        fingerprint, so the declaration must be fleet-uniform — a session
        token is only honored if whichever node serves the read knows the
        table is strict.
        """
        for node in self.nodes:
            node.declare_table_consistency(table, mode)
        return mode

    def alter_region(self, cid, update_interval=None, update_delay=None):
        """Reconfigure region ``cid``'s currency parameters on every node.

        Each node's :meth:`~repro.cache.mtcache.MTCache.alter_region`
        invalidates its plan cache and the shared snapshot store — the
        parameters feed plan choice and the snapshot fingerprint.
        """
        if cid not in self.regions:
            raise KeyError(f"unknown fleet region {cid!r}")
        altered = {}
        for node in self.nodes:
            altered[node.name] = node.alter_region(
                self.regions[cid][node.name],
                update_interval=update_interval,
                update_delay=update_delay,
            )
        return altered

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def crash_node(self, name):
        """Kill one node (in-memory state lost; router skips it)."""
        node = self.node(name)
        node.crash()
        # Topology change: snapshots may embed guards/placements chosen
        # under the old fleet shape — drop them rather than reason about
        # which survive.
        self.snapshot_store.invalidate(reason="node-crash")
        return node

    def restart_node(self, name, warmup=None):
        """Cold-restart a crashed node (deferred if its link is down)."""
        node = self.node(name)
        node.restart(warmup=warmup)
        self.snapshot_store.invalidate(reason="node-restart")
        return node

    def drain_node(self, name):
        """Quiesce one node (no new queries; caches stay warm)."""
        node = self.node(name)
        node.drain()
        return node

    def resume_node(self, name):
        """Put a drained node back into rotation."""
        node = self.node(name)
        node.resume()
        return node

    # ------------------------------------------------------------------
    # Query entry point
    # ------------------------------------------------------------------
    def execute(self, sql, bound=None, session=None):
        """Route one statement through the front door."""
        return self.router.execute(sql, bound=bound, session=session)

    def run_for(self, seconds):
        """Advance simulated time (shared scheduler: heartbeats, agents
        of every node)."""
        return self.backend.run_for(seconds)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def max_staleness(self):
        """Worst staleness bound across the whole fleet (None: unknown)."""
        worst = None
        for node in self.nodes:
            staleness = node.max_staleness()
            if staleness is None:
                return None
            if worst is None or staleness > worst:
                worst = staleness
        return worst

    def reset_load(self):
        """Restart the simulated-capacity ledger (between benchmark runs)."""
        now = self.clock.now()
        self._epoch = now
        for node in self.nodes:
            node.busy_until = now
            node.busy_seconds = 0.0

    def simulated_makespan(self):
        """How long the routed workload kept the fleet busy, had the nodes
        truly run in parallel: latest node-finish time minus the epoch."""
        finish = max((node.busy_until for node in self.nodes), default=self._epoch)
        return max(finish - self._epoch, 0.0)

    def slo_report(self):
        """Currency-SLO scorecard for the whole fleet.

        Answers the operator's question — *are the bounds we promised
        actually being met, and with how much room?* — from the metrics
        the guards already record:

        * ``slack`` — per node, per region: the ``B - d`` distribution at
          guard evaluation (:meth:`Histogram.summary`), plus a
          ``bound_missed`` flag when the worst observed slack was
          negative.  Stalled agents show up as this distribution sliding
          toward (and past) zero.
        * ``guard_outcomes`` — per node: local / remote / stale (and,
          once one happened, degraded) serve counts from
          ``currency_guard_region_total``.
        * ``session_guards`` — per node: session-floor check outcomes
          (``local`` / ``remote``) from ``session_guard_total`` — how
          often read-your-writes tokens forced a routing decision.
        * ``degraded`` — stale serves forced by back-end unavailability.
        * ``deferred_restarts`` — per node: restarts that had to wait out
          an unreachable back-end (each with its scheduled retry time).
        * ``routing`` — queries by serving node.
        * ``breaker_transitions`` — per node, by target state.
        * ``events`` — fleet + node event-log counts by kind.
        """
        slack = {}
        outcomes = {}
        session_guards = {}
        events = dict(self.metrics.events.counts_by_kind())
        for node in self.nodes:
            reg = node.metrics
            per_region = {}
            for key, hist in sorted(reg.family("currency_slack_seconds").items()):
                labels = dict(key)
                summary = hist.summary()
                summary["bound_missed"] = hist.count > 0 and summary["min"] < 0
                per_region[labels.get("region", "-")] = summary
            if per_region:
                slack[node.name] = per_region
            node_outcomes = {}
            for key, counter in sorted(reg.family("currency_guard_region_total").items()):
                labels = dict(key)
                outcome = labels.get("outcome", "-")
                node_outcomes[outcome] = node_outcomes.get(outcome, 0) + counter.value
            if node_outcomes:
                outcomes[node.name] = node_outcomes
            node_session = {}
            for key, counter in sorted(reg.family("session_guard_total").items()):
                labels = dict(key)
                outcome = labels.get("outcome", "-")
                node_session[outcome] = node_session.get(outcome, 0) + counter.value
            if node_session:
                session_guards[node.name] = node_session
            for kind, n in reg.events.counts_by_kind().items():
                events[kind] = events.get(kind, 0) + n
        routing = {}
        for key, counter in self.metrics.family("fleet_routed_total").items():
            labels = dict(key)
            name = labels.get("node", "-")
            routing[name] = routing.get(name, 0) + counter.value
        degraded = sum(
            counter.value
            for counter in self.metrics.family("fleet_degraded_total").values()
        )
        breakers = {}
        for key, counter in self.metrics.family("fleet_breaker_transitions_total").items():
            labels = dict(key)
            breakers.setdefault(labels.get("node", "-"), {})[labels.get("to", "-")] = (
                counter.value
            )
        deferred = {
            node.name: [dict(d) for d in node.restart_deferrals]
            for node in self.nodes if node.restart_deferrals
        }
        return {
            "slack": slack,
            "guard_outcomes": outcomes,
            "session_guards": session_guards,
            "degraded": degraded,
            "deferred_restarts": deferred,
            "routing": routing,
            "breaker_transitions": breakers,
            "events": events,
        }

    def snapshot_metrics(self):
        """Fleet and per-node registry snapshots under node-labelled keys:
        ``{"fleet": {...}, "node0": {...}, ...}``."""
        out = {"fleet": self.metrics.snapshot()}
        for node in self.nodes:
            out[node.name] = node.metrics.snapshot()
        return out

    def status(self):
        """Monitoring snapshot for the CLI's ``\\fleet`` command."""
        nodes = {}
        for node in self.nodes:
            window = node.query_log.summary()
            nodes[node.name] = {
                "routed": node.queries_routed,
                "inflight": node.inflight,
                "lifecycle": node.lifecycle.value,
                "breaker": node.breaker.state.value,
                "staleness": node.max_staleness(),
                "local_fraction": window["local_fraction"],
                "busy_seconds": node.busy_seconds,
            }
        now = self.clock.now()
        return {
            "policy": self.router.policy.name,
            "backend": self.backend.describe_topology(),
            "nodes": nodes,
            "network": {
                "latency": self.network.latency,
                "drop_rate": self.network.drop_rate,
                "outage_active": not self.network.backend_available(now),
                "agents_stalled": self.network.agents_stalled(now=now),
                "partitioned": self.network.partitioned_nodes(now),
            },
        }

    def __repr__(self):
        return (
            f"<CacheFleet nodes={[n.name for n in self.nodes]} "
            f"policy={self.router.policy.name}>"
        )
