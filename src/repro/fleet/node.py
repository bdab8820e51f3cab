"""One cache node of a fleet: an MTCache behind a simulated network.

:class:`FleetNode` extends :class:`~repro.cache.mtcache.MTCache` with the
three things a fleet member needs:

* every back-end call goes through the shared
  :class:`~repro.fleet.network.SimulatedNetwork` with retry + exponential
  backoff, feeding a per-node :class:`~repro.fleet.breaker.CircuitBreaker`;
* currency guards become *availability-aware*: :meth:`remote_state`
  tells :func:`~repro.cache.guard.decide` when the remote branch it
  wants is unreachable (outage window or open breaker), and the node
  degrades instead of erroring — it serves the local (stale) rows with a
  ``degraded:`` warning; nodes configured with the ``error`` policy
  already abort at the guard and never reach this path;
* its distribution agents honor injected stall windows, so experiments
  can let one node's regions fall behind the rest of the fleet.

Remote-only plans (currency bound 0, shipped subqueries) have no local
branch to degrade to; those calls *ride out* short outages by retrying on
the simulated clock — waiting out breaker cooldowns — up to
``max_remote_wait`` simulated seconds before the failure propagates.
"""

import enum
import random

from repro.cache.mtcache import MTCache
from repro.common.errors import CircuitOpenError, FleetStateError, NetworkError
from repro.fleet.breaker import BreakerState, CircuitBreaker
from repro.obs.metrics import NULL_REGISTRY
from repro.replication.failover import AgentSupervisor

#: Default slack added past a covering outage window before a deferred
#: restart retries.  Configurable per fleet via
#: :attr:`~repro.fleet.config.FleetConfig.restart_defer_epsilon`.
RESTART_DEFER_EPSILON = 1e-3

#: Retry cadence for deferred restarts whose unavailability has no
#: scheduled end (a fenced shard primary awaiting promotion, rather than
#: an outage window with a known close).  Polling at the epsilon alone
#: would spin the scheduler once per millisecond for the whole window.
RESTART_RETRY_INTERVAL = 0.5


class NodeLifecycle(enum.Enum):
    """Where one fleet node is in its crash/recovery life.

    * **UP** — serving normally.
    * **DRAINING** — quiesced: refuses new queries, keeps its data warm.
    * **CRASHED** — process gone: in-memory views, plan cache and local
      heartbeats are lost; the router skips it entirely.
    * **WARMING** — restarted and rebuilt, but treated as degraded by the
      router until the warm-up window ends.
    """

    UP = "up"
    DRAINING = "draining"
    CRASHED = "crashed"
    WARMING = "warming"


class FleetNode(MTCache):
    """An MTCache that reaches its back-end over a simulated network."""

    def __init__(self, name, backend, network, *, fleet_metrics=None,
                 failure_threshold=3, reset_timeout=5.0, max_remote_wait=60.0,
                 retry_backoff=0.25, retry_backoff_cap=8.0,
                 restart_defer_epsilon=None, warmup_seconds=2.0,
                 failover_threshold=None, failover_check_interval=None,
                 **mtcache_kwargs):
        self.name = name
        self.network = network
        self.fleet_metrics = fleet_metrics if fleet_metrics is not None else NULL_REGISTRY
        self.breaker = CircuitBreaker(
            backend.clock,
            failure_threshold=failure_threshold,
            reset_timeout=reset_timeout,
            registry=self.fleet_metrics,
            name=name,
        )
        #: Ceiling (simulated seconds) a remote-only call may spend riding
        #: out drops, outages and breaker cooldowns before giving up.
        self.max_remote_wait = max_remote_wait
        #: Base and ceiling of the capped exponential retry backoff.
        self.retry_backoff = retry_backoff
        self.retry_backoff_cap = retry_backoff_cap
        #: Slack past a covering outage window before a deferred restart
        #: retries (None: the module default).
        self.restart_defer_epsilon = (
            RESTART_DEFER_EPSILON if restart_defer_epsilon is None
            else restart_defer_epsilon
        )
        #: Deterministic per-node jitter source for retry backoff: seeded
        #: from the network seed + node name (never the wall clock), so a
        #: chaos history replays byte-identically under the same seed.
        self._backoff_rng = random.Random(
            f"backoff:{getattr(network, 'seed', 0)}:{name}"
        )
        #: Deferred-restart records ({"time", "retry_at"}), in order —
        #: surfaced by the fleet's ``slo_report()``.
        self.restart_deferrals = []
        #: How long a restarted node stays WARMING before the router
        #: treats it as a full peer again.
        self.warmup_seconds = warmup_seconds
        #: Stalled-agent failover: promote a standby once a region's agent
        #: makes no progress for this many simulated seconds (None: off).
        self.failover_threshold = failover_threshold
        self.failover_check_interval = failover_check_interval
        self.supervisors = {}  # cid -> AgentSupervisor
        self._lifecycle = NodeLifecycle.UP
        self._warm_event = None
        #: Router bookkeeping (FleetRouter maintains these).
        self.inflight = 0
        self.queries_routed = 0
        self.busy_until = 0.0
        self.busy_seconds = 0.0
        super().__init__(backend, **mtcache_kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def lifecycle(self):
        return self._lifecycle

    @property
    def accepting(self):
        """May the router send this node new queries right now?"""
        return self._lifecycle in (NodeLifecycle.UP, NodeLifecycle.WARMING)

    def _lifecycle_event(self, state, message, severity="info"):
        self._lifecycle = state
        now = self.clock.now()
        self.fleet_metrics.counter(
            "fleet_node_lifecycle_total",
            labels={"node": self.name, "state": state.value},
            help="node lifecycle transitions by target state",
        ).inc()
        self.fleet_metrics.event(
            "lifecycle", message, severity=severity, time=now,
            node=self.name, state=state.value,
        )

    def _cancel_warmup(self):
        if self._warm_event is not None:
            self._warm_event.cancel()
            self._warm_event = None

    def crash(self):
        """Kill the node: everything in memory is lost.

        Materialized views, the plan cache, the query log and the local
        heartbeat tables vanish; agents and supervisors stop mid-flight.
        The durable pieces — catalog definitions and the agent checkpoint
        store — survive for :meth:`restart` to rebuild from.
        """
        if self._lifecycle is NodeLifecycle.CRASHED:
            raise FleetStateError(f"node {self.name} is already crashed")
        self._cancel_warmup()
        for supervisor in self.supervisors.values():
            supervisor.stop()
        for agent in self.agents.values():
            agent.stop()
        for view in self.catalog.matviews():
            view.table.truncate()
            view.applied_txn = 0
            view.snapshot_time = 0.0
            view.shard_snapshots.clear()
        for heartbeat in self._local_heartbeats.values():
            heartbeat.truncate()
        self.invalidate_plans()
        self.query_log.clear()
        # A fresh process starts with a fresh (closed) breaker.
        self.breaker.state = BreakerState.CLOSED
        self.breaker.failures = 0
        self.breaker.opened_at = None
        self._lifecycle_event(
            NodeLifecycle.CRASHED,
            f"{self.name} crashed: views, plan cache and heartbeats lost",
            severity="error",
        )

    def restart(self, warmup=None):
        """Cold-restart a crashed node and begin warming it up.

        Rebuild order per region: a fresh agent re-registers against the
        region, re-subscribes every view (repopulating from the back-end
        and replaying the replication-log tail), checkpoints, and resumes
        its propagation cadence.  The node then serves as WARMING —
        degraded in the router's eyes — until ``warmup`` (default
        ``warmup_seconds``) simulated seconds pass.

        The rebuild needs the back-end: when this node's link is cut
        (outage or partition), the restart is deferred to just after the
        covering window ends and False is returned.
        """
        if self._lifecycle is not NodeLifecycle.CRASHED:
            raise FleetStateError(
                f"node {self.name} is {self._lifecycle.value}, not crashed"
            )
        warmup = self.warmup_seconds if warmup is None else warmup
        if not self.network.backend_available(node=self.name):
            now = self.clock.now()
            ends = self.network.outage_ends_at(node=self.name)
            if ends is not None:
                retry_at = ends + self.restart_defer_epsilon
            else:
                # Unavailability with no scheduled end (a fenced shard
                # primary awaiting promotion): poll at a bounded cadence.
                retry_at = now + RESTART_RETRY_INTERVAL
            self.restart_deferrals.append({"time": now, "retry_at": retry_at})
            self.fleet_metrics.counter(
                "fleet_restart_deferrals_total", labels={"node": self.name},
                help="restarts deferred because the back-end was unreachable",
            ).inc()
            self.fleet_metrics.event(
                "lifecycle",
                f"{self.name} restart deferred to t={retry_at:g}: "
                f"back-end unreachable", severity="warning",
                time=now, node=self.name, state="restart_deferred",
                retry_at=retry_at,
            )
            self.scheduler.at(
                retry_at,
                lambda: self.restart(warmup=warmup)
                if self._lifecycle is NodeLifecycle.CRASHED else None,
                name=f"restart:{self.name}",
            )
            return False
        self._lifecycle_event(
            NodeLifecycle.WARMING,
            f"{self.name} restarting: cold-cache rebuild begins",
        )
        for region in self.catalog.regions():
            self._rebuild_region(region)
        self.fleet_metrics.counter(
            "fleet_node_restarts_total", labels={"node": self.name},
            help="cold restarts completed",
        ).inc()
        self._warm_event = self.scheduler.after(
            warmup, self._complete_warmup, name=f"warmup:{self.name}"
        )
        return True

    def _rebuild_region(self, region):
        """One region's cold rebuild: fresh agents, re-subscribed views.

        One agent per replication source; the views were truncated by the
        crash, so each source agent re-populates its partition's slice
        without wiping its siblings' (``truncate=False``).
        """
        keys = []
        for source in self.backend.replication_sources():
            key = self._agent_key(region.cid, source.shard_id)
            agent = self.build_agent(region, source.catalog, source.log, source.shard_id)
            for view_name in region.view_names:
                agent.subscribe(self.catalog.matview(view_name), truncate=False)
            self.network.wrap_agent(agent, node=self.name, shard=source.shard_id)
            agent.start(self.scheduler, interval=region.update_interval)
            self.agents[key] = agent
            keys.append((source.shard_id, key))
        self._region_agent_keys[region.cid] = keys
        for _, key in keys:
            self._start_supervisor(key)

    def _complete_warmup(self):
        self._warm_event = None
        if self._lifecycle is NodeLifecycle.WARMING:
            self._lifecycle_event(
                NodeLifecycle.UP, f"{self.name} warmed up: serving normally"
            )

    def drain(self):
        """Quiesce: stop accepting new queries, keep the caches warm.

        Returns the number of queries still in flight (always 0 in the
        discrete-time simulation — queries complete within their tick)."""
        if self._lifecycle is NodeLifecycle.CRASHED:
            raise FleetStateError(f"cannot drain crashed node {self.name}")
        self._cancel_warmup()
        self._lifecycle_event(
            NodeLifecycle.DRAINING, f"{self.name} draining: refusing new queries"
        )
        return self.inflight

    def resume(self):
        """Put a drained node back into rotation."""
        if self._lifecycle is not NodeLifecycle.DRAINING:
            raise FleetStateError(
                f"node {self.name} is {self._lifecycle.value}, not draining"
            )
        self._lifecycle_event(NodeLifecycle.UP, f"{self.name} resumed")

    def _start_supervisor(self, cid):
        if self.failover_threshold is None:
            return None
        supervisor = AgentSupervisor(
            self, cid,
            stall_threshold=self.failover_threshold,
            check_interval=self.failover_check_interval,
            registry=self.fleet_metrics, node=self.name,
        )
        supervisor.start(self.scheduler)
        self.supervisors[cid] = supervisor
        return supervisor

    # ------------------------------------------------------------------
    # Back-end access
    # ------------------------------------------------------------------
    def _backend_call(self, fn, *args, shards=None):
        """Back-end call with retry/backoff over the simulated network.

        Failed attempts feed the circuit breaker; an open breaker is
        waited out on the simulated clock (modelling client retry-after)
        rather than busy-looped.  Gives up — re-raising the last network
        error — once ``max_remote_wait`` simulated seconds have passed.
        Retrying is safe for DML too: the simulated network raises its
        faults *before* invoking ``fn``, so a failed attempt never
        reached the back-end.
        """
        clock = self.clock
        deadline = clock.now() + self.max_remote_wait
        attempt = 0
        while True:
            if not self.breaker.available():
                wait = min(self.breaker.retry_at, deadline) - clock.now()
                if wait > 0:
                    self.network.sleep(wait)
                if clock.now() >= deadline and not self.breaker.available():
                    raise CircuitOpenError(
                        f"breaker open on {self.name}: back-end calls refused"
                    )
                continue
            try:
                out = self.network.call(
                    fn, *args, node=self.name,
                    shards=shards, trace=self.metrics.active_trace,
                )
            except NetworkError as exc:
                self.breaker.record_failure()
                attempt += 1
                self.fleet_metrics.counter(
                    "fleet_remote_retries_total",
                    labels={"node": self.name, "reason": exc.reason},
                    help="failed back-end attempts that were retried",
                ).inc()
                if clock.now() >= deadline:
                    raise
                if self.breaker.available():
                    # Capped exponential backoff with deterministic seeded
                    # jitter between attempts while closed; an open
                    # breaker's cooldown paces us instead.  The jitter rng
                    # is a pure function of (network seed, node name), so
                    # identical seeds replay identical sleeps.
                    delay = min(
                        self.retry_backoff_cap,
                        self.retry_backoff * (2.0 ** (attempt - 1)),
                    ) * (0.5 + 0.5 * self._backoff_rng.random())
                    self.fleet_metrics.counter(
                        "fleet_remote_backoff_seconds_total",
                        labels={"node": self.name},
                        help="simulated seconds slept in remote retry backoff",
                    ).inc(delay)
                    self.network.sleep(delay)
                continue
            self.breaker.record_success()
            return out

    def remote_executor(self, sql, shards=None):
        """Rows-only back-end endpoint for RemoteQuery operators."""
        return self._backend_call(
            self.backend.execute_remote, sql, shards, shards=shards
        )

    def backend_dml(self, stmt):
        """Ship DML to the back-end through the node's network path, so
        writes see the same faults, retries and breaker as reads.

        The statement's shard pin (when the back-end can compute one)
        scopes the availability check: a write to a healthy shard is not
        blocked by another shard's failover, while a write to the fenced
        shard itself retries until its replica is promoted.
        """
        shards = self.backend.dml_shards(stmt)
        pin = None if shards is None else tuple(shards)
        return self._backend_call(self.backend.execute_dml, stmt, shards=pin)

    # ------------------------------------------------------------------
    # Availability, as currency guards see it (repro.cache.guard.decide)
    # ------------------------------------------------------------------
    def remote_state(self, shards=None):
        """Would a remote call to ``shards`` (None: all) have a chance
        right now?  ``"up"``; ``"failover"`` when one has its primary
        fenced awaiting promotion; else ``"unreachable"`` (an outage
        window or an open breaker)."""
        if (self.network.backend_available(node=self.name, shards=shards)
                and self.breaker.available()):
            return "up"
        return "unreachable" if self.backend.shards_available(shards) else "failover"

    def _count_guard_fallback(self, view, decision):
        """Fleet counters for a guard whose remote branch was down: a
        strict read riding out a failover (the retry loop waits for the
        promotion, whose new primary covers the floor), or a degraded
        serve of the local copy."""
        if decision.branch == "remote":
            self.fleet_metrics.counter(
                "fleet_failover_blocked_total",
                labels={
                    "node": self.name,
                    "reason": "strict" if decision.lagging_source is None
                    else "session_floor",
                },
                help="reads that rode out a shard failover instead of degrading",
            ).inc()
            return
        self.fleet_metrics.counter(
            "fleet_degraded_total",
            labels={"node": self.name, "policy": self.fallback_policy},
            help="queries served stale because the back-end was down",
        ).inc()
        if decision.remote_state == "failover":
            self.fleet_metrics.counter(
                "fleet_failover_degraded_total",
                labels={"node": self.name, "view": view.name},
                help="relaxed reads served within-bound from the "
                     "local copy during a shard failover",
            ).inc()

    # ------------------------------------------------------------------
    # Replication under the network
    # ------------------------------------------------------------------
    def create_region(self, cid, update_interval, update_delay, heartbeat_interval=2.0):
        region = super().create_region(
            cid, update_interval, update_delay, heartbeat_interval=heartbeat_interval
        )
        # Route each agent's wakes through the network's stall windows;
        # the scheduler captured the unwrapped bound method, so restart.
        for shard_id, key in self._region_agent_keys[cid]:
            agent = self.agents[key]
            self.network.wrap_agent(agent, node=self.name, shard=shard_id)
            agent.start(self.scheduler, interval=update_interval)
            self._start_supervisor(key)
        return region

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def max_staleness(self):
        """Worst guaranteed staleness bound across this node's regions.

        None when any region has not seen a heartbeat yet (unknown is
        treated as infinitely stale by the staleness-aware router).
        """
        worst = None
        for agent in self.agents.values():
            bound = agent.staleness_bound()
            if bound is None:
                return None
            if worst is None or bound > worst:
                worst = bound
        return worst

    def __repr__(self):
        return (
            f"<FleetNode {self.name} breaker={self.breaker.state.value} "
            f"routed={self.queries_routed}>"
        )
