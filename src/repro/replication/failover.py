"""Standby promotion for stalled distribution agents.

A region's data only stays inside its currency bound while its agent
keeps waking up; an agent that dies (or is stalled by an injected fault)
lets the region drift arbitrarily stale.  :class:`AgentSupervisor`
watches one region's primary agent on the simulated clock and, when the
agent has made no propagation progress for longer than
``stall_threshold`` seconds, promotes a **standby**: a fresh
:class:`~repro.replication.agent.DistributionAgent` that adopts the same
subscriptions and local heartbeat table, resumes from the durable
:class:`~repro.replication.checkpoint.CheckpointStore` cutoff, and
replays the log suffix idempotently — no row is double-applied even when
the checkpoint lags what the dead primary had applied.

The promoted agent is registered under the owning cache's ``agents``
dict (so guards, status and metrics follow it) and is *not* routed
through the network's stall windows: promotion models failing over to a
healthy host, which is the only reason to promote at all.
"""

from repro.obs.metrics import NULL_REGISTRY

__all__ = ["AgentSupervisor"]


class AgentSupervisor:
    """Watches one region's agent; promotes a standby when it stalls."""

    def __init__(self, cache, cid, *, stall_threshold, check_interval=None,
                 registry=None, node=""):
        self.cache = cache
        #: The supervised agent's key in ``cache.agents``: the region cid,
        #: or ``"{cid}#p{shard}"`` for one partition agent of a sharded
        #: region (each shard agent gets its own supervisor).
        self.cid = cid
        self.stall_threshold = stall_threshold
        agent = cache.agents.get(cid)
        region = agent.region if agent is not None else cache.catalog.region(cid)
        self.check_interval = (
            check_interval if check_interval is not None
            else region.update_interval
        )
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.node = node
        self.promotions = 0
        self._event = None

    # ------------------------------------------------------------------
    def start(self, scheduler=None):
        scheduler = scheduler if scheduler is not None else self.cache.scheduler
        if self._event is not None:
            self._event.cancel()
        self._event = scheduler.every(
            self.check_interval, self.check, name=f"supervisor:{self.cid}"
        )
        return self._event

    def stop(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None

    # ------------------------------------------------------------------
    def check(self):
        """One health probe: promote if the primary stalled too long."""
        agent = self.cache.agents.get(self.cid)
        if agent is None:
            return False
        idle = self.cache.clock.now() - agent.last_progress_at
        if idle <= self.stall_threshold:
            return False
        self.promote(
            reason=f"no propagation progress for {idle:g}s "
                   f"(threshold {self.stall_threshold:g}s)"
        )
        return True

    def promote(self, reason=""):
        """Replace the primary with a standby resumed from the checkpoint."""
        cache = self.cache
        old = cache.agents[self.cid]
        old.stop()
        # The standby tails the *same* replication source as the dead
        # primary (its partition's catalog and log, not necessarily the
        # whole back-end) and inherits its checkpoint identity.
        standby = cache.build_agent(
            old.region, old.backend_catalog, old.log, old.shard_id
        ).adopt(old)
        checkpoint = standby.resume_from_checkpoint()
        # Catch the region up immediately, then resume the normal cadence.
        standby.propagate()
        standby.start(cache.scheduler, interval=old._interval)
        cache.agents[self.cid] = standby
        self.promotions += 1
        now = cache.clock.now()
        self.registry.counter(
            "replication_failovers_total", labels={"region": self.cid},
            help="standby agents promoted over stalled primaries",
        ).inc()
        self.registry.event(
            "failover",
            f"promoted standby agent for {self.cid}"
            + (f" on {self.node}" if self.node else "")
            + (f": {reason}" if reason else "")
            + (f" (resumed from txn {checkpoint.applied_txn})"
               if checkpoint is not None else " (no checkpoint; full replay)"),
            severity="warning", time=now, region=self.cid,
            node=self.node or "-",
            resumed_txn=checkpoint.applied_txn if checkpoint else 0,
        )
        return standby

    def __repr__(self):
        return (
            f"<AgentSupervisor region={self.cid} threshold="
            f"{self.stall_threshold:g}s promotions={self.promotions}>"
        )
