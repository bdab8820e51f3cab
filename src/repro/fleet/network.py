"""A simulated, unreliable network between fleet nodes and the back-end.

Every cache→back-end call in a fleet goes through one shared
:class:`SimulatedNetwork`, which models the link the paper's deployment
picture takes for granted: a mid-tier cache farm talking to a remote
master over a real network.  The shim injects the faults that make
multi-node behavior interesting:

* **latency** — every call advances the simulated clock by a configurable
  round-trip time (plus optional jitter);
* **drops** — a seeded per-call probability of losing the request;
* **timeouts** — calls whose effective latency exceeds the timeout fail
  after waiting the full timeout;
* **outage windows** — absolute `[start, end)` intervals during which the
  back-end is unreachable (:meth:`inject_outage`);
* **partitions** — node-scoped outage windows (:meth:`partition`): one
  node loses its back-end link while the rest of the fleet keeps it;
* **distribution-agent stalls** — windows during which a node's agents
  skip propagation entirely (:meth:`stall_agents` /
  :meth:`wrap_agent`), so its regions fall behind.

All waiting happens on the *simulated* clock — preferably through the
shared scheduler so heartbeats and agents keep firing while a retry backs
off — which keeps every fleet experiment deterministic.
"""

from repro.common.errors import NetworkError


class FaultWindow:
    """One injected fault interval on the simulated timeline."""

    __slots__ = ("start", "end", "node", "shard")

    def __init__(self, start, end, node=None, shard=None):
        self.start = start
        self.end = end
        self.node = node  # None = applies to every node
        self.shard = shard  # None = applies to every back-end partition

    def active(self, now, node=None, shards=None):
        if not (self.start <= now < self.end):
            return False
        if not (self.node is None or node is None or self.node == node):
            return False
        return self._covers_shards(shards)

    def applies_to(self, now, node, shards=None):
        """Strict variant of :meth:`active`: a node-scoped window applies
        only to that node — a ``node=None`` caller asks about the *global*
        link, which per-node partitions do not cut."""
        if not (self.start <= now < self.end):
            return False
        if not (self.node is None or self.node == node):
            return False
        return self._covers_shards(shards)

    def _covers_shards(self, shards):
        """A shard-scoped window only cuts calls touching that partition.
        Callers that don't declare their shards (``shards=None``) are
        treated as touching all of them — the conservative reading."""
        if self.shard is None:
            return True
        return shards is None or self.shard in shards

    def __repr__(self):
        who = self.node or "*"
        part = "*" if self.shard is None else f"p{self.shard}"
        return f"<FaultWindow [{self.start:g}, {self.end:g}) node={who} shard={part}>"


class SimulatedNetwork:
    """Fault-injecting transport shared by every node of one fleet.

    ``registry`` (typically the fleet's metrics registry) receives
    ``fleet_network_calls_total{node,outcome}`` counters and the stall /
    latency bookkeeping.  ``seed`` drives the drop coin-flips so runs are
    reproducible.
    """

    def __init__(self, clock, scheduler=None, *, registry=None, seed=0,
                 latency=0.0, jitter=0.0, drop_rate=0.0, timeout=None):
        import random

        from repro.obs.metrics import NULL_REGISTRY

        self.clock = clock
        self.scheduler = scheduler
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.seed = seed
        self.rng = random.Random(seed)
        #: Optional role-level availability probe (set by the fleet to the
        #: back-end's ``shards_available``): a shard whose primary is
        #: fenced mid-failover is unreachable even with no outage window.
        self.role_faults = None
        self.latency = latency
        self.jitter = jitter
        self.drop_rate = drop_rate
        self.timeout = timeout
        self._outages = []  # FaultWindow list (backend unreachable)
        self._stalls = []  # FaultWindow list (agents skip propagation)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def inject_outage(self, duration, start=None, shard=None):
        """Make the back-end unreachable for ``duration`` simulated
        seconds, beginning at ``start`` (default: now).  With ``shard``
        only that partition goes dark: single-shard plans pinned to other
        partitions keep their remote branch."""
        start = self.clock.now() if start is None else start
        window = FaultWindow(start, start + duration, shard=shard)
        self._outages.append(window)
        scope = "back-end" if shard is None else f"back-end shard p{shard}"
        self.registry.event(
            "outage", f"{scope} outage [{start:g}, {window.end:g})",
            severity="error", time=start, start=start, end=window.end,
            shard="*" if shard is None else shard,
        )
        if self.scheduler is not None:
            self.scheduler.at(
                window.end,
                lambda: self.registry.event(
                    "outage", "back-end outage ended",
                    time=window.end, start=start, end=window.end,
                ),
                name="outage-end-event",
            )
        return window

    def partition(self, node, duration, start=None, shard=None):
        """Cut one node off from the back-end for ``duration`` simulated
        seconds: a node-scoped outage window.  Other nodes keep their
        link; the partitioned node's guards degrade per its policy.
        With ``shard`` the cut only severs that node's link to one
        back-end partition."""
        start = self.clock.now() if start is None else start
        window = FaultWindow(start, start + duration, node=node, shard=shard)
        self._outages.append(window)
        what = "the back-end" if shard is None else f"back-end shard p{shard}"
        self.registry.event(
            "partition",
            f"{node} partitioned from {what} [{start:g}, {window.end:g})",
            severity="error", time=start, node=node, start=start, end=window.end,
            shard="*" if shard is None else shard,
        )
        return window

    def stall_agents(self, duration, start=None, node=None, shard=None):
        """Stall distribution-agent propagation for ``duration`` seconds.

        With ``node`` given only that node's agents stall; otherwise every
        wrapped agent in the fleet skips its propagation wakes.  With
        ``shard`` only the agents tailing that partition stall — the
        other shards of the same region keep replicating.
        """
        start = self.clock.now() if start is None else start
        window = FaultWindow(start, start + duration, node=node, shard=shard)
        self._stalls.append(window)
        self.registry.event(
            "agent_stall",
            f"agent propagation stalled [{start:g}, {window.end:g}) "
            f"on {node or 'every node'}",
            severity="warning", time=start, node=node or "*",
            start=start, end=window.end,
        )
        return window

    def clear_faults(self):
        """Drop every injected window (between experiment phases)."""
        self._outages.clear()
        self._stalls.clear()

    def backend_available(self, now=None, node=None, shards=None):
        """True when no outage (or, given ``node``, partition) window
        covers the current instant for that caller.  ``shards`` declares
        which partitions the caller would touch; shard-scoped windows on
        other partitions don't block it (undeclared = touches all).
        Role faults (a fenced shard primary awaiting promotion) count as
        unavailability the same way, via the ``role_faults`` probe."""
        now = self.clock.now() if now is None else now
        if any(w.applies_to(now, node, shards=shards) for w in self._outages):
            return False
        if self.role_faults is not None and not self.role_faults(shards):
            return False
        return True

    def outage_ends_at(self, now=None, node=None):
        """End of the outage/partition window covering ``now`` for
        ``node`` (None if reachable)."""
        now = self.clock.now() if now is None else now
        ends = [w.end for w in self._outages if w.applies_to(now, node)]
        return max(ends) if ends else None

    def partitioned_nodes(self, now=None):
        """Names of nodes currently cut off by node-scoped windows."""
        now = self.clock.now() if now is None else now
        return sorted({
            w.node for w in self._outages
            if w.node is not None and w.applies_to(now, w.node)
        })

    def agents_stalled(self, node=None, now=None, shard=None):
        now = self.clock.now() if now is None else now
        shards = None if shard is None else (shard,)
        return any(w.active(now, node=node, shards=shards) for w in self._stalls)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def sleep(self, seconds):
        """Advance simulated time (through the scheduler when available,
        so heartbeats and agents keep firing while a caller backs off)."""
        if seconds <= 0:
            return
        if self.scheduler is not None:
            self.scheduler.run_for(seconds)
        else:
            self.clock.advance(seconds)

    def call(self, fn, *args, node="", shards=None, trace=None):
        """One attempt of a cache→back-end call over the simulated link.

        Pays the round-trip latency, then raises :class:`NetworkError`
        (tagged ``drop`` / ``timeout`` / ``outage``) or returns ``fn(*args)``.
        With a ``trace``, the whole attempt is a ``net.call`` span of that
        trace, annotated with the node and the outcome.
        """
        span = trace.open("net.call", {"node": node or "-"}) if trace else None
        try:
            outcome, result = self._attempt(fn, args, node, shards)
            if span is not None:
                trace.annotate(span, "outcome", outcome)
            return result
        except NetworkError as exc:
            if span is not None:
                trace.annotate(span, "outcome", exc.reason)
            raise
        finally:
            if span is not None:
                trace.close(span)

    def _attempt(self, fn, args, node, shards=None):
        rtt = self.latency
        if self.jitter:
            rtt += self.rng.uniform(0.0, self.jitter)
        if self.timeout is not None and rtt > self.timeout:
            self.sleep(self.timeout)
            self._count(node, "timeout")
            raise NetworkError(
                f"call from {node or 'cache'} timed out after {self.timeout:g}s",
                reason="timeout",
            )
        self.sleep(rtt)
        if not self.backend_available(node=node or None, shards=shards):
            self._count(node, "outage")
            raise NetworkError(
                f"back-end unreachable from {node or 'cache'} (outage window)",
                reason="outage",
            )
        if self.drop_rate and self.rng.random() < self.drop_rate:
            self._count(node, "drop")
            raise NetworkError(
                f"request from {node or 'cache'} dropped", reason="drop"
            )
        result = fn(*args)
        self._count(node, "ok")
        return "ok", result

    def _count(self, node, outcome):
        self.registry.counter(
            "fleet_network_calls_total",
            labels={"node": node or "-", "outcome": outcome},
            help="simulated-network call attempts by outcome",
        ).inc()

    # ------------------------------------------------------------------
    # Agent plumbing
    # ------------------------------------------------------------------
    def wrap_agent(self, agent, node="", shard=None):
        """Route an agent's propagation wakes through the stall windows.

        Replaces ``agent.propagate`` with a shim that skips (and counts)
        wakes landing inside a stall window for ``node`` (and, for a
        partition agent, its ``shard``).  The caller must restart the
        agent afterwards so the scheduler picks up the shim.
        """
        original = agent.propagate
        shard = shard if shard is not None else getattr(agent, "shard_id", None)

        def propagate(cutoff=None):
            if self.agents_stalled(node=node, shard=shard):
                self.registry.counter(
                    "fleet_agent_stall_skips_total", labels={"node": node or "-"},
                    help="agent propagation wakes skipped by injected stalls",
                ).inc()
                return 0
            if (
                self.role_faults is not None
                and shard is not None
                and not self.role_faults((shard,))
            ):
                # The agent's shard primary is fenced: its log is frozen
                # mid-failover and must not be tailed until promotion
                # re-binds the agent to the new primary's log.
                self.registry.counter(
                    "fleet_agent_fence_skips_total", labels={"node": node or "-"},
                    help="agent propagation wakes skipped on fenced shard primaries",
                ).inc()
                return 0
            return original(cutoff)

        agent.propagate = propagate
        return agent

    def __repr__(self):
        return (
            f"<SimulatedNetwork latency={self.latency:g}s drop_rate={self.drop_rate:g} "
            f"outages={len(self._outages)} stalls={len(self._stalls)}>"
        )
