"""A mixed-workload driver for MTCache and cache-fleet experiments.

Executes a stream of queries against a single cache *or* a
:class:`~repro.fleet.fleet.CacheFleet` with configurable currency bounds
and think times (simulated), collecting the load-split metrics the
paper's motivation talks about: how much work stays on the cache versus
how many queries — and how many rows — still hit the back-end server.

When the target is a fleet, the driver additionally records which node
served each query, tolerates injected faults (``raise_errors=False``
turns raised errors into a counter instead of aborting the run), and
aggregates every node's metrics snapshot under node-labelled keys.
"""

import random
from collections import deque

from repro.common.errors import ReproError


class DriverReport:
    """Aggregated outcome of one driver run."""

    def __init__(self):
        self.queries = 0
        self.local = 0
        self.remote_queries = 0
        self.rows_shipped = 0
        self.rows_returned = 0
        self.by_bound = {}  # bound -> [local, total]
        self.by_node = {}  # node name -> queries served (fleet runs only)
        self.warnings = 0
        #: Errors swallowed by ``raise_errors=False`` (fault-injection runs).
        self.errors = 0
        #: Trace ids of the most recent traced queries (bounded ring);
        #: look them up in ``fleet.traces`` / ``cache.traces``.
        self.trace_ids = deque(maxlen=64)
        #: Recent structured events across the target's registries at end
        #: of run (guard fallbacks, breaker transitions, faults, ...).
        self.events = []
        #: Metrics snapshot(s) at end of run.  Driving a single cache this
        #: is the cache registry's flat snapshot; driving a fleet it maps
        #: node-labelled keys — ``"fleet"`` plus one key per node name —
        #: to that registry's snapshot, so no node's counters are lost.
        self.metrics = {}

    @property
    def local_fraction(self):
        return self.local / self.queries if self.queries else 0.0

    def local_fraction_for(self, bound):
        local, total = self.by_bound.get(bound, (0, 0))
        return local / total if total else 0.0

    def record(self, bound, result):
        self.queries += 1
        self.rows_returned += len(result.rows)
        served_locally = bool(result.context.branches) and all(
            index == 0 for _, index in result.context.branches
        )
        if served_locally:
            self.local += 1
        self.remote_queries += len(result.context.remote_queries)
        self.rows_shipped += sum(n for _, n in result.context.remote_queries)
        local, total = self.by_bound.get(bound, (0, 0))
        self.by_bound[bound] = (local + (1 if served_locally else 0), total + 1)
        node = getattr(result, "node", None)
        if node is not None:
            self.by_node[node] = self.by_node.get(node, 0) + 1
        trace_id = getattr(result, "trace_id", None)
        if trace_id is not None:
            self.trace_ids.append(trace_id)
        self.warnings += len(result.warnings)

    def record_error(self, bound, exc):
        self.errors += 1
        local, total = self.by_bound.get(bound, (0, 0))
        self.by_bound[bound] = (local, total + 1)

    def __repr__(self):
        return (
            f"DriverReport(queries={self.queries}, local={self.local_fraction:.1%}, "
            f"remote_queries={self.remote_queries}, rows_shipped={self.rows_shipped}, "
            f"errors={self.errors})"
        )


class WorkloadDriver:
    """Runs query streams against an MTCache or a CacheFleet on the
    simulated clock."""

    def __init__(self, cache, seed=42):
        #: The target: anything with ``execute`` and ``run_for``.  A fleet
        #: (detected by its ``router`` attribute) is driven through its
        #: front door, with the sampled bound passed as a routing hint.
        self.cache = cache
        self.rng = random.Random(seed)

    def run(self, query_factory, bounds, n_queries, think_time=1.0,
            raise_errors=True, on_result=None, on_error=None):
        """Execute ``n_queries`` queries.

        ``query_factory(rng, bound)`` returns SQL text for one request;
        ``bounds`` is a list of currency bounds sampled uniformly; between
        queries the simulated clock advances by an exponential think time
        with the given mean (``think_time=0`` disables think time — a
        closed loop saturating the target).  ``raise_errors=False``
        records raised :class:`~repro.common.errors.ReproError` subtypes
        (currency violations, network failures) in ``report.errors``
        instead of aborting, which is what fault-injection runs want.

        ``on_result(bound, result)`` / ``on_error(bound, exc)`` are
        per-query observer hooks — the chaos harness uses them to audit
        every delivered result against its declared bound and to
        timestamp each outcome on the simulated clock.
        """
        report = DriverReport()
        is_fleet = hasattr(self.cache, "router")
        for _ in range(n_queries):
            bound = self.rng.choice(bounds)
            sql = query_factory(self.rng, bound)
            try:
                if is_fleet:
                    result = self.cache.execute(sql, bound=bound)
                else:
                    result = self.cache.execute(sql)
            except ReproError as exc:
                if raise_errors:
                    raise
                report.record_error(bound, exc)
                if on_error is not None:
                    on_error(bound, exc)
            else:
                report.record(bound, result)
                if on_result is not None:
                    on_result(bound, result)
            if think_time:
                self.cache.run_for(self.rng.expovariate(1.0 / think_time))
        report.metrics = self._metrics_snapshot()
        report.events = self._recent_events()
        return report

    def _metrics_snapshot(self):
        """Node-labelled snapshots for a fleet, a flat snapshot otherwise.

        Without the fleet path, driving N nodes would silently keep only
        the last node's registry; ``CacheFleet.snapshot_metrics`` returns
        every node's snapshot keyed by node name (plus ``"fleet"``).
        """
        if hasattr(self.cache, "snapshot_metrics"):
            return self.cache.snapshot_metrics()
        return self.cache.metrics.snapshot()

    def _recent_events(self, n=50):
        """Recent events across the target's registries, oldest first."""
        logs = []
        if hasattr(self.cache, "nodes"):  # fleet
            logs.append(self.cache.metrics.events)
            logs.extend(node.metrics.events for node in self.cache.nodes)
        else:
            logs.append(self.cache.metrics.events)
        events = [event for log in logs for event in log.recent(n)]
        events.sort(key=lambda e: e.time if e.time is not None else -1.0)
        return events[-n:]


def point_lookup_factory(table, key_column, key_range, alias=None):
    """A query factory for guarded point lookups with a random key."""
    alias = alias or table[0]

    def factory(rng, bound):
        key = rng.randint(*key_range)
        return (
            f"SELECT {alias}.* FROM {table} {alias} "
            f"WHERE {alias}.{key_column} = {key} "
            f"CURRENCY BOUND {bound} SEC ON ({alias})"
        )

    return factory
