"""A hash-partitioned back-end built from M :class:`BackendServer` shards.

``ShardedBackend`` implements the :class:`~repro.common.backend.Backend`
protocol over M independent partitions.  Each partition is a complete
single-node server — its own catalog, heap storage, transaction manager
(and therefore its own replication log), and heartbeat service — sharing
only the simulated clock and event scheduler.  The cache tier attaches
one distribution agent *per partition* (one per
:meth:`replication_sources` entry), so currency regions become
partition-scoped: a region's effective snapshot is the minimum over its
shard agents, and a result is only as current as its stalest
contributing shard.

Partitioning is by hash of the first primary-key column
(:func:`~repro.common.backend.stable_shard_hash`, deterministic across
processes).  Tables without a primary key are not partitioned — all
their rows live on one *home* shard chosen by hashing the table name.

Query routing (:meth:`ShardedBackend.route_select`) recognises four
shapes, in decreasing order of coordination avoided:

* ``single`` — every referenced table is pinned to one common shard by
  equality / IN sargs on its partition column (or is unpartitioned and
  homed there).  The whole statement runs on that shard; point lookups
  bypass cross-shard coordination entirely.
* ``scatter`` — one table, no aggregation/ordering/limit: the *same*
  select runs on every candidate shard and the row sets concatenate.
  Each shard holds a disjoint row subset, so the union is exact.
* ``fetch`` — one table but the select needs a final pass (GROUP BY,
  ORDER BY, DISTINCT, LIMIT, aggregates): the WHERE clause is pushed to
  each shard as a filtered fetch, the survivors are staged on a scratch
  server, and the original select runs there.
* ``gather`` — joins or subqueries spanning shards: referenced tables
  are staged whole on the scratch server and the select runs there.
  Correct but coordination-heavy, exactly as the paper's model predicts
  for cross-region consistency classes.

DML routes the same way: INSERT rows hash to their owning shard; UPDATE
and DELETE run on the pinned shards (broadcast when unpinned).  UPDATE
may not assign the partition column — that would migrate rows across
shards, which transactional replication per partition cannot express.

For benchmarking, the backend keeps a per-shard busy ledger mirroring
the fleet's: each sub-execution charges its simulated service time to
the shards it touched, so ``simulated_makespan()`` reflects partition
parallelism (max over shards, not sum).
"""

from functools import partial

from repro.cache.backend import BackendServer
from repro.common.backend import Backend, ReplicationSource, stable_shard_hash
from repro.common.clock import SimulatedClock
from repro.common.errors import ExecutionError
from repro.common.scheduler import EventScheduler
from repro.engine.columnar import ColumnBatch
from repro.engine.executor import BatchResult, ExecutionContext, PhaseTimings, QueryResult
from repro.obs.metrics import NULL_REGISTRY
from repro.optimizer.cost import CostModel
from repro.optimizer.query_info import _constant_value, _split_conjuncts
from repro.plan.compiler import is_select_text
from repro.replication.checkpoint import CheckpointStore
from repro.replication.heartbeat import HEARTBEAT_TABLE, heartbeat_schema
from repro.replication.tailer import transactions_after
from repro.shard.replica import ShardFailureDetector, ShardReplica
from repro.sql import ast
from repro.sql.parser import parse

__all__ = ["ShardedBackend", "ShardRoute"]


def _concat_legs(legs):
    """Shard legs' results as one dense ColumnBatch, in leg order."""
    return ColumnBatch.concat([leg.as_batch() for leg in legs], len(legs[0].columns))


class ShardRoute:
    """The routing decision for one select: mode + contributing shards."""

    __slots__ = ("mode", "shards", "table")

    def __init__(self, mode, shards, table=None):
        self.mode = mode  # "single" | "scatter" | "fetch" | "gather"
        self.shards = tuple(shards)
        self.table = table  # the lone FromTable for scatter/fetch

    def describe(self):
        shards = ",".join(f"p{s}" for s in self.shards)
        return f"{self.mode}({shards})"

    def __repr__(self):
        return f"<ShardRoute {self.describe()}>"


class _ShardedHeartbeats:
    """Heartbeat facade fanning region registration out to every shard.

    Each partition keeps its own ``heartbeat`` table and beats it through
    its own transaction manager, so per-shard replication lag is visible
    per shard — the whole point of partition-scoped currency regions.

    The facade remembers every registration so a promoted replica can be
    re-armed (:meth:`resume`): the registered rows reach the standby
    through log shipping, but the beat *jobs* lived on the dead primary
    and must be restarted against the new one.
    """

    def __init__(self, partitions):
        self._partitions = partitions
        self._intervals = {}  # cid -> beat interval
        self._started = set()

    def register_region(self, cid, beat_interval=2.0, start=True):
        self._intervals[cid] = beat_interval
        if start:
            self._started.add(cid)
        for partition in self._partitions:
            partition.heartbeats.register_region(cid, beat_interval=beat_interval, start=start)

    def start(self, cid, beat_interval=None):
        if beat_interval is not None:
            self._intervals[cid] = beat_interval
        self._started.add(cid)
        for partition in self._partitions:
            partition.heartbeats.start(cid, self._intervals.get(cid, 2.0))

    def stop(self, cid):
        self._started.discard(cid)
        for partition in self._partitions:
            partition.heartbeats.stop(cid)

    def beat(self, cid):
        for partition in self._partitions:
            partition.heartbeats.beat(cid)

    def suspend(self, server):
        """Cancel the beat jobs on one (crashed) server without touching
        the registration memory — its heartbeat rows freeze at the last
        acknowledged write, which is exactly the silence the failure
        detector measures."""
        for cid in self._started:
            server.heartbeats.stop(cid)

    def resume(self, shard):
        """Re-arm every registered region's beats on ``shard``'s current
        primary (called right after a promotion swaps it in)."""
        partition = self._partitions[shard]
        table = partition.catalog.table(HEARTBEAT_TABLE).table
        for cid, interval in self._intervals.items():
            if table.pk_lookup((cid,)) is None:
                # The row never replicated (registration raced the crash);
                # recreate it so beats have something to update.
                def _insert(txn, cid=cid):
                    txn.insert(HEARTBEAT_TABLE, (cid, partition.clock.now()))

                partition.txn_manager.run(_insert)
            if cid in self._started:
                partition.heartbeats.start(cid, interval)


class ShardedBackend(Backend):
    """M hash-partitioned :class:`BackendServer` shards behind one
    :class:`~repro.common.backend.Backend` surface.

    Drop-in for a single ``BackendServer``: ``MTCache``, ``CacheFleet``
    and the chaos harness consume it through the protocol unchanged.
    """

    def __init__(self, n_partitions=2, clock=None, scheduler=None, cost_model=None,
                 metrics=None, *, replicas=0,
                 replica_interval=0.2, failure_timeout=1.5,
                 detector_interval=0.25, durable_log=True):
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        self.clock = clock or SimulatedClock()
        self.scheduler = scheduler or EventScheduler(self.clock)
        self.cost_model = cost_model or CostModel()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.partitions = [
            BackendServer(self.clock, self.scheduler, self.cost_model)
            for _ in range(n_partitions)
        ]
        self.heartbeats = _ShardedHeartbeats(self.partitions)
        # ---- Shard roles: primaries + K log-shipping replicas each ----
        #: Whether a crashed primary's log survives the crash.  True (the
        #: default) models a durable log device: promotion replays the
        #: unreplicated tail into the new primary and surfaces those
        #: transactions as *pending* (delayed, not lost).  False models a
        #: volatile log: the tail is surfaced as *lost* commits.
        self.durable_log = durable_log
        self.replica_interval = replica_interval
        #: shard -> [ShardReplica] standbys still tailing that shard.
        self.replicas = {}
        #: Durable replica ship positions (survive replica restarts).
        self.replica_checkpoints = CheckpointStore()
        self.shard_epochs = [0] * n_partitions
        self._down = [False] * n_partitions
        self._crashed_at = [None] * n_partitions
        #: Transaction ids dropped by non-durable promotions, per shard.
        self.lost_commits = {}
        #: Scalar records of every promotion, in order.
        self.promotions = []
        self._promotion_listeners = []
        self.detector = None
        if replicas > 0:
            for shard in range(n_partitions):
                self.replicas[shard] = [
                    self._build_replica(shard, r) for r in range(replicas)
                ]
            self.detector = ShardFailureDetector(
                self, failure_timeout=failure_timeout,
                check_interval=detector_interval,
            )
            self.detector.start(self.scheduler)
        # The coordinator catalog holds the global schema and *merged*
        # statistics; its heap tables stay empty (rows live on shards).
        # MTCache mirrors this catalog for its shadow tables.
        from repro.catalog.catalog import Catalog

        self.catalog = Catalog()
        self.catalog.create_table(HEARTBEAT_TABLE, heartbeat_schema(), primary_key=["cid"])
        #: table name -> partition column (first PK column), or None.
        self._partition_columns = {HEARTBEAT_TABLE: None}
        self._scratch = None
        # Per-shard busy ledger for open-loop simulations.
        self._busy_until = [0.0] * n_partitions
        self._busy_seconds = [0.0] * n_partitions
        self._load_epoch = self.clock.now()

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def ddl_epoch(self):
        """Coordinator epoch: the sum over shard epochs.  Every fan-out
        DDL bumps each shard, so the sum moves exactly when any shard's
        schema or statistics do."""
        return sum(p.ddl_epoch for p in self.partitions)

    @property
    def partition_count(self):
        return len(self.partitions)

    def replication_sources(self):
        return [
            ReplicationSource(i, f"p{i}", p.catalog, p.txn_manager.log)
            for i, p in enumerate(self.partitions)
        ]

    def transaction_managers(self):
        return [
            (f"p{i}", p.txn_manager) for i, p in enumerate(self.partitions)
        ]

    def partition_column(self, table_name):
        return self._partition_columns.get(table_name.lower())

    def shard_of(self, table_name, key):
        if self._partition_columns.get(table_name.lower()) is None:
            return None
        return stable_shard_hash(key) % self.partition_count

    def _home_shard(self, table_name):
        """Where an unpartitioned table's rows all live."""
        return stable_shard_hash(table_name.lower()) % self.partition_count

    def _shards_for_table(self, table_name):
        if self._partition_columns.get(table_name.lower()) is None:
            return [self._home_shard(table_name)]
        return list(range(self.partition_count))

    def describe_topology(self):
        info = Backend.describe_topology(self)
        info["partition_columns"] = {
            name: col for name, col in sorted(self._partition_columns.items()) if col
        }
        info["rows_per_shard"] = [
            sum(len(entry.table) for entry in p.catalog.tables())
            for p in self.partitions
        ]
        info["shards"] = [
            {
                "shard": shard,
                "epoch": self.shard_epochs[shard],
                "primary": "down" if self._down[shard] else "up",
                "replicas": [
                    {
                        "replica": r.replica_id,
                        "applied_txn": r.applied_txn,
                        "lag": r.lag_behind(self.partitions[shard].txn_manager.log),
                    }
                    for r in self.replicas.get(shard, [])
                ],
            }
            for shard in range(self.partition_count)
        ]
        return info

    # ------------------------------------------------------------------
    # Shard roles: replicas, crash, failure detection, promotion
    # ------------------------------------------------------------------
    def _build_replica(self, shard, replica_id):
        server = BackendServer(
            self.clock, self.scheduler, self.cost_model
        )
        replica = ShardReplica(
            shard, replica_id, server, self.clock,
            checkpoints=self.replica_checkpoints,
        )
        replica.start(
            self.scheduler, self.replica_interval,
            lambda s=shard: self.partitions[s].txn_manager.log,
        )
        return replica

    @property
    def replica_count(self):
        """Total standbys across every shard (0: failover unavailable)."""
        return sum(len(reps) for reps in self.replicas.values())

    def _replica_servers(self):
        return [r.server for reps in self.replicas.values() for r in reps]

    def shard_is_down(self, shard):
        return self._down[shard % self.partition_count]

    def crashed_at(self, shard):
        return self._crashed_at[shard % self.partition_count]

    def shards_available(self, shards=None):
        """True when every declared shard (all, if undeclared) has a live
        primary — the role-level availability the network shim consults
        on top of its own outage windows."""
        if shards is None:
            return not any(self._down)
        return not any(self._down[s % self.partition_count] for s in shards)

    def last_heartbeat(self, shard):
        """Freshest heartbeat timestamp acknowledged by the shard's
        primary (None: no region registered yet).  The detector reads
        this even when the primary is fenced — the frozen rows *are* the
        silence being measured."""
        table = self.partitions[shard].catalog.table(HEARTBEAT_TABLE).table
        latest = None
        for _, values in table.scan():
            if latest is None or values[1] > latest:
                latest = values[1]
        return latest

    def add_promotion_listener(self, listener):
        """``listener(info)`` fires after every promotion; ``info`` holds
        the shard, new epoch, promoted replica, pending/lost txn ids and
        the new primary's catalog + log (for agent re-binding)."""
        self._promotion_listeners.append(listener)
        return listener

    def crash_primary(self, shard):
        """Fence one shard's primary: beats stop, the shard refuses work,
        and (with replicas) the failure detector will promote once the
        heartbeat silence exceeds its timeout."""
        shard = shard % self.partition_count
        if self._down[shard]:
            raise ExecutionError(f"shard p{shard} primary is already down")
        now = self.clock.now()
        self._down[shard] = True
        self._crashed_at[shard] = now
        self.heartbeats.suspend(self.partitions[shard])
        self.metrics.event(
            "backend_crash",
            f"shard p{shard} primary crashed (epoch {self.shard_epochs[shard]}, "
            f"{len(self.replicas.get(shard, []))} standby(s))",
            severity="error", time=now, shard=shard,
            epoch=self.shard_epochs[shard],
        )
        return now

    def promote_shard(self, shard, reason="manual"):
        """Promote the freshest standby of a fenced shard to primary.

        The winner is the replica with the highest applied transaction
        (ties: lowest replica id).  With a durable log the old primary's
        unreplicated tail is replayed into the winner first — those
        transactions surface as *pending* (acknowledged, delayed through
        failover, never lost); with ``durable_log=False`` the tail is
        surfaced as *lost* commits.  The shard epoch is bumped, heartbeat
        jobs re-arm on the new primary, and promotion listeners fire so
        the cache tier can re-resolve its agents.
        """
        shard = shard % self.partition_count
        if not self._down[shard]:
            raise ExecutionError(f"shard p{shard} primary is up; nothing to promote")
        standbys = self.replicas.get(shard)
        if not standbys:
            raise ExecutionError(f"shard p{shard} has no replicas to promote")
        old = self.partitions[shard]
        winner = max(standbys, key=lambda r: (r.applied_txn, -r.replica_id))
        tail_txns = [
            records[0].txn_id
            for records in transactions_after(old.txn_manager.log, winner.applied_txn)
        ]
        pending, lost = [], []
        if self.durable_log:
            pending = tail_txns
            winner.apply_from(old.txn_manager.log)
        else:
            lost = tail_txns
            self.lost_commits.setdefault(shard, []).extend(lost)
        winner.stop()
        standbys.remove(winner)
        new = winner.server
        # The serving copy inherits the primary's commit observers (the
        # history recorder watches commit points, not server objects) and
        # must out-epoch it so plan caches re-resolve instead of reusing
        # plans compiled against the dead server's statistics.
        new.txn_manager.observers = old.txn_manager.observers
        old.txn_manager.observers = []
        while new.ddl_epoch <= old.ddl_epoch:
            new.bump_ddl_epoch()
        self.partitions[shard] = new
        self._down[shard] = False
        self._crashed_at[shard] = None
        self.shard_epochs[shard] += 1
        epoch = self.shard_epochs[shard]
        self.heartbeats.resume(shard)
        now = self.clock.now()
        info = {
            "shard": shard, "epoch": epoch, "replica": winner.replica_id,
            "applied_txn": winner.applied_txn, "pending": pending,
            "lost": lost, "reason": reason, "time": now,
            "catalog": new.catalog, "log": new.txn_manager.log,
        }
        self.promotions.append({
            k: info[k] for k in
            ("shard", "epoch", "replica", "applied_txn", "pending", "lost",
             "reason", "time")
        })
        self.metrics.event(
            "promotion",
            f"shard p{shard} promoted replica {winner.replica_id} to primary "
            f"(epoch {epoch}, {reason}; {len(pending)} pending, "
            f"{len(lost)} lost commit(s))",
            severity="warning", time=now, shard=shard, epoch=epoch,
            replica=winner.replica_id, pending=len(pending), lost=len(lost),
            reason=reason,
        )
        for listener in list(self._promotion_listeners):
            listener(info)
        return info

    def ensure_primaries(self):
        """Recovery sweep: promote any still-fenced shard immediately
        (chaos recovery must not wait out the detector); a shard with no
        standbys gets its fenced primary revived in place."""
        restored = []
        for shard in range(self.partition_count):
            if not self._down[shard]:
                continue
            if self.replicas.get(shard):
                restored.append(self.promote_shard(shard, reason="recovery"))
            else:
                self._down[shard] = False
                self._crashed_at[shard] = None
                self.heartbeats.resume(shard)
                self.metrics.event(
                    "backend_crash",
                    f"shard p{shard} primary restarted in place (no standby)",
                    severity="info", time=self.clock.now(), shard=shard,
                    epoch=self.shard_epochs[shard],
                )
        return restored

    def catchup_replicas(self):
        """Ship every standby to its primary's current log tail (the
        post-recovery settle step before convergence audits)."""
        applied = 0
        for reps in self.replicas.values():
            for replica in reps:
                applied += replica.tail()
        return applied

    def _check_up(self, shard):
        if self._down[shard]:
            raise ExecutionError(
                f"shard p{shard} has no live primary (failover in progress)"
            )

    # ------------------------------------------------------------------
    # DDL & statistics (fan-out)
    # ------------------------------------------------------------------
    def create_table(self, sql_or_stmt):
        stmt = parse(sql_or_stmt) if isinstance(sql_or_stmt, str) else sql_or_stmt
        entry = self.catalog.create_table_from_ast(stmt)
        pk = entry.table.primary_key
        self._partition_columns[entry.name] = pk[0] if pk else None
        for server in self.partitions + self._replica_servers():
            server.create_table(stmt)
        return entry

    def create_index(self, sql_or_stmt):
        stmt = parse(sql_or_stmt) if isinstance(sql_or_stmt, str) else sql_or_stmt
        for server in self._replica_servers():
            server.create_index(stmt)
        return [p.create_index(stmt) for p in self.partitions]

    def refresh_statistics(self, table_name=None):
        """Recompute per-shard statistics, then the merged coordinator
        statistics (exact: pooled over every shard's rows)."""
        for server in self.partitions + self._replica_servers():
            server.refresh_statistics(table_name)
        entries = [self.catalog.table(table_name)] if table_name else self.catalog.tables()
        for entry in entries:
            self._merge_entry_stats(entry)

    def _merge_entry_stats(self, entry):
        from repro.catalog.statistics import ColumnStats, TableStats

        rows = [
            values
            for p in self.partitions
            for _, values in p.catalog.table(entry.name).table.scan()
        ]
        columns = {
            col.name: ColumnStats.from_values([r[i] for r in rows])
            for i, col in enumerate(entry.schema.columns)
        }
        entry.stats = TableStats(row_count=len(rows), columns=columns)

    def schedule_statistics_refresh(self, interval, caches=()):
        def tick():
            self.refresh_statistics()
            for cache in caches:
                cache.refresh_shadow_stats()

        return self.scheduler.every(interval, tick, name="auto-stats")

    # ------------------------------------------------------------------
    # Routing analysis
    # ------------------------------------------------------------------
    @staticmethod
    def _is_pcol_ref(expr, pcol, alias):
        return (
            isinstance(expr, ast.ColumnRef)
            and expr.name == pcol
            and expr.qualifier in (None, alias)
        )

    def _conjunct_shards(self, table_name, pcol, alias, conjunct):
        """Shards a conjunct restricts the table to, or None (no pin).
        A plan template's bindable key is classified, not read, and an
        IN-list's items as one set: the template is then keyed on the
        shards it was compiled for."""
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            left, right = conjunct.left, conjunct.right
            if not self._is_pcol_ref(left, pcol, alias):
                left, right = right, left
            if self._is_pcol_ref(left, pcol, alias):
                ok, value = _constant_value(right)
                if ok:
                    return {ast.classify(value, partial(self.shard_of, table_name))}
        elif (
            isinstance(conjunct, ast.InList)
            and not conjunct.negated
            and self._is_pcol_ref(conjunct.operand, pcol, alias)
        ):
            values = []
            for item in conjunct.items:
                ok, value = _constant_value(item)
                if not ok:
                    return None
                values.append(value)
            return ast.classify_set(values, partial(self.shard_of, table_name))
        return None

    def _pinned_shards(self, table_name, where, alias):
        """Shard set the WHERE clause pins ``table_name`` to, or None."""
        pcol = self._partition_columns.get(table_name.lower())
        if pcol is None:
            return {self._home_shard(table_name)}
        pinned = None
        for conjunct in _split_conjuncts(where):
            shards = self._conjunct_shards(table_name, pcol, alias, conjunct)
            if shards is not None:
                pinned = shards if pinned is None else pinned & shards
        if pinned is not None and not pinned:
            # Contradictory key predicates (k = 1 AND k = 2 on different
            # shards) select nothing; any one shard answers with no rows.
            return {self._home_shard(table_name)}
        return pinned

    @staticmethod
    def _select_exprs(select):
        exprs = [item.expr for item in select.items if item.expr is not None]
        for clause in (select.where, select.having):
            if clause is not None:
                exprs.append(clause)
        exprs.extend(select.group_by or [])
        exprs.extend(item.expr for item in (select.order_by or []))
        return exprs

    @staticmethod
    def _needs_final(select):
        if (
            select.group_by
            or select.having is not None
            or select.order_by
            or select.distinct
            or select.limit is not None
        ):
            return True
        return any(
            isinstance(node, ast.FuncCall) and node.is_aggregate
            for item in select.items
            if item.expr is not None
            for node in item.expr.walk()
        )

    def _referenced_tables(self, select, out):
        for item in select.from_items:
            if isinstance(item, ast.FromTable):
                out.add(item.name)
            else:
                self._referenced_tables(item.select, out)
        for expr in self._select_exprs(select):
            for node in expr.walk():
                if isinstance(node, ast.Subquery):
                    self._referenced_tables(node.select, out)
        return out

    def route_select(self, select):
        """Decide where (and in what shape) a select runs."""
        everywhere = range(self.partition_count)
        if select.nested:
            return ShardRoute("gather", everywhere)
        pins = [
            (item, self._pinned_shards(item.name, select.where, item.alias))
            for item in select.from_items
        ]
        if pins and all(s is not None for _, s in pins):
            union = set().union(*(s for _, s in pins))
            if len(union) == 1:
                return ShardRoute("single", union)
        if len(pins) == 1:
            item, pinned = pins[0]
            shards = sorted(pinned) if pinned is not None else list(everywhere)
            if len(shards) == 1:
                return ShardRoute("single", shards, item)
            mode = "fetch" if self._needs_final(select) else "scatter"
            return ShardRoute(mode, shards, item)
        return ShardRoute("gather", everywhere)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, sql_or_stmt, ctx=None):
        text = sql_or_stmt if isinstance(sql_or_stmt, str) else None
        stmt = parse(text) if text is not None else sql_or_stmt
        if isinstance(stmt, ast.Explain):
            return self.explain(stmt.text if stmt.text is not None else stmt.select)
        if isinstance(stmt, ast.Select):
            return self.execute_select(stmt, ctx=ctx, sql=text)
        if isinstance(stmt, ast.Insert):
            return self._execute_insert(stmt)
        if isinstance(stmt, ast.Update):
            return self._execute_update(stmt)
        if isinstance(stmt, ast.Delete):
            return self._execute_delete(stmt)
        if isinstance(stmt, ast.CreateTable):
            return self.create_table(stmt)
        if isinstance(stmt, ast.CreateIndex):
            return self.create_index(stmt)
        raise ExecutionError(f"unsupported statement: {type(stmt).__name__}")

    def execute_remote(self, sql, shards=None):
        """The cache's endpoint: one dense ColumnBatch, the legs' columns
        concatenated; honours an optimizer shard pin.

        A pin means the caller proved the statement only touches rows on
        those partitions (a guarded point plan), so the select runs there
        directly — no routing analysis, and a SELECT text is not even
        parsed here: each pinned partition's plan cache binds it.
        """
        if shards is not None:
            if isinstance(sql, ast.Select):
                text, select = None, sql
            elif isinstance(sql, str) and is_select_text(sql):
                text, select = sql, None
            else:
                return self.execute(sql).as_batch()
            legs = [self._run_on(shard, select, sql=text)
                    for shard in sorted({s % self.partition_count for s in shards})]
            return _concat_legs(legs)
        return self.execute(sql).as_batch()

    def _run_on(self, shard, select, ctx=None, sql=None):
        """One leg on one partition: by text through its plan cache when
        there is a text (``select``, if given, is its parse, for a miss),
        else the parsed select, uncached."""
        self._check_up(shard)
        partition = self.partitions[shard]
        if sql is not None:
            result = partition.execute_text(sql, select, ctx=ctx)
        else:
            result = partition.execute_select(select, ctx=ctx)
        self._charge(shard, result.timings.total)
        return result

    def execute_select(self, select, ctx=None, sql=None):
        """Route and run a parsed select.  ``sql``, the text it was
        parsed from, lets single and scatter legs run through their
        partitions' plan caches; fetch and gather stage rows on the
        scratch server and run the parsed select there."""
        ctx = ctx or ExecutionContext(clock=self.clock)
        route = self.route_select(select)
        self.metrics.counter(
            "shard_route_total",
            labels={"mode": route.mode},
            help="backend select routings by mode",
        ).inc()
        if route.mode == "single":
            return self._run_on(route.shards[0], select, ctx, sql)
        if route.mode == "scatter":
            legs = [self._run_on(shard, select, ctx, sql) for shard in route.shards]
            timings = PhaseTimings(run=max(leg.timings.total for leg in legs))
            return BatchResult(legs[0].columns, _concat_legs(legs), timings, ctx)
        if route.mode == "fetch":
            return self._execute_fetch(select, route, ctx)
        return self._execute_gather(select, ctx)

    def _scratch_server(self):
        """The coordinator's scratch server for gather-phase finals."""
        if self._scratch is None:
            self._scratch = BackendServer(self.clock, cost_model=self.cost_model)
        return self._scratch

    def _stage_table(self, scratch, name, rows):
        """(Re)fill a scratch copy of ``name`` with gathered rows."""
        coord = self.catalog.table(name)
        if not scratch.catalog.has_table(name):
            entry = scratch.catalog.create_table(
                name, coord.schema, primary_key=coord.table.primary_key
            )
            scratch.txn_manager.register_table(entry.table)
        entry = scratch.catalog.table(name)
        entry.table.truncate()
        for values in rows:
            entry.table.insert(tuple(values))
        scratch.refresh_statistics(name)

    def _execute_fetch(self, select, route, ctx):
        """Push the WHERE to each shard, stage survivors, run the final."""
        item = route.table
        fetch = ast.Select(
            [ast.SelectItem(None, star=True, star_qualifier=item.alias)],
            [ast.FromTable(item.name, item.alias)],
            where=select.where,
        )
        rows = []
        for shard in route.shards:
            rows.extend(self._run_on(shard, fetch, ctx).rows)
        scratch = self._scratch_server()
        self._stage_table(scratch, item.name, rows)
        return scratch.execute_select(select, ctx=ctx)

    def _execute_gather(self, select, ctx):
        """Stage every referenced table whole and run the select locally."""
        scratch = self._scratch_server()
        names = sorted(self._referenced_tables(select, set()))
        for name in names:
            for shard in self._shards_for_table(name):
                self._check_up(shard)
        for name in names:
            rows = [
                values
                for shard in self._shards_for_table(name)
                for _, values in self.partitions[shard].catalog.table(name).table.scan()
            ]
            self._stage_table(scratch, name, rows)
        return scratch.execute_select(select, ctx=ctx)

    def estimate(self, select):
        if isinstance(select, str):
            select = parse(select)
        route = self.route_select(select)
        shards = route.shards if route.mode != "gather" else range(self.partition_count)
        cost = rows = 0.0
        width = 64.0
        for shard in shards:
            c, r, w = self.partitions[shard].estimate(select)
            cost += c
            rows += r
            width = max(width, w)
        return cost, rows, width

    def optimize(self, select):
        """Plan inspection: delegate to the first routed shard."""
        if isinstance(select, str):
            select = parse(select)
        route = self.route_select(select)
        return self.partitions[route.shards[0]].optimize(select)

    def explain(self, select):
        """The route, then the first routed partition's EXPLAIN — of the
        text, with its ``template:`` line, when the legs would run it by
        text (single and scatter routes)."""
        text = None
        if isinstance(select, str):
            text, select = select, parse(select)
        route = self.route_select(select)
        by_text = text is not None and route.mode in ("single", "scatter")
        shard_result = self.partitions[route.shards[0]].explain(
            text if by_text else select
        )
        lines = [(f"shard route: {route.describe()}",)] + list(shard_result.rows)
        ctx = ExecutionContext(clock=self.clock)
        return QueryResult(["plan"], lines, PhaseTimings(), ctx)

    # ------------------------------------------------------------------
    # DML routing
    # ------------------------------------------------------------------
    def _insert_shard(self, stmt, columns, value_row):
        """Owning shard for one INSERT value row."""
        from repro.engine.expressions import RowBinding, compile_expr

        pcol = self._partition_columns.get(stmt.table)
        if pcol is None:
            return self._home_shard(stmt.table)
        try:
            position = columns.index(pcol)
        except ValueError:
            raise ExecutionError(
                f"INSERT into {stmt.table} must supply partition column {pcol}"
            )
        expr_ctx = self.partitions[0].placement.expr_ctx
        fn = compile_expr(value_row[position], RowBinding([]), expr_ctx)
        return stable_shard_hash(fn(())) % self.partition_count

    def _execute_insert(self, stmt):
        entry = self.catalog.table(stmt.table)
        columns = [c.lower() for c in (stmt.columns or entry.schema.names())]
        buckets = {}
        for value_row in stmt.rows:
            if len(value_row) != len(columns):
                raise ExecutionError(
                    f"INSERT arity mismatch: {len(value_row)} values, {len(columns)} columns"
                )
            shard = self._insert_shard(stmt, columns, value_row)
            buckets.setdefault(shard, []).append(value_row)
        # All-or-nothing liveness gate: refuse the whole statement if any
        # owning shard is mid-failover (no partial multi-shard inserts).
        for shard in sorted(buckets):
            self._check_up(shard)
        total = 0
        for shard, rows in sorted(buckets.items()):
            sub = ast.Insert(stmt.table, stmt.columns, rows)
            total += self.partitions[shard].execute(sub)
        return total

    def _dml_shards(self, stmt):
        """Shards a DML statement must run on (WHERE-pinned or all)."""
        pinned = self._pinned_shards(stmt.table, stmt.where, stmt.table)
        if pinned is None:
            return self._shards_for_table(stmt.table)
        return sorted(pinned)

    def dml_shards(self, stmt):
        """Best-effort shard pin for a DML statement (None: unknown).

        The fleet's write path uses this to scope its availability check:
        a write to a healthy shard must not block on another shard's
        failover, while a write to the fenced shard retries until its
        replica is promoted.
        """
        if isinstance(stmt, str):
            stmt = parse(stmt)
        try:
            if isinstance(stmt, ast.Insert):
                entry = self.catalog.table(stmt.table)
                columns = [c.lower() for c in (stmt.columns or entry.schema.names())]
                return sorted({
                    self._insert_shard(stmt, columns, row) for row in stmt.rows
                })
            if isinstance(stmt, (ast.Update, ast.Delete)):
                return list(self._dml_shards(stmt))
        except Exception:
            return None
        return None

    def _execute_update(self, stmt):
        pcol = self._partition_columns.get(stmt.table)
        if pcol is not None and any(col.lower() == pcol for col, _ in stmt.assignments):
            raise ExecutionError(
                f"UPDATE may not assign partition column {stmt.table}.{pcol}: "
                "rows cannot migrate across shards"
            )
        shards = self._dml_shards(stmt)
        for shard in shards:
            self._check_up(shard)
        return sum(self.partitions[shard].execute(stmt) for shard in shards)

    def _execute_delete(self, stmt):
        shards = self._dml_shards(stmt)
        for shard in shards:
            self._check_up(shard)
        return sum(self.partitions[shard].execute(stmt) for shard in shards)

    def bulk_load(self, table_name, rows):
        name = table_name.lower()
        pcol = self._partition_columns.get(name)
        if pcol is None:
            return self.partitions[self._home_shard(name)].bulk_load(name, rows)
        position = self.catalog.table(name).schema.index_of(pcol)
        buckets = [[] for _ in self.partitions]
        for row in rows:
            buckets[stable_shard_hash(row[position]) % self.partition_count].append(row)
        return sum(
            p.bulk_load(name, bucket)
            for p, bucket in zip(self.partitions, buckets)
            if bucket
        )

    # ------------------------------------------------------------------
    # Simulation helpers
    # ------------------------------------------------------------------
    def run_for(self, seconds):
        return self.scheduler.run_for(seconds)

    def _charge(self, shard, seconds):
        """Charge simulated service time to one shard's busy ledger."""
        start = max(self.clock.now(), self._busy_until[shard])
        self._busy_until[shard] = start + seconds
        self._busy_seconds[shard] += seconds

    def reset_load(self):
        self._load_epoch = self.clock.now()
        self._busy_until = [self._load_epoch] * self.partition_count
        self._busy_seconds = [0.0] * self.partition_count

    def simulated_makespan(self):
        """Finish time of the busiest shard since the last ``reset_load``
        (the open-loop QPS denominator: shards drain in parallel)."""
        return max(0.0, max(self._busy_until) - self._load_epoch)

    def shard_load(self):
        """Per-shard accumulated busy seconds."""
        return list(self._busy_seconds)

    def __repr__(self):
        return (
            f"<ShardedBackend partitions={self.partition_count} "
            f"tables={sorted(t.name for t in self.catalog.tables())}>"
        )
