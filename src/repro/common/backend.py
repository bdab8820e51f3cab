"""The storage-tier ``Backend`` protocol.

Everything above the storage tier — :class:`~repro.cache.mtcache.MTCache`,
the distribution agents, :class:`~repro.fleet.node.FleetNode`, the chaos
harness — consumes this surface instead of the concrete
:class:`~repro.cache.backend.BackendServer`, so a single-node back-end and
a hash-partitioned :class:`~repro.shard.ShardedBackend` are the same code
path.  The protocol is the union of what those consumers actually touch:

* **execution** — ``execute`` / ``execute_remote`` / ``estimate``;
* **DDL & statistics** — ``create_table`` / ``refresh_statistics``;
* **replication surface** — :meth:`Backend.replication_sources` enumerates
  the independent (catalog, log) pairs agents must tail: one for a single
  server, one *per partition* for a sharded deployment;
* **heartbeat surface** — ``backend.heartbeats.register_region`` /
  ``stop``, fanned out to every partition by sharded implementations;
* **topology** — ``partition_count`` / ``shard_of`` / ``partition_column``
  / ``describe_topology`` let the optimizer pin single-shard plans and let
  monitoring report the shard layout.

Shared attributes (``clock``, ``scheduler``, ``catalog``, ``cost_model``)
stay plain attributes; implementations set them in ``__init__``.
"""

import zlib

__all__ = [
    "Backend",
    "ReplicationSource",
    "stable_shard_hash",
]


def stable_shard_hash(value):
    """A deterministic 32-bit hash for partition routing.

    Python's builtin ``hash`` is salted per process for strings, which
    would scatter the same key to different shards across runs; routing
    must be stable so logs, benchmarks and equivalence tests replay
    identically.  Integers use a Knuth multiplicative mix (plain
    ``key % M`` would correlate with sequential key ranges); everything
    else hashes its ``repr`` bytes through CRC-32.  A whole-number float
    is the same SQL value as the integer (``1 = 1.0``), so it hashes as
    one and a ``key = 1.0`` probe finds the row stored under ``1``.
    """
    if isinstance(value, bool) or (isinstance(value, float) and value.is_integer()):
        value = int(value)
    if isinstance(value, int):
        return (value * 0x9E3779B1) & 0xFFFFFFFF
    return zlib.crc32(repr(value).encode("utf-8")) & 0xFFFFFFFF


class ReplicationSource:
    """One independently replicated storage unit: a partition (or the
    whole back-end) with its own catalog and transaction log.

    Distribution agents tail exactly one source; a currency region on a
    sharded deployment therefore runs one agent *per source*, and the
    region's effective snapshot is the minimum over its sources.
    """

    __slots__ = ("shard_id", "name", "catalog", "log")

    def __init__(self, shard_id, name, catalog, log):
        #: None for an unsharded back-end; the partition index otherwise.
        self.shard_id = shard_id
        self.name = name
        self.catalog = catalog
        self.log = log

    def __repr__(self):
        return f"<ReplicationSource {self.name} shard={self.shard_id}>"


class Backend:
    """Abstract base of every storage back-end the cache tier can attach.

    Subclasses must provide the execution surface (:meth:`execute`,
    :meth:`execute_remote`, :meth:`estimate`, :meth:`create_table`,
    :meth:`refresh_statistics`, :meth:`run_for`) plus the shared
    attributes ``clock``, ``scheduler``, ``catalog``, ``cost_model`` and
    ``heartbeats``.  The topology methods below default to the
    single-node answers, so :class:`~repro.cache.backend.BackendServer`
    inherits them unchanged and only sharded implementations override.
    """

    # ------------------------------------------------------------------
    # Execution surface (must be provided by implementations)
    # ------------------------------------------------------------------
    def execute(self, sql_or_stmt, ctx=None):
        raise NotImplementedError

    def execute_remote(self, sql, shards=None):
        """Endpoint for the cache's RemoteQuery operators: runs one SELECT
        and returns its result as one dense
        :class:`~repro.engine.columnar.ColumnBatch`.

        ``shards`` is an optional pin: an iterable of partition indexes
        the statement is known to touch (the optimizer supplies it for
        single-shard point plans).  Unsharded back-ends ignore it.
        """
        raise NotImplementedError

    def estimate(self, select):
        raise NotImplementedError

    def create_table(self, sql_or_stmt):
        raise NotImplementedError

    def refresh_statistics(self, table_name=None):
        raise NotImplementedError

    def run_for(self, seconds):
        raise NotImplementedError

    def execute_dml(self, stmt):
        """Execute one DML statement and report its commit floor.

        Returns ``(rowcount, commits)`` where ``commits`` is a list of
        ``(source_name, txn_id)`` pairs — one per replication source the
        statement actually committed on, carrying the transaction id a
        read-your-writes session must see applied before a local replica
        of that source may serve its reads.

        The default implementation diffs each source's replication-log
        tail around :meth:`execute`, so it is shard-precise for free: on
        a sharded back-end only the partitions the DML touched grow new
        log records, and untouched partitions contribute no floor.
        """
        sources = self.replication_sources()
        before = [len(source.log.records) for source in sources]
        rowcount = self.execute(stmt)
        commits = []
        for source, n in zip(sources, before):
            records = source.log.records
            if len(records) > n:
                commits.append((source.name, records[-1].txn_id))
        return rowcount, commits

    # ------------------------------------------------------------------
    # Topology (single-node defaults)
    # ------------------------------------------------------------------
    @property
    def ddl_epoch(self):
        """Monotonic schema/statistics version: implementations bump it on
        every DDL and statistics refresh, so plan caches and snapshot
        stores can detect staleness without subscribing to DDL events.
        The protocol default (0, never moving) keeps duck-typed stubs
        working: their plans simply never expire by epoch."""
        return 0

    @property
    def partition_count(self):
        """Number of storage partitions (1 for a single server)."""
        return 1

    def replication_sources(self):
        """The (catalog, log) pairs distribution agents must tail."""
        return [
            ReplicationSource(None, "backend", self.catalog, self.txn_manager.log)
        ]

    def transaction_managers(self):
        """``(source_name, TransactionManager)`` per replication source —
        the commit points a history recorder observes.  Source names
        match :meth:`replication_sources` (and therefore the commit
        floors :meth:`execute_dml` reports)."""
        return [("backend", self.txn_manager)]

    def partition_column(self, table_name):
        """The column a table is hash-partitioned on (None: unpartitioned,
        all rows on one storage unit)."""
        return None

    def shard_of(self, table_name, key):
        """Partition index owning rows of ``table_name`` with the given
        partition-column value (None: the table is not partitioned)."""
        return None

    def shards_available(self, shards=None):
        """True when every partition in ``shards`` (all, if None) has a
        live primary serving reads and writes.  Single-node back-ends
        have no role machinery, so they are always available at this
        layer — network faults are modelled above, in the fleet shim."""
        return True

    def dml_shards(self, stmt):
        """Best-effort pin: the partitions a DML statement would run on,
        or None when unknown.  Lets the fleet scope write availability to
        the owning shard during a failover elsewhere."""
        return None

    def bulk_load(self, table_name, rows):
        """Load pre-built value tuples through the transaction manager
        (they still flow down the replication log, in one batch commit).
        Returns the number of rows loaded."""
        rows = [tuple(r) for r in rows]

        def _apply(txn):
            for row in rows:
                txn.insert(table_name, row)

        self.txn_manager.run(_apply)
        return len(rows)

    def describe_topology(self):
        """Monitoring snapshot of the storage layout (``status()`` /
        ``\\fleet`` render this)."""
        return {
            "kind": type(self).__name__,
            "partitions": self.partition_count,
            "tables": sorted(t.name for t in self.catalog.tables()),
            "shards": [
                {"shard": None, "epoch": 0, "primary": "up", "replicas": []}
            ],
        }
