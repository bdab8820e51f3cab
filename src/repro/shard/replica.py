"""Log-shipping shard replicas and the heartbeat failure detector.

Each :class:`ShardReplica` is a warm standby for one partition of a
:class:`~repro.shard.ShardedBackend`: a complete
:class:`~repro.cache.backend.BackendServer` of its own whose tables are
kept in sync by *tailing the primary's replication log*.  It is the
shard tier's sink of :class:`~repro.replication.tailer.LogTailer` (which
states the whole-transaction, replay-safe contract): every transaction
is upserted into the full tables by primary key and appended verbatim to
the replica's *own* replication log with its original transaction id and
commit time, so after a promotion the replica's log is a
prefix-consistent copy of the primary's and cache agents resume tailing
it from their checkpoints without missing or re-counting a transaction.

:class:`ShardFailureDetector` watches the heartbeat rows on every
primary (the paper's §3.1 heartbeat table doubles as the liveness
signal): a primary whose freshest heartbeat row is older than
``failure_timeout`` — and which the cluster manager has fenced
(``crash_primary``) — gets its freshest replica promoted.  Everything
runs on the simulated scheduler, so detection latency is deterministic
per seed.
"""

from repro.replication.tailer import LogTailer, transactions_after, upsert
from repro.txn.log import LogRecord, Operation

__all__ = ["ShardReplica", "ShardFailureDetector"]


class ShardReplica(LogTailer):
    """One warm standby tailing a shard primary's replication log."""

    def __init__(self, shard_id, replica_id, server, clock, *,
                 checkpoints=None, checkpoint_key=None):
        super().__init__(
            clock, checkpoints, checkpoint_key or f"shard{shard_id}/r{replica_id}"
        )
        self.shard_id = shard_id
        self.replica_id = replica_id
        #: The standby's own BackendServer (schema kept in lockstep by
        #: the owning ShardedBackend's fan-out DDL).
        self.server = server
        self._log_supplier = None

    def start(self, scheduler, interval, log_supplier):
        """Begin tailing: ``log_supplier()`` must return the *current*
        primary's replication log (a callable, so a promotion that swaps
        the primary re-points every surviving replica for free)."""
        self._log_supplier = log_supplier
        return super().start(
            scheduler, interval, self.tail, f"replica:{self.checkpoint_key}"
        )

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def tail(self, cutoff=None):
        """Apply every transaction past ``applied_txn`` (commit time <=
        ``cutoff``, default now).  Returns the number applied."""
        if self._log_supplier is None:
            return 0
        return self.apply_from(self._log_supplier(), cutoff=cutoff)

    def apply_from(self, log, cutoff=None):
        """Replay ``log``'s tail into the standby server; the position
        is checkpointed whenever it moved."""
        applied = self.advance(log, self.clock.now() if cutoff is None else cutoff)
        if applied:
            self.checkpoint()
        return applied

    def apply_transaction(self, records):
        """Upsert one transaction and mirror it into the standby's own
        log (same txn id, same commit time) so the copy is itself a
        valid replication source.  ``snapshot_time`` is the commit time
        of the last applied transaction."""
        manager = self.server.txn_manager
        txn_id, commit_time = records[0].txn_id, records[0].commit_time
        for record in records:
            upsert(
                self.server.catalog.table(record.table).table, record,
                None if record.op is Operation.DELETE else record.values,
            )
        # The standby's txn counter moves in lockstep with the mirror (so
        # DML after a promotion continues the primary's id sequence); a
        # replayed transaction is at or below it and is not mirrored twice.
        if manager.last_txn_id < txn_id:
            for record in records:
                manager.log.append(LogRecord(
                    record.txn_id, record.commit_time, record.table, record.op,
                    record.pk, values=record.values, old_values=record.old_values,
                ))
            manager.committed.append((txn_id, commit_time))
            manager._next_txn_id = txn_id + 1
        self.snapshot_time = max(self.snapshot_time, commit_time)
        return 1

    def lag_behind(self, log):
        """Transactions in ``log`` this replica has not applied yet."""
        return sum(1 for _ in transactions_after(log, self.applied_txn))

    def __repr__(self):
        return (
            f"<ShardReplica p{self.shard_id}/r{self.replica_id} "
            f"applied={self.applied_txn}>"
        )


class ShardFailureDetector:
    """Heartbeat-silence detector driving replica promotion.

    Every ``check_interval`` simulated seconds it inspects each fenced
    shard's heartbeat table (the freshest ``ts`` over all region rows on
    the *primary* — the last write the dead server acknowledged) and,
    once the silence exceeds ``failure_timeout``, asks the backend to
    promote.  Shards without replicas, and shards whose primary has not
    been fenced by ``crash_primary`` (split-brain guard: silence alone
    never deposes a reachable primary), are skipped.  No randomness is
    drawn anywhere, so detection latency is a pure function of the crash
    time and the heartbeat/check cadences.
    """

    def __init__(self, backend, *, failure_timeout=1.5, check_interval=0.25):
        self.backend = backend
        self.failure_timeout = failure_timeout
        self.check_interval = check_interval
        self.detections = []  # (shard, detected_at, silence) in order
        self._event = None

    def start(self, scheduler):
        if self._event is not None:
            self._event.cancel()
        self._event = scheduler.every(
            self.check_interval, self.check, name="shard-failure-detector"
        )
        return self._event

    def stop(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def check(self):
        """One detection sweep; returns the shards promoted this sweep."""
        backend = self.backend
        now = backend.clock.now()
        promoted = []
        for shard in range(backend.partition_count):
            if not backend.shard_is_down(shard):
                continue
            if not backend.replicas.get(shard):
                continue
            last_beat = backend.last_heartbeat(shard)
            silence = now - (last_beat if last_beat is not None
                             else backend.crashed_at(shard))
            if silence <= self.failure_timeout:
                continue
            self.detections.append((shard, now, silence))
            backend.promote_shard(shard, reason="heartbeat-silence")
            promoted.append(shard)
        return promoted

    def __repr__(self):
        return (
            f"<ShardFailureDetector timeout={self.failure_timeout:g}s "
            f"every={self.check_interval:g}s>"
        )
