"""One log tailer for both replication tiers (paper §3.1).

A region's views are mutually consistent — and a shard standby is a valid
replication source — because one subscriber applies committed
transactions *whole and in commit order*.  That rule lives here, once:

* :func:`transactions_after` is the only code that walks a
  :class:`~repro.txn.log.ReplicationLog` past a position.  It finds the
  first record past the floor by bisection (txn ids never decrease along
  a log; ``ReplicationLog.append`` enforces it) and yields *whole
  transactions*: the consecutive records of one txn id, which share one
  commit time, so a transaction never straddles the cutoff.  The bisect
  is stateless — there is no cursor to invalidate when a resume lowers
  the floor or a promotion re-points the subscriber at another log.
* :class:`LogTailer` owns the tail position.  The floor is the position
  *at entry* and ``applied_txn`` only moves after a sink has taken a
  complete transaction, so a sink can neither observe nor skip part of
  one — even if it raises midway, the transaction is re-offered whole.
* Sinks write through :func:`upsert`, so replaying an already-applied
  prefix — the durable checkpoint necessarily lags whatever a crashed
  subscriber applied after its last save — leaves the state
  byte-identical.

The two tiers are two sinks: ``DistributionAgent`` (view projection +
predicate + heartbeat row) and ``ShardReplica`` (full-table upsert +
verbatim log mirror).  Each decides what ``snapshot_time`` means and when
to checkpoint; how to tail, checkpoint, resume and wake is written here.
"""

from bisect import bisect_right
from operator import attrgetter

__all__ = ["LogTailer", "transactions_after", "upsert"]

_txn_id = attrgetter("txn_id")


def transactions_after(log, floor, cutoff=None):
    """Yield, in commit order, the record list of every transaction in
    ``log`` with id > ``floor`` committed at or before ``cutoff`` (None:
    through the end of the log)."""
    records = log.records
    start = bisect_right(records, floor, key=_txn_id)
    end = len(records)
    while start < end:
        first = records[start]
        if cutoff is not None and first.commit_time > cutoff:
            return
        stop = start + 1
        while stop < end and records[stop].txn_id == first.txn_id:
            stop += 1
        yield records[start:stop]
        start = stop


def upsert(table, record, values):
    """Make ``table``'s row for ``record.pk`` equal ``values`` (None: be
    absent), stamped with the record's txn id and commit time.  Locating
    the current row by primary key first is what makes replay idempotent:
    a re-applied INSERT degrades to an update instead of a duplicate.
    Returns True if the table changed."""
    rid = table.pk_lookup(record.pk)
    if values is None:
        if rid is None:
            return False
        table.delete(rid)
    elif rid is None:
        table.insert(values, xtime=record.txn_id, commit_time=record.commit_time)
    else:
        table.update(rid, values, xtime=record.txn_id, commit_time=record.commit_time)
    return True


class LogTailer:
    """Tail position, durable checkpoint and wake cadence of one log
    subscriber.  A subclass is a *sink*: it implements
    :meth:`apply_transaction` and calls :meth:`advance` from its wake."""

    def __init__(self, clock, checkpoints, checkpoint_key):
        self.clock = clock
        #: Durable resume position (survives the subscriber's death);
        #: None disables checkpointing.
        self.checkpoints = checkpoints
        #: Key for the durable checkpoint and the scheduler event.
        self.checkpoint_key = checkpoint_key
        #: Last transaction id taken whole by the sink.
        self.applied_txn = 0
        self.snapshot_time = 0.0
        self._event = None
        self._interval = None

    def apply_transaction(self, records):
        """Apply one whole transaction; return the progress it made, in
        whatever unit the sink's wake reports."""
        raise NotImplementedError

    def advance(self, log, cutoff):
        """Hand the sink every transaction past ``applied_txn`` committed
        at or before ``cutoff``; returns the sink's summed progress."""
        progress = 0
        for records in transactions_after(log, self.applied_txn, cutoff):
            progress += self.apply_transaction(records)
            self.applied_txn = records[0].txn_id
        return progress

    def checkpoint(self):
        if self.checkpoints is not None:
            self.checkpoints.save(
                self.checkpoint_key, self.applied_txn, self.snapshot_time,
                saved_at=self.clock.now(),
            )

    def resume_from_checkpoint(self):
        """Adopt the durable position (after a restart or promotion lost
        the in-memory one); the next wake replays the log from there.
        Returns the checkpoint, or None without a store or a save."""
        if self.checkpoints is None:
            return None
        checkpoint = self.checkpoints.load(self.checkpoint_key)
        if checkpoint is not None:
            self.applied_txn = checkpoint.applied_txn
            self.snapshot_time = checkpoint.snapshot_time
        return checkpoint

    def start(self, scheduler, interval, wake, name):
        """(Re)schedule ``wake`` every ``interval`` simulated seconds."""
        self.stop()
        self._interval = interval
        self._event = scheduler.every(interval, wake, name=name)
        return self._event

    def stop(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None
