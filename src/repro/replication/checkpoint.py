"""Durable resume cutoffs for log tailers (agents and shard replicas).

A :class:`CheckpointStore` models the one piece of tailer state that
survives a process death: the ``(applied_txn, snapshot_time)`` cutoff it
had durably reached.  A restarted (or promoted standby) tailer resumes
from the stored cutoff and replays the replication-log suffix; because
sinks write through :func:`repro.replication.tailer.upsert`, replaying a
prefix that was already applied — the cutoff necessarily lags anything a
crashed tailer applied after its last checkpoint — is harmless.

The store is deliberately tiny: an in-memory dict standing in for a
fsync'd file per region.  What matters for the chaos harness is the
*lifetime*: the store is owned by the cache (the "disk"), not the agent
(the "process"), so agent failover and node restart see it.
"""

__all__ = ["Checkpoint", "CheckpointStore"]


class Checkpoint:
    """One region's durable resume cutoff."""

    __slots__ = ("cid", "applied_txn", "snapshot_time", "saved_at")

    def __init__(self, cid, applied_txn, snapshot_time, saved_at=None):
        self.cid = cid
        self.applied_txn = applied_txn
        self.snapshot_time = snapshot_time
        self.saved_at = saved_at

    def __repr__(self):
        return (
            f"Checkpoint({self.cid!r}, applied_txn={self.applied_txn}, "
            f"snapshot_time={self.snapshot_time:.3f})"
        )


class CheckpointStore:
    """cid -> :class:`Checkpoint`; survives agent and node "crashes"."""

    def __init__(self):
        self._data = {}
        #: Total saves, for tests asserting checkpoint cadence.
        self.saves = 0

    def save(self, cid, applied_txn, snapshot_time, saved_at=None):
        self._data[cid] = Checkpoint(cid, applied_txn, snapshot_time, saved_at)
        self.saves += 1
        return self._data[cid]

    def load(self, cid):
        """The region's checkpoint, or None if never saved."""
        return self._data.get(cid)

    def clear(self, cid=None):
        if cid is None:
            self._data.clear()
        else:
            self._data.pop(cid, None)

    def __contains__(self, cid):
        return cid in self._data

    def __len__(self):
        return len(self._data)

    def __repr__(self):
        return f"<CheckpointStore regions={sorted(self._data)}>"
