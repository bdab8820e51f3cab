"""Fleet-shared store of precompiled plan snapshots.

One :class:`PlanSnapshotStore` is shared by every node of a
:class:`~repro.fleet.fleet.CacheFleet` (a standalone MTCache may own a
private one).  Keys are ``(sql, fingerprint)``: the fingerprint
digests everything plan choice depends on besides the SQL text — cache
configuration (matview definitions, regions and their currency
parameters), fallback policy and shard topology — so two nodes only
share a snapshot when it is actually valid on both.

Entries carry the publishing node's catalog *epoch* and a TTL on the
simulated clock.  ``get`` re-validates both, so a stale snapshot is
never instantiated; DDL, region reconfiguration and fleet topology
changes call :meth:`invalidate` to drop everything eagerly.
"""

from collections import OrderedDict

__all__ = ["PlanSnapshotStore"]

DEFAULT_CAPACITY = 256
DEFAULT_TTL = 300.0  # simulated seconds


class PlanSnapshotStore:
    """Keyed, TTL'd, LRU-bounded snapshot store.

    ``clock`` is any object with ``now()`` (the fleet's simulated clock);
    without one, entries never expire by time.
    """

    def __init__(self, clock=None, *, capacity=DEFAULT_CAPACITY, ttl=DEFAULT_TTL):
        self.clock = clock
        self.capacity = capacity
        self.ttl = ttl
        self._entries = OrderedDict()  # key -> (snapshot, epoch, expires_at)
        self.stats = {
            "hits": 0,
            "misses": 0,
            "publishes": 0,
            "expirations": 0,
            "epoch_rejections": 0,
            "invalidations": 0,
        }
        self.last_invalidation = None  # reason string of the most recent wipe

    def __len__(self):
        return len(self._entries)

    def _now(self):
        return self.clock.now() if self.clock is not None else None

    def publish(self, sql, fingerprint, snapshot, *, epoch=0):
        """Store a snapshot under ``(sql, fingerprint)``, stamped with the
        publisher's catalog epoch."""
        now = self._now()
        expires_at = None if now is None else now + self.ttl
        key = (sql, fingerprint)
        self._entries[key] = (snapshot, epoch, expires_at)
        self._entries.move_to_end(key)
        self.stats["publishes"] += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def get(self, sql, fingerprint, *, epoch=0):
        """Return the stored snapshot, or None.

        Rejects (and drops) entries published under a different catalog
        epoch or past their TTL — both count in ``stats`` so monitoring
        can distinguish cold misses from staleness churn.
        """
        key = (sql, fingerprint)
        entry = self._entries.get(key)
        if entry is None:
            self.stats["misses"] += 1
            return None
        snapshot, snap_epoch, expires_at = entry
        if snap_epoch != epoch:
            del self._entries[key]
            self.stats["epoch_rejections"] += 1
            self.stats["misses"] += 1
            return None
        now = self._now()
        if expires_at is not None and now is not None and now >= expires_at:
            del self._entries[key]
            self.stats["expirations"] += 1
            self.stats["misses"] += 1
            return None
        self._entries.move_to_end(key)
        self.stats["hits"] += 1
        return snapshot

    def invalidate(self, reason="ddl"):
        """Drop every snapshot (DDL, region or topology change)."""
        dropped = len(self._entries)
        self._entries.clear()
        self.stats["invalidations"] += 1
        self.last_invalidation = reason
        return dropped

    def __repr__(self):
        return (
            f"PlanSnapshotStore(n={len(self._entries)}, "
            f"hits={self.stats['hits']}, misses={self.stats['misses']})"
        )
