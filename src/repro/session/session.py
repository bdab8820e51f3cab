"""Read-your-writes sessions and their portable tokens.

A :class:`Session` is client-side state: it never lives on a cache node,
so it survives node crashes, restarts and routing changes by
construction.  The cache tier only ever *reads* it (currency guards
compare floors against agent progress) and *advances* it (the DML path
stamps the commit's transaction id); tokens serialize to plain dicts for
transport between processes.
"""

__all__ = ["Session", "SessionToken"]


class SessionToken:
    """A portable per-replication-source commit floor.

    ``floors`` maps a replication-source name (``"backend"`` for an
    unsharded back-end, ``"p<i>"`` per partition of a sharded one) to the
    highest transaction id this session's writes committed there.  A read
    that must see the session's own writes is satisfiable from a local
    replica only when the replica's agent for that source has applied at
    least the floor transaction.
    """

    __slots__ = ("floors",)

    def __init__(self, floors=None):
        self.floors = dict(floors or {})

    def merge(self, other):
        """The pointwise maximum of two tokens (new token; inputs kept).

        Merging is how tokens compose: a client that talked to two
        routers combines their tokens and keeps both guarantees.
        """
        floors = dict(self.floors)
        for source, txn in other.floors.items():
            if txn > floors.get(source, 0):
                floors[source] = txn
        return SessionToken(floors)

    def as_dict(self):
        """JSON-ready representation (plain ``{source: txn_id}``)."""
        return dict(self.floors)

    @classmethod
    def from_dict(cls, data):
        return cls({str(k): int(v) for k, v in (data or {}).items()})

    def __bool__(self):
        return bool(self.floors)

    def __eq__(self, other):
        return isinstance(other, SessionToken) and self.floors == other.floors

    def __repr__(self):
        floors = ", ".join(f"{s}>={t}" for s, t in sorted(self.floors.items()))
        return f"<SessionToken {floors or 'empty'}>"


class Session:
    """One client's read-your-writes context.

    Pass it to ``execute(sql, session=...)`` on an
    :class:`~repro.cache.mtcache.MTCache`, a
    :class:`~repro.fleet.fleet.CacheFleet` or its router:

    * DML advances the session — the cache stamps the commit floor with
      the transaction id the back-end reports per replication source;
    * reads of *strict* tables consult the floor — the currency guard
      serves locally only once the region's agents have applied the
      session's own commits, falling back to the back-end otherwise.

    The session object is the token's home: ``session.token`` snapshots
    the current floors for transport, ``Session.from_token`` (or
    :meth:`observe_token`) resumes them elsewhere.
    """

    __slots__ = ("name", "floors", "writes")

    def __init__(self, name="session", token=None):
        self.name = name
        self.floors = dict(token.floors) if token is not None else {}
        #: Number of DML statements this session has committed.
        self.writes = 0

    @classmethod
    def from_token(cls, token, name="session"):
        """Resume a session from a (possibly deserialized) token."""
        if isinstance(token, dict):
            token = SessionToken.from_dict(token)
        return cls(name=name, token=token)

    # ------------------------------------------------------------------
    # Advancing (the cache's DML path calls this)
    # ------------------------------------------------------------------
    def observe_commit(self, commits):
        """Raise the floors with one commit's ``(source, txn_id)`` pairs."""
        self.writes += 1
        for source, txn_id in commits:
            if txn_id > self.floors.get(source, 0):
                self.floors[source] = txn_id

    def observe_token(self, token):
        """Merge another token's guarantees into this session."""
        if isinstance(token, dict):
            token = SessionToken.from_dict(token)
        for source, txn_id in token.floors.items():
            if txn_id > self.floors.get(source, 0):
                self.floors[source] = txn_id

    # ------------------------------------------------------------------
    # Reading (currency guards call this)
    # ------------------------------------------------------------------
    def floor_for(self, source):
        """The commit floor for one replication source (0: no writes
        there — any replica state satisfies the session)."""
        return self.floors.get(source, 0)

    @property
    def token(self):
        """A portable snapshot of the current floors."""
        return SessionToken(self.floors)

    def __repr__(self):
        floors = ", ".join(f"{s}>={t}" for s, t in sorted(self.floors.items()))
        return f"<Session {self.name} writes={self.writes} {floors or 'no floors'}>"
