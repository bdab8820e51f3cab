"""Transaction manager for the master database.

The appendix's model assigns each committing update transaction an integer
id — a timestamp — in increasing order, and defines the history ``H_n`` as
the composition of the first ``n`` transactions.  :class:`TransactionManager`
implements exactly that: transactions buffer row operations, and at commit
the manager assigns the next id, stamps every touched row's ``xtime``, and
appends the changes to the :class:`~repro.txn.log.ReplicationLog`.

The simulation is single-threaded, so Strict 2PL degenerates to serial
execution; conflict handling is therefore trivially serializable, which is
all the paper's model requires of the master.
"""

from repro.common.errors import StorageError, TransactionError
from repro.txn.log import LogRecord, Operation, ReplicationLog


class _PendingOp:
    __slots__ = ("op", "table", "pk", "values")

    def __init__(self, op, table, pk, values=None):
        self.op = op
        self.table = table
        self.pk = pk
        self.values = values


class Transaction:
    """A buffered update transaction against master tables."""

    def __init__(self, manager):
        self._manager = manager
        self._ops = []
        self.state = "active"
        self.txn_id = None
        self.commit_time = None

    def _require_active(self):
        if self.state != "active":
            raise TransactionError(f"transaction is {self.state}, not active")

    def insert(self, table_name, values):
        """Buffer an INSERT of ``values`` into ``table_name``."""
        self._require_active()
        table = self._manager._table(table_name)
        values = tuple(values)
        table.schema.validate_row(values)
        pk = self._manager._pk_of(table, values)
        self._ops.append(_PendingOp(Operation.INSERT, table.name, pk, values))

    def update(self, table_name, pk, values):
        """Buffer an UPDATE of the row with primary key ``pk``."""
        self._require_active()
        table = self._manager._table(table_name)
        values = tuple(values)
        table.schema.validate_row(values)
        self._ops.append(_PendingOp(Operation.UPDATE, table.name, tuple(pk), values))

    def delete(self, table_name, pk):
        """Buffer a DELETE of the row with primary key ``pk``."""
        self._require_active()
        table = self._manager._table(table_name)
        self._ops.append(_PendingOp(Operation.DELETE, table.name, tuple(pk)))

    def commit(self):
        """Apply all buffered operations atomically-in-order and log them."""
        self._require_active()
        self._manager._commit(self)
        return self.txn_id

    def abort(self):
        self._require_active()
        self._ops = []
        self.state = "aborted"


class TransactionManager:
    """Assigns commit timestamps and maintains the replication log."""

    def __init__(self, clock, tables=None):
        self.clock = clock
        self._tables = dict(tables or {})
        self.log = ReplicationLog()
        self._next_txn_id = 1
        self.committed = []  # list of (txn_id, commit_time) in order
        #: Commit observers (``callback(txn)`` after a successful commit);
        #: the history recorder registers here.  Kept as a plain list so
        #: the non-observed commit path pays one truthiness check.
        self.observers = []

    def register_table(self, table):
        self._tables[table.name] = table

    def _table(self, name):
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise TransactionError(f"unknown table: {name}") from None

    @staticmethod
    def _pk_of(table, values):
        ci = table.clustered_index()
        if ci is None:
            raise TransactionError(f"table {table.name} needs a primary key for replication")
        return ci.key_of(values)

    def begin(self):
        return Transaction(self)

    @property
    def last_txn_id(self):
        return self._next_txn_id - 1

    def _commit(self, txn):
        """Apply ``txn``'s operations all or nothing.  On any failure the
        applied ones are undone in reverse order and the exception
        propagates: nothing reaches the log and the txn id is not used.
        The log records are appended only once every operation applied."""
        txn_id = self._next_txn_id
        commit_time = self.clock.now()
        records = []
        undo = []  # (table, rid, row before): applied ops, in order
        try:
            for op in txn._ops:
                table = self._table(op.table)
                if op.op is Operation.INSERT:
                    rid = table.insert(op.values, xtime=txn_id, commit_time=commit_time)
                    undo.append((table, rid, None))
                    old = None
                else:
                    rid = table.pk_lookup(op.pk)
                    if rid is None:
                        raise StorageError(
                            f"{op.op.value}: no row with pk {op.pk} in {table.name}")
                    # update() changes the version in place: copy it.
                    v = table.version(rid)
                    before = (v.values, v.xtime, v.commit_time)
                    if op.op is Operation.UPDATE:
                        old = table.update(rid, op.values, xtime=txn_id,
                                           commit_time=commit_time)
                    else:
                        old = table.delete(rid, xtime=txn_id, commit_time=commit_time)
                    undo.append((table, rid, before))
                records.append(
                    LogRecord(
                        txn_id,
                        commit_time,
                        op.table,
                        op.op,
                        op.pk,
                        values=op.values,
                        old_values=old,
                    )
                )
        except Exception:
            for table, rid, before in reversed(undo):
                table.restore(rid, before)
            txn.state = "aborted"
            raise
        for record in records:
            self.log.append(record)
        self._next_txn_id += 1
        self.committed.append((txn_id, commit_time))
        txn.txn_id = txn_id
        txn.commit_time = commit_time
        txn.state = "committed"
        if self.observers:
            for observer in self.observers:
                observer(txn)

    def run(self, callback):
        """Run ``callback(txn)`` inside a new transaction and commit it.

        Aborts (without re-raising suppression) if the callback raises.
        """
        txn = self.begin()
        try:
            callback(txn)
        except Exception:
            txn.abort()
            raise
        txn.commit()
        return txn
