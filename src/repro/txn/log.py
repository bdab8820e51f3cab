"""The replication log.

Every committed write on the master database appends :class:`LogRecord`
entries in commit order.  The log serves two consumers:

* distribution agents (``repro.replication``) replay a prefix of it, one
  transaction at a time, to bring cached views forward — mirroring SQL
  Server's transactional replication; and
* the semantics checker (``repro.semantics``) replays prefixes to
  reconstruct the database snapshot ``H_n`` after any transaction ``T_n``.

Records identify rows by primary-key value, so replicas can apply them
without sharing row ids with the master heap.
"""

import enum

from repro.common.errors import ReplicationError


class Operation(enum.Enum):
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


class LogRecord:
    """One row-level change within a committed transaction."""

    __slots__ = ("txn_id", "commit_time", "table", "op", "pk", "values", "old_values", "seq")

    def __init__(self, txn_id, commit_time, table, op, pk, values=None, old_values=None, seq=0):
        self.txn_id = txn_id
        self.commit_time = commit_time
        self.table = table
        self.op = op
        self.pk = pk
        self.values = values
        self.old_values = old_values
        self.seq = seq

    def __repr__(self):
        return (
            f"LogRecord(txn={self.txn_id}, t={self.commit_time:.3f}, "
            f"{self.op.value} {self.table} pk={self.pk})"
        )


class ReplicationLog:
    """An append-only, globally ordered log of committed changes.

    Transaction ids never decrease along the log — every tailer bisects
    on that — so :meth:`append` refuses a record that would break it."""

    def __init__(self):
        self._records = []

    def append(self, record):
        if self._records and record.txn_id < self._records[-1].txn_id:
            raise ReplicationError(
                f"log append out of commit order: txn {record.txn_id} after "
                f"txn {self._records[-1].txn_id}"
            )
        record.seq = len(self._records)
        self._records.append(record)

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def records(self):
        return self._records
