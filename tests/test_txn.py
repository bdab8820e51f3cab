"""Tests for the transaction manager and replication log."""

import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import ReplicationError, StorageError, TransactionError
from repro.storage.schema import Column, DataType, Schema
from repro.storage.table import HeapTable
from repro.txn.log import LogRecord, Operation
from repro.txn.manager import TransactionManager


def make_manager():
    clock = SimulatedClock()
    schema = Schema(
        [Column("id", DataType.INT, nullable=False), Column("v", DataType.FLOAT)]
    )
    table = HeapTable("t", schema, primary_key=["id"])
    manager = TransactionManager(clock, {"t": table})
    return clock, table, manager


class TestCommitOrdering:
    def test_ids_increase_monotonically(self):
        _, _, manager = make_manager()
        ids = []
        for i in range(3):
            txn = manager.begin()
            txn.insert("t", (i, 1.0))
            ids.append(txn.commit())
        assert ids == [1, 2, 3]

    def test_commit_time_from_clock(self):
        clock, _, manager = make_manager()
        clock.advance(12.5)
        txn = manager.begin()
        txn.insert("t", (1, 1.0))
        txn.commit()
        assert txn.commit_time == 12.5

    def test_last_txn_id(self):
        _, _, manager = make_manager()
        assert manager.last_txn_id == 0
        manager.run(lambda txn: txn.insert("t", (1, 1.0)))
        assert manager.last_txn_id == 1


class TestApplication:
    def test_insert_applies_with_xtime(self):
        _, table, manager = make_manager()
        manager.run(lambda txn: txn.insert("t", (1, 2.0)))
        rid = table.pk_lookup((1,))
        assert table.row(rid) == (1, 2.0)
        assert table.version(rid).xtime == 1

    def test_update_applies(self):
        _, table, manager = make_manager()
        manager.run(lambda txn: txn.insert("t", (1, 2.0)))
        manager.run(lambda txn: txn.update("t", (1,), (1, 9.0)))
        rid = table.pk_lookup((1,))
        assert table.row(rid) == (1, 9.0)
        assert table.version(rid).xtime == 2

    def test_delete_applies(self):
        _, table, manager = make_manager()
        manager.run(lambda txn: txn.insert("t", (1, 2.0)))
        manager.run(lambda txn: txn.delete("t", (1,)))
        assert table.row_count == 0

    def test_update_missing_row_fails(self):
        _, _, manager = make_manager()
        txn = manager.begin()
        txn.update("t", (99,), (99, 1.0))
        with pytest.raises(StorageError):
            txn.commit()

    def test_multi_op_transaction_single_id(self):
        _, table, manager = make_manager()
        manager.run(lambda txn: [txn.insert("t", (1, 1.0)), txn.insert("t", (2, 2.0))])
        xtimes = {v.xtime for _, v in table.scan_versions()}
        assert xtimes == {1}

    def test_abort_discards_ops(self):
        _, table, manager = make_manager()
        txn = manager.begin()
        txn.insert("t", (1, 1.0))
        txn.abort()
        assert table.row_count == 0
        assert manager.last_txn_id == 0

    def test_aborted_txn_rejects_further_use(self):
        _, _, manager = make_manager()
        txn = manager.begin()
        txn.abort()
        with pytest.raises(TransactionError):
            txn.insert("t", (1, 1.0))
        with pytest.raises(TransactionError):
            txn.commit()

    def test_committed_txn_rejects_further_use(self):
        _, _, manager = make_manager()
        txn = manager.begin()
        txn.insert("t", (1, 1.0))
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_run_aborts_on_exception(self):
        _, table, manager = make_manager()

        def bad(txn):
            txn.insert("t", (1, 1.0))
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            manager.run(bad)
        assert table.row_count == 0

    def test_unknown_table_rejected(self):
        _, _, manager = make_manager()
        txn = manager.begin()
        with pytest.raises(TransactionError):
            txn.insert("nope", (1, 1.0))

    def test_bad_row_rejected_at_buffer_time(self):
        _, _, manager = make_manager()
        txn = manager.begin()
        with pytest.raises(StorageError):
            txn.insert("t", ("x", 1.0))


class TestReplicationLog:
    def test_records_appended_in_order(self):
        _, _, manager = make_manager()
        manager.run(lambda txn: txn.insert("t", (1, 1.0)))
        manager.run(lambda txn: txn.update("t", (1,), (1, 2.0)))
        manager.run(lambda txn: txn.delete("t", (1,)))
        ops = [r.op for r in manager.log]
        assert ops == [Operation.INSERT, Operation.UPDATE, Operation.DELETE]
        assert [r.txn_id for r in manager.log] == [1, 2, 3]

    def test_record_carries_pk_and_values(self):
        _, _, manager = make_manager()
        manager.run(lambda txn: txn.insert("t", (7, 3.5)))
        record = manager.log.records[0]
        assert record.table == "t"
        assert record.pk == (7,)
        assert record.values == (7, 3.5)

    def test_update_record_carries_old_values(self):
        _, _, manager = make_manager()
        manager.run(lambda txn: txn.insert("t", (7, 3.5)))
        manager.run(lambda txn: txn.update("t", (7,), (7, 4.5)))
        record = manager.log.records[1]
        assert record.old_values == (7, 3.5)
        assert record.values == (7, 4.5)

    def test_append_refuses_a_txn_id_below_the_last(self):
        _, _, manager = make_manager()
        manager.run(lambda txn: txn.insert("t", (1, 1.0)))
        manager.run(lambda txn: txn.insert("t", (2, 2.0)))
        log = manager.log
        log.append(LogRecord(2, 0.0, "t", Operation.UPDATE, (2,), values=(2, 3.0)))
        with pytest.raises(ReplicationError, match="out of commit order"):
            log.append(LogRecord(1, 0.0, "t", Operation.DELETE, (1,)))
        assert [r.txn_id for r in log] == [1, 2, 2]

    def test_seq_numbers_are_global(self):
        _, _, manager = make_manager()
        manager.run(lambda txn: [txn.insert("t", (1, 1.0)), txn.insert("t", (2, 1.0))])
        assert [r.seq for r in manager.log] == [0, 1]


class TestAtomicCommit:
    """A commit applies all of its operations or none: a failing one
    undoes the ones before it, nothing reaches the log, and its txn id
    goes to the next commit."""

    def snapshot(self, table):
        return [(rid, v.values, v.xtime, v.commit_time) for rid, v in table.scan_versions()]

    def test_failed_commit_undoes_update_delete_and_insert(self):
        clock, table, manager = make_manager()
        manager.run(lambda txn: [txn.insert("t", (i, float(i))) for i in range(1, 5)])
        clock.advance(3.0)
        before = self.snapshot(table)
        pk_index = table.clustered_index()
        entries = list(pk_index.scan())

        def doomed(txn):
            txn.update("t", (1,), (1, 10.0))
            txn.delete("t", (2,))
            txn.insert("t", (7, 7.0))
            txn.insert("t", (3, 3.5))  # duplicate key: fails at commit

        with pytest.raises(StorageError):
            manager.run(doomed)
        assert self.snapshot(table) == before
        assert list(pk_index.scan()) == entries
        assert len(table._rows) == 4  # the undone insert left no tombstone
        assert len(manager.log) == 4 and manager.last_txn_id == 1
        assert manager.run(lambda txn: txn.insert("t", (7, 7.0))).txn_id == 2
        assert [r.txn_id for r in manager.log.records[4:]] == [2]

    def test_failed_commit_leaves_the_transaction_aborted(self):
        _, _, manager = make_manager()
        txn = manager.begin()
        txn.update("t", (99,), (99, 1.0))
        with pytest.raises(StorageError):
            txn.commit()
        assert txn.state == "aborted" and txn.txn_id is None

    def test_server_statement_failing_midway_is_invisible_and_unlogged(self):
        from repro.cache.backend import BackendServer

        server = BackendServer()
        server.create_table("CREATE TABLE c (cid INT NOT NULL, pid INT, PRIMARY KEY (cid))")
        server.execute("INSERT INTO c VALUES (1, 10)")
        log = server.txn_manager.log
        n, last = len(log), server.txn_manager.last_txn_id
        with pytest.raises(StorageError):
            server.execute("INSERT INTO c VALUES (5, 50), (1, 11)")
        assert server.execute("SELECT c.cid, c.pid FROM c c").rows == [(1, 10)]
        assert len(log) == n
        server.execute("INSERT INTO c VALUES (6, 60)")
        assert [(r.txn_id, r.pk) for r in log.records[n:]] == [(last + 1, (6,))]

    def test_index_insert_failing_on_a_non_storage_error_rolls_back(self, monkeypatch):
        # A NULL in an indexed column does not compare with the stored
        # keys: the insert is a declared StorageError and leaves no
        # primary-key entry.  Any other error rolls back the same way.
        from repro.cache.backend import BackendServer
        from repro.storage.index import Index

        server = BackendServer()
        server.create_table("CREATE TABLE c (cid INT NOT NULL, pid INT, PRIMARY KEY (cid))")
        server.create_index("CREATE INDEX ix_pid ON c (pid)")
        server.execute("INSERT INTO c VALUES (1, 10)")
        log = server.txn_manager.log
        n = len(log)
        with pytest.raises(StorageError, match="ix_pid"):
            server.execute("INSERT INTO c VALUES (2, NULL)")
        real = Index.insert

        def planted(index, row, rid):
            if row[1] == 30:
                raise RuntimeError("planted")
            return real(index, row, rid)

        monkeypatch.setattr(Index, "insert", planted)
        with pytest.raises(RuntimeError, match="planted"):
            server.execute("INSERT INTO c VALUES (3, 30)")
        assert len(log) == n
        server.execute("INSERT INTO c VALUES (2, 20)")
        assert server.execute("SELECT c.cid, c.pid FROM c c").rows == [(1, 10), (2, 20)]

    def test_failed_update_rolls_back_its_index_entries(self):
        schema = Schema([Column("id", DataType.INT, nullable=False),
                         Column("v", DataType.INT)])
        table = HeapTable("u", schema, primary_key=["id"])
        index = table.create_index("ix_v", ["v"])
        rid = table.insert((1, 5))
        table.insert((2, 6))
        with pytest.raises(StorageError):
            table.update(rid, (1, None))
        assert table.row(rid) == (1, 5)
        assert [key for key, _ in index.scan()] == [(5,), (6,)]
        # Any exception rolls back: plant a non-storage error in a second
        # index, after the first has taken its new entry.
        late = table.create_index("ix_late", ["v"])
        real = late.insert

        def planted(row, rid):
            if row == (1, 7):
                raise RuntimeError("planted")
            return real(row, rid)

        late.insert = planted
        with pytest.raises(RuntimeError, match="planted"):
            table.update(rid, (1, 7))
        assert table.row(rid) == (1, 5)
        for ix in (index, late):
            assert [key for key, _ in ix.scan()] == [(5,), (6,)]
