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
