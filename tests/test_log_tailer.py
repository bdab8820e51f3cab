"""The log-tailing contract, stated once for both replication tiers.

``repro.replication.tailer`` is the only code that walks a replication
log past a position; ``DistributionAgent`` (cache tier) and
``ShardReplica`` (shard tier) are its two sinks.  The properties below
run over generated multi-op transaction logs — several transactions per
commit instant, empty transactions (gaps in the id sequence), heartbeat
rows interleaved — against *both* sinks:

1. for arbitrary cutoffs a sink is only ever handed whole transactions,
   and after every tick holds exactly the committed prefix;
2. resuming from any earlier floor (re-applying an applied prefix)
   leaves the sink's state byte-identical;
3. a crash at any tick — between ticks or between two transactions of
   one tick — followed by ``resume_from_checkpoint`` ends in the same
   state as an uninterrupted run;
4. the tailer's record sequence equals a linear scan of the log.

The linear scan (:func:`reference_records`) and the dict replays in
``expected`` are the oracles and deliberately share no code with
``src/``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import BackendServer, MTCache
from repro.replication import HEARTBEAT_TABLE, CheckpointStore
from repro.replication.tailer import transactions_after
from repro.shard.replica import ShardReplica
from repro.txn.log import Operation

DDL = "CREATE TABLE items (id INT NOT NULL, qty INT NOT NULL, PRIMARY KEY (id))"
LOW_QTY = 5  # the predicate view keeps rows with qty < LOW_QTY

# (seconds since the previous transaction, [(key, qty | None = delete)])
transactions = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.4, 1.0, 2.5]),
        st.lists(
            st.tuples(st.integers(0, 5), st.none() | st.integers(0, 9)),
            max_size=4,
        ),
    ),
    min_size=1, max_size=10,
)
# Tick cutoffs as fractions of the log's time span (sorted: time moves on).
cutoff_fractions = st.lists(st.floats(0.0, 1.1), min_size=1, max_size=5).map(sorted)


def reference_records(log, floor, cutoff):
    """The oracle: a linear scan, in log order."""
    return [
        record for record in log.records
        if record.txn_id > floor and (cutoff is None or record.commit_time <= cutoff)
    ]


def replay(records, keep=lambda record: True, project=lambda values: values):
    """Oracle state of one table/view: pk -> (row, txn id, commit time)."""
    rows = {}
    for record in records:
        if record.op is Operation.DELETE or not keep(record):
            rows.pop(record.pk, None)
        else:
            rows[record.pk] = (
                tuple(project(record.values)), record.txn_id, record.commit_time
            )
    return sorted(rows.values())


def versions(table):
    return sorted(
        (tuple(v.values), v.xtime, v.commit_time) for _, v in table.scan_versions()
    )


class Source:
    """A back-end whose log holds the generated transactions, with a
    cache region subscribed *before* the first commit (so its views are
    built purely by tailing) and heartbeats beating in between."""

    def __init__(self, txns):
        self.backend = BackendServer()
        self.backend.create_table(DDL)
        self.cache = MTCache(self.backend)
        self.cache.create_region("r", update_interval=1.0, update_delay=0.0,
                                 heartbeat_interval=1.0)
        self.cache.create_matview("full", "items", ["id", "qty"], region="r")
        self.cache.create_matview("low", "items", ["id", "qty"],
                                  predicate=f"qty < {LOW_QTY}", region="r")
        self.cache.agents["r"].stop()  # the tests tick it by hand
        present = set()
        for gap, ops in txns:
            self.cache.run_for(gap)
            self.backend.txn_manager.run(
                lambda txn, ops=ops: self._write(txn, ops, present)
            )
        self.log = self.backend.txn_manager.log
        self.end = self.backend.clock.now()

    @staticmethod
    def _write(txn, ops, present):
        for key, qty in ops:
            if qty is None:
                if key in present:
                    txn.delete("items", (key,))
                    present.discard(key)
            elif key in present:
                txn.update("items", (key,), (key, qty))
            else:
                txn.insert("items", (key, qty))
                present.add(key)

    def cutoffs(self, fractions):
        return [fraction * self.end for fraction in fractions]


class AgentSink:
    """Cache tier: a full view, a predicate view and the heartbeat row."""

    def __init__(self, source):
        self.source = source
        self.cache = source.cache
        self.tailer = self.cache.agents["r"]

    def tick(self, cutoff):
        self.tailer.propagate(cutoff=cutoff)

    def restart(self):
        old = self.tailer
        self.tailer = self.cache.build_agent(
            old.region, old.backend_catalog, old.log, old.shard_id
        ).adopt(old)
        self.tailer.resume_from_checkpoint()

    def data(self):
        return {
            "full": versions(self.cache.catalog.matview("full").table),
            "low": versions(self.cache.catalog.matview("low").table),
            "heartbeat": versions(self.tailer._local_heartbeat),
        }

    def position(self):
        checkpoint = self.cache.checkpoints.load(self.tailer.checkpoint_key)
        return (self.tailer.applied_txn, self.tailer.snapshot_time,
                checkpoint.applied_txn, checkpoint.snapshot_time)

    def expected(self, cutoff):
        records = reference_records(self.source.log, 0, cutoff)
        items = [r for r in records if r.table == "items"]
        beats = [r for r in records if r.table == HEARTBEAT_TABLE]
        data = {
            "full": replay(items),
            "low": replay(items, keep=lambda r: r.values[1] < LOW_QTY),
            "heartbeat": replay(beats),
        }
        last = records[-1].txn_id if records else 0
        return data, (last, cutoff, last, cutoff)


class ReplicaSink:
    """Shard tier: full tables plus the verbatim log mirror."""

    def __init__(self, source):
        self.source = source
        clock = source.backend.clock
        self.server = BackendServer(clock)
        self.server.create_table(DDL)
        self.checkpoints = CheckpointStore()
        self.tailer = ShardReplica(0, 0, self.server, clock,
                                   checkpoints=self.checkpoints)

    def tick(self, cutoff):
        self.tailer.apply_from(self.source.log, cutoff=cutoff)

    def restart(self):
        self.tailer = ShardReplica(0, 0, self.server, self.tailer.clock,
                                   checkpoints=self.checkpoints)
        self.tailer.resume_from_checkpoint()

    @staticmethod
    def _log_rows(records):
        return [(r.txn_id, r.commit_time, r.table, r.op, r.pk, r.values,
                 r.old_values) for r in records]

    def data(self):
        manager = self.server.txn_manager
        return {
            "items": versions(self.server.catalog.table("items").table),
            "heartbeat": versions(self.server.catalog.table(HEARTBEAT_TABLE).table),
            "log": self._log_rows(manager.log.records),
            "seqs": [r.seq for r in manager.log.records],
            "committed": list(manager.committed),
            "next_txn": manager._next_txn_id,
        }

    def position(self):
        checkpoint = self.checkpoints.load(self.tailer.checkpoint_key)
        saved = (checkpoint.applied_txn, checkpoint.snapshot_time) if checkpoint else (0, 0.0)
        return (self.tailer.applied_txn, self.tailer.snapshot_time) + saved

    def expected(self, cutoff):
        records = reference_records(self.source.log, 0, cutoff)
        committed = sorted({(r.txn_id, r.commit_time) for r in records})
        last, at = committed[-1] if committed else (0, 0.0)
        data = {
            "items": replay(r for r in records if r.table == "items"),
            "heartbeat": replay(r for r in records if r.table == HEARTBEAT_TABLE),
            "log": self._log_rows(records),
            "seqs": list(range(len(records))),
            "committed": committed,
            "next_txn": last + 1,
        }
        return data, (last, at, last, at)


SINKS = pytest.mark.parametrize("make_sink", [AgentSink, ReplicaSink])


def spy_on_transactions(sink, seen):
    """Record every record list the tailer hands ``sink``."""
    inner = sink.tailer.apply_transaction

    def apply_transaction(records):
        seen.append(list(records))
        return inner(records)

    sink.tailer.apply_transaction = apply_transaction


class Crash(Exception):
    pass


def crash_after(sink, transactions_applied):
    """Kill the sink's process once it has taken that many more whole
    transactions (a sink's apply of one transaction is atomic, as a
    local database transaction would make it)."""
    inner = sink.tailer.apply_transaction
    remaining = [transactions_applied]

    def apply_transaction(records):
        if remaining[0] == 0:
            raise Crash()
        remaining[0] -= 1
        return inner(records)

    sink.tailer.apply_transaction = apply_transaction


@SINKS
@settings(max_examples=60, deadline=None)
@given(txns=transactions, fractions=cutoff_fractions)
def test_sink_only_ever_holds_whole_transactions(make_sink, txns, fractions):
    source = Source(txns)
    sink = make_sink(source)
    seen = []
    spy_on_transactions(sink, seen)
    for cutoff in source.cutoffs(fractions):
        sink.tick(cutoff)
        assert (sink.data(), sink.position()) == sink.expected(cutoff)
    for records in seen:
        assert records == [
            r for r in source.log.records if r.txn_id == records[0].txn_id
        ]
    ids = [records[0].txn_id for records in seen]
    assert ids == sorted(set(ids))  # each exactly once, in commit order


@SINKS
@settings(max_examples=60, deadline=None)
@given(txns=transactions, fractions=cutoff_fractions, data=st.data())
def test_reapplying_any_applied_prefix_changes_nothing(make_sink, txns, fractions, data):
    source = Source(txns)
    sink = make_sink(source)
    for cutoff in source.cutoffs(fractions):
        sink.tick(cutoff)
    before = repr((sink.data(), sink.position()))
    sink.tailer.applied_txn = data.draw(st.integers(0, sink.tailer.applied_txn))
    sink.tick(cutoff)
    assert repr((sink.data(), sink.position())) == before


@SINKS
@settings(max_examples=60, deadline=None)
@given(txns=transactions, fractions=cutoff_fractions, data=st.data())
def test_crash_and_resume_equals_an_uninterrupted_run(make_sink, txns, fractions, data):
    crash_tick = data.draw(st.integers(0, len(fractions) - 1))
    survives = data.draw(st.integers(0, 6))
    # False: the sink raised but its process lived on, so the in-memory
    # position must not have moved past the transaction that failed.
    process_dies = data.draw(st.booleans())
    steady = make_sink(Source(txns))
    for cutoff in steady.source.cutoffs(fractions):
        steady.tick(cutoff)

    crashed = make_sink(Source(txns))
    for tick, cutoff in enumerate(crashed.source.cutoffs(fractions)):
        if tick == crash_tick:
            crash_after(crashed, survives)
            try:
                crashed.tick(cutoff)  # may die mid-tick, past its checkpoint
            except Crash:
                pass
            if process_dies:
                crashed.restart()
            else:
                del crashed.tailer.apply_transaction  # the fault clears
        crashed.tick(cutoff)
    assert repr((crashed.data(), crashed.position())) == \
        repr((steady.data(), steady.position()))


@settings(max_examples=120, deadline=None)
@given(txns=transactions, floor=st.integers(-1, 40),
       fraction=st.none() | st.floats(0.0, 1.1))
def test_tailed_records_equal_a_linear_scan(txns, floor, fraction):
    source = Source(txns)
    cutoff = None if fraction is None else fraction * source.end
    tailed = list(transactions_after(source.log, floor, cutoff))
    assert [r for records in tailed for r in records] == \
        reference_records(source.log, floor, cutoff)
    for records in tailed:
        assert records == [
            r for r in source.log.records if r.txn_id == records[0].txn_id
        ]
