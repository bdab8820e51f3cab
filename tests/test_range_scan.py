"""Index ranges and prefix seeks, graded by a linear filter and by sqlite3.

:meth:`Index.range <repro.storage.index.Index.range>` finds both ends of
a range by bisection — a prefix bound is padded with -inf or +inf — and
returns the slice of ``(key, rid)`` entries between them.  The
properties below check it against the plainest reading of the contract,
a linear filter of :meth:`~repro.storage.index.Index.scan`, over
composite keys of ints, floats and strings with duplicates and deleted
rows, for every prefix length of either bound, inclusive and exclusive
bounds, open ends and empty ranges.

:class:`~repro.engine.operators.IndexRangeScan` serves that slice
through ``rows()``, ``all_rows()`` and ``col_batches(size)``: all three
must give the filtered rows in index order, the last in ``size``-row
batches, without touching the table's column store.  An equality seek on
an index prefix and an IN-list seek go through
:meth:`~repro.storage.index.Index.seek_keys`; their rows must be stdlib
``sqlite3``'s on both execution paths.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.backend import BackendServer
from repro.engine import operators as ops
from repro.engine.executor import ExecutionContext
from repro.engine.expressions import (
    ExpressionContext,
    OutputCol,
    RowBinding,
    compile_expr,
)
from repro.sql.parser import parse_expression
from repro.storage.schema import Column, DataType, Schema
from repro.storage.table import HeapTable
from tests.conftest import each_path
from tests.sql_reference import SqliteReference

COLUMNS = [("k1", DataType.INT), ("k2", DataType.FLOAT), ("k3", DataType.STRING),
           ("id", DataType.INT)]
BINDING = RowBinding([OutputCol(name, "t") for name, _ in COLUMNS])

#: Stored key parts are drawn from small domains, so keys repeat; bound
#: parts from slightly wider ones, so a bound may fall between, below or
#: above the stored keys (and an int bound meets the float column).
STORED = [st.integers(0, 3), st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from(["a", "b", "c"])]
BOUNDS = [st.integers(-1, 4), st.sampled_from([0, 0.5, 1, 1.0, 1.5, 2.0, 3]),
          st.sampled_from(["", "a", "b", "bb", "c", "d"])]

#: Residuals of the range scan: none, one with a selection kernel, one
#: whose IR has no kernel, and an opaque one with no IR.
RESIDUALS = [None, "t.id % 3 <> 1", "t.id IN (t.k1, 3, 5)", "opaque"]


@st.composite
def tables(draw):
    """A heap table indexed on (k1, k2, k3), some of its rows deleted."""
    table = HeapTable("t", Schema([Column(name, kind, nullable=False)
                                   for name, kind in COLUMNS]))
    index = table.create_index("ix_t", ["k1", "k2", "k3"])
    keys = draw(st.lists(st.tuples(*STORED), max_size=30))
    for i, key in enumerate(keys):
        table.insert(key + (i,))
    for rid in draw(st.sets(st.sampled_from(range(len(keys))), max_size=len(keys) // 2)
                    if keys else st.just(set())):
        table.delete(rid)
    return table, index


@st.composite
def bounds(draw):
    """``(low, high, low_inclusive, high_inclusive)``: each bound open
    (None) or a prefix of 0 to 3 parts."""
    def bound():
        width = draw(st.sampled_from([None, 0, 1, 2, 3]))
        if width is None:
            return None
        return tuple(draw(part) for part in BOUNDS[:width])

    return bound(), bound(), draw(st.booleans()), draw(st.booleans())


def in_range(key, low, high, low_inclusive, high_inclusive):
    """The range contract, read literally: the key's prefix of each
    bound's length lies on the right side of that bound."""
    if low is not None:
        prefix = key[:len(low)]
        if prefix < low or (prefix == low and not low_inclusive):
            return False
    if high is not None:
        prefix = key[:len(high)]
        if prefix > high or (prefix == high and not high_inclusive):
            return False
    return True


class TestIndexRange:
    @settings(max_examples=300, deadline=None)
    @given(data=tables(), bound=bounds())
    def test_range_is_a_linear_filter_of_the_scan(self, data, bound):
        _, index = data
        expected = [entry for entry in index.scan() if in_range(entry[0], *bound)]
        low, high, low_inclusive, high_inclusive = bound
        assert index.range(low, high, low_inclusive, high_inclusive) == expected

    def test_empty_and_inverted_ranges(self):
        table = HeapTable("t", Schema([Column(name, kind) for name, kind in COLUMNS]))
        index = table.create_index("ix_t", ["k1", "k2", "k3"])
        assert index.range((1,), (2,)) == []
        for i in range(6):
            table.insert((i % 3, 1.0, "a", i))
        assert index.range((2,), (1,)) == []
        assert index.range((1,), (1,), low_inclusive=False) == []
        assert index.range((1,), (1,), high_inclusive=False) == []
        assert [rid for _, rid in index.range((1,), (1,))] == [1, 4]


def _residual(sql):
    if sql is None:
        return None
    if sql == "opaque":
        inner = _residual("t.id % 2 = 0")
        return lambda row: inner(row)  # no .ir
    return compile_expr(parse_expression(sql), BINDING, ExpressionContext())


class TestIndexRangeScan:
    @settings(max_examples=200, deadline=None)
    @given(data=tables(), bound=bounds(), residual=st.sampled_from(RESIDUALS),
           size=st.sampled_from([1, 3, 256]))
    def test_protocols_agree_in_index_order(self, data, bound, residual, size):
        table, index = data
        low, high, low_inclusive, high_inclusive = bound
        predicate = _residual(residual)
        scan = ops.IndexRangeScan(table, index, BINDING, low=low, high=high,
                                  low_inclusive=low_inclusive,
                                  high_inclusive=high_inclusive, predicate=predicate)
        expected = [
            table.row(rid) for key, rid in index.scan() if in_range(key, *bound)
        ]
        if predicate is not None:
            expected = [row for row in expected if predicate(row) is True]

        ctx = ExecutionContext()
        ctx.engine = "columnar"
        scan.open(ctx)
        batches = list(scan.col_batches(size))
        assert list(scan.rows()) == expected
        assert scan.all_rows() == expected
        assert [row for batch in batches for row in batch.to_rows()] == expected
        sizes = [batch.n_rows for batch in batches]
        assert sizes == [size] * (len(expected) // size) + (
            [len(expected) % size] if len(expected) % size else [])
        # A range scan reads the index and the heap, never the column store.
        assert table._column_store is None

    def test_a_mutated_table_keeps_its_stale_column_store(self):
        table = HeapTable("t", Schema([Column(name, kind) for name, kind in COLUMNS]))
        index = table.create_index("ix_t", ["k1", "k2", "k3"])
        for i in range(10):
            table.insert((i % 4, 1.0, "a", i))
        seq = ops.SeqScan(table, BINDING)
        seq.open(ExecutionContext())
        list(seq.col_batches())
        built = table._column_store
        table.delete(5)
        scan = ops.IndexRangeScan(table, index, BINDING, low=(1,), high=(2,))
        scan.open(ExecutionContext())
        assert [row[3] for batch in scan.col_batches() for row in batch.to_rows()] == [
            1, 9, 2, 6]
        assert table._column_store is built


#: A back-end table whose primary key (a, b) answers ``g.a = K`` and
#: ``g.a IN (...)`` with prefix seeks, and ``g.a = K AND g.b IN (...)``
#: with full-key ones; a deleted row leaves a hole in the heap.
def _server():
    server = BackendServer()
    server.create_table("CREATE TABLE g (a INT NOT NULL, b INT NOT NULL, v INT, "
                        "PRIMARY KEY (a, b))")
    server.execute("INSERT INTO g VALUES " + ", ".join(
        f"({i % 40}, {i}, {'NULL' if i % 7 == 0 else i % 5})" for i in range(400)))
    server.execute("DELETE FROM g WHERE g.b % 11 = 3")
    server.refresh_statistics()
    return server


KEYS = st.sampled_from([-1, 0, 3, 17, 39, 40, 2.0, 2.5])


@st.composite
def seeks(draw):
    kind = draw(st.sampled_from(["prefix", "prefix-in", "full-in"]))
    residual = draw(st.sampled_from(["", " AND g.v > 1", " AND g.v IS NULL"]))
    if kind == "prefix":
        return f"SELECT g.a, g.b, g.v FROM g WHERE g.a = {draw(KEYS)}{residual}"
    items = ", ".join(str(k) for k in draw(st.lists(KEYS, min_size=1, max_size=5)))
    if kind == "prefix-in":
        return f"SELECT g.a, g.b, g.v FROM g WHERE g.a IN ({items}){residual}"
    return (f"SELECT g.a, g.b, g.v FROM g WHERE g.a = {draw(KEYS)} "
            f"AND g.b IN ({items}, 41, 123){residual}")


class TestPrefixSeeks:
    server = _server()
    reference = SqliteReference(server)

    @settings(max_examples=80, deadline=None)
    @given(sql=seeks())
    def test_seeks_match_sqlite_on_both_paths(self, sql):
        plan = self.server.optimize(sql).root().explain()
        assert "IndexSeek(g.pk_g" in plan, plan
        for _ in each_path():
            self.reference.check(self.server.execute(sql).rows, sql)
