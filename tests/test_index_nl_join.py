"""Columnar index nested-loops joins and column results across the tier
boundary.

Under the columnar engine :class:`~repro.engine.operators.IndexNLJoin`
probes its inner index once per outer key and gathers the outer batch's
columns and the inner table's column store at the matches, when its
inner side is an equality :class:`~repro.engine.operators.IndexSeek`
keyed on bare outer columns (no IN list; no inner predicate, or one with
a selection kernel).  Every other shape re-opens the inner seek per
outer row.  The differential below drives hand-built joins over
generated tables through both engines and requires

* the same rows *in the same order* as the row engine (outer order, then
  index order within a key), on a first and a second execution of the
  same tree, and
* the same bag of rows as stdlib ``sqlite3`` answering the same query.

The generated inner tables have heap holes (deleted rows) and duplicate
keys on a two-column index; outer keys are NULL, int or float, seek a
prefix or the whole key, and arrive in one batch or many.

The boundary cases check :class:`~repro.engine.operators.RemoteQuery`
over the column result ``execute_remote`` returns.
"""

import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.backend import BackendServer
from repro.common.clock import SimulatedClock
from repro.engine import operators as ops
from repro.engine.columnar import ColumnBatch
from repro.engine.executor import ExecutionContext, Executor
from repro.engine.expressions import (
    ExpressionContext,
    OutputCol,
    RowBinding,
    compile_expr,
)
from repro.sql.parser import parse_expression
from repro.storage.schema import Column, DataType, Schema
from repro.storage.table import HeapTable
from tests.conftest import EXECUTION_PATHS

L_COLUMNS = [("id", DataType.INT, False), ("k", DataType.INT, True),
             ("kf", DataType.FLOAT, True), ("k2", DataType.INT, True)]
R_COLUMNS = [("k", DataType.INT, False), ("k2", DataType.INT, False),
             ("w", DataType.INT, False)]
LB = RowBinding([OutputCol(name, "l") for name, _, _ in L_COLUMNS])
RB = RowBinding([OutputCol(name, "r") for name, _, _ in R_COLUMNS])
JB = LB.concat(RB)
#: The inner seek's key functions read the outer row through the
#: correlated environment, as the optimizer compiles them.
KEY_BINDING = RowBinding([], outer=LB)

#: Seek shapes: outer key columns against the inner (k, k2) index — a
#: prefix seek on ``k`` or the whole key.  ``kf`` holds floats, so the
#: ``kf`` shapes seek 1.0 for a stored 1.
KEYS = {
    "prefix": ["l.k"],
    "prefix-float": ["l.kf"],
    "full": ["l.k", "l.k2"],
    "full-float": ["l.kf", "l.k2"],
}

#: Inner predicates: none, one with a selection kernel, and two without
#: (IN over columns; an env-only closure) — those two take the row loop.
INNER_PREDICATES = [None, "r.w % 2 = 0", "r.w IN (r.k, 3)", "env:r.w > 4"]

#: Residuals: none, one with a kernel (3VL over NULLs), one without (the
#: row closure runs), and one with neither IR nor a row closure.
RESIDUALS = [None, "l.k2 <> r.w", "l.id IN (r.w, 3)", "env:l.id + r.w > 6"]

OUTER_FILTER = "l.id % 3 <> 1"


def _fn(binding, sql):
    if sql.startswith("env:"):
        inner = compile_expr(parse_expression(sql[4:]), binding, ExpressionContext())
        return lambda env: inner(env)  # no .ir, no .row_fn
    return compile_expr(parse_expression(sql), binding, ExpressionContext())


def _outer_table(rows):
    table = HeapTable("l", Schema([Column(c, t, nullable=n) for c, t, n in L_COLUMNS]))
    for row in rows:
        table.insert(row)
    return table


def _inner_table(rows, deleted):
    """The inner table with a non-unique (k, k2) index; the rows at the
    ``deleted`` heap positions are deleted, leaving holes in the heap."""
    table = HeapTable("r", Schema([Column(c, t, nullable=n) for c, t, n in R_COLUMNS]))
    index = table.create_index("ix_r", ["k", "k2"])
    for row in rows:
        table.insert(row)
    for rid in sorted(deleted):
        table.delete(rid)
    return table, index


def _join(l_table, l_rows, r_table, index, keys, inner_predicate, residual,
          outer_filter, outer_rows):
    """``IndexNLJoin(outer, IndexSeek(r.ix_r))`` as the optimizer builds
    it: key functions over the outer row, their outer positions, the
    inner predicate on the seek and the residual on the join."""
    pred = None if not outer_filter else _fn(LB, OUTER_FILTER)
    if outer_rows:
        outer = ops.Materialized(l_rows, LB)
        outer = outer if pred is None else ops.Filter(outer, pred)
    else:
        outer = ops.SeqScan(l_table, LB, predicate=pred)
    inner = ops.IndexSeek(
        r_table, index, [_fn(KEY_BINDING, key) for key in keys], RB,
        predicate=None if inner_predicate is None else _fn(RB, inner_predicate),
    )
    outer_keys = [LB.resolve(parse_expression(key))[1] for key in keys]
    return ops.IndexNLJoin(
        outer, inner, JB,
        residual=None if residual is None else _fn(JB, residual),
        outer_keys=outer_keys,
    )


def _col_batch_rows(tree, size):
    ctx = ExecutionContext()
    ctx.engine = "columnar"
    tree.open(ctx)
    try:
        return [row for batch in tree.col_batches(size) for row in batch.to_rows()]
    finally:
        tree.close()


def _run_engines(build_tree, size=None):
    """Rows per engine; each tree runs twice and must repeat itself.  With
    a ``size`` the columnar run drains ``col_batches(size)`` itself."""
    out = {}
    for engine in ops.ENGINES:
        tree = build_tree()
        if engine == "columnar" and size is not None:
            run = lambda: _col_batch_rows(tree, size)  # noqa: E731
        else:
            executor = Executor(clock=SimulatedClock(), engine=engine)
            run = lambda: executor.execute(tree).rows  # noqa: E731
        first = run()
        assert run() == first, engine
        out[engine] = first
    return out


def _sqlite_rows(l_rows, r_rows, sql):
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE l (id INTEGER, k INTEGER, kf REAL, k2 INTEGER)")
    db.execute("CREATE TABLE r (k INTEGER, k2 INTEGER, w INTEGER)")
    db.executemany("INSERT INTO l VALUES (?, ?, ?, ?)", l_rows)
    db.executemany("INSERT INTO r VALUES (?, ?, ?)", r_rows)
    return db.execute(sql).fetchall()


KEY_VALUES = [0, 1, 2, 3]


@st.composite
def tables(draw):
    """(outer rows, inner rows, deleted inner heap positions).  Outer keys
    may be NULL; inner keys repeat, so one outer key meets several rows."""
    maybe_null = st.one_of(st.none(), st.sampled_from(KEY_VALUES))
    l_keys = draw(st.lists(st.tuples(maybe_null, maybe_null), max_size=40))
    r_keys = draw(st.lists(st.tuples(st.sampled_from(KEY_VALUES),
                                     st.sampled_from(KEY_VALUES)), max_size=24))
    l_rows = [(i, k, None if k is None else float(k), k2)
              for i, (k, k2) in enumerate(l_keys)]
    r_rows = [(k, k2, i) for i, (k, k2) in enumerate(r_keys)]
    deleted = draw(st.sets(st.sampled_from(range(len(r_rows))), max_size=len(r_rows))
                   if r_rows else st.just(set()))
    return l_rows, r_rows, deleted


def _sql(keys, inner_predicate, residual, outer_filter):
    on = " AND ".join(f"{key} = r.{key.split('.')[1].removesuffix('f')}"
                      for key in keys)
    where = [OUTER_FILTER] if outer_filter else []
    where += [p.removeprefix("env:") for p in (inner_predicate, residual) if p]
    return (f"SELECT * FROM l JOIN r ON {on}"
            + (f" WHERE {' AND '.join(where)}" if where else ""))


class TestIndexNLJoinDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        data=tables(),
        keys=st.sampled_from(sorted(KEYS)),
        inner_predicate=st.sampled_from(INNER_PREDICATES),
        residual=st.sampled_from(RESIDUALS),
        outer_filter=st.booleans(),
        outer_rows=st.booleans(),
        size=st.sampled_from([3, None]),
    )
    def test_join_matches_row_engine_and_sqlite(self, data, keys, inner_predicate,
                                                residual, outer_filter, outer_rows,
                                                size):
        l_rows, r_rows, deleted = data
        l_table = _outer_table(l_rows)
        r_table, index = _inner_table(r_rows, deleted)
        live_r = [row for rid, row in enumerate(r_rows) if rid not in deleted]

        def build_tree():
            return _join(l_table, l_rows, r_table, index, KEYS[keys], inner_predicate,
                         residual, outer_filter, outer_rows)

        rows = _run_engines(build_tree, size)
        sql = _sql(KEYS[keys], inner_predicate, residual, outer_filter)
        assert rows["columnar"] == rows["row"], sql
        assert Counter(rows["row"]) == Counter(_sqlite_rows(l_rows, live_r, sql)), sql


def _opens_per_run(tree):
    """Drain ``tree`` under the columnar engine; the number of times its
    inner seek was opened."""
    opened = []
    inner_open = tree.inner.open
    tree.inner.open = lambda ctx, env=None: (opened.append(1), inner_open(ctx, env))
    _col_batch_rows(tree, 4)
    return len(opened)


class TestColumnarProbe:
    ROWS_L = [(i, i % 4, float(i % 4), i % 3) for i in range(20)]
    ROWS_R = [(k, k2, 10 * k + k2) for k in range(4) for k2 in range(3)]

    def tree(self, inner_predicate=None, residual=None, outer_keys=True):
        r_table, index = _inner_table(self.ROWS_R, {2, 5})
        join = _join(_outer_table(self.ROWS_L), self.ROWS_L, r_table, index,
                     KEYS["prefix"], inner_predicate, residual, False, False)
        if not outer_keys:
            join.outer_keys = None
        return join

    @pytest.mark.parametrize("inner_predicate,residual", [
        (None, None), ("r.w % 2 = 0", None), (None, "l.id IN (r.w, 3)"),
        ("r.w % 2 = 0", "env:l.id + r.w > 6"),
    ])
    def test_kernel_shapes_never_open_the_inner_seek(self, inner_predicate, residual):
        assert _opens_per_run(self.tree(inner_predicate, residual)) == 0

    @pytest.mark.parametrize("inner_predicate,outer_keys", [
        ("r.w IN (r.k, 3)", True), ("env:r.w > 4", True), (None, False),
    ])
    def test_other_shapes_keep_the_row_loop(self, inner_predicate, outer_keys):
        assert _opens_per_run(self.tree(inner_predicate, outer_keys=outer_keys)) == 20

    def test_one_gathered_batch_per_outer_batch(self):
        tree = self.tree()
        ctx = ExecutionContext()
        ctx.engine = "columnar"
        tree.open(ctx)
        batches = list(tree.col_batches())
        assert len(batches) == 1 and batches[0].source_rows is None
        live_r = [row for rid, row in enumerate(self.ROWS_R) if rid not in (2, 5)]
        assert batches[0].to_rows() == [
            left + right for left in self.ROWS_L for right in live_r if right[0] == left[1]]


# ----------------------------------------------------------------------
# A NULL outer key through the server (regression: Index.seek compared
# None with an int and raised TypeError)
# ----------------------------------------------------------------------
NULL_KEY_SQL = "SELECT c.cid, p.v FROM c c, p p WHERE c.pid = p.id AND c.cid < 12"


def _null_key_server(engine):
    server = BackendServer(engine=engine)
    server.create_table("CREATE TABLE p (id INT NOT NULL, v INT NOT NULL, PRIMARY KEY (id))")
    server.create_table("CREATE TABLE c (cid INT NOT NULL, pid INT, PRIMARY KEY (cid))")
    server.execute("INSERT INTO p VALUES " + ", ".join(
        f"({i}, {i * 7 % 101})" for i in range(2000)))
    server.execute("INSERT INTO c VALUES " + ", ".join(
        f"({i}, {'NULL' if i % 5 == 0 else i * 13 % 2000})" for i in range(2000)))
    server.refresh_statistics()
    return server


def _sqlite_null_key_rows():
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE p (id INTEGER, v INTEGER)")
    db.execute("CREATE TABLE c (cid INTEGER, pid INTEGER)")
    db.executemany("INSERT INTO p VALUES (?, ?)", [(i, i * 7 % 101) for i in range(2000)])
    db.executemany("INSERT INTO c VALUES (?, ?)",
                   [(i, None if i % 5 == 0 else i * 13 % 2000) for i in range(2000)])
    return db.execute(NULL_KEY_SQL).fetchall()


@pytest.mark.parametrize("engine", EXECUTION_PATHS, indirect=True)
def test_null_outer_key_matches_nothing(engine):
    server = _null_key_server(engine)
    plan = "\n".join(line for (line,) in server.explain(NULL_KEY_SQL).rows)
    assert "IndexNLJoin" in plan and "IndexSeek(p.pk_p)" in plan, plan
    rows = server.execute(NULL_KEY_SQL).rows
    assert Counter(rows) == Counter(_sqlite_null_key_rows())
    assert server.execute_remote(NULL_KEY_SQL).to_rows() == rows


# ----------------------------------------------------------------------
# RemoteQuery over a column result
# ----------------------------------------------------------------------
def _multi_batch():
    """A column result concatenated from three batches, two of them
    filtered (what the back-end's executor hands back for a plan that
    streams several batches)."""
    a = ColumnBatch([[1, 2, 3], ["a", "b", "c"]], 3, sel=[0, 2])
    b = ColumnBatch([[4, 5], ["d", "e"]], 2)
    c = ColumnBatch([[6, 7, 8], ["f", "g", "h"]], 3, sel=[1])
    return ColumnBatch.concat([a, b, c], 2), [(1, "a"), (3, "c"), (4, "d"), (5, "e"),
                                              (7, "g")]


RESULTS = {
    "empty": (ColumnBatch([[], []], 0), []),
    "tiny": (ColumnBatch.from_rows([(9, "z")], 2), [(9, "z")]),
    "multi-batch": _multi_batch(),
}


class TestRemoteQuery:
    BINDING = RowBinding([OutputCol("x"), OutputCol("y")])

    def run(self, result, protocol):
        ctx = ExecutionContext()
        op = ops.RemoteQuery("SELECT x, y FROM t", self.BINDING, lambda sql: result)
        op.open(ctx)
        try:
            if protocol == "rows":
                rows = list(op.rows())
            elif protocol == "all_rows":
                rows = op.all_rows()
            else:
                rows = [row for batch in op.col_batches() for row in batch.to_rows()]
        finally:
            op.close()
        return rows, ctx.remote_queries

    @pytest.mark.parametrize("shape", sorted(RESULTS))
    @pytest.mark.parametrize("protocol", ["rows", "all_rows", "col_batches"])
    def test_protocols_agree(self, shape, protocol):
        result, expected = RESULTS[shape]
        rows, recorded = self.run(result, protocol)
        assert rows == expected
        assert recorded == [("SELECT x, y FROM t", len(expected))]

    def test_col_batches_serves_the_batch_as_is(self):
        result, _ = _multi_batch()
        op = ops.RemoteQuery("SELECT x, y FROM t", self.BINDING, lambda sql: result)
        op.open(ExecutionContext())
        assert list(op.col_batches()) == [result]

    @pytest.mark.parametrize("engine", EXECUTION_PATHS, indirect=True)
    @pytest.mark.parametrize("sql", [
        "SELECT p.id, p.v FROM p p WHERE p.id < 0",       # empty
        "SELECT p.id, p.v FROM p p WHERE p.id = 3",       # tiny: wrapped rows
        "SELECT p.id, p.v FROM p p WHERE p.id < 700",     # a range scan's batches
        "SELECT c.cid, p.v FROM c c, p p WHERE c.pid = p.id AND c.cid < 900",
    ])
    def test_backend_column_result_equals_its_rows(self, engine, sql):
        server = _null_key_server(engine)
        expected = server.execute(sql).rows
        batch = server.execute_remote(sql)
        assert batch.sel is None and batch.n_rows == len(expected)
        assert batch.to_rows() == expected
        for protocol in ("rows", "all_rows", "col_batches"):
            rows, recorded = self.run(server.execute_remote(sql), protocol)
            assert rows == expected
            assert recorded == [("SELECT x, y FROM t", len(expected))]


def test_executor_counts_every_row_of_a_multi_batch_result():
    # 600 rows stream as three batches; the run keeps them as one
    # concatenated batch and the row counter sees all of them.
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    executor = Executor(clock=SimulatedClock(), registry=registry)
    source = ops.Materialized([(i, i % 7) for i in range(600)], RowBinding(
        [OutputCol("a"), OutputCol("b")]))
    result = executor.execute(source, ctx=ExecutionContext())
    assert result.batch.sel is None and result.batch.n_rows == 600
    assert result.rows == [(i, i % 7) for i in range(600)]
    assert registry.counter("rows_produced_total").value == 600
    assert registry.counter("engine_batches_total").value == 3
