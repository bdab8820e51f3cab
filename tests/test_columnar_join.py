"""Columnar hash joins: the columnar engine agrees with the row engine and
sqlite3.

Under the columnar engine the three hash operators build and probe on
key columns: :class:`~repro.engine.operators.HashJoin` emits each joined
batch by gathering probe and build columns at the matched positions, and
the semi/anti joins only shrink the probe batch's selection vector.  The
differential below drives hand-built operator trees over generated
tables through both engines and requires

* the same rows *in the same order* as the row engine (probe order, then
  build order within a key), on a first and a second execution of the
  same tree (a plan-cached tree is reused), and
* the same bag of rows as stdlib ``sqlite3`` answering the same query.

The generated tables mix typed (``array``) and list column buffers, NULL
and duplicate keys and int-vs-float keys; probe sides come filtered (a
non-None selection vector) or not, in one batch or many (the opened
tree's ``col_batches(3)``).
"""

import sqlite3
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.backend import BackendServer
from repro.common.clock import SimulatedClock
from repro.engine import operators as ops
from repro.engine.executor import ExecutionContext, Executor
from repro.engine.expressions import (
    ExpressionContext,
    OutputCol,
    RowBinding,
    compile_expr,
)
from repro.sql.parser import parse, parse_expression
from repro.storage.schema import Column, DataType, Schema
from repro.storage.table import HeapTable

L_COLUMNS = [("id", DataType.INT, False), ("k", DataType.INT, True),
             ("kf", DataType.FLOAT, True), ("k2", DataType.INT, True),
             ("s", DataType.STRING, True)]
R_COLUMNS = [("k", DataType.INT, True), ("kf", DataType.FLOAT, True),
             ("k2", DataType.INT, True), ("w", DataType.INT, False)]
LB = RowBinding([OutputCol(name, "l") for name, _, _ in L_COLUMNS])
RB = RowBinding([OutputCol(name, "r") for name, _, _ in R_COLUMNS])
JB = LB.concat(RB)

#: Join shapes: (left keys, right keys).  ``kf`` holds floats, so the
#: ``kf``/``k`` pairs join 1.0 to 1 — across an ``array('d')`` and an
#: ``array('q')`` buffer when neither column has a NULL, lists otherwise.
KEYS = {
    "single": (["l.k"], ["r.k"]),
    "float-int": (["l.kf"], ["r.k"]),
    "int-float": (["l.k"], ["r.kf"]),
    "composite": (["l.k", "l.k2"], ["r.k", "r.k2"]),
    "cross": ([], []),
}

#: Residuals: none, one with a columnar kernel (3VL over NULLs), one
#: whose IR has no kernel (IN over columns: the row closure runs), and
#: one with neither IR nor a row closure (the env path runs).
RESIDUALS = [None, "l.k2 <> r.k2", "l.id + r.w > 6", "l.id IN (r.w, 3)",
             "env:l.id + r.w > 6"]

PROBE_FILTER = "l.id % 3 <> 1"
BUILD_FILTER = "r.w % 2 = 0"


def _fn(binding, sql):
    return compile_expr(parse_expression(sql), binding, ExpressionContext())


def _env_only(binding, sql):
    inner = _fn(binding, sql)
    return lambda env: inner(env)  # no .ir, no .row_fn


def _table(name, columns, rows):
    table = HeapTable(name, Schema([Column(c, t, nullable=n) for c, t, n in columns]))
    for row in rows:
        table.insert(row)
    return table


def _source(table, rows, binding, predicate, as_rows):
    """A probe/build source: a SeqScan over the table (one zero-copy
    batch) or a Materialized row set (chunked batches), filtered by
    ``predicate`` when given (a selection vector under columnar)."""
    pred = None if predicate is None else _fn(binding, predicate)
    if as_rows:
        source = ops.Materialized(rows, binding)
        return source if pred is None else ops.Filter(source, pred)
    return ops.SeqScan(table, binding, predicate=pred)


def _col_batch_rows(tree, size):
    """Open ``tree`` under the columnar engine and drain its
    ``col_batches(size)`` (many batches for a small ``size``)."""
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
    db.execute("CREATE TABLE l (id INTEGER, k INTEGER, kf REAL, k2 INTEGER, s TEXT)")
    db.execute("CREATE TABLE r (k INTEGER, kf REAL, k2 INTEGER, w INTEGER)")
    db.executemany("INSERT INTO l VALUES (?, ?, ?, ?, ?)", l_rows)
    db.executemany("INSERT INTO r VALUES (?, ?, ?, ?)", r_rows)
    return db.execute(sql).fetchall()


def _assert_agree(rows, l_rows, r_rows, sql):
    reference = rows["row"]
    assert rows["columnar"] == reference, sql
    assert Counter(reference) == Counter(_sqlite_rows(l_rows, r_rows, sql)), sql


KEY_VALUES = [0, 1, 2, 3]


@st.composite
def tables(draw):
    """(l rows, r rows).  A column either never holds NULL (typed buffer)
    or may (list buffer); keys repeat on both sides."""
    def key(nulls):
        values = st.sampled_from(KEY_VALUES)
        return st.one_of(st.none(), values) if nulls else values

    l_nulls, r_nulls = draw(st.booleans()), draw(st.booleans())
    l_keys = draw(st.lists(st.tuples(key(l_nulls), key(l_nulls)), max_size=40))
    r_keys = draw(st.lists(st.tuples(key(r_nulls), key(r_nulls)), max_size=12))
    l_rows = [(i, k, None if k is None else float(k), k2, f"s{i % 4}")
              for i, (k, k2) in enumerate(l_keys)]
    r_rows = [(k, None if k is None else float(k), k2, i)
              for i, (k, k2) in enumerate(r_keys)]
    return l_rows, r_rows


def _on_clause(l_keys, r_keys):
    return " AND ".join(f"{a} = {b}" for a, b in zip(l_keys, r_keys)) or "1"


class TestHashJoinDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        data=tables(),
        keys=st.sampled_from(sorted(KEYS)),
        residual=st.sampled_from(RESIDUALS),
        probe_filter=st.booleans(),
        build_filter=st.booleans(),
        probe_rows=st.booleans(),
        build_rows=st.booleans(),
        size=st.sampled_from([3, None]),
    )
    def test_join_matches_row_engine_and_sqlite(self, data, keys, residual, probe_filter,
                                                build_filter, probe_rows, build_rows, size):
        l_rows, r_rows = data
        l_keys, r_keys = KEYS[keys]
        l_table = _table("l", L_COLUMNS, l_rows)
        r_table = _table("r", R_COLUMNS, r_rows)

        def build_tree():
            residual_fn = None
            if residual is not None:
                residual_fn = (_env_only(JB, residual[4:]) if residual.startswith("env:")
                               else _fn(JB, residual))
            return ops.HashJoin(
                _source(l_table, l_rows, LB, PROBE_FILTER if probe_filter else None,
                        probe_rows),
                _source(r_table, r_rows, RB, BUILD_FILTER if build_filter else None,
                        build_rows),
                [_fn(LB, k) for k in l_keys], [_fn(RB, k) for k in r_keys], JB,
                residual=residual_fn,
            )

        where = [f for f, on in ((PROBE_FILTER, probe_filter),
                                 (BUILD_FILTER, build_filter)) if on]
        if residual is not None:
            where.append(residual.removeprefix("env:"))
        sql = (f"SELECT * FROM l JOIN r ON {_on_clause(l_keys, r_keys)}"
               + (f" WHERE {' AND '.join(where)}" if where else ""))
        _assert_agree(_run_engines(build_tree, size), l_rows, r_rows, sql)

    @settings(max_examples=80, deadline=None)
    @given(
        data=tables(),
        keys=st.sampled_from(["single", "float-int", "int-float"]),
        anti=st.booleans(),
        probe_filter=st.booleans(),
        probe_rows=st.booleans(),
        size=st.sampled_from([3, None]),
    )
    def test_semi_and_anti_match_row_engine_and_sqlite(self, data, keys, anti,
                                                       probe_filter, probe_rows, size):
        # NOT IN's NULL trap is generated, not hand-picked: any NULL key
        # on the build side empties the anti join; a NULL probe key
        # qualifies only against an empty build side.
        l_rows, r_rows = data
        (l_key,), (r_key,) = KEYS[keys]
        l_table = _table("l", L_COLUMNS, l_rows)
        r_table = _table("r", R_COLUMNS, r_rows)
        operator = ops.HashAntiJoin if anti else ops.HashSemiJoin

        def build_tree():
            return operator(
                _source(l_table, l_rows, LB, PROBE_FILTER if probe_filter else None,
                        probe_rows),
                ops.SeqScan(r_table, RB),
                [_fn(LB, l_key)], [_fn(RB, r_key)],
            )

        sql = (f"SELECT * FROM l WHERE {l_key} {'NOT IN' if anti else 'IN'} "
               f"(SELECT {r_key} FROM r)"
               + (f" AND {PROBE_FILTER}" if probe_filter else ""))
        _assert_agree(_run_engines(build_tree, size), l_rows, r_rows, sql)

    @settings(max_examples=60, deadline=None)
    @given(data=tables(), keys=st.sampled_from(["single", "composite"]),
           aggregate=st.booleans(), probe_filter=st.booleans())
    def test_join_under_row_only_parent(self, data, keys, aggregate, probe_filter):
        # Sort and HashAggregate read the join through col_batches() under
        # the columnar engine and through rows() under the row engine.
        l_rows, r_rows = data
        l_keys, r_keys = KEYS[keys]
        l_table = _table("l", L_COLUMNS, l_rows)
        r_table = _table("r", R_COLUMNS, r_rows)

        def build_tree():
            join = ops.HashJoin(
                _source(l_table, l_rows, LB, PROBE_FILTER if probe_filter else None, False),
                ops.SeqScan(r_table, RB),
                [_fn(LB, k) for k in l_keys], [_fn(RB, k) for k in r_keys], JB,
            )
            if aggregate:
                out = RowBinding([OutputCol("k"), OutputCol("n"), OutputCol("total")])
                return ops.HashAggregate(
                    join, [_fn(JB, "l.s")],
                    [ops.AggregateSpec("count"), ops.AggregateSpec("sum", _fn(JB, "r.w"))],
                    out,
                )
            return ops.Sort(join, [_fn(JB, "r.w"), _fn(JB, "l.id")], [True, False])

        where = f" WHERE {PROBE_FILTER}" if probe_filter else ""
        body = f"FROM l JOIN r ON {_on_clause(l_keys, r_keys)}{where}"
        sql = (f"SELECT l.s, COUNT(*), SUM(r.w) {body} GROUP BY l.s" if aggregate
               else f"SELECT * {body} ORDER BY r.w DESC, l.id")
        rows = _run_engines(build_tree)
        _assert_agree(rows, l_rows, r_rows, sql)
        if not aggregate:
            assert rows["columnar"] == _sqlite_rows(l_rows, r_rows, sql)


class TestHashJoinEdges:
    def test_multi_batch_build_keeps_arrival_order(self):
        # 600 build rows arrive as three shim batches; positions must
        # continue across them.
        l_rows = [(i, i % 7, float(i % 7), None, "s") for i in range(50)]
        r_rows = [(i % 7, float(i % 7), None, i) for i in range(600)]
        l_table = _table("l", L_COLUMNS, l_rows)

        def build_tree():
            return ops.HashJoin(
                ops.SeqScan(l_table, LB), ops.Materialized(r_rows, RB),
                [_fn(LB, "l.k")], [_fn(RB, "r.k")], JB,
            )

        rows = _run_engines(build_tree)
        assert rows["columnar"] == rows["row"] == [
            left + right for left in l_rows for right in r_rows if right[0] == left[1]]

    def test_empty_sides(self):
        l_rows = [(i, i % 3, float(i % 3), 0, "s") for i in range(10)]
        r_rows = [(i % 3, float(i % 3), 0, i) for i in range(10)]
        for probe, build in (([], r_rows), (l_rows, []), ([], [])):
            l_table = _table("l", L_COLUMNS, probe)
            r_table = _table("r", R_COLUMNS, build)
            rows = _run_engines(lambda: ops.HashJoin(
                ops.SeqScan(l_table, LB), ops.SeqScan(r_table, RB),
                [_fn(LB, "l.k")], [_fn(RB, "r.k")], JB))
            assert rows == {engine: [] for engine in ops.ENGINES}

    def test_columnar_join_emits_gathered_batches(self):
        # No row tuples inside the join: its output batch is built from
        # gathered columns (no source_rows), one batch per probe batch.
        l_rows = [(i, i % 4, float(i % 4), 0, "s") for i in range(40)]
        r_rows = [(k, float(k), 0, k) for k in (1, 1, 3)]
        join = ops.HashJoin(
            ops.SeqScan(_table("l", L_COLUMNS, l_rows), LB,
                        predicate=_fn(LB, PROBE_FILTER)),
            ops.SeqScan(_table("r", R_COLUMNS, r_rows), RB),
            [_fn(LB, "l.k")], [_fn(RB, "r.k")], JB,
        )
        ctx = ExecutionContext()
        ctx.engine = "columnar"
        join.open(ctx)
        batches = list(join.col_batches())
        assert len(batches) == 1 and batches[0].source_rows is None
        expected = [l + r for l in l_rows if l[0] % 3 != 1
                    for r in r_rows if r[0] == l[1]]
        assert batches[0].to_rows() == expected


#: A back-end whose tables are large enough for the columnar engine.
def _server(engine):
    server = BackendServer(engine=engine)
    server.create_table("CREATE TABLE a (id INT NOT NULL, k INT, PRIMARY KEY (id))")
    server.create_table("CREATE TABLE b (id INT NOT NULL, k INT, PRIMARY KEY (id))")
    a_rows = ", ".join(f"({i}, {'NULL' if i % 9 == 0 else i % 5})" for i in range(60))
    b_rows = ", ".join(f"({i}, {i % 4})" for i in range(40))
    server.execute(f"INSERT INTO a VALUES {a_rows}")
    server.execute(f"INSERT INTO b VALUES {b_rows}")
    server.refresh_statistics()
    return server


def _sqlite_server_rows(sql):
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE a (id INTEGER, k INTEGER)")
    db.execute("CREATE TABLE b (id INTEGER, k INTEGER)")
    db.executemany("INSERT INTO a VALUES (?, ?)",
                   [(i, None if i % 9 == 0 else i % 5) for i in range(60)])
    db.executemany("INSERT INTO b VALUES (?, ?)", [(i, i % 4) for i in range(40)])
    return db.execute(sql).fetchall()


class TestThroughTheServer:
    def test_keyless_cross_join_of_the_naive_path(self):
        # A derived table sends the back-end down its naive planner, which
        # cross joins FROM items with a key-less HashJoin.
        sql = ("SELECT x.id, b.id FROM (SELECT a.id FROM a WHERE a.k = 1) x, b "
               "WHERE b.k = 2")
        rows = {engine: _server(engine).execute(sql).rows for engine in ops.ENGINES}
        assert rows["columnar"] == rows["row"]
        assert Counter(rows["row"]) == Counter(_sqlite_server_rows(sql))

    def test_not_in_empty_subquery_keeps_null_keys(self):
        # NULL NOT IN (<empty>) is TRUE and NULL IN (<empty>) is FALSE, on
        # the anti/semi join and on the naive path's expression alike.
        for sql in ("SELECT a.id FROM a WHERE a.k NOT IN (SELECT b.k FROM b WHERE b.id < 0)",
                    "SELECT a.id FROM a WHERE a.k IN (SELECT b.k FROM b WHERE b.id < 0)"):
            expected = Counter(_sqlite_server_rows(sql))
            for engine in ops.ENGINES:
                server = _server(engine)
                assert Counter(server.execute(sql).rows) == expected, (engine, sql)
                root, _, _ = server._build_naive(parse(sql))
                assert Counter(server.executor.execute(root).rows) == expected, (engine, sql)


class TestTinyPlanRule:
    """The executor runs a plan row-at-a-time only when it reads few rows:
    a full scan counts as its table's live rows, not as its estimate."""

    def test_small_result_of_a_large_scan_runs_columnar(self):
        server = _server("columnar")
        result = server.execute("SELECT a.id FROM a WHERE a.id % 20 = 7")
        assert result.rows == [(7,), (27,), (47,)]
        assert result.plan.est_rows < 33
        assert result.context.engine == "columnar"

    def test_point_lookup_and_small_scan_stay_row_mode(self):
        server = _server("columnar")
        assert server.execute("SELECT a.k FROM a WHERE a.id = 3").context.engine == "row"
        server.create_table("CREATE TABLE c (id INT NOT NULL, PRIMARY KEY (id))")
        server.execute("INSERT INTO c VALUES (1), (2), (3)")
        server.refresh_statistics()
        assert server.execute("SELECT c.id FROM c").context.engine == "row"

    def test_scanned_tables_found_once_per_tree(self):
        # The cached tree keeps its scan list; later runs read live counts.
        server = _server("columnar")
        sql = "SELECT a.id FROM a WHERE a.id % 20 = 7"
        root = server.execute(sql).plan
        scanned = root.scanned_tables
        assert [t.name for t in scanned] == ["a"]
        again = server.execute(sql)
        assert again.plan is root and root.scanned_tables is scanned
        server.execute("DELETE FROM a WHERE a.id > 9")
        assert server.execute(sql).context.engine == "row"
