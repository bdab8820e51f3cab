"""Hash joins on both protocols, graded by sqlite3.

In a streamed run the three hash operators build and probe on key
columns: :class:`~repro.engine.operators.HashJoin` emits each joined
batch by gathering probe and build columns at the matched positions, and
the semi/anti joins only shrink the probe batch's selection vector; a
tiny plan's ``all_rows()`` builds and probes rows.  The differential
below drives hand-built operator trees over generated tables through
both protocols and requires

* the same rows *in the same order* from ``all_rows()`` and
  ``col_batches()`` (probe order, then build order within a key), on a
  first and a second execution of the same tree (a plan-cached tree is
  reused), and
* stdlib ``sqlite3``'s answer to the same query
  (:class:`tests.sql_reference.SqliteReference`).

The generated tables hold NULL and duplicate keys and int-vs-float keys
in plain column lists.  A build side whose non-NULL keys are distinct is
indexed in one C-level pass, any other one key at a time: both builds
are generated.  Probe sides come filtered (a non-None selection vector)
or not, in one batch or many (the opened tree's ``col_batches(3)``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.backend import BackendServer
from repro.engine import operators as ops
from repro.engine.columnar import column_store
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
from tests.conftest import each_path, run_protocols
from tests.sql_reference import SqliteReference

L_COLUMNS = [("id", DataType.INT, False), ("k", DataType.INT, True),
             ("kf", DataType.FLOAT, True), ("k2", DataType.INT, True),
             ("s", DataType.STRING, True)]
R_COLUMNS = [("k", DataType.INT, True), ("kf", DataType.FLOAT, True),
             ("k2", DataType.INT, True), ("w", DataType.INT, False)]
LB = RowBinding([OutputCol(name, "l") for name, _, _ in L_COLUMNS])
RB = RowBinding([OutputCol(name, "r") for name, _, _ in R_COLUMNS])
JB = LB.concat(RB)

#: Join shapes: (left keys, right keys).  ``kf`` holds floats, so the
#: ``kf``/``k`` pairs join 1.0 to 1 across two column lists.
KEYS = {
    "single": (["l.k"], ["r.k"]),
    "float-int": (["l.kf"], ["r.k"]),
    "int-float": (["l.k"], ["r.kf"]),
    "composite": (["l.k", "l.k2"], ["r.k", "r.k2"]),
    "cross": ([], []),
}

#: Residuals: none, one with a columnar kernel (3VL over NULLs), one
#: whose IR has no kernel (IN over columns: the row closure runs), and
#: an opaque one with no IR (as a subquery predicate compiles).
RESIDUALS = [None, "l.k2 <> r.k2", "l.id + r.w > 6", "l.id IN (r.w, 3)",
             "env:l.id + r.w > 6"]

PROBE_FILTER = "l.id % 3 <> 1"
BUILD_FILTER = "r.w % 2 = 0"


def _fn(binding, sql):
    return compile_expr(parse_expression(sql), binding, ExpressionContext())


def _opaque(binding, sql):
    inner = _fn(binding, sql)
    return lambda row: inner(row)  # no .ir


def _table(name, columns, rows):
    table = HeapTable(name, Schema([Column(c, t, nullable=n) for c, t, n in columns]))
    for row in rows:
        table.insert(row)
    return table


def _source(table, rows, binding, predicate, as_rows):
    """A probe/build source: a SeqScan over the table (one zero-copy
    batch) or a Materialized row set (chunked batches), filtered by
    ``predicate`` when given (a selection vector when streamed)."""
    pred = None if predicate is None else _fn(binding, predicate)
    if as_rows:
        source = ops.Materialized(rows, binding)
        return source if pred is None else ops.Filter(source, pred)
    return ops.SeqScan(table, binding, predicate=pred)


def _assert_agree(rows, tables, sql, key=None):
    """Each protocol gave sqlite3's answer to ``sql`` over ``tables``, and
    both gave it in the same order."""
    reference = SqliteReference(*tables)
    for protocol in ("all_rows", "col_batches"):
        reference.check(rows[protocol], sql, key=key)
    assert rows["col_batches"] == rows["all_rows"], sql


KEY_VALUES = [0, 1, 2, 3]


@st.composite
def tables(draw):
    """(l rows, r rows).  A side's key columns never hold NULL or may;
    probe keys repeat, build keys repeat or are distinct (bar NULLs)."""
    def key(nulls):
        values = st.sampled_from(KEY_VALUES)
        return st.one_of(st.none(), values) if nulls else values

    l_nulls, r_nulls = draw(st.booleans()), draw(st.booleans())
    l_keys = draw(st.lists(st.tuples(key(l_nulls), key(l_nulls)), max_size=40))
    if draw(st.booleans()):
        r_keys = draw(st.lists(st.tuples(key(r_nulls), key(r_nulls)), max_size=12))
    else:
        # Distinct build keys, some out of the probe's range, some NULLed.
        ks = draw(st.lists(st.integers(0, 6), unique=True, max_size=7))
        nulled = draw(st.lists(st.booleans(), min_size=len(ks), max_size=len(ks)))
        r_keys = [(None if r_nulls and drop else k, draw(key(r_nulls)))
                  for k, drop in zip(ks, nulled)]
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
        # The "row engine" is the row protocol: all_rows(), as a tiny plan runs.
        l_rows, r_rows = data
        l_keys, r_keys = KEYS[keys]
        l_table = _table("l", L_COLUMNS, l_rows)
        r_table = _table("r", R_COLUMNS, r_rows)

        def build_tree():
            residual_fn = None
            if residual is not None:
                residual_fn = (_opaque(JB, residual[4:]) if residual.startswith("env:")
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
        _assert_agree(run_protocols(build_tree, size), (l_table, r_table), sql)

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
        _assert_agree(run_protocols(build_tree, size), (l_table, r_table), sql)

    @settings(max_examples=60, deadline=None)
    @given(data=tables(), keys=st.sampled_from(["single", "composite"]),
           aggregate=st.booleans(), probe_filter=st.booleans())
    def test_join_under_row_only_parent(self, data, keys, aggregate, probe_filter):
        # Sort and HashAggregate read the join through col_batches() in a
        # streamed run and through rows() in a tiny plan's all_rows().
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
                out = RowBinding([OutputCol("k"), OutputCol("n"), OutputCol("total"),
                                  OutputCol("mean")])
                return ops.HashAggregate(
                    join, [_fn(JB, "l.s")],
                    [ops.AggregateSpec("count"), ops.AggregateSpec("sum", _fn(JB, "r.w")),
                     ops.AggregateSpec("avg", _fn(JB, "r.k2"))],
                    out,
                )
            # Nullable sort keys: NULL sorts first ascending, last descending.
            return ops.Sort(join, [_fn(JB, "r.k2"), _fn(JB, "l.k2"), _fn(JB, "l.id")],
                            [True, False, False])

        where = f" WHERE {PROBE_FILTER}" if probe_filter else ""
        body = f"FROM l JOIN r ON {_on_clause(l_keys, r_keys)}{where}"
        sql = (f"SELECT l.s, COUNT(*), SUM(r.w), AVG(r.k2) {body} GROUP BY l.s" if aggregate
               else f"SELECT * {body} ORDER BY r.k2 DESC, l.k2, l.id")
        # SELECT *: the sort keys sit at r.k2, l.k2 and l.id of l ++ r.
        _assert_agree(run_protocols(build_tree), (l_table, r_table), sql, key=[7, 3, 0])


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

        rows = run_protocols(build_tree)
        assert rows["col_batches"] == rows["all_rows"] == [
            left + right for left in l_rows for right in r_rows if right[0] == left[1]]

    def test_distinct_build_keys_index_in_one_pass(self):
        # Distinct non-NULL keys map to 1-tuples of their positions (the
        # C-level build); a duplicated key, 1 and 1.0 included, is filed
        # one position at a time.  NULL keys are never filed.
        assert ops._index_keys([3, None, 1, None, 2]) == {3: (0,), 1: (2,), 2: (4,)}
        assert ops._index_keys(iter([(1, 2), (2, 1)])) == {(1, 2): (0,), (2, 1): (1,)}
        assert ops._index_keys([1, None, 1.0, 2]) == {1: [0, 2], 2: [3]}
        assert ops._index_keys([None, None]) == {} == ops._index_keys([])

    def test_empty_sides(self):
        l_rows = [(i, i % 3, float(i % 3), 0, "s") for i in range(10)]
        r_rows = [(i % 3, float(i % 3), 0, i) for i in range(10)]
        for probe, build in (([], r_rows), (l_rows, []), ([], [])):
            l_table = _table("l", L_COLUMNS, probe)
            r_table = _table("r", R_COLUMNS, build)
            rows = run_protocols(lambda: ops.HashJoin(
                ops.SeqScan(l_table, LB), ops.SeqScan(r_table, RB),
                [_fn(LB, "l.k")], [_fn(RB, "r.k")], JB))
            assert rows == {"all_rows": [], "col_batches": []}

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


class TestColumnStore:
    def test_columns_are_lists_of_the_heap_rows_own_values(self):
        # No value is re-boxed: each column list holds the very objects
        # of the live heap rows, in heap order, past a deleted row.
        table = _table("c", [("a", DataType.INT, False), ("f", DataType.FLOAT, False),
                             ("big", DataType.INT, False), ("s", DataType.STRING, True)],
                       [(i, i / 3, 2**70 + i, None if i % 2 else f"s{i}")
                        for i in range(6)])
        table.delete(2)
        live = [values for _, values in table.scan()]
        store = column_store(table)
        assert store.length == len(live) == 5
        for c, column in enumerate(store.columns):
            assert type(column) is list
            assert all(value is row[c] for value, row in zip(column, live, strict=True))


#: A back-end whose tables are large enough to stream.
def _server():
    server = BackendServer()
    server.create_table("CREATE TABLE a (id INT NOT NULL, k INT, PRIMARY KEY (id))")
    server.create_table("CREATE TABLE b (id INT NOT NULL, k INT, PRIMARY KEY (id))")
    a_rows = ", ".join(f"({i}, {'NULL' if i % 9 == 0 else i % 5})" for i in range(60))
    b_rows = ", ".join(f"({i}, {i % 4})" for i in range(40))
    server.execute(f"INSERT INTO a VALUES {a_rows}")
    server.execute(f"INSERT INTO b VALUES {b_rows}")
    server.refresh_statistics()
    return server


class TestThroughTheServer:
    def test_keyless_cross_join_of_the_naive_path(self):
        # A derived table and a base table with no join key between them:
        # the optimizer cross joins them with a key-less HashJoin.
        sql = ("SELECT x.id, b.id FROM (SELECT a.id FROM a WHERE a.k = 1) x, b "
               "WHERE b.k = 2")
        server = _server()
        reference = SqliteReference(server)
        for _ in each_path():
            reference.check(server.execute(sql).rows, sql)

    def test_not_in_empty_subquery_keeps_null_keys(self):
        # NULL NOT IN (<empty>) is TRUE and NULL IN (<empty>) is FALSE, on
        # the anti/semi join and on the compiled subquery alike (DISTINCT
        # keeps the inner block off the semi-join rewrite).
        server = _server()
        reference = SqliteReference(server)
        for sql in ("SELECT a.id FROM a WHERE a.k NOT IN (SELECT b.k FROM b WHERE b.id < 0)",
                    "SELECT a.id FROM a WHERE a.k IN (SELECT b.k FROM b WHERE b.id < 0)"):
            for text in (sql, sql.replace("SELECT b.k", "SELECT DISTINCT b.k")):
                for _ in each_path():
                    reference.check(server.execute(text).rows, text)


class TestTinyPlanRule:
    """The executor runs a plan row-at-a-time only when it reads few rows:
    a full scan counts as its table's live rows, not as its estimate."""

    def test_small_result_of_a_large_scan_runs_columnar(self):
        server = _server()
        result = server.execute("SELECT a.id FROM a WHERE a.id % 20 = 7")
        assert result.rows == [(7,), (27,), (47,)]
        assert result.plan.est_rows < 33
        assert result.context.engine == "columnar"

    def test_point_lookup_and_small_scan_stay_row_mode(self):
        server = _server()
        assert server.execute("SELECT a.k FROM a WHERE a.id = 3").context.engine == "row"
        server.create_table("CREATE TABLE c (id INT NOT NULL, PRIMARY KEY (id))")
        server.execute("INSERT INTO c VALUES (1), (2), (3)")
        server.refresh_statistics()
        assert server.execute("SELECT c.id FROM c").context.engine == "row"

    def test_scanned_tables_found_once_per_tree(self):
        # The cached tree keeps its scan list; later runs read live counts.
        server = _server()
        sql = "SELECT a.id FROM a WHERE a.id % 20 = 7"
        root = server.execute(sql).plan
        scanned = root.scanned_tables
        assert [t.name for t in scanned] == ["a"]
        again = server.execute(sql)
        assert again.plan is root and root.scanned_tables is scanned
        server.execute("DELETE FROM a WHERE a.id > 9")
        assert server.execute(sql).context.engine == "row"
