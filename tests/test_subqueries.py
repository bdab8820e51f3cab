"""Subqueries as compiled plans, graded by stdlib ``sqlite3``.

Every SELECT block goes through the one optimizer: a derived table is an
operand of the join search, and a subquery in an expression is planned
once per statement, its references to the enclosing row rewritten into
the slots of a parameter cell that each outer row binds.  The
differential generates statements of every nested shape — correlated
and uncorrelated ``[NOT] EXISTS`` and ``[NOT] IN`` over nullable columns,
correlation two levels deep, derived tables joined to base tables and to
each other, HAVING with a subquery, scalar subqueries — and requires
sqlite3's rows for each, on a :class:`BackendServer` and on a two-shard
:class:`ShardedBackend` (whose gather route runs the compiled subqueries
in its scratch server), by text (the plan cache) and parsed, on both
execution paths.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from repro.common.errors import ExecutionError, OptimizerError
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.optimizer import Optimizer
from repro.shard.backend import ShardedBackend
from repro.sql.parser import parse
from tests.conftest import each_path
from tests.sql_reference import SqliteReference

DDL = [
    "CREATE TABLE t (a INT NOT NULL, b INT, c INT, PRIMARY KEY (a))",
    "CREATE TABLE s (x INT NOT NULL, y INT NOT NULL, z INT, PRIMARY KEY (x))",
    "CREATE TABLE u (p INT NOT NULL, q INT, PRIMARY KEY (p))",
]


def _value(i, modulus, null_every):
    return "NULL" if i % null_every == 0 else str(i % modulus)


ROWS = {
    "t": [f"({i}, {_value(i, 5, 7)}, {_value(i * 3, 4, 5)})" for i in range(1, 25)],
    "s": [f"({i}, {i * 7 % 6}, {_value(i, 3, 4)})" for i in range(1, 19)],
    "u": [f"({i}, {_value(i, 4, 5)})" for i in range(1, 13)],
}


def make_backend(partitions):
    backend = BackendServer() if partitions == 1 else ShardedBackend(partitions)
    for ddl in DDL:
        backend.create_table(ddl)
    for table, rows in ROWS.items():
        backend.execute(f"INSERT INTO {table} VALUES {', '.join(rows)}")
    backend.execute("CREATE INDEX ix_s_y ON s (y)")
    backend.refresh_statistics()
    return backend


@pytest.fixture(scope="module", params=[1, 2], ids=["server", "shards2"])
def backend(request):
    backend = make_backend(request.param)
    return backend, SqliteReference(backend)


# ----------------------------------------------------------------------
# Statement generator
# ----------------------------------------------------------------------
OUTER_FILTERS = ["", "t.a > 6", "t.b IS NOT NULL", "t.c <> 2"]
S_FILTERS = ["", " AND s.z > 0", " AND s.z IS NULL", " AND s.x < 12", " AND s.x > 100"]


@st.composite
def where_subqueries(draw):
    """A WHERE conjunct holding a subquery, correlated or not."""
    neg = draw(st.sampled_from(["", "NOT "]))
    s_filter = draw(st.sampled_from(S_FILTERS))
    kind = draw(st.sampled_from([
        "exists", "exists-uncorrelated", "in", "in-correlated", "in-distinct",
        "two-levels", "scalar", "scalar-uncorrelated",
    ]))
    if kind == "exists":
        return f"{neg}EXISTS (SELECT 1 FROM s WHERE s.y = t.b{s_filter})"
    if kind == "exists-uncorrelated":
        return f"{neg}EXISTS (SELECT 1 FROM s WHERE s.z = 2{s_filter})"
    if kind == "in":
        column = draw(st.sampled_from(["t.b", "t.c"]))
        return f"{column} {neg}IN (SELECT s.z FROM s WHERE s.x > 3{s_filter})"
    if kind == "in-correlated":
        return f"t.b {neg}IN (SELECT s.z FROM s WHERE s.y = t.c{s_filter})"
    if kind == "in-distinct":
        return f"t.c {neg}IN (SELECT DISTINCT s.z FROM s WHERE s.y > 1{s_filter})"
    if kind == "two-levels":
        inner = draw(st.sampled_from(["u.q = s.z AND u.p > t.a", "u.q = t.c"]))
        return (f"{neg}EXISTS (SELECT 1 FROM s WHERE s.y = t.b{s_filter} AND "
                f"EXISTS (SELECT 1 FROM u WHERE {inner}))")
    if kind == "scalar":
        agg = draw(st.sampled_from(["MAX(s.z)", "COUNT(*)", "MIN(s.x)"]))
        return f"t.c {draw(st.sampled_from(['<', '>=']))} (SELECT {agg} FROM s WHERE s.y = t.b)"
    return "t.b > (SELECT MIN(u.q) FROM u WHERE u.p > 4)"


@st.composite
def statements(draw):
    shape = draw(st.sampled_from(["where", "where2", "select-scalar", "derived",
                                  "derived-pair", "having"]))
    outer = draw(st.sampled_from(OUTER_FILTERS))
    if shape in ("where", "where2"):
        conjuncts = [draw(where_subqueries())]
        if shape == "where2":
            conjuncts.append(draw(where_subqueries()))
        if outer:
            conjuncts.append(outer)
        return f"SELECT t.a, t.b FROM t WHERE {' AND '.join(conjuncts)}"
    where = f" WHERE {outer}" if outer else ""
    if shape == "select-scalar":
        item = draw(st.sampled_from([
            "(SELECT COUNT(*) FROM s WHERE s.y = t.b)",
            "(SELECT MAX(u.q) FROM u WHERE u.p < t.a)",
            "(SELECT COUNT(*) FROM u)",
        ]))
        return f"SELECT t.a, {item} AS k FROM t{where}"
    if shape == "derived":
        inner = draw(st.sampled_from([
            "SELECT s.y AS k, COUNT(*) AS n FROM s GROUP BY s.y",
            "SELECT s.y AS k, s.z AS n FROM s WHERE s.z IS NOT NULL",
            "SELECT DISTINCT s.z AS k, s.y AS n FROM s",
        ]))
        return f"SELECT t.a, d.n FROM t, ({inner}) d WHERE t.b = d.k" + (
            f" AND {outer}" if outer else "")
    if shape == "derived-pair":
        cmp = draw(st.sampled_from(["=", "<"]))
        return ("SELECT d.k, e.m FROM (SELECT s.y AS k, COUNT(*) AS n FROM s GROUP BY s.y) d, "
                "(SELECT u.q AS m FROM u WHERE u.p > 2) e "
                f"WHERE d.k {cmp} e.m")
    having = draw(st.sampled_from([
        "n > (SELECT COUNT(*) FROM u WHERE u.q = 1)",
        "n >= (SELECT COUNT(*) FROM s WHERE s.y = t.b)",
        "EXISTS (SELECT 1 FROM u WHERE u.q = t.b)",
    ]))
    return f"SELECT t.b, COUNT(*) AS n FROM t{where} GROUP BY t.b HAVING {having}"


class TestDifferential:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sql=statements())
    def test_nested_blocks_match_sqlite(self, backend, sql):
        backend, reference = backend
        for _ in each_path():
            reference.check(backend.execute(sql).rows, sql)
            reference.check(backend.execute_select(parse(sql)).rows, sql)


# ----------------------------------------------------------------------
# Fixed shapes the naive planner used to serve, and scalar subqueries
# ----------------------------------------------------------------------
def check(backend, sql):
    backend, reference = backend
    for _ in each_path():
        rows = backend.execute(sql).rows
        reference.check(rows, sql)
    return rows


class TestShapes:
    def test_scalar_subquery_in_select_list(self, backend):
        # A bare (SELECT ...) is a value, not an EXISTS test.
        rows = check(backend, "SELECT t.a, (SELECT COUNT(*) FROM u WHERE u.p < 4) AS k FROM t")
        assert {k for _, k in rows} == {3}

    def test_scalar_subquery_in_where(self, backend):
        # MAX(s.z) is 2: a comparison with the value, where an EXISTS
        # reading would keep every row with a b.
        rows = check(backend, "SELECT t.a, t.b FROM t WHERE t.b > (SELECT MAX(s.z) FROM s)")
        assert rows and {b for _, b in rows} == {3, 4}

    def test_scalar_subquery_of_no_row_is_null(self, backend):
        rows = check(backend, "SELECT t.a, (SELECT s.z FROM s WHERE s.x = 100) AS k FROM t")
        assert {k for _, k in rows} == {None}

    def test_scalar_subquery_of_two_rows_raises(self, backend):
        server, _ = backend
        with pytest.raises(ExecutionError, match="more than one row"):
            server.execute("SELECT t.a, (SELECT s.x FROM s WHERE s.x < 3) AS k FROM t")

    def test_distinct_over_an_aggregate(self, backend):
        check(backend, "SELECT DISTINCT COUNT(*) AS n FROM t GROUP BY t.b")

    def test_expression_over_grouping_columns(self, backend):
        check(backend, "SELECT t.b + 1, COUNT(*) AS n FROM t GROUP BY t.b")
        check(backend, "SELECT t.b * 2 + t.c AS v, COUNT(*) AS n FROM t GROUP BY t.b, t.c")

    def test_group_by_expression_is_a_declared_error(self, backend):
        server, _ = backend
        sql = "SELECT t.b % 2, COUNT(*) FROM t GROUP BY t.b % 2"
        with pytest.raises(OptimizerError, match="GROUP BY supports column references"):
            server.execute(sql)
        cache = MTCache(server)
        with pytest.raises(OptimizerError, match="GROUP BY supports column references"):
            cache.execute(sql)


# ----------------------------------------------------------------------
# The inner block is compiled once per statement
# ----------------------------------------------------------------------
CORRELATED = "SELECT t.a FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.y = t.b)"


def _considered(registry):
    return registry.counter("optimizer_candidates_total",
                            labels={"outcome": "considered"}).value


class TestCompiledOnce:
    def _server(self, n_outer):
        registry = MetricsRegistry()
        server = BackendServer(metrics=registry)
        for ddl in DDL[:2]:
            server.create_table(ddl)
        server.execute("INSERT INTO t VALUES " + ", ".join(ROWS["t"][:n_outer]))
        # Enough inner rows that a seek beats a scan.
        server.execute("INSERT INTO s VALUES " + ", ".join(
            f"({i}, {i % 50}, {i % 3})" for i in range(1, 501)))
        server.execute("CREATE INDEX ix_s_y ON s (y)")
        server.refresh_statistics()
        return server, registry

    def test_candidates_do_not_grow_with_outer_rows(self, monkeypatch):
        blocks = []
        plan_subquery = Optimizer.plan_subquery

        def counting(self, select, catalog):
            blocks.append(plan_subquery(self, select, catalog))
            return blocks[-1]

        monkeypatch.setattr(Optimizer, "plan_subquery", counting)
        considered = []
        for n_outer in (4, 24):
            server, registry = self._server(n_outer)
            rows = server.execute_select(parse(CORRELATED)).rows
            SqliteReference(server).check(rows, CORRELATED)
            considered.append(_considered(registry))
        # One inner optimization per statement, whatever the outer rows.
        assert len(blocks) == 2 and considered[0] == considered[1] > 0
        # The inner block seeks the index on its correlated column.
        plan = blocks[-1].plan.explain()
        assert "IndexSeek(s.ix_s_y)" in plan, plan

    def test_a_plan_time_read_of_an_outer_reference_is_never_pinned(self, monkeypatch):
        # An (y, x) index with a range on x needs the y prefix's value at
        # plan time: the slot turns opaque and its conjunct a residual.
        blocks = []
        plan_subquery = Optimizer.plan_subquery
        monkeypatch.setattr(Optimizer, "plan_subquery", lambda self, select, catalog: (
            blocks.append(plan_subquery(self, select, catalog)) or blocks[-1]))
        server, _ = self._server(24)
        server.execute("CREATE INDEX ix_s_yx ON s (y, x)")
        server.refresh_statistics()
        sql = "SELECT t.a FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.y = t.b AND s.x < 60)"
        SqliteReference(server).check(server.execute_select(parse(sql)).rows, sql)
        assert blocks[-1].params.opaque == {0}
        for correlated_range in ("s.x < t.a * 30", "s.x BETWEEN t.a AND t.a + 40"):
            sql = f"SELECT t.a FROM t WHERE EXISTS (SELECT 1 FROM s WHERE {correlated_range})"
            SqliteReference(server).check(server.execute(sql).rows, sql)

    def test_a_template_serves_every_outer_row(self):
        server, registry = self._server(24)
        reference = SqliteReference(server)
        for key in (3, 9, 14):
            sql = CORRELATED + f" AND t.a = {key}"
            reference.check(server.execute(sql).rows, sql)
        events = {event: registry.counter("plan_cache_events_total",
                                          labels={"event": event}).value
                  for event in ("misses", "binds")}
        assert events == {"misses": 1, "binds": 2}
