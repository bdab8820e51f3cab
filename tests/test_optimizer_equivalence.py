"""Property-based equivalence: optimized plans == stdlib ``sqlite3``.

For randomly generated single-block queries, the cost-based optimizer's
chosen plan must return exactly the rows sqlite3 returns for the same
text (:class:`tests.sql_reference.SqliteReference`), on both execution
paths.  This guards the whole plan space — access-path selection, join
order and algorithm (hash/merge/NL), residual placement, aggregation —
against semantic drift.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache.backend import BackendServer
from tests.conftest import each_path
from tests.sql_reference import SqliteReference


@pytest.fixture(scope="module")
def server():
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE r (a INT NOT NULL, b INT NOT NULL, c FLOAT NOT NULL, "
        "PRIMARY KEY (a))"
    )
    backend.create_table(
        "CREATE TABLE s (x INT NOT NULL, y INT NOT NULL, PRIMARY KEY (x))"
    )
    backend.create_table(
        "CREATE TABLE u (p INT NOT NULL, q INT NOT NULL, PRIMARY KEY (p))"
    )
    r_rows = ", ".join(f"({i}, {i % 7}, {float(i % 13)})" for i in range(1, 61))
    s_rows = ", ".join(f"({i}, {i % 5})" for i in range(1, 41))
    u_rows = ", ".join(f"({i}, {i % 3})" for i in range(1, 31))
    backend.execute(f"INSERT INTO r VALUES {r_rows}")
    backend.execute(f"INSERT INTO s VALUES {s_rows}")
    backend.execute(f"INSERT INTO u VALUES {u_rows}")
    backend.execute("CREATE INDEX ix_r_b ON r (b)")
    backend.refresh_statistics()
    return backend


_predicates_r = st.sampled_from([
    "", "r.a < 20", "r.b = 3", "r.c > 5.0", "r.a BETWEEN 10 AND 40",
    "r.b = 3 AND r.a < 30", "r.a < 20 OR r.c > 10.0", "NOT r.b = 2",
    "r.b IN (1, 2, 3)",
    # Tied range bounds on the clustered key: the exclusive one wins.
    "r.a <= 20 AND r.a < 20", "r.a >= 50 AND r.a > 50",
])
_predicates_join = st.sampled_from([
    "", "s.y = 2", "r.a + s.x < 30", "s.y < r.b",
])


@pytest.fixture(scope="module")
def reference(server):
    return SqliteReference(server)


def _check(server, reference, sql):
    """The server's rows for ``sql`` are sqlite3's, on each execution path."""
    for _ in each_path():
        reference.check(server.execute(sql).rows, sql)


class TestSingleTableEquivalence:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(predicate=_predicates_r,
           items=st.sampled_from(["r.a", "r.a, r.c", "r.b, r.a", "r.a, r.b, r.c"]))
    def test_scan_queries(self, server, reference, predicate, items):
        where = f" WHERE {predicate}" if predicate else ""
        sql = f"SELECT {items} FROM r{where}"
        _check(server, reference, sql)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(predicate=_predicates_r)
    def test_aggregates(self, server, reference, predicate):
        where = f" WHERE {predicate}" if predicate else ""
        sql = (
            f"SELECT r.b, COUNT(*) AS n, SUM(r.c) AS total FROM r{where} GROUP BY r.b"
        )
        _check(server, reference, sql)


class TestJoinEquivalence:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pred_r=_predicates_r, pred_join=_predicates_join)
    def test_two_way_joins(self, server, reference, pred_r, pred_join):
        conjuncts = ["r.a = s.x"]
        if pred_r:
            conjuncts.append(pred_r)
        if pred_join:
            conjuncts.append(pred_join)
        sql = f"SELECT r.a, r.b, s.y FROM r, s WHERE {' AND '.join(conjuncts)}"
        _check(server, reference, sql)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pred=_predicates_r,
           join2=st.sampled_from(["s.x = u.p", "r.b = u.q"]))
    def test_three_way_joins(self, server, reference, pred, join2):
        conjuncts = ["r.a = s.x", join2]
        if pred:
            conjuncts.append(pred)
        sql = (
            f"SELECT r.a, s.y, u.q FROM r, s, u WHERE {' AND '.join(conjuncts)}"
        )
        _check(server, reference, sql)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pred=st.sampled_from(["", "x.b = 2", "y.b = 3", "x.a < y.a"]))
    def test_self_joins(self, server, reference, pred):
        conjuncts = ["x.b = y.b"]
        if pred:
            conjuncts.append(pred)
        sql = f"SELECT x.a, y.a FROM r x, r y WHERE {' AND '.join(conjuncts)}"
        _check(server, reference, sql)


class TestSemiJoinEquivalence:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pred=_predicates_r,
           inner=st.sampled_from(["s.y = 2", "s.y < 3", "s.x > 20", ""]))
    def test_in_subquery_matches_naive(self, server, reference, pred, inner):
        inner_where = f" WHERE {inner}" if inner else ""
        conjuncts = [f"r.b IN (SELECT s.y FROM s{inner_where})"]
        if pred:
            conjuncts.append(pred)
        sql = f"SELECT r.a, r.b FROM r WHERE {' AND '.join(conjuncts)}"
        _check(server, reference, sql)


class TestOrderDistinctLimitEquivalence:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pred=_predicates_r, desc=st.booleans())
    def test_order_by_prefixes_agree(self, server, reference, pred, desc):
        where = f" WHERE {pred}" if pred else ""
        direction = "DESC" if desc else "ASC"
        sql = f"SELECT r.a FROM r{where} ORDER BY r.a {direction}"
        _check(server, reference, sql)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pred=_predicates_r)
    def test_distinct(self, server, reference, pred):
        where = f" WHERE {pred}" if pred else ""
        sql = f"SELECT DISTINCT r.b FROM r{where}"
        _check(server, reference, sql)
