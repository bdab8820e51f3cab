"""Multi-block statements on the back-end — derived tables, subqueries
in various positions, and their combinations — which a naive recursive
planner used to serve and the one optimizer now plans.  Every answer is
graded by stdlib ``sqlite3`` on both execution paths."""

import pytest

from repro.cache.backend import BackendServer
from tests.conftest import each_path
from tests.sql_reference import SqliteReference


@pytest.fixture()
def server():
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE orders (oid INT NOT NULL, cust INT NOT NULL, total FLOAT NOT NULL, "
        "PRIMARY KEY (oid))"
    )
    backend.create_table(
        "CREATE TABLE custs (cid INT NOT NULL, name VARCHAR(10) NOT NULL, PRIMARY KEY (cid))"
    )
    backend.execute("INSERT INTO custs VALUES (1, 'ann'), (2, 'bob'), (3, 'cyd')")
    backend.execute(
        "INSERT INTO orders VALUES (1, 1, 10.0), (2, 1, 20.0), (3, 2, 5.0), "
        "(4, 2, 50.0), (5, 2, 45.0)"
    )
    backend.refresh_statistics()
    return backend


def check(server, sql):
    """The server's rows for ``sql``, graded by sqlite3 on each path."""
    reference = SqliteReference(server)
    for _ in each_path():
        rows = server.execute(sql).rows
        reference.check(rows, sql)
    return rows


class TestDerivedTables:
    def test_aggregate_in_derived_table(self, server):
        rows = check(
            server,
            "SELECT t.cust, t.total FROM "
            "(SELECT o.cust AS cust, SUM(o.total) AS total FROM orders o GROUP BY o.cust) t "
            "WHERE t.total > 25 ORDER BY t.cust"
        )
        assert rows == [(1, 30.0), (2, 100.0)]

    def test_nested_derived_tables(self, server):
        rows = check(
            server,
            "SELECT x.n FROM (SELECT COUNT(*) AS n FROM "
            "(SELECT o.cust AS cust FROM orders o WHERE o.total > 15) inner1) x"
        )
        assert rows == [(3,)]  # orders 2 (20), 4 (50), 5 (45)

    def test_derived_table_with_order_and_limit(self, server):
        rows = check(
            server,
            "SELECT t.oid FROM (SELECT o.oid AS oid FROM orders o "
            "ORDER BY o.total DESC LIMIT 2) t ORDER BY t.oid"
        )
        # Top-two totals are orders 4 (50.0) and 5 (45.0); note the inner
        # ORDER BY is on a column that is *not* selected (sort runs below
        # the projection).
        assert rows == [(4,), (5,)]

    def test_derived_table_joined_with_base(self, server):
        rows = check(
            server,
            "SELECT c.name, t.n FROM custs c, "
            "(SELECT o.cust AS cust, COUNT(*) AS n FROM orders o GROUP BY o.cust) t "
            "WHERE c.cid = t.cust ORDER BY c.name"
        )
        assert rows == [("ann", 2), ("bob", 3)]

    def test_two_derived_tables_joined(self, server):
        rows = check(
            server,
            "SELECT a.cust FROM "
            "(SELECT o.cust AS cust FROM orders o WHERE o.total > 40) a, "
            "(SELECT o.cust AS cust FROM orders o WHERE o.total < 10) b "
            "WHERE a.cust = b.cust"
        )
        assert set(rows) == {(2,)}

    def test_distinct_in_derived_table(self, server):
        rows = check(
            server,
            "SELECT COUNT(*) AS n FROM (SELECT DISTINCT o.cust AS cust FROM orders o) t",
        )
        assert rows == [(2,)]


class TestSubqueryPositions:
    def test_exists_inside_derived_table(self, server):
        rows = check(
            server,
            "SELECT t.cid FROM (SELECT c.cid AS cid FROM custs c WHERE EXISTS "
            "(SELECT 1 FROM orders o WHERE o.cust = c.cid)) t ORDER BY t.cid"
        )
        assert rows == [(1,), (2,)]

    def test_correlated_in_subquery(self, server):
        rows = check(
            server,
            "SELECT c.name FROM custs c WHERE c.cid IN "
            "(SELECT o.cust FROM orders o WHERE o.total > 40) "
        )
        assert rows == [("bob",)]

    def test_nested_exists(self, server):
        rows = check(
            server,
            "SELECT c.name FROM custs c WHERE EXISTS ("
            "SELECT 1 FROM orders o WHERE o.cust = c.cid AND EXISTS ("
            "SELECT 1 FROM orders o2 WHERE o2.cust = o.cust AND o2.total < 6)) "
        )
        assert rows == [("bob",)]

    def test_not_in_subquery(self, server):
        rows = check(
            server,
            "SELECT c.name FROM custs c WHERE c.cid NOT IN "
            "(SELECT o.cust FROM orders o)"
        )
        assert rows == [("cyd",)]

    def test_subquery_over_aggregated_derived_table(self, server):
        rows = check(
            server,
            "SELECT c.name FROM custs c WHERE c.cid IN ("
            "SELECT t.cust FROM (SELECT o.cust AS cust, COUNT(*) AS n "
            "FROM orders o GROUP BY o.cust) t WHERE t.n > 2)"
        )
        assert rows == [("bob",)]

    def test_having_with_inline_aggregate_is_unsupported(self, server):
        # Documented restriction: HAVING must reference grouping columns
        # or *named* aggregates from the select list; an inline COUNT(*)
        # in HAVING is rejected rather than silently miscomputed.
        from repro.common.errors import ReproError

        with pytest.raises(ReproError):
            server.execute(
                "SELECT c.name FROM custs c WHERE c.cid IN "
                "(SELECT o.cust FROM orders o GROUP BY o.cust HAVING COUNT(*) > 2)"
            )


class TestNaiveMatchesOptimizer:
    """A statement both a single-block and a multi-block spelling can
    express gives sqlite3's rows either way."""

    def test_same_result_when_both_available(self, server):
        sql = "SELECT c.name, o.total FROM custs c, orders o WHERE c.cid = o.cust"
        nested = ("SELECT c.name, o.total FROM custs c, "
                  "(SELECT p.cust AS cust, p.total AS total FROM orders p) o "
                  "WHERE c.cid = o.cust")
        assert sorted(check(server, sql)) == sorted(check(server, nested))
