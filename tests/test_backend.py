"""Tests for the back-end server: DDL, DML, SELECT paths, subqueries."""

import pytest

from repro.cache.backend import BackendServer
from repro.common.errors import ExecutionError


@pytest.fixture()
def server():
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE dept (did INT NOT NULL, dname VARCHAR(20) NOT NULL, PRIMARY KEY (did))"
    )
    backend.create_table(
        "CREATE TABLE emp (eid INT NOT NULL, did INT NOT NULL, salary FLOAT NOT NULL, "
        "PRIMARY KEY (eid))"
    )
    backend.create_index("CREATE INDEX idx_emp_did ON emp (did)")
    backend.execute("INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')")
    backend.execute(
        "INSERT INTO emp VALUES (1, 1, 100.0), (2, 1, 120.0), (3, 2, 90.0), (4, 2, 95.0)"
    )
    backend.refresh_statistics()
    return backend


class TestDDL:
    def test_create_table_registers_for_txns(self, server):
        server.execute("INSERT INTO dept VALUES (9, 'x')")
        assert server.catalog.table("dept").table.row_count == 4

    def test_create_index_via_execute(self, server):
        server.execute("CREATE INDEX idx_salary ON emp (salary)")
        assert server.catalog.table("emp").table.index_on(["salary"]) is not None


class TestDML:
    def test_insert_returns_count(self, server):
        assert server.execute("INSERT INTO dept VALUES (4, 'hr'), (5, 'it')") == 2

    def test_insert_with_column_subset(self, server):
        server.create_table(
            "CREATE TABLE opt (id INT NOT NULL, note VARCHAR(5), PRIMARY KEY (id))"
        )
        server.execute("INSERT INTO opt (id) VALUES (1)")
        assert server.execute("SELECT o.note FROM opt o").rows == [(None,)]

    def test_insert_arity_mismatch(self, server):
        with pytest.raises(ExecutionError):
            server.execute("INSERT INTO dept (did) VALUES (1, 'x')")

    def test_update_with_expression(self, server):
        n = server.execute("UPDATE emp SET salary = salary * 2 WHERE did = 1")
        assert n == 2
        rows = server.execute("SELECT e.salary FROM emp e WHERE e.did = 1").rows
        assert sorted(r[0] for r in rows) == [200.0, 240.0]

    def test_update_all_rows(self, server):
        assert server.execute("UPDATE emp SET salary = 1.0") == 4

    def test_delete_with_where(self, server):
        assert server.execute("DELETE FROM emp WHERE salary < 100") == 2
        assert server.execute("SELECT COUNT(*) AS n FROM emp e").scalar() == 2

    def test_dml_goes_through_txn_log(self, server):
        before = len(server.txn_manager.log)
        server.execute("INSERT INTO dept VALUES (9, 'x')")
        server.execute("UPDATE dept SET dname = 'y' WHERE did = 9")
        server.execute("DELETE FROM dept WHERE did = 9")
        assert len(server.txn_manager.log) == before + 3


class TestSelect:
    def test_projection(self, server):
        result = server.execute("SELECT d.dname FROM dept d ORDER BY d.dname")
        assert result.rows == [("empty",), ("eng",), ("sales",)]

    def test_star(self, server):
        result = server.execute("SELECT * FROM dept WHERE did = 1")
        assert result.rows == [(1, "eng")]

    def test_filter_with_expression(self, server):
        result = server.execute("SELECT e.eid FROM emp e WHERE e.salary + 10 > 105")
        assert sorted(r[0] for r in result.rows) == [1, 2]

    def test_join(self, server):
        result = server.execute(
            "SELECT d.dname, e.salary FROM dept d, emp e WHERE d.did = e.did "
            "ORDER BY e.salary"
        )
        assert result.rows[0] == ("sales", 90.0)
        assert len(result.rows) == 4

    def test_join_with_join_syntax(self, server):
        result = server.execute(
            "SELECT d.dname FROM dept d JOIN emp e ON d.did = e.did WHERE e.eid = 1"
        )
        assert result.rows == [("eng",)]

    def test_aggregation(self, server):
        result = server.execute(
            "SELECT e.did, COUNT(*) AS n, SUM(e.salary) AS total FROM emp e "
            "GROUP BY e.did ORDER BY e.did"
        )
        assert result.rows == [(1, 2, 220.0), (2, 2, 185.0)]

    def test_scalar_aggregates(self, server):
        result = server.execute(
            "SELECT COUNT(*) AS n, MIN(e.salary) AS lo, MAX(e.salary) AS hi, "
            "AVG(e.salary) AS mean FROM emp e"
        )
        assert result.rows == [(4, 90.0, 120.0, 101.25)]

    def test_having(self, server):
        result = server.execute(
            "SELECT e.did, COUNT(*) AS n FROM emp e GROUP BY e.did HAVING n > 1"
        )
        assert len(result.rows) == 2

    def test_distinct(self, server):
        result = server.execute("SELECT DISTINCT e.did FROM emp e")
        assert sorted(r[0] for r in result.rows) == [1, 2]

    def test_limit(self, server):
        result = server.execute("SELECT e.eid FROM emp e ORDER BY e.eid LIMIT 2")
        assert result.rows == [(1,), (2,)]

    def test_order_desc(self, server):
        result = server.execute("SELECT e.salary FROM emp e ORDER BY e.salary DESC")
        assert result.rows[0] == (120.0,)

    def test_order_by_non_selected_column(self, server):
        # Standard SQL: the sort key need not be in the select list; the
        # sort runs below the projection.
        result = server.execute("SELECT e.eid FROM emp e ORDER BY e.salary DESC")
        assert result.rows == [(2,), (1,), (4,), (3,)]

    def test_order_by_mixed_alias_and_hidden_column_rejected(self, server):
        from repro.common.errors import OptimizerError

        with pytest.raises(OptimizerError):
            server.execute(
                "SELECT e.eid AS k FROM emp e ORDER BY k, e.salary"
            )

    def test_getdate_in_select(self, server):
        server.clock.advance(50.0)
        result = server.execute("SELECT GETDATE() AS now FROM dept d LIMIT 1")
        assert result.scalar() == 50.0

    def test_cartesian_product(self, server):
        result = server.execute("SELECT d.did, e.eid FROM dept d, emp e")
        assert len(result.rows) == 12

    def test_residual_non_equijoin(self, server):
        result = server.execute(
            "SELECT d.did, e.eid FROM dept d, emp e WHERE d.did < e.did"
        )
        assert sorted(result.rows) == [(1, 3), (1, 4)]


class TestSubqueries:
    def test_uncorrelated_exists(self, server):
        result = server.execute(
            "SELECT d.dname FROM dept d WHERE EXISTS (SELECT 1 FROM emp e WHERE e.salary > 110)"
        )
        assert len(result.rows) == 3  # subquery true for all

    def test_correlated_exists(self, server):
        result = server.execute(
            "SELECT d.dname FROM dept d WHERE EXISTS "
            "(SELECT 1 FROM emp e WHERE e.did = d.did) ORDER BY d.dname"
        )
        assert result.rows == [("eng",), ("sales",)]

    def test_not_exists(self, server):
        result = server.execute(
            "SELECT d.dname FROM dept d WHERE NOT EXISTS "
            "(SELECT 1 FROM emp e WHERE e.did = d.did)"
        )
        assert result.rows == [("empty",)]

    def test_in_subquery(self, server):
        result = server.execute(
            "SELECT d.dname FROM dept d WHERE d.did IN "
            "(SELECT e.did FROM emp e WHERE e.salary > 100) "
        )
        assert result.rows == [("eng",)]

    def test_derived_table(self, server):
        result = server.execute(
            "SELECT t.total FROM (SELECT e.did AS did, SUM(e.salary) AS total "
            "FROM emp e GROUP BY e.did) t WHERE t.did = 1"
        )
        assert result.rows == [(220.0,)]

    def test_derived_table_join(self, server):
        result = server.execute(
            "SELECT d.dname, t.n FROM dept d, (SELECT e.did AS did, COUNT(*) AS n "
            "FROM emp e GROUP BY e.did) t WHERE d.did = t.did ORDER BY d.dname"
        )
        assert result.rows == [("eng", 2), ("sales", 2)]


class TestEstimates:
    def test_estimate_returns_triple(self, server):
        cost, rows, width = server.estimate("SELECT e.eid FROM emp e")
        assert cost > 0
        assert rows == pytest.approx(4, abs=1)
        assert width > 0

    def test_estimate_selective_cheaper_on_big_table(self, server):
        big = _make_big_table(server)
        cost_all, _, _ = server.estimate(f"SELECT b.v FROM {big} b")
        cost_one, _, _ = server.estimate(f"SELECT b.v FROM {big} b WHERE b.id = 1")
        assert cost_one < cost_all

    def test_execute_remote_returns_rows(self, server):
        rows = server.execute_remote("SELECT d.did FROM dept d ORDER BY d.did").to_rows()
        assert rows == [(1,), (2,), (3,)]


def _make_big_table(server, rows=500):
    """An auxiliary table big enough for index access to beat a scan."""
    if not server.catalog.has_table("big"):
        server.create_table(
            "CREATE TABLE big (id INT NOT NULL, v FLOAT NOT NULL, PRIMARY KEY (id))"
        )
        values = ", ".join(f"({i}, {float(i)})" for i in range(1, rows + 1))
        server.execute(f"INSERT INTO big VALUES {values}")
        server.refresh_statistics()
    return "big"


class TestOptimizerChoices:
    def test_point_query_uses_index(self, server):
        big = _make_big_table(server)
        plan = server.optimize(f"SELECT b.v FROM {big} b WHERE b.id = 2")
        assert "IndexSeek" in plan.explain() or "IndexRangeScan" in plan.explain()

    def test_unselective_uses_seq_scan(self, server):
        plan = server.optimize("SELECT e.salary FROM emp e")
        assert "SeqScan" in plan.explain()

    def test_join_plan_executes(self, server):
        plan = server.optimize(
            "SELECT d.dname, e.eid FROM dept d, emp e WHERE d.did = e.did"
        )
        assert plan.cost > 0
