"""Tests for the hash semi-join rewrite of uncorrelated IN-subqueries."""

import pytest

from repro.cache.backend import BackendServer
from repro.optimizer.query_info import analyze_select
from repro.sql.parser import parse


@pytest.fixture()
def server():
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE emp (eid INT NOT NULL, did INT NOT NULL, sal FLOAT NOT NULL, "
        "PRIMARY KEY (eid))"
    )
    backend.create_table(
        "CREATE TABLE dept (did INT NOT NULL, budget FLOAT NOT NULL, PRIMARY KEY (did))"
    )
    emps = ", ".join(f"({i}, {i % 10}, {float(i * 10)})" for i in range(1, 101))
    depts = ", ".join(f"({i}, {float(i * 1000)})" for i in range(10))
    backend.execute(f"INSERT INTO emp VALUES {emps}")
    backend.execute(f"INSERT INTO dept VALUES {depts}")
    backend.refresh_statistics()
    return backend


RICH_DEPTS = "SELECT d.did FROM dept d WHERE d.budget > 5000"
QUERY = f"SELECT e.eid FROM emp e WHERE e.did IN ({RICH_DEPTS})"


class TestRecognition:
    def test_eligible_in_subquery_recognized(self, server):
        info = analyze_select(parse(QUERY), server.catalog)
        assert len(info.semi_joins) == 1
        assert not info.post_conjuncts
        semi = info.semi_joins[0]
        assert semi.inner_table == "dept"
        assert semi.outer_ref.name == "did"

    def test_negated_becomes_anti_join(self, server):
        sql = QUERY.replace("IN", "NOT IN")
        info = analyze_select(parse(sql), server.catalog)
        assert len(info.semi_joins) == 1
        assert info.semi_joins[0].negated

    def test_correlated_not_rewritten(self, server):
        sql = (
            "SELECT e.eid FROM emp e WHERE e.did IN "
            "(SELECT d.did FROM dept d WHERE d.budget > e.sal)"
        )
        info = analyze_select(parse(sql), server.catalog)
        assert not info.semi_joins
        assert len(info.post_conjuncts) == 1

    def test_correlated_via_unqualified_column_not_rewritten(self, server):
        sql = (
            "SELECT e.eid FROM emp e WHERE e.did IN "
            "(SELECT d.did FROM dept d WHERE budget > sal)"
        )
        info = analyze_select(parse(sql), server.catalog)
        assert not info.semi_joins

    def test_aggregating_subquery_not_rewritten(self, server):
        sql = (
            "SELECT e.eid FROM emp e WHERE e.did IN "
            "(SELECT d.did FROM dept d GROUP BY d.did)"
        )
        info = analyze_select(parse(sql), server.catalog)
        assert not info.semi_joins

    def test_exists_not_rewritten(self, server):
        sql = (
            "SELECT e.eid FROM emp e WHERE EXISTS "
            "(SELECT 1 FROM dept d WHERE d.did = e.did)"
        )
        info = analyze_select(parse(sql), server.catalog)
        assert not info.semi_joins
        assert len(info.post_conjuncts) == 1


class TestExecution:
    def test_semi_join_in_plan(self, server):
        plan = server.optimize(QUERY)
        assert "HashSemiJoin" in plan.explain()

    def test_results_correct(self, server):
        result = server.execute(QUERY)
        # Rich departments: budget > 5000 -> dids 6..9.
        expected = sorted(i for i in range(1, 101) if i % 10 in (6, 7, 8, 9))
        assert sorted(r[0] for r in result.rows) == expected

    def test_matches_naive_evaluation(self, server):
        from repro.engine.executor import ExecutionContext

        root, _, _ = server._build_naive(parse(QUERY))
        ctx = ExecutionContext(clock=server.clock)
        naive = server.executor.execute(root, ctx=ctx).rows
        optimized = server.execute(QUERY).rows
        assert sorted(optimized) == sorted(naive)

    def test_empty_inner_relation(self, server):
        sql = (
            "SELECT e.eid FROM emp e WHERE e.did IN "
            "(SELECT d.did FROM dept d WHERE d.budget > 1000000)"
        )
        assert server.execute(sql).rows == []

    def test_semi_join_with_outer_predicate(self, server):
        sql = QUERY + " AND e.sal < 300"
        result = server.execute(sql)
        expected = sorted(
            i for i in range(1, 101) if i % 10 in (6, 7, 8, 9) and i * 10 < 300
        )
        assert sorted(r[0] for r in result.rows) == expected

    def test_semi_join_below_aggregation(self, server):
        sql = (
            f"SELECT e.did, COUNT(*) AS n FROM emp e WHERE e.did IN ({RICH_DEPTS}) "
            "GROUP BY e.did ORDER BY e.did"
        )
        result = server.execute(sql)
        assert result.rows == [(6, 10), (7, 10), (8, 10), (9, 10)]

    def test_two_semi_joins(self, server):
        sql = (
            "SELECT e.eid FROM emp e WHERE e.did IN "
            "(SELECT d.did FROM dept d WHERE d.budget > 5000) AND e.did IN "
            "(SELECT d.did FROM dept d WHERE d.budget < 8000)"
        )
        result = server.execute(sql)
        expected = sorted(i for i in range(1, 101) if i % 10 in (6, 7))
        assert sorted(r[0] for r in result.rows) == expected

    def test_not_in_anti_join_results(self, server):
        sql = QUERY.replace("IN", "NOT IN")
        plan = server.optimize(sql)
        assert "HashAntiJoin" in plan.explain()
        result = server.execute(sql)
        expected = sorted(i for i in range(1, 101) if i % 10 not in (6, 7, 8, 9))
        assert sorted(r[0] for r in result.rows) == expected

    def test_not_in_with_null_in_inner_returns_nothing(self, server):
        server.create_table(
            "CREATE TABLE maybe (id INT NOT NULL, ref INT, PRIMARY KEY (id))"
        )
        server.execute("INSERT INTO maybe VALUES (1, 6), (2, NULL)")
        server.refresh_statistics()
        # SQL's NOT IN trap: a NULL on the right makes every comparison
        # unknown, so no rows qualify.
        result = server.execute(
            "SELECT e.eid FROM emp e WHERE e.did NOT IN (SELECT m.ref FROM maybe m)"
        )
        assert result.rows == []

    def test_not_in_null_semantics_matches_naive(self, server):
        server.create_table(
            "CREATE TABLE maybe2 (id INT NOT NULL, ref INT, PRIMARY KEY (id))"
        )
        server.execute("INSERT INTO maybe2 VALUES (1, 6), (2, NULL)")
        server.refresh_statistics()
        sql = "SELECT e.eid FROM emp e WHERE e.did NOT IN (SELECT m.ref FROM maybe2 m)"
        from repro.engine.executor import ExecutionContext

        root, _, _ = server._build_naive(parse(sql))
        ctx = ExecutionContext(clock=server.clock)
        naive = server.executor.execute(root, ctx=ctx).rows
        assert sorted(server.execute(sql).rows) == sorted(naive) == []

    def test_null_keys_never_match(self, server):
        server.create_table(
            "CREATE TABLE nk (id INT NOT NULL, ref INT, PRIMARY KEY (id))"
        )
        server.execute("INSERT INTO nk VALUES (1, 6), (2, NULL)")
        server.refresh_statistics()
        result = server.execute(
            "SELECT n.id FROM nk n WHERE n.ref IN (SELECT d.did FROM dept d)"
        )
        assert result.rows == [(1,)]


class TestCacheBehavior:
    def test_cache_still_ships_subqueries_whole(self, server):
        from repro.cache.mtcache import MTCache

        cache = MTCache(server)
        cache.create_region("r", 10, 2, heartbeat_interval=1)
        cache.create_matview("emp_copy", "emp", ["eid", "did", "sal"], region="r")
        cache.run_for(11)
        plan = cache.optimize(QUERY)
        assert plan.summary() == "remote"
        result = cache.execute(QUERY)
        assert len(result.rows) == 40


class TestInnerCurrencyClause:
    """A CURRENCY clause on the inner block keeps the semi-join rewrite:
    the statement ships whole, and the back-end plans the shipped text
    (which still carries the inner clause) as a hash semi join, not on
    the naive path."""

    INNER = ("SELECT e.eid FROM emp e WHERE e.did IN (SELECT d.did FROM dept d "
             "WHERE d.budget > 5000 CURRENCY BOUND 600 SEC ON (d))")

    def sqlite_rows(self):
        import sqlite3

        db = sqlite3.connect(":memory:")
        db.execute("CREATE TABLE emp (eid INTEGER, did INTEGER, sal REAL)")
        db.execute("CREATE TABLE dept (did INTEGER, budget REAL)")
        db.executemany("INSERT INTO emp VALUES (?, ?, ?)",
                       [(i, i % 10, float(i * 10)) for i in range(1, 101)])
        db.executemany("INSERT INTO dept VALUES (?, ?)",
                       [(i, float(i * 1000)) for i in range(10)])
        return db.execute(QUERY).fetchall()

    def test_inner_clause_is_recognized(self, server):
        info = analyze_select(parse(self.INNER), server.catalog)
        assert len(info.semi_joins) == 1 and not info.post_conjuncts

    def test_shipped_text_plans_a_semi_join_on_the_backend(self, server):
        from collections import Counter

        from repro.cache.mtcache import MTCache

        cache = MTCache(server)
        cache.create_region("r", 10, 2, heartbeat_interval=1)
        cache.create_matview("dept_copy", "dept", ["did", "budget"], region="r")
        cache.run_for(11)
        result = cache.execute(self.INNER)
        [(shipped, _)] = result.context.remote_queries
        assert "CURRENCY" in shipped  # the inner clause travels with the text
        plan = "\n".join(line for (line,) in server.explain(shipped).rows)
        assert "naive plan" not in plan and "HashSemiJoin" in plan, plan
        assert Counter(result.rows) == Counter(self.sqlite_rows())
