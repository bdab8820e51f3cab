"""Stress tests: four-operand join enumeration on both servers; the
back-end's rows are graded by stdlib ``sqlite3`` on both execution
paths."""

import pytest

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from tests.conftest import each_path
from tests.sql_reference import SqliteReference


@pytest.fixture(scope="module")
def backend():
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE a (ak INT NOT NULL, av INT NOT NULL, PRIMARY KEY (ak))"
    )
    backend.create_table(
        "CREATE TABLE b (bk INT NOT NULL, ak INT NOT NULL, bv INT NOT NULL, PRIMARY KEY (bk))"
    )
    backend.create_table(
        "CREATE TABLE c (ck INT NOT NULL, bk INT NOT NULL, cv INT NOT NULL, PRIMARY KEY (ck))"
    )
    backend.create_table(
        "CREATE TABLE d (dk INT NOT NULL, ck INT NOT NULL, dv INT NOT NULL, PRIMARY KEY (dk))"
    )
    n = 14
    backend.execute(
        "INSERT INTO a VALUES " + ", ".join(f"({i}, {i % 5})" for i in range(1, n + 1))
    )
    backend.execute(
        "INSERT INTO b VALUES "
        + ", ".join(f"({i}, {1 + i % n}, {i % 7})" for i in range(1, 2 * n + 1))
    )
    backend.execute(
        "INSERT INTO c VALUES "
        + ", ".join(f"({i}, {1 + i % (2 * n)}, {i % 3})" for i in range(1, n + 1))
    )
    backend.execute(
        "INSERT INTO d VALUES "
        + ", ".join(f"({i}, {1 + i % n}, {i})" for i in range(1, n + 1))
    )
    backend.refresh_statistics()
    return backend


CHAIN = (
    "SELECT a.ak, b.bk, c.ck, d.dk FROM a, b, c, d "
    "WHERE a.ak = b.ak AND b.bk = c.bk AND c.ck = d.ck"
)


def check(backend, sql):
    """The back-end's rows for ``sql`` are sqlite3's, on each path."""
    reference = SqliteReference(backend)
    for _ in each_path():
        rows = backend.execute(sql).rows
        reference.check(rows, sql)
    return rows


class TestFourWayJoins:
    def test_chain_join_matches_naive(self, backend):
        assert len(check(backend, CHAIN)) > 0

    def test_chain_with_filters(self, backend):
        check(backend, CHAIN + " AND a.av = 2 AND d.dv < 30")

    def test_star_join(self, backend):
        check(backend, "SELECT b.bk, c.ck, d.dk FROM b, c, d "
                       "WHERE b.bk = c.bk AND b.bk = d.dk AND b.bv = 1")

    def test_aggregate_over_four_way(self, backend):
        check(backend, "SELECT a.av, COUNT(*) AS n FROM a, b, c, d "
                       "WHERE a.ak = b.ak AND b.bk = c.bk AND c.ck = d.ck GROUP BY a.av")

    def test_optimization_time_is_sane(self, backend):
        import time

        start = time.perf_counter()
        backend.optimize(CHAIN)
        assert time.perf_counter() - start < 2.0


class TestFourWayOnCache:
    def test_all_local_four_way(self, backend):
        cache = MTCache(backend)
        cache.create_region("r", 10, 2, heartbeat_interval=1)
        for name, cols in (
            ("a_c", ["ak", "av"]),
            ("b_c", ["bk", "ak", "bv"]),
            ("c_c", ["ck", "bk", "cv"]),
            ("d_c", ["dk", "ck", "dv"]),
        ):
            cache.create_matview(name, name[0], cols, region="r")
        cache.run_for(11)
        sql = CHAIN + " CURRENCY BOUND 600 SEC ON (a), 600 SEC ON (b), " \
                      "600 SEC ON (c), 600 SEC ON (d)"
        result = cache.execute(sql)
        assert result.context.remote_queries == []
        assert sorted(result.rows) == sorted(backend.execute(CHAIN).rows)

    def test_single_class_four_way_one_region_local(self, backend):
        cache = MTCache(backend)
        # The module-scoped back-end is shared: a fresh region id avoids a
        # heartbeat-row collision with the previous test's cache.
        cache.create_region("r2", 10, 2, heartbeat_interval=1)
        for name, cols in (
            ("a_c", ["ak", "av"]),
            ("b_c", ["bk", "ak", "bv"]),
            ("c_c", ["ck", "bk", "cv"]),
            ("d_c", ["dk", "ck", "dv"]),
        ):
            cache.create_matview(name, name[0], cols, region="r2")
        cache.run_for(11)
        # One consistency class across all four: a single region satisfies it.
        sql = CHAIN + " CURRENCY BOUND 600 SEC ON (a, b, c, d)"
        result = cache.execute(sql)
        assert sorted(result.rows) == sorted(backend.execute(CHAIN).rows)
        from repro.semantics.checker import ResultChecker

        assert ResultChecker(cache).check(sql, result).ok
