"""Grab-bag edge-case tests across modules."""

import io

import pytest

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from repro.cli import run_script


@pytest.fixture()
def cache():
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, PRIMARY KEY (id))"
    )
    backend.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    backend.refresh_statistics()
    cache = MTCache(backend)
    cache.create_region("r1", 10, 2, heartbeat_interval=1)
    cache.create_matview("t_copy", "t", ["id", "v"], region="r1")
    cache.run_for(11)
    return cache


class TestCliRobustness:
    def test_bad_advance_argument_is_reported(self, cache):
        out = io.StringIO()
        run_script(cache, ["\\advance soon"], out=out)
        assert "internal error" in out.getvalue()

    def test_empty_result_table_renders(self, cache):
        out = io.StringIO()
        run_script(cache, ["SELECT x.id FROM t x WHERE x.id > 99"], out=out)
        assert "(0 row(s))" in out.getvalue()

    def test_wide_result_truncated(self, cache):
        backend = cache.backend
        values = ", ".join(f"({i}, {i})" for i in range(3, 60))
        backend.execute(f"INSERT INTO t VALUES {values}")
        out = io.StringIO()
        run_script(cache, ["SELECT x.id FROM t x"], out=out)
        assert "rows total" in out.getvalue()


class TestExplainEdgeCases:
    def test_explain_complex_query_on_cache(self, cache):
        result = cache.execute(
            "EXPLAIN SELECT s.id FROM (SELECT id FROM t) s"
        )
        text = "\n".join(line for (line,) in result.rows)
        assert "remote" in text
        assert "constraint" in text

    def test_explain_includes_constraint_classes(self, cache):
        result = cache.execute(
            "EXPLAIN SELECT a.id, b.v FROM t a, t b WHERE a.id = b.id "
            "CURRENCY BOUND 10 SEC ON (a, b)"
        )
        text = "\n".join(line for (line,) in result.rows)
        assert "a" in text and "b" in text


class TestResultHelpers:
    def test_column_lookup_missing_raises(self, cache):
        result = cache.execute("SELECT x.id FROM t x CURRENCY BOUND 60 SEC ON (x)")
        with pytest.raises(ValueError):
            result.column("nope")

    def test_as_dicts(self, cache):
        result = cache.execute("SELECT x.id, x.v FROM t x CURRENCY BOUND 60 SEC ON (x)")
        dicts = result.as_dicts()
        assert {"id", "v"} <= set(dicts[0])


class TestAgentRobustness:
    def test_records_for_unsubscribed_tables_skipped(self, cache):
        backend = cache.backend
        backend.create_table(
            "CREATE TABLE other (id INT NOT NULL, PRIMARY KEY (id))"
        )
        backend.execute("INSERT INTO other VALUES (1)")
        foreign_txn = backend.txn_manager.last_txn_id
        # The agent must skip 'other' records without touching its views.
        cache.run_for(15.0)
        view = cache.catalog.matview("t_copy")
        assert view.table.row_count == 2
        # And the region's snapshot still advanced past the foreign txn.
        assert view.applied_txn >= foreign_txn

    def test_propagate_is_idempotent(self, cache):
        agent = cache.agents["r1"]
        now = cache.clock.now()
        first = agent.propagate(cutoff=now)
        second = agent.propagate(cutoff=now)
        assert second == 0

    def test_stale_cutoff_is_noop(self, cache):
        agent = cache.agents["r1"]
        assert agent.propagate(cutoff=agent.snapshot_time - 5.0) == 0


class TestPlanCacheTimelineInterplay:
    def test_cached_plan_respects_timeline_watermark(self, cache):
        sql = "SELECT x.id FROM t x CURRENCY BOUND 600 SEC ON (x)"
        cache.execute(sql)  # populate the plan cache (local branch)
        cache.execute("BEGIN TIMEORDERED")
        cache.execute("SELECT x.id FROM t x CURRENCY BOUND 0 SEC ON (x)")  # watermark=now
        result = cache.execute(sql)  # same cached plan, now must go remote
        assert result.context.branches == [("t_copy", 1)]
        cache.execute("END TIMEORDERED")


class TestMultipleViewsSameRegion:
    def test_cheapest_covering_view_wins(self, cache):
        # A narrow view over (id) is cheaper to scan for an id-only query.
        narrow = cache.create_matview("t_narrow", "t", ["id"], region="r1")
        # Make the narrow view appear much cheaper by inflating the wide
        # view's statistics.
        wide = cache.catalog.matview("t_copy")
        wide.stats = wide.stats.scaled(1000.0)
        plan = cache.optimize("SELECT x.id FROM t x CURRENCY BOUND 60 SEC ON (x)",
                              use_cache=False)
        assert "t_narrow" in plan.summary()


class TestSchemaEdges:
    def test_project_unknown_column(self, cache):
        from repro.common.errors import CatalogError

        schema = cache.backend.catalog.table("t").schema
        with pytest.raises(CatalogError):
            schema.project(["nope"])

    def test_insert_wrong_arity_via_storage(self, cache):
        from repro.common.errors import StorageError

        table = cache.backend.catalog.table("t").table
        with pytest.raises(StorageError):
            table.insert((1,))
