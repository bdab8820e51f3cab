"""Tests for MTCache's compiled-plan cache (paper §3.2: re-optimization is
needed only when consistency-relevant state changes — dynamic plans stay
correct across replication progress thanks to the run-time guards)."""

import pytest

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache


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


SQL = "SELECT x.id, x.v FROM t x CURRENCY BOUND 5 SEC ON (x)"


class TestReuse:
    def test_same_sql_reuses_plan(self, cache):
        first = cache.optimize(SQL)
        second = cache.optimize(SQL)
        assert second is first
        assert cache.plan_cache_stats["hits"] == 1

    def test_different_sql_different_plans(self, cache):
        a = cache.optimize(SQL)
        b = cache.optimize(SQL.replace("5 SEC", "6 SEC"))
        assert a is not b

    def test_ast_input_bypasses_cache(self, cache):
        from repro.sql.parser import parse

        a = cache.optimize(parse(SQL))
        b = cache.optimize(parse(SQL))
        assert a is not b

    def test_use_cache_false_bypasses(self, cache):
        a = cache.optimize(SQL)
        b = cache.optimize(SQL, use_cache=False)
        assert a is not b

    def test_reused_plan_still_guarded_correctly(self, cache):
        # The cached dynamic plan must flip branches as staleness changes —
        # that is the whole point of run-time currency checking.
        fresh = cache.execute(SQL)
        assert fresh.context.branches[0][1] == 0
        cache.run_for(6.0)  # mid-cycle: bound 5s now violated
        stale = cache.execute(SQL)
        assert stale.plan is fresh.plan  # same compiled plan
        assert stale.context.branches[0][1] == 1

    def test_capacity_evicts(self, cache):
        cache._plans.capacity = 2
        for i in range(4):
            cache.optimize(f"SELECT x.id FROM t x WHERE x.id > {i} CURRENCY BOUND 60 SEC ON (x)")
        assert len(cache._plans.cache) == 2


class TestInvalidation:
    def test_new_view_invalidates(self, cache):
        first = cache.optimize(SQL)
        cache.create_matview("t2", "t", ["id", "v"], region="r1")
        second = cache.optimize(SQL)
        assert second is not first
        assert cache.plan_cache_stats["invalidations"] >= 1

    def test_new_region_invalidates(self, cache):
        first = cache.optimize(SQL)
        cache.create_region("r2", 5, 1)
        assert cache.optimize(SQL) is not first

    def test_view_index_invalidates(self, cache):
        first = cache.optimize(SQL)
        cache.create_view_index("t_copy", "by_v", ["v"])
        assert cache.optimize(SQL) is not first

    def test_stats_refresh_invalidates(self, cache):
        first = cache.optimize(SQL)
        cache.refresh_shadow_stats()
        assert cache.optimize(SQL) is not first

    def test_policy_change_invalidates(self, cache):
        first = cache.optimize(SQL)
        cache.fallback_policy = "serve_stale"
        assert cache.optimize(SQL) is not first

    def test_policy_change_takes_effect_on_new_plan(self, cache):
        cache.execute(SQL)
        cache.fallback_policy = "serve_stale"
        cache.run_for(6.0)  # stale
        result = cache.execute(SQL)
        assert result.context.branches[0][1] == 0  # served stale locally
        assert result.warnings

    def test_bad_policy_rejected_by_setter(self, cache):
        with pytest.raises(ValueError):
            cache.fallback_policy = "nope"

    def test_dml_does_not_invalidate(self, cache):
        first = cache.optimize(SQL)
        cache.execute("INSERT INTO t VALUES (3, 30)")
        assert cache.optimize(SQL) is first
