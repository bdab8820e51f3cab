"""Tests for the MTCache query log and its CLI view."""

import io

import pytest

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache, QueryLog, QueryLogEntry
from repro.cli import run_script
from repro.workloads.experiment import build_paper_setup
from repro.workloads.queries import plan_choice_query


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


LOCAL_Q = "SELECT x.id FROM t x CURRENCY BOUND 600 SEC ON (x)"
REMOTE_Q = "SELECT x.id FROM t x"


class TestQueryLog:
    def test_entries_recorded(self, cache):
        cache.execute(LOCAL_Q)
        cache.execute(REMOTE_Q)
        assert len(cache.query_log) == 2
        local, remote = cache.query_log.recent(2)
        assert local.served_locally
        assert not remote.served_locally
        assert remote.remote_queries

    def test_entry_fields(self, cache):
        cache.execute(LOCAL_Q)
        (entry,) = cache.query_log.recent(1)
        assert entry.sql == LOCAL_Q
        assert entry.summary == "guarded(t_copy)"
        assert entry.rows == 2
        assert entry.elapsed >= 0
        assert entry.sim_time == cache.clock.now()

    def test_ring_buffer_capacity(self, cache):
        cache.query_log.capacity = 3
        for _ in range(6):
            cache.execute(LOCAL_Q)
        assert len(cache.query_log) == 3

    def test_summary(self, cache):
        cache.execute(LOCAL_Q)
        cache.execute(LOCAL_Q)
        cache.execute(REMOTE_Q)
        stats = cache.query_log.summary()
        assert stats["queries"] == 3
        assert stats["local"] == 2
        assert stats["local_fraction"] == pytest.approx(2 / 3)
        assert stats["remote_queries"] == 1

    def test_warnings_captured(self, cache):
        cache.fallback_policy = "serve_stale"
        cache.run_for(4.0)
        cache.execute("SELECT x.id FROM t x CURRENCY BOUND 3 SEC ON (x)")
        (entry,) = cache.query_log.recent(1)
        assert entry.warnings

    def test_clear(self, cache):
        cache.execute(LOCAL_Q)
        cache.query_log.clear()
        assert len(cache.query_log) == 0

    def test_empty_summary(self):
        stats = QueryLog().summary()
        assert stats == {
            "queries": 0,
            "local": 0,
            "local_fraction": 0.0,
            "remote_queries": 0,
        }


class TestEntriesKeepReferences:
    def entries(self, log, n):
        return [
            (e.sql, e.summary, list(e.branches), list(e.remote_queries), e.rows,
             list(e.warnings), e.served_locally)
            for e in log.recent(n)
        ]

    def test_local_remote_and_mixed_entries(self):
        # The paper's Table 4.3 set-up: q7 is served locally, q1 remote,
        # and q4 joins a guarded view with a remote fetch (every guard it
        # took chose local, so the log counts it as served locally).
        cache = build_paper_setup(scale_factor=0.002).cache
        sqls = [plan_choice_query(name) for name in ("q7", "q1", "q4")]
        results = [cache.execute(sql) for sql in sqls]
        assert [r.routing for r in results] == ["local", "remote", "mixed"]
        seen = self.entries(cache.query_log, 3)
        assert seen == [
            (sql, r.plan.summary(), r.context.branches, r.context.remote_queries,
             len(r.rows), r.warnings, local)
            for sql, r, local in zip(sqls, results, (True, False, True))
        ]
        assert [summary for _, summary, *_ in seen] == [
            "guarded(cust_prj)", "remote", "hashjoin(guarded(orders_prj), remote)"]
        assert cache.query_log.summary() == {
            "queries": 3, "local": 2, "local_fraction": 2 / 3, "remote_queries": 2}
        for sql in sqls:  # later statements leave the earlier entries alone
            cache.execute(sql)
        assert self.entries(cache.query_log, 6)[:3] == seen


class TestCliLog:
    def test_log_command(self, cache):
        out = io.StringIO()
        run_script(cache, [LOCAL_Q, REMOTE_Q, "\\log"], out=out)
        text = out.getvalue()
        assert "local" in text
        assert "remote/mixed" in text
        assert "50% local" in text

    def test_log_empty(self, cache):
        out = io.StringIO()
        run_script(cache, ["\\log"], out=out)
        assert "(no queries logged)" in out.getvalue()

    def test_log_limit(self, cache):
        out = io.StringIO()
        run_script(cache, [LOCAL_Q, LOCAL_Q, LOCAL_Q, "\\log 1"], out=out)
        assert out.getvalue().count("guarded(t_copy)") >= 1
