"""Tests for the interactive shell and EXPLAIN support."""

import io

import pytest

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from repro.cli import Shell, run_script


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


def run(cache, *lines):
    out = io.StringIO()
    run_script(cache, lines, out=out)
    return out.getvalue()


class TestExplainStatement:
    def test_explain_on_cache(self, cache):
        result = cache.execute("EXPLAIN SELECT x.id FROM t x CURRENCY BOUND 60 SEC ON (x)")
        text = "\n".join(line for (line,) in result.rows)
        assert "guarded(t_copy)" in text
        assert "SwitchUnion" in text
        assert "constraint:" in text

    def test_explain_on_backend(self, cache):
        result = cache.backend.execute("EXPLAIN SELECT x.id FROM t x WHERE x.id = 1")
        text = "\n".join(line for (line,) in result.rows)
        assert "estimated cost" in text

    def test_explain_does_not_execute(self, cache):
        result = cache.execute("EXPLAIN SELECT x.id FROM t x")
        assert result.context.remote_queries == []

    def test_explain_derived_table_on_backend(self, cache):
        # A derived table is an operand of the one optimizer's search: its
        # block's operators sit under the outer projection.
        result = cache.backend.execute(
            "EXPLAIN SELECT s.id FROM (SELECT id FROM t) s"
        )
        text = "\n".join(line for (line,) in result.rows)
        assert "estimated cost" in text and "Project([s.id])" in text, text

    def test_explain_roundtrip_sql(self, cache):
        from repro.sql.parser import parse

        stmt = parse("EXPLAIN SELECT x.id FROM t x")
        assert parse(stmt.to_sql()).to_sql() == stmt.to_sql()


class TestShellSQL:
    def test_select_prints_rows_and_plan(self, cache):
        text = run(cache, "SELECT x.id, x.v FROM t x CURRENCY BOUND 60 SEC ON (x)")
        assert "2 row(s)" in text
        assert "plan: guarded(t_copy)" in text
        assert "t_copy->local" in text

    def test_dml_prints_count(self, cache):
        text = run(cache, "INSERT INTO t VALUES (3, 30)")
        assert "1 row(s) affected" in text

    def test_error_reported_not_raised(self, cache):
        text = run(cache, "SELECT nonsense FROM missing")
        assert "error:" in text

    def test_timeordered_bracket(self, cache):
        text = run(cache, "BEGIN TIMEORDERED", "END TIMEORDERED")
        assert text.count("ok") == 2

    def test_explain_via_shell(self, cache):
        text = run(cache, "EXPLAIN SELECT x.id FROM t x")
        assert "summary: remote" in text


class TestShellMeta:
    def test_help(self, cache):
        assert "\\advance" in run(cache, "\\help")

    def test_now_and_advance(self, cache):
        text = run(cache, "\\now", "\\advance 5", "\\now")
        assert "simulated time: 11" in text
        assert "simulated time: 16" in text

    def test_regions(self, cache):
        text = run(cache, "\\regions")
        assert "r1:" in text
        assert "t_copy" in text

    def test_views(self, cache):
        text = run(cache, "\\views")
        assert "t_copy = SELECT id, v FROM t" in text

    def test_tables(self, cache):
        text = run(cache, "\\tables")
        assert "t: 2 rows" in text

    def test_plan_shorthand(self, cache):
        text = run(cache, "\\plan SELECT x.id FROM t x CURRENCY BOUND 60 SEC ON (x)")
        assert "guarded(t_copy)" in text

    def test_unknown_command(self, cache):
        assert "unknown command" in run(cache, "\\frobnicate")

    def test_quit_stops_processing(self, cache):
        text = run(cache, "\\quit", "\\now")
        assert "simulated time" not in text

    def test_blank_lines_ignored(self, cache):
        shell = Shell(cache, out=io.StringIO())
        assert shell.handle("") is True


class TestStatusAPI:
    def test_status_shape(self, cache):
        status = cache.status()
        assert "r1" in status
        info = status["r1"]
        assert info["update_interval"] == 10
        assert info["staleness_bound"] is not None
        assert info["views"]["t_copy"]["rows"] == 2

    def test_status_ages_grow_with_time(self, cache):
        before = cache.status()["r1"]["views"]["t_copy"]["snapshot_age"]
        cache.run_for(3.0)
        after = cache.status()["r1"]["views"]["t_copy"]["snapshot_age"]
        assert after > before
