"""Tests for the observability subsystem (repro.obs) and the metrics
threaded through the MTCache query path, plus the unified-API redesign
riders: LRU plan-cache eviction and keyword-only constructor knobs."""

import re

import pytest

from repro.cache.backend import BackendServer
from repro.cache.mtcache import FallbackPolicy, MTCache, QueryLog
from repro.cli import run_script
from repro.obs import (
    NULL_REGISTRY,
    Counter,
    Event,
    EventLog,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.ring import Ring


# ----------------------------------------------------------------------
# Metric primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge(self):
        g = Gauge()
        g.set(3.5)
        assert g.value == 3.5
        g.inc()
        g.dec(0.5)
        assert g.value == 4.0

    def test_histogram_basic_stats(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == 15.0
        assert h.mean == 3.0
        assert h.min == 1.0
        assert h.max == 5.0
        assert h.percentile(50) == 3.0
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 5.0

    def test_histogram_reservoir_is_bounded(self):
        h = Histogram(reservoir_size=8)
        for v in range(1000):
            h.observe(float(v))
        assert h.count == 1000  # exact count survives
        assert len(h._ring) == 8  # reservoir does not grow
        # The ring holds the most recent observations.
        assert h.percentile(0) >= 992.0

    def test_empty_histogram(self):
        h = Histogram()
        assert h.mean == 0.0
        assert h.percentile(99) == 0.0
        assert h.summary()["count"] == 0


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_get_or_create_returns_same_series(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        local = reg.counter("q_total", labels={"routing": "local"})
        remote = reg.counter("q_total", labels={"routing": "remote"})
        assert local is not remote
        local.inc()
        assert reg.snapshot() == {
            'q_total{routing="local"}': 1,
            'q_total{routing="remote"}': 0,
        }

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.counter("x", labels={"a": "1", "b": "2"})
        b = reg.counter("x", labels={"b": "2", "a": "1"})
        assert a is b

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError):
            reg.gauge("thing")
        with pytest.raises(ValueError):
            reg.histogram("thing", labels={"x": "y"})

    def test_snapshot_histogram_summary(self):
        reg = MetricsRegistry()
        reg.histogram("lat_seconds").observe(0.25)
        snap = reg.snapshot()
        assert snap["lat_seconds"]["count"] == 1
        assert snap["lat_seconds"]["sum"] == 0.25

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        with reg.span("s"):
            pass
        reg.reset()
        assert reg.snapshot() == {}
        assert len(reg.span_log) == 0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_span_times_and_records(self):
        reg = MetricsRegistry()
        with reg.span("work") as span:
            pass
        assert span.elapsed >= 0.0
        assert span.parent is None
        assert span.depth == 0
        assert [s.name for s in reg.span_log.recent()] == ["work"]
        assert reg.snapshot()['span_seconds{span="work"}']["count"] == 1

    def test_span_nesting_parent_child(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            with reg.span("inner") as inner:
                with reg.span("leaf") as leaf:
                    pass
        assert inner.parent == "outer"
        assert inner.depth == 1
        assert leaf.parent == "inner"
        assert leaf.depth == 2
        # Finished innermost-first.
        assert [s.name for s in reg.span_log.recent()] == ["leaf", "inner", "outer"]

    def test_span_stack_unwinds_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("broken"):
                raise RuntimeError("boom")
        assert reg.span_log.stack == []
        with reg.span("after") as span:
            pass
        assert span.parent is None

    def test_span_log_is_bounded(self):
        reg = MetricsRegistry(max_spans=4)
        for i in range(10):
            with reg.span(f"s{i}"):
                pass
        assert len(reg.span_log) == 4
        assert [s.name for s in reg.span_log.recent()] == ["s6", "s7", "s8", "s9"]


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
EXPO_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9].*$'
)


class TestRenderText:
    def test_every_line_is_valid_exposition(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", labels={"kind": "a"}, help="hits by kind").inc(3)
        reg.gauge("lag_seconds", labels={"region": "r1"}).set(1.25)
        reg.histogram("t_seconds").observe(0.5)
        text = reg.render_text()
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$", line), line
            else:
                assert EXPO_LINE.match(line), line

    def test_type_and_help_lines(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", help="some hits").inc()
        reg.gauge("lag_seconds").set(2)
        reg.histogram("t_seconds").observe(1.0)
        text = reg.render_text()
        assert "# HELP hits_total some hits" in text
        assert "# TYPE hits_total counter" in text
        assert "# TYPE lag_seconds gauge" in text
        assert "# TYPE t_seconds summary" in text
        assert 't_seconds{quantile="0.5"} 1' in text
        assert "t_seconds_count 1" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_text() == ""


# ----------------------------------------------------------------------
# NullRegistry
# ----------------------------------------------------------------------
class TestNullRegistry:
    def test_all_operations_are_noops(self):
        reg = NullRegistry()
        reg.counter("c", labels={"x": "y"}).inc(5)
        reg.gauge("g").set(3)
        reg.histogram("h").observe(1.0)
        with reg.span("s") as span:
            pass
        assert span.elapsed == 0.0
        assert reg.snapshot() == {}
        assert reg.render_text() == ""

    def test_shared_instance(self):
        assert NULL_REGISTRY.counter("anything") is NULL_REGISTRY.counter("other")


# ----------------------------------------------------------------------
# Bounded rings: Ring and the logs built on it
# ----------------------------------------------------------------------
def _filled(ring_cls):
    ring = ring_cls(8)
    for i in range(4):
        if ring_cls is EventLog:
            ring.record("tick", str(i))
        else:
            ring.record(str(i))
    return ring


def _labels(entries):
    return [e.message if isinstance(e, Event) else e for e in entries]


@pytest.mark.parametrize("ring_cls", [Ring, QueryLog, EventLog])
@pytest.mark.parametrize(
    "n, expected",
    [(0, []), (-1, []), (-5, []), (1, ["3"]), (3, ["1", "2", "3"]), (9, ["0", "1", "2", "3"])],
)
def test_ring_recent_returns_last_n_and_none_for_non_positive(ring_cls, n, expected):
    assert _labels(_filled(ring_cls).recent(n)) == expected


# ----------------------------------------------------------------------
# End-to-end: metrics through the query path
# ----------------------------------------------------------------------
@pytest.fixture()
def cache():
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, PRIMARY KEY (id))"
    )
    backend.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    backend.refresh_statistics()
    cache = MTCache(backend)
    cache.create_region("r1", 10, 2, heartbeat_interval=1)
    cache.create_matview("t_copy", "t", ["id", "v"], region="r1")
    cache.run_for(11)
    return cache


GUARDED = "SELECT x.id, x.v FROM t x CURRENCY BOUND 5 SEC ON (x)"


class TestQueryPathMetrics:
    def test_guarded_query_populates_snapshot(self, cache):
        result = cache.execute(GUARDED)
        assert result.routing == "local"
        snap = cache.metrics.snapshot()
        # Timings: parse + optimize spans, all three execution phases.
        assert snap['span_seconds{span="parse"}']["count"] >= 1
        assert snap['span_seconds{span="optimize"}']["count"] == 1
        for phase in ("setup", "run", "shutdown"):
            assert snap[f'exec_phase_seconds{{phase="{phase}"}}']["count"] == 1
        # Plan cache, routing, guard and branch counters.
        assert snap['plan_cache_events_total{event="misses"}'] == 1
        assert snap['queries_total{routing="local"}'] == 1
        assert snap['currency_guard_total{outcome="pass",view="t_copy"}'] == 1
        assert snap['switchunion_branch_total{branch="local"}'] == 1
        # Per-region staleness gauge and replication counters.
        assert snap['replication_staleness_seconds{region="r1"}'] >= 0.0
        assert snap['replication_refreshes_total{region="r1"}'] >= 1
        assert snap["rows_produced_total"] == 3

    def test_guard_failure_and_remote_routing(self, cache):
        cache.run_for(6.0)  # staleness now exceeds the 5s bound mid-cycle
        result = cache.execute(GUARDED)
        assert result.routing == "remote"
        snap = cache.metrics.snapshot()
        assert snap['currency_guard_total{outcome="fail",view="t_copy"}'] == 1
        assert snap['switchunion_branch_total{branch="remote"}'] == 1
        assert snap['queries_total{routing="remote"}'] == 1

    def test_plan_cache_hits_counted(self, cache):
        cache.execute(GUARDED)
        cache.execute(GUARDED)
        assert cache.plan_cache_stats["hits"] == 1
        assert cache.plan_cache_stats["misses"] == 1

    def test_null_registry_cache_records_nothing(self):
        backend = BackendServer()
        backend.create_table(
            "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, PRIMARY KEY (id))"
        )
        backend.execute("INSERT INTO t VALUES (1, 10)")
        backend.refresh_statistics()
        cache = MTCache(backend, metrics=NullRegistry())
        cache.create_region("r1", 10, 2, heartbeat_interval=1)
        cache.create_matview("t_copy", "t", ["id", "v"], region="r1")
        cache.run_for(11)
        result = cache.execute(GUARDED.replace("5 SEC", "60 SEC"))
        assert result.rows == [(1, 10)]
        assert cache.metrics.snapshot() == {}
        assert cache.plan_cache_stats == {
            "hits": 0, "misses": 0, "invalidations": 0, "evictions": 0,
        }

    def test_cli_metrics_command(self, cache):
        import io

        out = io.StringIO()
        run_script(cache, [GUARDED, "\\metrics"], out=out)
        text = out.getvalue()
        assert "# TYPE queries_total counter" in text
        assert 'queries_total{routing="local"} 1' in text


# ----------------------------------------------------------------------
# LRU plan-cache eviction
# ----------------------------------------------------------------------
class TestPlanCacheLRU:
    def queries(self, n):
        return [
            f"SELECT x.id FROM t x WHERE x.id > {i} CURRENCY BOUND 60 SEC ON (x)"
            for i in range(n)
        ]

    def test_eviction_is_lru_not_fifo(self, cache):
        cache._plans.capacity = 2
        q0, q1, q2 = self.queries(3)
        plan0 = cache.optimize(q0)
        cache.optimize(q1)
        assert cache.optimize(q0) is plan0  # touch q0: now most recent
        cache.optimize(q2)  # evicts q1 (LRU), NOT q0 (FIFO victim)
        assert list(cache._plans.cache) == [q0, q2]
        assert cache.optimize(q0) is plan0  # still cached
        assert cache.plan_cache_stats["evictions"] == 1

    def test_eviction_counter_accumulates(self, cache):
        cache._plans.capacity = 1
        for sql in self.queries(4):
            cache.optimize(sql)
        assert cache.plan_cache_stats["evictions"] == 3


# ----------------------------------------------------------------------
# Unified entry point + constructor hygiene
# ----------------------------------------------------------------------
class TestUnifiedAPI:
    def test_execute_select_shim_is_gone(self, cache):
        assert not hasattr(cache, "execute_select")
        result = cache.execute(GUARDED)
        assert len(result.rows) == 3
        assert result.plan.summary() == "guarded(t_copy)"

    def test_execute_does_not_warn(self, cache):
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error", DeprecationWarning)
            result = cache.execute(GUARDED)
        assert len(result.rows) == 3

    def test_query_result_contract(self, cache):
        result = cache.execute(GUARDED)
        assert result.columns == ["id", "v"]
        assert result.routing in ("local", "remote", "mixed")
        assert result.timings.total >= 0.0
        assert result.warnings == []
        assert result.plan is not None

    def test_constructor_knobs_are_keyword_only(self, cache):
        with pytest.raises(TypeError):
            MTCache(cache.backend, None)  # cost_model must be keyword

    def test_fallback_policy_enum_accepted(self, cache):
        c = MTCache(cache.backend, fallback_policy=FallbackPolicy.SERVE_STALE)
        assert c.fallback_policy == "serve_stale"

    def test_bad_policy_rejected_at_construction(self, cache):
        with pytest.raises(ValueError, match="unknown fallback policy"):
            MTCache(cache.backend, fallback_policy="shrug")

    def test_obs_names_reexported(self):
        import repro

        for name in ("MetricsRegistry", "NullRegistry", "Span", "FallbackPolicy",
                     "QueryResult"):
            assert name in repro.__all__
            assert hasattr(repro, name)
