"""End-to-end query tracing, EXPLAIN ANALYZE, the currency-SLO report,
and the structured event log (repro.obs v2)."""

import io
import json

import pytest

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from repro.cli import Shell
from repro.engine.analyze import q_error
from repro.fleet import CacheFleet
from repro.obs.events import SEVERITIES, Event, EventLog
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry
from repro.obs.trace import NULL_TRACE, TraceContext, TraceExporter, TraceLog
from repro.sql.parser import parse
from repro.workloads.driver import WorkloadDriver, point_lookup_factory
from tests.conftest import EXECUTION_PATHS, each_path, stream_every_plan

GUARDED = "SELECT t.id, t.v FROM t WHERE t.v > 20 CURRENCY BOUND 600 SEC ON (t)"
REMOTE_ONLY = "SELECT t.id, t.v FROM t CURRENCY BOUND 0 SEC ON (t)"


def make_backend(rows=20):
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, PRIMARY KEY (id))"
    )
    values = ", ".join(f"({i}, {i * 10})" for i in range(1, rows + 1))
    backend.execute(f"INSERT INTO t VALUES {values}")
    backend.refresh_statistics()
    return backend


def make_cache(settle=True, rows=20, **kwargs):
    backend = make_backend(rows)
    cache = MTCache(backend, **kwargs)
    cache.create_region("r", 4.0, 1.0, heartbeat_interval=0.5)
    cache.create_matview("t_copy", "t", ["id", "v"], region="r")
    if settle:
        cache.run_for(6.0)
    return cache


def make_fleet(n_nodes=3, settle=True, **kwargs):
    backend = make_backend()
    fleet = CacheFleet(backend, n_nodes=n_nodes, **kwargs)
    fleet.create_region("r", 4.0, 1.0, heartbeat_interval=0.5)
    fleet.create_matview("t_copy", "t", ["id", "v"], region="r")
    if settle:
        fleet.run_for(6.0)
    return fleet


# ======================================================================
# Trace context propagation
# ======================================================================
class TestTracePropagation:
    def test_single_cache_query_yields_one_trace(self):
        cache = make_cache()
        result = cache.execute(GUARDED)
        assert result.trace_id is not None
        trace = cache.traces.get(result.trace_id)
        assert trace is not None and trace.finished
        names = {span.name for span in trace.spans}
        assert {"parse", "optimize", "mtcache.execute", "exec.run"} <= names
        assert all(span.trace_id == result.trace_id for span in trace.spans)

    def test_exec_phase_spans_parent_mtcache_execute(self):
        cache = make_cache()
        result = cache.execute(GUARDED)
        trace = cache.traces.get(result.trace_id)
        by_name = {span.name: span for span in trace.spans}
        execute = by_name["mtcache.execute"]
        for phase in ("exec.setup", "exec.run", "exec.shutdown"):
            assert by_name[phase].parent_id == execute.span_id

    def test_fleet_trace_spans_router_node_and_network(self):
        fleet = make_fleet()
        result = fleet.execute(REMOTE_ONLY)
        trace = fleet.traces.get(result.trace_id)
        assert trace is not None
        names = {span.name for span in trace.spans}
        assert {"fleet.route", "parse", "optimize", "mtcache.execute",
                "net.call"} <= names
        # One tree: every span carries the router's trace id, and the root
        # is the router span.
        assert all(span.trace_id == result.trace_id for span in trace.spans)
        root = trace.root()
        assert root.name == "fleet.route"
        assert root.attrs["node"] == result.node
        net = next(s for s in trace.spans if s.name == "net.call")
        assert net.attrs["outcome"] == "ok"

    def test_guarded_fleet_query_traces_without_network_hop(self):
        fleet = make_fleet()
        result = fleet.execute(GUARDED)
        trace = fleet.traces.get(result.trace_id)
        names = [span.name for span in trace.spans]
        assert "fleet.route" in names and "net.call" not in names

    def test_trace_log_is_bounded_and_searchable(self):
        log = TraceLog(capacity=2)
        traces = [TraceContext() for _ in range(3)]
        for trace in traces:
            with trace.span("work"):  # non-empty so record() keeps it
                pass
            log.record(trace)
        log.record(TraceContext())  # an empty trace is not worth a slot
        assert len(log) == 2
        assert log.get(traces[0].trace_id) is None
        assert log.get(traces[2].trace_id) is traces[2]
        assert log.latest() is traces[2]

    def test_null_trace_is_falsy_and_inert(self):
        assert not NULL_TRACE
        assert NULL_TRACE.trace_id is None
        span = NULL_TRACE.span("anything", attr=1)
        with span:
            pass
        assert NULL_TRACE.spans == ()

    def test_fresh_trace_context_is_truthy(self):
        # ``if trace:`` is the fast-path test; a 0-span trace must pass it.
        assert TraceContext()

    def test_untraced_cache_records_nothing(self):
        cache = make_cache(metrics=NullRegistry())
        result = cache.execute(GUARDED)
        assert result.trace_id is None
        assert len(cache.traces) == 0


# ======================================================================
# Span stack leak fix
# ======================================================================
class TestSpanStackLeak:
    def test_exception_unwinding_nested_spans_leaves_clean_stack(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("outer"):
                inner = registry.span("inner").__enter__()  # noqa: F841
                orphan = registry.span("orphan").__enter__()  # noqa: F841
                raise RuntimeError("boom")
        assert registry.span_log.stack == []
        # The orphans were finalized (elapsed set) despite never exiting.
        finished = {span.name for span in registry.span_log.recent(10)}
        assert finished == {"outer", "inner", "orphan"}
        for span in registry.span_log.recent(10):
            assert span.elapsed is not None

    def test_orphan_keeps_parent_attribution(self):
        registry = MetricsRegistry()
        outer = registry.span("outer").__enter__()
        registry.span("inner").__enter__()
        outer.__exit__(None, None, None)
        by_name = {s.name: s for s in registry.span_log.recent(10)}
        assert by_name["inner"].parent == "outer"
        assert by_name["inner"].depth == 1

    def test_double_exit_is_idempotent(self):
        registry = MetricsRegistry()
        span = registry.span("once").__enter__()
        span.__exit__(None, None, None)
        elapsed = span.elapsed
        span.__exit__(None, None, None)
        assert span.elapsed == elapsed
        assert len(registry.span_log) == 1


# ======================================================================
# Histogram percentiles (linear interpolation)
# ======================================================================
class TestPercentileInterpolation:
    def make(self, values):
        from repro.obs.metrics import Histogram

        hist = Histogram()
        for value in values:
            hist.observe(value)
        return hist

    def test_even_count_interpolates_midpoint(self):
        assert self.make([1, 2, 3, 4]).percentile(50) == 2.5

    def test_p0_and_p100_are_window_extremes(self):
        hist = self.make([5, 1, 3])
        assert hist.percentile(0) == 1
        assert hist.percentile(100) == 5
        assert hist.percentile(-5) == 1
        assert hist.percentile(250) == 5

    def test_single_sample_is_every_percentile(self):
        hist = self.make([7.5])
        for p in (0, 25, 50, 99, 100):
            assert hist.percentile(p) == 7.5

    def test_empty_histogram_is_zero(self):
        assert self.make([]).percentile(50) == 0.0

    def test_interpolation_between_ranks(self):
        # ranks 0..3; p75 -> rank 2.25 -> 30 + 0.25*10
        assert self.make([10, 20, 30, 40]).percentile(75) == pytest.approx(32.5)


# ======================================================================
# render_text determinism
# ======================================================================
class TestRenderText:
    def fill(self, registry, order):
        for routing in order:
            registry.counter(
                "queries_total", labels={"routing": routing},
                help="SELECTs by routing",
            ).inc()
        registry.histogram("t_seconds", labels={"phase": "run"},
                           help="phase time").observe(1.0)

    def test_help_and_type_once_per_family(self):
        registry = MetricsRegistry()
        self.fill(registry, ["local", "remote", "mixed"])
        text = registry.render_text()
        assert text.count("# HELP queries_total") == 1
        assert text.count("# TYPE queries_total") == 1
        assert text.count("# TYPE t_seconds summary") == 1

    def test_series_order_is_insertion_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        self.fill(a, ["remote", "local"])
        self.fill(b, ["local", "remote"])
        assert a.render_text() == b.render_text()

    def test_series_sorted_within_family(self):
        registry = MetricsRegistry()
        self.fill(registry, ["remote", "local"])
        text = registry.render_text()
        assert text.index('routing="local"') < text.index('routing="remote"')


# ======================================================================
# Registry API parity and kind mismatches
# ======================================================================
class TestRegistryParity:
    def public_api(self, cls):
        return {
            name
            for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))
        }

    def test_null_registry_mirrors_real_registry(self):
        real = self.public_api(MetricsRegistry)
        null = self.public_api(NullRegistry)
        assert real == null, (
            f"registry APIs drifted: only in MetricsRegistry {real - null}, "
            f"only in NullRegistry {null - real}"
        )

    def test_null_registry_shared_attributes(self):
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.family("anything") == {}
        assert NULL_REGISTRY.event("k", "m") is None
        assert NULL_REGISTRY.new_trace() is NULL_TRACE
        assert len(NULL_REGISTRY.events) == 0

    def test_kind_mismatch_on_existing_series(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="is a counter, not a histogram"):
            registry.histogram("x")

    def test_kind_mismatch_on_known_family_new_labels(self):
        registry = MetricsRegistry()
        registry.counter("x", labels={"a": "1"})
        with pytest.raises(ValueError, match="is a counter, not a gauge"):
            registry.gauge("x", labels={"a": "2"})


# ======================================================================
# Event log
# ======================================================================
class TestEventLog:
    def test_record_and_filter(self):
        log = EventLog()
        log.record("guard", "stale", severity="warning", time=1.0, view="v")
        log.record("breaker", "opened", severity="error", time=2.0)
        log.record("guard", "ok", time=3.0)
        assert len(log) == 3
        assert [e.kind for e in log.recent(10, kind="guard")] == ["guard", "guard"]
        severe = log.recent(10, min_severity="warning")
        assert [e.severity for e in severe] == ["warning", "error"]
        assert log.counts_by_kind() == {"guard": 2, "breaker": 1}
        assert log.counts_by_severity() == {"warning": 1, "error": 1, "info": 1}

    def test_capacity_ring(self):
        log = EventLog(capacity=2)
        for i in range(5):
            log.record("k", f"m{i}", time=float(i))
        assert [e.message for e in log.recent(10)] == ["m3", "m4"]

    def test_zero_capacity_drops(self):
        log = EventLog(capacity=0)
        assert log.record("k", "m") is None
        assert len(log) == 0

    def test_unknown_severity_raises(self):
        with pytest.raises(ValueError, match="unknown severity"):
            Event("k", "m", severity="fatal")

    def test_severity_order(self):
        assert (SEVERITIES["debug"] < SEVERITIES["info"]
                < SEVERITIES["warning"] < SEVERITIES["error"])

    def test_attrs_captured(self):
        event = EventLog().record("guard", "m", view="t_copy", region="r")
        assert event.attrs == {"view": "t_copy", "region": "r"}


# ======================================================================
# EXPLAIN ANALYZE
# ======================================================================
class TestExplainAnalyze:
    def executed(self, records):
        return [r for r in records if r["executed"]]

    def test_batch_engine_estimates_vs_actuals(self, monkeypatch):
        # The "batch" path: the executor's tiny-plan shortcut off, so this
        # small guarded plan streams column batches.
        stream_every_plan(monkeypatch)
        cache = make_cache()
        result = cache.explain(GUARDED, analyze=True)
        assert result.context.engine == "columnar"
        records = result.analysis
        assert len(records) >= 3
        for record in self.executed(records):
            assert record["est_rows"] is not None
            assert record["loops"] >= 1
            assert record["q_error"] is not None and record["q_error"] >= 1.0
            assert record["mode"] == "columnar"
        switch = next(r for r in records if r["op"] == "SwitchUnion")
        assert switch["branch"] == "local"
        remote = next(r for r in records if r["op"] == "RemoteQuery")
        assert not remote["executed"] and remote["q_error"] is None

    @pytest.mark.parametrize("path", EXECUTION_PATHS, indirect=True)
    @pytest.mark.parametrize("sql", [
        GUARDED,
        "SELECT a.id, b.v FROM t a, t b WHERE a.id = b.v CURRENCY BOUND 600 SEC ON (a, b)",
    ])
    def test_self_times_sum_to_root_time(self, path, sql):
        # self = inclusive - executed children's inclusive: over the tree
        # the self column accounts for exactly the root's time.
        result = make_cache().explain(sql, analyze=True)
        records = result.analysis
        assert sum(r["self_ms"] for r in records) == pytest.approx(records[0]["time_ms"])
        assert all(r["self_ms"] == 0 for r in records if not r["executed"])
        assert len([r for r in records if r["executed"]]) >= 3
        lines = [line for (line,) in result.rows]
        header = next(line for line in lines if line.startswith("operator"))
        assert header.split()[:8] == [
            "operator", "est.rows", "act.rows", "loops", "batches", "time", "self", "q-err"]

    def test_row_engine_estimates_vs_actuals(self):
        # A 20-row table: the guarded plan is tiny and runs row mode.
        cache = make_cache()
        result = cache.explain(GUARDED, analyze=True)
        assert result.context.engine == "row"
        executed = self.executed(result.analysis)
        assert executed
        for record in executed:
            assert record["q_error"] is not None
            assert record["batches"] == 0  # row mode exchanges no batches
            assert record["mode"] == "row"
        rows_out = [r["actual_rows"] for r in executed]
        assert max(rows_out) > 0

    def test_engines_agree_on_actual_rows(self):
        # Streamed ("batch") and tiny ("columnar", row mode) runs of one plan.
        key = lambda r: (r["op"], r["depth"])  # noqa: E731
        actuals = {
            path: [(key(r), r["actual_rows"])
                   for r in make_cache().explain(GUARDED, analyze=True).analysis
                   if r["executed"]]
            for path in each_path()
        }
        assert actuals["batch"] == actuals["columnar"]

    @pytest.mark.parametrize("tail", ["ORDER BY a.id", "GROUP BY a.v"])
    def test_row_only_parent_keeps_its_join_columnar(self, tail):
        # Sort and HashAggregate read their input through col_batches()
        # in a streamed run, so the join beneath them stays columnar
        # instead of falling back to rows.
        items = "a.id, b.id" if tail.startswith("ORDER") else "a.v, COUNT(*)"
        sql = (f"SELECT {items} FROM t a, t b WHERE a.v = b.v {tail} "
               "CURRENCY BOUND 600 SEC ON (a, b)")
        result = make_cache(rows=60).explain(sql, analyze=True)
        assert result.context.engine == "columnar"
        (join,) = [r for r in result.analysis if r["op"] == "HashJoin"]
        assert join["executed"] and join["mode"] == "columnar" and join["batches"] >= 1
        text = "\n".join(line for (line,) in result.rows)
        assert "mode=columnar" in next(l for l in text.splitlines() if "HashJoin" in l)

    def test_q_error_histogram_populated(self):
        cache = make_cache()
        cache.explain(GUARDED, analyze=True)
        family = cache.metrics.family("cost_model_q_error")
        assert family
        ops = {dict(key)["op"] for key in family}
        assert "SwitchUnion" in ops
        for hist in family.values():
            assert hist.count >= 1 and hist.min >= 1.0

    def test_explain_analyze_sql_statement(self):
        cache = make_cache()
        result = cache.execute("EXPLAIN ANALYZE " + GUARDED)
        assert result.columns == ["plan"]
        text = "\n".join(line for (line,) in result.rows)
        assert "actual:" in text and "q-err" in text and "est.rows" in text
        assert "(never executed)" in text

    def test_explain_analyze_trace_id_resolves(self):
        # Through execute(): the analysed run joins the statement's own
        # trace, beside its parse/optimize spans.
        cache = make_cache()
        result = cache.execute("EXPLAIN ANALYZE " + GUARDED)
        trace = cache.traces.get(result.trace_id)
        assert trace is not None and len(cache.traces) == 1
        by_name = {span.name: span for span in trace.spans}
        assert {"parse", "optimize", "exec.setup", "exec.run", "exec.shutdown"} <= set(by_name)
        for name in ("parse", "optimize", "exec.setup", "exec.run", "exec.shutdown"):
            assert by_name[name].parent_id is None
        # Called directly there is no caller trace: an owned one is recorded.
        direct = cache.explain(GUARDED, analyze=True)
        trace = cache.traces.get(direct.trace_id)
        assert trace is not None and direct.trace_id != result.trace_id
        assert [span.name for span in trace.spans] == [
            "exec.setup", "exec.run", "exec.shutdown"]

    def test_explain_command_prints_a_trace_id_that_resolves(self):
        cache = make_cache()
        out = io.StringIO()
        shell = Shell(cache, out=out)
        shell.handle("\\explain " + GUARDED)
        (line,) = [l for l in out.getvalue().splitlines() if l.startswith("trace: ")]
        shell.handle("\\trace " + line.split()[1])
        assert "exec.run" in out.getvalue() and "no trace" not in out.getvalue()

    def test_plain_explain_does_not_execute(self):
        cache = make_cache()
        result = cache.execute("EXPLAIN " + GUARDED)
        text = "\n".join(line for (line,) in result.rows)
        assert "actual:" not in text
        assert cache.metrics.family("cost_model_q_error") == {}

    def test_parser_round_trip(self):
        stmt = parse("EXPLAIN ANALYZE SELECT t.id FROM t")
        assert stmt.analyze
        assert stmt.to_sql().startswith("EXPLAIN ANALYZE SELECT")
        assert not parse("EXPLAIN SELECT t.id FROM t").analyze

    def test_fused_pipeline_membership_reported(self):
        # Large enough to stream column batches through a fused scan.
        cache = make_cache(rows=60)
        records = cache.explain(GUARDED, analyze=True).analysis
        assert any(r["fused"] for r in records if r["executed"])

    @pytest.mark.parametrize("rows", [20, 60])
    @pytest.mark.parametrize("sql", [
        GUARDED,
        "SELECT t.id, t.v FROM t WHERE t.id = 3 CURRENCY BOUND 600 SEC ON (t)",
        "SELECT a.id, b.v FROM t a, t b WHERE a.id = b.id AND a.v < 100 "
        "CURRENCY BOUND 600 SEC ON (a, b)",
    ])
    def test_analyze_runs_the_plain_runs_kernels(self, rows, sql):
        # The instrumented tree calls each operator's own all_rows, so the
        # fused pipelines it reports are the plain run's, row for row.
        cache = make_cache(rows=rows)
        plain = cache.execute(sql)
        result = cache.explain(sql, analyze=True)
        assert result.context.engine == plain.context.engine
        fused = {r["describe"] for r in result.analysis if r["fused"]}
        assert fused and fused == set(plain.context.fused_pipelines)
        assert result.analysis[0]["actual_rows"] == len(plain.rows)

    def test_q_error_helper(self):
        assert q_error(10, 10) == 1.0
        assert q_error(100, 10) == 10.0
        assert q_error(10, 100) == 10.0
        assert q_error(0, 0) == 1.0  # eps clamp keeps zero rows finite


# ======================================================================
# Exporters
# ======================================================================
class TestTraceExporters:
    def test_ascii_tree_shape(self):
        cache = make_cache()
        result = cache.execute(GUARDED)
        trace = cache.traces.get(result.trace_id)
        text = TraceExporter().ascii_tree(trace)
        assert text.startswith(f"trace {result.trace_id}:")
        assert "mtcache.execute" in text and "exec.run" in text
        assert "└─" in text

    def test_chrome_json_events(self):
        fleet = make_fleet()
        result = fleet.execute(REMOTE_ONLY)
        trace = fleet.traces.get(result.trace_id)
        payload = json.loads(TraceExporter().chrome_json(trace))
        events = payload["traceEvents"]
        assert len(events) == len(trace.spans)
        names = {event["name"] for event in events}
        assert "fleet.route" in names and "net.call" in names
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0


# ======================================================================
# Currency-SLO report
# ======================================================================
class TestSLOReport:
    def test_slack_reflects_agent_stall(self):
        fleet = make_fleet(n_nodes=1)
        node = fleet.nodes[0]
        fleet.execute(GUARDED)
        before = fleet.slo_report()["slack"][node.name][f"r@{node.name}"]
        fleet.network.stall_agents(100.0)
        fleet.run_for(40.0)
        fleet.execute(GUARDED)
        after = fleet.slo_report()["slack"][node.name][f"r@{node.name}"]
        # The stalled agent let staleness grow, so the newest slack
        # observation drags the window minimum down.
        assert after["min"] < before["min"]
        assert after["count"] == before["count"] + 1

    def test_bound_missed_flag_and_stale_outcome(self):
        fleet = make_fleet(n_nodes=1, fallback_policy="serve_stale")
        node = fleet.nodes[0]
        fleet.network.stall_agents(1000.0)
        fleet.run_for(700.0)  # staleness > 600s bound
        result = fleet.execute(GUARDED)
        assert result.warnings
        report = fleet.slo_report()
        slack = report["slack"][node.name][f"r@{node.name}"]
        assert slack["bound_missed"] and slack["min"] < 0
        assert report["guard_outcomes"][node.name]["stale"] >= 1
        assert report["events"].get("guard", 0) >= 1

    def test_degraded_and_breaker_sections(self):
        fleet = make_fleet(n_nodes=1, failure_threshold=1)
        fleet.execute(GUARDED)  # fresh: served locally
        fleet.network.stall_agents(1000.0)
        fleet.run_for(700.0)  # staleness > 600s bound
        fleet.network.inject_outage(50.0)
        result = fleet.execute(GUARDED)  # wants remote, back-end down -> degraded
        assert result.routing == "local"
        assert result.warnings[0].startswith("degraded:")
        report = fleet.slo_report()
        assert report["degraded"] >= 1
        assert report["events"].get("outage", 0) >= 1
        assert report["events"].get("degraded", 0) >= 1
        assert report["routing"]["node0"] >= 2
        # A degraded serve is its own outcome, never a remote one, and
        # leaves one event: no "using remote branch" guard event.
        assert report["guard_outcomes"]["node0"] == {
            "local": 1, "remote": 0, "stale": 0, "degraded": 1,
        }
        assert report["events"].get("guard", 0) == 0
        guard_events = [e.kind for e in fleet.nodes[0].metrics.events
                        if e.kind in ("guard", "degraded")]
        assert guard_events == ["degraded"]
        # The guard still failed its currency test, with negative slack.
        snap = fleet.nodes[0].metrics.snapshot()
        assert snap['currency_guard_total{outcome="fail",view="t_copy"}'] == 1
        assert report["slack"]["node0"]["r@node0"]["min"] < 0

    def test_event_timeline_orders_mixed_sources(self):
        fleet = make_fleet(n_nodes=2)
        fleet.network.stall_agents(5.0, node="node1")
        fleet.network.inject_outage(2.0)
        report = fleet.slo_report()
        assert report["events"]["agent_stall"] == 1
        assert report["events"]["outage"] == 1


# ======================================================================
# CLI
# ======================================================================
class TestCLI:
    def shell(self, target):
        out = io.StringIO()
        return Shell(target, out=out), out

    def test_trace_command(self):
        fleet = make_fleet()
        shell, out = self.shell(fleet)
        shell.handle("\\trace")
        assert "(no trace recorded)" in out.getvalue()
        shell.handle(GUARDED)
        shell.handle("\\trace")
        text = out.getvalue()
        assert "fleet.route" in text and "mtcache.execute" in text

    def test_trace_json_command(self):
        fleet = make_fleet()
        shell, out = self.shell(fleet)
        shell.handle(GUARDED)
        out.truncate(0), out.seek(0)
        shell.handle("\\trace json")
        payload = json.loads(out.getvalue())
        assert payload["traceEvents"]

    def test_trace_by_id(self):
        cache = make_cache()
        shell, out = self.shell(cache)
        shell.handle(GUARDED)
        trace_id = cache.traces.latest().trace_id
        shell.handle(f"\\trace {trace_id}")
        assert f"trace {trace_id}:" in out.getvalue()
        shell.handle("\\trace t999999")
        assert "no trace 't999999'" in out.getvalue()

    def test_explain_command(self):
        cache = make_cache()
        shell, out = self.shell(cache)
        shell.handle("\\explain " + GUARDED)
        text = out.getvalue()
        assert "est.rows" in text and "act.rows" in text and "actual:" in text
        assert "trace:" in text

    def test_events_command(self):
        fleet = make_fleet()
        shell, out = self.shell(fleet)
        fleet.network.inject_outage(5.0)
        shell.handle("\\events")
        text = out.getvalue()
        assert "outage" in text and "[error" in text

    def test_events_empty(self):
        cache = make_cache(settle=False)
        cache.metrics.events.clear()
        shell, out = self.shell(cache)
        shell.handle("\\events")
        assert "(no events recorded)" in out.getvalue()

    def test_help_lists_new_commands(self):
        cache = make_cache(settle=False)
        shell, out = self.shell(cache)
        shell.handle("\\help")
        text = out.getvalue()
        for command in ("\\explain", "\\trace", "\\events"):
            assert command in text


# ======================================================================
# Workload driver integration
# ======================================================================
class TestDriverObservability:
    def test_report_collects_trace_ids_and_events(self):
        fleet = make_fleet()
        driver = WorkloadDriver(fleet, seed=1)
        factory = point_lookup_factory("t", "id", (1, 20))
        report = driver.run(factory, bounds=[600], n_queries=5, think_time=0.5)
        assert len(report.trace_ids) == 5
        assert all(fleet.traces.get(tid) is not None for tid in report.trace_ids)
        # Replication events from the settled fleet show up in the report.
        assert any(e.kind == "replication" for e in report.events)
