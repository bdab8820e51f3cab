"""The flat-record trace: write side against a reference stack
implementation, spine stamps against the same spans opened eagerly, a
trace the cache owns against a caller's, read side against pinned
exporter strings."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from repro.common.errors import CurrencyError
from repro.fleet import CacheFleet
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceContext, TraceExporter

GUARDED = "SELECT t.id, t.v FROM t WHERE t.v > 20 CURRENCY BOUND 600 SEC ON (t)"
REMOTE_ONLY = "SELECT t.id, t.v FROM t CURRENCY BOUND 0 SEC ON (t)"


# ======================================================================
# Reference: spans as objects on two stacks (the pre-record design)
# ======================================================================
class RefTrace:
    def __init__(self):
        self.stack, self.spans, self.opened = [], [], 0


class RefSpan:
    """A span object that pushes itself on its registry's stack (a plain
    list, None for a trace-only span) and on its trace's stack."""

    def __init__(self, name, trace, registry_stack=None, attrs=None):
        self.name, self.attrs, self.trace, self.registry = name, attrs, trace, registry_stack
        self.parent = self.parent_id = None
        self.depth, self.done = 0, False
        if registry_stack is not None:
            if registry_stack:
                self.parent, self.depth = registry_stack[-1].name, len(registry_stack)
            registry_stack.append(self)
        trace.opened += 1
        self.span_id = f"s{trace.opened}"
        if trace.stack:
            top = trace.stack[-1]
            self.parent_id = top.span_id
            if self.parent is None:
                self.parent, self.depth = top.name, top.depth + 1
        trace.stack.append(self)

    def finish(self):
        if self.done:
            return
        self.done = True
        if self.registry is not None:
            self._pop_from(self.registry)
        self._pop_from(self.trace.stack)
        self.trace.spans.append(self)

    def _pop_from(self, stack):
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                orphans = stack[i + 1:]
                del stack[i:]
                for orphan in reversed(orphans):
                    orphan.finish()
                return


def described(span):
    return (span.name, span.parent, span.parent_id, span.span_id, span.depth, span.attrs)


# One step of a program: open a trace-only span (attrs given at open, or
# one set afterwards), open a registry span on registry 0 or 1, close the
# innermost open span, or "raise" — close the span k levels further out
# without ever exiting the ones above it.
STEPS = st.one_of(
    st.tuples(st.just("open"), st.sampled_from(["bare", "attrs", "attrs later"])),
    st.tuples(st.just("registry"), st.integers(0, 1)),
    st.tuples(st.just("close"), st.just(0)),
    st.tuples(st.just("raise"), st.integers(1, 4)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(STEPS, max_size=30))
def test_records_match_the_reference_stacks(program):
    registries = [MetricsRegistry(), MetricsRegistry()]
    trace = TraceContext()
    for registry in registries:
        registry.active_trace = trace
    ref_trace, ref_stacks = RefTrace(), [[], []]
    closers, refs = [], []  # the open spans of both worlds, outermost first

    def close(at):
        closers[at]()
        refs[at].finish()
        del closers[at:], refs[at:]
        assert trace.stack == [int(ref.span_id[1:]) - 1 for ref in ref_trace.stack]
        for registry, ref_stack in zip(registries, ref_stacks):
            assert [s.name for s in registry.span_log.stack] == [r.name for r in ref_stack]

    for count, (step, arg) in enumerate(program):
        name = f"n{count}"
        if step == "open":
            index = trace.open(name, {"k": count} if arg == "attrs" else None)
            if arg == "attrs later":
                trace.annotate(index, "k", count)
            closers.append(lambda index=index: trace.close(index))
            refs.append(RefSpan(name, ref_trace, attrs=None if arg == "bare" else {"k": count}))
        elif step == "registry":
            span = registries[arg].span(name).__enter__()
            closers.append(lambda span=span: span.__exit__(None, None, None))
            refs.append(RefSpan(name, ref_trace, ref_stacks[arg]))
        elif closers:
            close(max(len(closers) - 1 - arg, 0))
    if closers:
        close(0)  # unwind whatever is left from the outermost span

    assert trace.finished and not any(r.span_log.stack for r in registries)
    assert [described(s) for s in trace.spans] == [described(s) for s in ref_trace.spans]
    assert len(trace) == ref_trace.opened
    in_open_order = sorted(trace.spans, key=lambda s: int(s.span_id[1:]))
    assert [s.span_id for s in in_open_order] == [f"s{i + 1}" for i in range(len(trace))]
    assert [s.name for s in in_open_order] == [
        f"n{i}" for i, (step, _) in enumerate(program) if step in ("open", "registry")]
    for registry, ref_stack in zip(registries, ref_stacks):
        finished = [s.name for s in ref_trace.spans if s.registry is ref_stack]
        assert [s.name for s in registry.span_log] == finished
        assert all(s.elapsed is not None for s in registry.span_log)


def test_attrs_set_after_open_show_in_the_view():
    trace = TraceContext()
    route = trace.open("fleet.route", {"policy": "round_robin"})
    trace.annotate(route, "node", "node1")
    call = trace.open("net.call")
    trace.annotate(call, "outcome", "timeout")
    trace.close(call)
    trace.close(route)
    by_name = {span.name: span for span in trace.spans}
    assert by_name["fleet.route"].attrs == {"policy": "round_robin", "node": "node1"}
    assert by_name["net.call"].attrs == {"outcome": "timeout"}
    assert "[policy=round_robin, node=node1]" in TraceExporter.ascii_tree(trace)


# ======================================================================
# The spine as stamps: a trace the cache owns against a caller's trace
# ======================================================================
# One plan run: under an mtcache.execute spine or not, the phase it
# raises in (3: none), and the work nested in each of its three phases —
# a span, a read, or a nested run.  A run without a spine (EXPLAIN
# ANALYZE's) never raises and never nests in another run's phase.
RUNS = st.recursive(
    st.sampled_from(["span", "read"]),
    lambda inner: st.tuples(
        st.booleans(), st.integers(0, 3),
        st.lists(st.lists(inner, max_size=2), min_size=3, max_size=3)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.lists(RUNS, max_size=4))
def test_spine_stamps_write_the_records_eager_spans_would(routed, program):
    lazy, eager, now = TraceContext(), TraceContext(), [0.0]

    def tick():
        now[0] += 1.0
        return now[0]

    def play(items, nested=False):
        for item in items:
            if item == "read":
                lazy.spans  # a reader writes what is pending
            elif item == "span":
                tick()
                pair = lazy.open("net.call"), eager.open("net.call")
                tick()
                lazy.close(pair[0]), eager.close(pair[1])
            else:
                run(nested or item[0], *item[1:])

    def run(spined, raise_at, work):
        if spined:
            attrs = {"node": f"c{now[0]}"}
            lazy.stamps += [attrs, tick()]
            spine = eager.open("mtcache.execute", attrs)
        phase = None
        for step, name in enumerate(("exec.setup", "exec.run", "exec.shutdown")):
            lazy.stamps.append(tick())
            if phase is not None:
                eager.close(phase, now[0])
            phase = eager.open(name)
            play(work[step], nested=True)
            if spined and step == raise_at:
                break  # the phase stays open for mtcache.execute to close
        else:
            lazy.stamps.append(tick())
            eager.close(phase, now[0])
        if spined:
            lazy.stamps += [None, tick()]
            eager.close(spine, now[0])

    real, time.perf_counter = time.perf_counter, lambda: now[0]
    try:
        if routed:  # a caller's trace, its own span open around the runs
            tick()
            route = lazy.open("fleet.route"), eager.open("fleet.route")
        play(program)
        if routed:
            tick()
            lazy.close(route[0]), eager.close(route[1])
    finally:
        time.perf_counter = real
    assert lazy.stack == eager.stack
    assert [(described(s), s.start, s.elapsed) for s in lazy.spans] == [
        (described(s), s.start, s.elapsed) for s in eager.spans]
    assert lazy.duration() == eager.duration()


def shape(trace):
    """Everything a trace says but its clock readings, in completion order."""
    return [(s.name, s.span_id, s.parent_id, s.parent, s.depth, s.attrs) for s in trace.spans]


BIND = "SELECT t.id, t.v FROM t WHERE t.id = {} CURRENCY BOUND 600 SEC ON (t)"
MISS = "SELECT m{0}.v FROM t m{0} WHERE m{0}.id > 2 CURRENCY BOUND 600 SEC ON (m{0})"
# Region "r" refreshes every 4 s with 1 s delay: a 2 s bound holds or
# fails with the time, and under FallbackPolicy.ERROR a failure raises.
TIGHT = "SELECT t.id, t.v FROM t WHERE t.id = 3 CURRENCY BOUND 2 SEC ON (t)"

STATEMENTS = st.one_of(
    st.just(GUARDED),  # one text: a plan-cache hit after its first run
    st.integers(1, 20).map(BIND.format),  # one shape: template binds
    st.integers(0, 3).map(MISS.format),  # new shapes: parse + optimize
    st.just(REMOTE_ONLY),  # bound 0: a nested backend.remote_query
    st.just(TIGHT),
    st.just("EXPLAIN ANALYZE " + GUARDED),
    st.floats(0.1, 3.0).map(lambda seconds: ("wait", seconds)),
)


def run_traced(cache, sql, trace=None):
    """``(result, trace)`` of one statement; result None if it raised."""
    try:
        result = cache.execute(sql, trace=trace)
    except CurrencyError:
        result = None
    if trace is None:
        trace = cache.traces.latest()
        if result is not None:
            assert cache.traces.get(result.trace_id) is trace
    return result, trace


@settings(max_examples=40, deadline=None)
@given(st.lists(STATEMENTS, min_size=1, max_size=8))
def test_an_owned_trace_reads_as_a_callers_trace(program):
    owned, passed = (settled(MTCache(make_backend())) for _ in range(2))
    for cache in (owned, passed):
        cache.fallback_policy = "error"
    seqs = []
    for step in program:
        if isinstance(step, tuple):
            owned.run_for(step[1])
            passed.run_for(step[1])
            continue
        mine, trace = run_traced(owned, step)
        theirs, given_trace = run_traced(passed, step, TraceContext())
        assert (mine is None) == (theirs is None)
        assert shape(trace) == shape(given_trace)
        assert trace.finished and given_trace.finished
        seqs.append(int(trace.trace_id[1:]))
        for result, spans in ((mine, trace.spans), (theirs, given_trace.spans)):
            if result is None or step.startswith("EXPLAIN"):
                continue
            timed = {s.name: s.elapsed for s in spans if s.name.startswith("exec.")}
            assert timed == {
                "exec.setup": result.timings.setup,
                "exec.run": result.timings.run,
                "exec.shutdown": result.timings.shutdown,
            }
    assert seqs == sorted(set(seqs))


def test_a_statement_that_raises_closes_its_phase_at_the_failure(monkeypatch):
    cache = settled(MTCache(make_backend()))
    cache.fallback_policy = "error"
    with pytest.raises(CurrencyError):
        cache.execute(TIGHT)  # compiled, then the guard raises in exec.setup
    cache.run_for(0.5)  # still past the bound: the cached plan raises too
    ticks = itertools.count(1)
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    with pytest.raises(CurrencyError):
        cache.execute(TIGHT)
    monkeypatch.undo()
    setup, root = cache.traces.latest().spans
    assert (setup.name, root.name) == ("exec.setup", "mtcache.execute")
    assert setup.start + setup.elapsed == root.start + root.elapsed
    assert setup.parent_id == root.span_id == "s1"


def test_a_callers_trace_keeps_two_statements_apart():
    # Nothing reads the trace between the two runs: both spines are
    # written at the end, each over its own phases.
    cache = settled(MTCache(make_backend()))
    cache.execute(GUARDED)
    trace = TraceContext()
    cache.execute(GUARDED, trace=trace)
    cache.execute(GUARDED, trace=trace)
    assert [(s.name, s.span_id, s.parent_id) for s in trace.spans] == [
        (name, f"s{first + step}", f"s{first}" if step else None)
        for first in (1, 5)
        for step, name in ((1, "exec.setup"), (2, "exec.run"), (3, "exec.shutdown"),
                           (0, "mtcache.execute"))]


def test_a_nested_span_writes_the_spine_it_opens_under():
    # A remote branch's backend.remote_query opens inside exec.setup of a
    # trace the cache owns: the spine is written at that moment.
    cache = settled(MTCache(make_backend()))
    cache.execute(REMOTE_ONLY)
    result = cache.execute(REMOTE_ONLY)
    trace = cache.traces.get(result.trace_id)
    by_name = {span.name: span for span in trace.spans}
    assert by_name["backend.remote_query"].parent_id == by_name["exec.setup"].span_id
    assert [span.name for span in trace.spans] == [
        "backend.remote_query", "exec.setup", "exec.run", "exec.shutdown",
        "mtcache.execute"]


# ======================================================================
# Read side: exporter output pinned under a fake clock
# ======================================================================
def make_backend(rows=20):
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, PRIMARY KEY (id))"
    )
    values = ", ".join(f"({i}, {i * 10})" for i in range(1, rows + 1))
    backend.execute(f"INSERT INTO t VALUES {values}")
    backend.refresh_statistics()
    return backend


def settled(target):
    target.create_region("r", 4.0, 1.0, heartbeat_interval=0.5)
    target.create_matview("t_copy", "t", ["id", "v"], region="r")
    target.run_for(6.0)
    return target


def traced_under_fake_clock(monkeypatch, target, sql):
    """Run ``sql`` as trace t000001 with a perf_counter that advances
    125 us per reading, so every span time is a function of call order."""
    ticks = itertools.count(1)
    monkeypatch.setattr(TraceContext, "_ids", itertools.count(1))
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks) * 0.000125)
    result = target.execute(sql)
    monkeypatch.undo()
    return target.traces.get(result.trace_id)


def test_single_cache_lookup_renders_as_before(monkeypatch):
    trace = traced_under_fake_clock(monkeypatch, settled(MTCache(make_backend())), GUARDED)
    assert TraceExporter.ascii_tree(trace) == CACHE_ASCII
    assert TraceExporter.chrome_json(trace) == CACHE_JSON


def test_fleet_remote_query_renders_as_before(monkeypatch):
    fleet = settled(CacheFleet(make_backend(), n_nodes=3))
    trace = traced_under_fake_clock(monkeypatch, fleet, REMOTE_ONLY)
    assert TraceExporter.ascii_tree(trace) == FLEET_ASCII
    assert TraceExporter.chrome_json(trace) == FLEET_JSON


CACHE_ASCII = """\
trace t000001: 7 spans, 1.375ms
├─ parse  0.125ms
├─ optimize  0.375ms
│  └─ enumerate_joins  0.125ms
└─ mtcache.execute  0.625ms  [node=cache]
   ├─ exec.setup  0.125ms
   ├─ exec.run  0.125ms
   └─ exec.shutdown  0.125ms"""

FLEET_ASCII = """\
trace t000001: 9 spans, 2.375ms
└─ fleet.route  2.375ms  [policy=round_robin, node=node0]
   ├─ parse  0.125ms
   ├─ optimize  0.375ms
   │  └─ enumerate_joins  0.125ms
   └─ mtcache.execute  1.375ms  [node=node0]
      ├─ exec.setup  0.875ms
      │  └─ net.call  0.625ms  [node=node0, outcome=ok]
      ├─ exec.run  0.125ms
      └─ exec.shutdown  0.125ms"""

CACHE_JSON = """\
{
  "displayTimeUnit": "ms",
  "traceEvents": [
    {
      "args": {
        "span_id": "s1"
      },
      "dur": 125.0,
      "name": "parse",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 0.0
    },
    {
      "args": {
        "span_id": "s2"
      },
      "dur": 375.0,
      "name": "optimize",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 250.0
    },
    {
      "args": {
        "parent_id": "s2",
        "span_id": "s3"
      },
      "dur": 125.0,
      "name": "enumerate_joins",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 375.0
    },
    {
      "args": {
        "node": "cache",
        "span_id": "s4"
      },
      "dur": 625.0,
      "name": "mtcache.execute",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 750.0
    },
    {
      "args": {
        "parent_id": "s4",
        "span_id": "s5"
      },
      "dur": 125.0,
      "name": "exec.setup",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 875.0
    },
    {
      "args": {
        "parent_id": "s4",
        "span_id": "s6"
      },
      "dur": 125.0,
      "name": "exec.run",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 1000.0
    },
    {
      "args": {
        "parent_id": "s4",
        "span_id": "s7"
      },
      "dur": 125.0,
      "name": "exec.shutdown",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 1125.0
    }
  ]
}"""

FLEET_JSON = """\
{
  "displayTimeUnit": "ms",
  "traceEvents": [
    {
      "args": {
        "node": "node0",
        "policy": "round_robin",
        "span_id": "s1"
      },
      "dur": 2375.0,
      "name": "fleet.route",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 0.0
    },
    {
      "args": {
        "parent_id": "s1",
        "span_id": "s2"
      },
      "dur": 125.0,
      "name": "parse",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 125.0
    },
    {
      "args": {
        "parent_id": "s1",
        "span_id": "s3"
      },
      "dur": 375.0,
      "name": "optimize",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 375.0
    },
    {
      "args": {
        "parent_id": "s3",
        "span_id": "s4"
      },
      "dur": 125.0,
      "name": "enumerate_joins",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 500.0
    },
    {
      "args": {
        "node": "node0",
        "parent_id": "s1",
        "span_id": "s5"
      },
      "dur": 1375.0,
      "name": "mtcache.execute",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 875.0
    },
    {
      "args": {
        "parent_id": "s5",
        "span_id": "s6"
      },
      "dur": 875.0,
      "name": "exec.setup",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 1000.0
    },
    {
      "args": {
        "node": "node0",
        "outcome": "ok",
        "parent_id": "s6",
        "span_id": "s7"
      },
      "dur": 625.0,
      "name": "net.call",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 1125.0
    },
    {
      "args": {
        "parent_id": "s5",
        "span_id": "s8"
      },
      "dur": 125.0,
      "name": "exec.run",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 1875.0
    },
    {
      "args": {
        "parent_id": "s5",
        "span_id": "s9"
      },
      "dur": 125.0,
      "name": "exec.shutdown",
      "ph": "X",
      "pid": 0,
      "tid": 0,
      "ts": 2000.0
    }
  ]
}"""
