"""Plan execution with per-phase timing.

The paper's Table 4.5 breaks query execution into three phases — *setup
plan*, *run plan*, *shutdown plan* — and attributes currency-guard overhead
to each.  :class:`Executor` reproduces that structure: ``open`` the operator
tree (setup), drain the row stream (run), ``close`` it (shutdown), timing
each phase with a high-resolution counter.
"""

import time
from functools import cached_property

from repro.engine.columnar import ColumnBatch
from repro.engine.operators import SeqScan
from repro.obs.metrics import NULL_REGISTRY, NullRegistry
from repro.obs.trace import NULL_TRACE

#: Below this many rows, estimated out and scanned in, a plan runs as one
#: materialized row list instead of streaming column batches:
#: columnarizing a handful of rows costs more than it saves (guarded point
#: lookups are the case that matters).
COLUMNAR_MIN_EST_ROWS = 33


def _scanned_tables(plan):
    """The tables ``plan``'s full scans read, found once per operator tree
    (a plan-cached tree runs many times) and kept on its root; their live
    row counts are read per execution, since a view fills and empties at
    run time."""
    plan.scanned_tables = tuple(
        op.table for op in plan.walk() if isinstance(op, SeqScan))
    return plan.scanned_tables


class PhaseTimings:
    """Elapsed seconds per execution phase."""

    __slots__ = ("setup", "run", "shutdown")

    def __init__(self, setup=0.0, run=0.0, shutdown=0.0):
        self.setup = setup
        self.run = run
        self.shutdown = shutdown

    @property
    def total(self):
        return self.setup + self.run + self.shutdown

    def __repr__(self):
        return (
            f"PhaseTimings(setup={self.setup * 1e3:.3f}ms, run={self.run * 1e3:.3f}ms, "
            f"shutdown={self.shutdown * 1e3:.3f}ms)"
        )


class ExecutionContext:
    """Per-execution services and bookkeeping.

    Records SwitchUnion branch decisions and remote queries issued, so
    callers (and tests) can see exactly how a dynamic plan behaved.
    """

    __slots__ = ("clock", "timeline", "trace", "session", "engine", "branches",
                 "remote_queries", "snapshots_used", "warnings",
                 "fused_pipelines", "session_decisions", "capture_reads",
                 "reads")

    def __init__(self, clock=None, timeline=None, trace=None, session=None):
        self.clock = clock
        self.timeline = timeline
        #: The query's TraceContext (None / NULL_TRACE when untraced).
        self.trace = trace
        #: The caller's read-your-writes Session (None: no session
        #: guarantees requested); strict-table guards consult its floors.
        self.session = session
        #: Protocol of this run: "row" (a tiny plan's ``all_rows()``) or
        #: "columnar" (``col_batches()``); operators consult it at open()
        #: (join build-side strategy, how row-only operators read input).
        self.engine = "row"
        self.branches = []  # (label, chosen index)
        self.remote_queries = []  # (sql, row count)
        #: Snapshot times of the local views actually read, for timeline
        #: watermark accounting.
        self.snapshots_used = []
        #: Constraint-violation warnings (serve-stale fallback policy).
        self.warnings = []
        #: Labels of fused scan pipelines that ran.
        self.fused_pipelines = []
        #: Session-floor guard decisions: (view, "local"/"remote",
        #: lagging source or None) — EXPLAIN ANALYZE renders these.
        self.session_decisions = []
        #: History capture: when True (a recording cache set it), guards
        #: call :meth:`record_read` with full per-read provenance on
        #: every local serve.  One boolean check on the non-recording
        #: hot path.
        self.capture_reads = False
        #: Structured local-read records (view, table, region, shard,
        #: snapshot, strictness, per-source applied txns at guard time).
        self.reads = []

    def record_branch(self, label, index):
        self.branches.append((label, index))

    def record_session_decision(self, view, outcome, source=None):
        self.session_decisions.append((view, outcome, source))

    def record_fused(self, label):
        self.fused_pipelines.append(label)

    def record_remote_query(self, sql, n_rows):
        self.remote_queries.append((sql, n_rows))

    def record_snapshot(self, snapshot_time):
        self.snapshots_used.append(snapshot_time)

    def record_read(self, view, table, region, shard, snapshot, strict,
                    sources):
        self.reads.append({
            "view": view, "table": table, "region": region, "shard": shard,
            "snapshot": snapshot, "strict": strict, "sources": sources,
        })

    def record_warning(self, message):
        self.warnings.append(message)

    @property
    def used_local(self):
        """True if any SwitchUnion chose its local branch (index 0)."""
        return any(index == 0 for _, index in self.branches)

    @property
    def all_local(self):
        """True if every SwitchUnion chose its local branch."""
        return bool(self.branches) and all(index == 0 for _, index in self.branches)


class QueryResult:
    """The stable result contract of :meth:`repro.cache.mtcache.MTCache.execute`.

    Guaranteed fields:

    * ``rows`` — list of value tuples;
    * ``columns`` — output column names, in row order;
    * ``plan`` — the :class:`~repro.optimizer.optimizer.OptimizedPlan`
      that produced the rows (None for non-optimized paths);
    * ``timings`` — :class:`PhaseTimings` (setup / run / shutdown);
    * ``routing`` — ``"local"`` | ``"remote"`` | ``"mixed"``: where the
      data actually came from at run time;
    * ``warnings`` — constraint-violation messages (serve-stale policy);
    * ``trace_id`` — id of the query's trace tree (None when untraced);
      look the trace up in ``cache.traces`` / ``fleet.traces``.

    ``context`` additionally exposes the raw run-time provenance
    (SwitchUnion branch decisions, remote queries issued).
    """

    def __init__(self, columns, rows, timings, context, plan=None):
        self.columns = list(columns)
        # Rows are materialized fresh by every execution path, so a list
        # input is adopted as-is (the copy only matters for iterators).
        self.rows = rows if type(rows) is list else list(rows)
        self.timings = timings
        self.context = context
        self.plan = plan

    def as_batch(self):
        """The result as one ColumnBatch: the rows wrapped, so that its
        ``to_rows()`` is free."""
        return ColumnBatch.from_rows(self.rows, len(self.columns))

    @property
    def trace_id(self):
        """Id of the trace this result's context ran under (None: untraced)."""
        trace = self.context.trace if self.context is not None else None
        return trace.trace_id if trace is not None else None

    @property
    def warnings(self):
        """Constraint-violation warnings recorded during execution."""
        return self.context.warnings if self.context is not None else []

    @property
    def routing(self):
        """Where the rows came from: "local", "remote" or "mixed".

        "local" — no back-end query was issued; "remote" — everything
        came from the back-end; "mixed" — a join combined a local branch
        with remote data.
        """
        ctx = self.context
        if ctx is None or not ctx.remote_queries:
            return "local"
        if any(index == 0 for _, index in ctx.branches):
            return "mixed"
        return "remote"

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def as_dicts(self):
        """Rows as a list of column-name -> value dicts."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self):
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ValueError(f"result is not scalar: {len(self.rows)} rows")
        return self.rows[0][0]

    def column(self, name):
        """All values of one column."""
        i = self.columns.index(name.lower())
        return [row[i] for row in self.rows]

    def __repr__(self):
        return f"QueryResult(columns={self.columns}, rows={len(self.rows)})"


class BatchResult(QueryResult):
    """A result kept as one dense ColumnBatch (every columnar run, and a
    sharded scatter): ``batch`` is it, and ``rows`` are zipped from it on
    first read, so a caller that ships the batch on never builds a row."""

    def __init__(self, columns, batch, timings, context, plan=None):
        self.columns = list(columns)
        self.batch = batch
        self.timings = timings
        self.context = context
        self.plan = plan

    @cached_property
    def rows(self):
        return self.batch.to_rows()

    def as_batch(self):
        return self.batch


class Executor:
    """Runs a physical operator tree through its three phases.

    The run phase drains the plan's ``col_batches()`` stream into one
    dense batch (a :class:`BatchResult`; rows are zipped on first read),
    except for tiny plans, which materialize through ``all_rows()`` with
    ``ctx.engine = "row"``.  The Table 4.5
    setup/run/shutdown split is the same whichever protocol runs:
    ``open`` is setup, draining is run, ``close`` is shutdown.

    Each execution feeds the attached metrics registry: one histogram
    per phase (the paper's Table 4.5 breakdown), rows/batches/fused-
    pipeline counters, and per-branch SwitchUnion counters.  The metric
    handles are resolved once in :meth:`set_registry`, so the per-query
    cost is a handful of attribute calls — no-ops under the default
    :class:`~repro.obs.metrics.NullRegistry`.
    """

    def __init__(self, clock=None, timer=None, registry=None):
        self.clock = clock
        self.timer = timer
        self.set_registry(registry if registry is not None else NULL_REGISTRY)

    def set_registry(self, registry):
        """Attach a metrics registry and pre-resolve the hot-path series."""
        self.registry = registry
        #: Null registries skip the per-query metric feeding wholesale —
        #: cheaper than a dozen no-op calls on the hottest path.
        self._metrics_null = isinstance(registry, NullRegistry)
        self._h_setup = registry.histogram(
            "exec_phase_seconds", labels={"phase": "setup"},
            help="per-phase execution time (Table 4.5 breakdown)")
        self._h_run = registry.histogram("exec_phase_seconds", labels={"phase": "run"})
        self._h_shutdown = registry.histogram(
            "exec_phase_seconds", labels={"phase": "shutdown"})
        self._c_queries = registry.counter(
            "queries_executed_total", help="plans run by this executor")
        self._c_rows = registry.counter(
            "rows_produced_total", help="rows returned to clients")
        self._c_branch_local = registry.counter(
            "switchunion_branch_total", labels={"branch": "local"},
            help="SwitchUnion branch decisions")
        self._c_branch_remote = registry.counter(
            "switchunion_branch_total", labels={"branch": "remote"})
        self._c_batches = registry.counter(
            "engine_batches_total", help="batches drained by streamed runs")
        self._c_fused = registry.counter(
            "engine_fused_pipelines_total",
            help="fused scan pipelines (scan+filter/project in one loop)")

    def execute(self, plan, ctx=None, column_names=None):
        """Execute ``plan`` and return a :class:`QueryResult`."""
        ctx = ctx or ExecutionContext(clock=self.clock)
        # Read at call time, so a patched time.perf_counter drives it.
        timer = self.timer or time.perf_counter
        trace = ctx.trace
        branches_before = len(ctx.branches)
        fused_before = len(ctx.fused_pipelines)
        tiny = False
        est = plan.est_rows
        if est is not None and est < COLUMNAR_MIN_EST_ROWS:
            # Tiny plans (guarded point lookups — the cache's hottest
            # request) skip vectorization *and* the generator chain:
            # one materialized list end to end, row-mode join builds.
            # "Tiny" counts rows read, not returned: a full scan
            # counts as its table's live rows.
            scanned = plan.scanned_tables
            if scanned is None:
                scanned = _scanned_tables(plan)
            tiny = not scanned or sum(map(len, scanned)) < COLUMNAR_MIN_EST_ROWS
        ctx.engine = "row" if tiny else "columnar"
        n_batches = 0

        # The trace keeps the phase stamps as its exec.* spans.
        stamps = NULL_TRACE.stamps if trace is None else trace.stamps
        t0 = timer()
        stamps.append(t0)
        plan.open(ctx)
        t1 = timer()
        stamps.append(t1)
        batch = None
        if tiny:
            rows = plan.all_rows()
        else:
            batches = list(plan.col_batches())
            n_batches = len(batches)
            batch = ColumnBatch.concat(batches, len(plan.output))
        t2 = timer()
        stamps.append(t2)
        plan.close()
        t3 = timer()
        stamps.append(t3)

        timings = PhaseTimings(setup=t1 - t0, run=t2 - t1, shutdown=t3 - t2)
        if not self._metrics_null:
            self._h_setup.observe(timings.setup)
            self._h_run.observe(timings.run)
            self._h_shutdown.observe(timings.shutdown)
            self._c_queries.inc()
            self._c_rows.inc(len(rows) if batch is None else batch.length)
            if n_batches:
                self._c_batches.inc(n_batches)
            n_fused = len(ctx.fused_pipelines) - fused_before
            if n_fused:
                self._c_fused.inc(n_fused)
            for _, index in ctx.branches[branches_before:]:
                (self._c_branch_local if index == 0 else self._c_branch_remote).inc()
        if column_names is None:
            column_names = [c.name for c in plan.output.columns]
        if batch is not None:
            return BatchResult(column_names, batch, timings, ctx, plan=plan)
        return QueryResult(column_names, rows, timings, ctx, plan=plan)
