"""The back-end (master) database server.

A complete single-node DBMS: catalog, heap storage, transactions with a
replication log, the cost-based optimizer over base tables, and an
iterator executor.  It also exposes the two endpoints MTCache needs:

* ``execute_remote(sql)`` — run a shipped query and return its result as
  one dense :class:`~repro.engine.columnar.ColumnBatch`, and
* ``estimate(select)`` — cost/cardinality estimates that the cache's shadow
  statistics are built from.

Every SELECT goes through the cost-based optimizer, nested blocks
included: a derived table is planned as an operand of the join search,
and a subquery is compiled once per statement and re-run per outer row
with its correlated references bound.  A statement outside the supported
subset raises the optimizer's declared
:class:`~repro.common.errors.OptimizerError`.

A SELECT *text* (every remote branch the cache ships) is compiled through
the server's :class:`~repro.plan.compiler.PlanCompiler`, the same plan
cache the cache tier uses: a text hit or a template bind runs a compiled
plan without parse or optimize.  Parsed statements stay uncached — the
reference path.
"""

from repro.catalog.catalog import Catalog
from repro.common.backend import Backend
from repro.common.clock import SimulatedClock
from repro.common.errors import ExecutionError
from repro.common.scheduler import EventScheduler
from repro.engine.executor import ExecutionContext, Executor
from repro.engine.expressions import ExpressionContext, OutputCol, RowBinding, compile_expr
from repro.obs.metrics import NULL_REGISTRY
from repro.optimizer.cost import CostModel
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.placement import BackendPlacement
from repro.plan.compiler import PlanCompiler, is_select_text
from repro.replication.heartbeat import HEARTBEAT_TABLE, HeartbeatService, heartbeat_schema
from repro.sql import ast
from repro.sql.parser import parse
from repro.txn.manager import TransactionManager


def explain_lines(plan, *notes):
    """EXPLAIN's lines for an optimized plan: its summary and estimates,
    then ``notes``, then the operator tree."""
    return [f"summary: {plan.summary()}", f"estimated cost: {plan.cost:.1f}",
            f"estimated rows: {plan.est_rows:.0f}", *notes] + plan.explain().splitlines()


class BackendServer(Backend):
    """The master DBMS holding the up-to-date database state.

    Implements the :class:`~repro.common.backend.Backend` protocol with
    the single-node topology defaults (one partition, one replication
    source).
    """

    def __init__(self, clock=None, scheduler=None, cost_model=None, metrics=None):
        self.clock = clock or SimulatedClock()
        self.scheduler = scheduler or EventScheduler(self.clock)
        self.catalog = Catalog()
        self.txn_manager = TransactionManager(self.clock)
        self.cost_model = cost_model or CostModel()
        #: Monotonic schema/statistics version.  Every DDL or stats
        #: refresh bumps it; plan caches and snapshot stores compare it
        #: against the epoch they compiled under and re-optimize on
        #: mismatch (explicit invalidation — never silently stale).
        self._ddl_epoch = 0
        #: Back-end metrics registry; no-op unless a caller supplies a
        #: real one (the cache keeps its own registry for the mid-tier).
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.placement = BackendPlacement(self.catalog, self.cost_model, clock=self.clock)
        self.optimizer = Optimizer(self.placement, registry=self.metrics)
        # DML expressions compile their subqueries on demand.
        self.placement.expr_ctx = ExpressionContext(
            self.clock, lambda select: self.optimizer.plan_subquery(select, self.catalog)
        )
        #: Compiled plans of SELECT texts, emptied by every epoch bump.
        #: Events go to the registry given here, like the optimizer's and
        #: the executor's, not to one a fleet attaches later.
        registry = self.metrics

        def report(event, n=1):
            registry.counter("plan_cache_events_total", labels={"event": event},
                             help="compiled-plan cache activity").inc(n)

        self.plans = PlanCompiler(
            lambda select: self.optimizer.optimize(select, self.catalog), report,
        )
        self.executor = Executor(clock=self.clock, registry=self.metrics)
        self.heartbeats = HeartbeatService(
            self.txn_manager, self.clock, self.scheduler, registry=self.metrics
        )
        self._ensure_heartbeat_table()

    def _ensure_heartbeat_table(self):
        if not self.catalog.has_table(HEARTBEAT_TABLE):
            entry = self.catalog.create_table(HEARTBEAT_TABLE, heartbeat_schema(), primary_key=["cid"])
            self.txn_manager.register_table(entry.table)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    @property
    def ddl_epoch(self):
        """Current schema/statistics version (bumped by every DDL)."""
        return self._ddl_epoch

    def bump_ddl_epoch(self):
        """Move to a new schema/statistics version.  Every DDL and
        statistics refresh comes through here, so no plan this server
        compiled under the old version is served again."""
        self._ddl_epoch += 1
        self.plans.clear()
        return self._ddl_epoch

    def create_table(self, sql_or_stmt):
        """CREATE TABLE from SQL text or a parsed statement."""
        stmt = parse(sql_or_stmt) if isinstance(sql_or_stmt, str) else sql_or_stmt
        entry = self.catalog.create_table_from_ast(stmt)
        self.txn_manager.register_table(entry.table)
        self.bump_ddl_epoch()
        return entry

    def create_index(self, sql_or_stmt):
        stmt = parse(sql_or_stmt) if isinstance(sql_or_stmt, str) else sql_or_stmt
        table = self.catalog.table(stmt.table).table
        index = table.create_index(stmt.name, stmt.columns, unique=stmt.unique, clustered=stmt.clustered)
        self.bump_ddl_epoch()
        return index

    def refresh_statistics(self, table_name=None):
        """Recompute statistics (all tables, or one)."""
        entries = [self.catalog.table(table_name)] if table_name else self.catalog.tables()
        for entry in entries:
            entry.refresh_stats()
        self.bump_ddl_epoch()

    def schedule_statistics_refresh(self, interval, caches=()):
        """Periodically recompute statistics (auto-stats maintenance).

        Any attached caches passed in ``caches`` get their shadow and view
        statistics refreshed in the same tick (which also invalidates
        their compiled-plan caches — statistics changes can change plans).
        Returns the scheduler event (cancel() to stop).
        """

        def tick():
            self.refresh_statistics()
            for cache in caches:
                cache.refresh_shadow_stats()

        return self.scheduler.every(interval, tick, name="auto-stats")

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def execute(self, sql_or_stmt, ctx=None):
        """Execute any supported statement.

        SELECT returns a QueryResult; DML returns the number of affected
        rows; DDL returns the created object.  A SELECT text runs through
        the plan cache (:meth:`execute_text`).
        """
        if isinstance(sql_or_stmt, str) and is_select_text(sql_or_stmt):
            return self.execute_text(sql_or_stmt, ctx=ctx)
        stmt = parse(sql_or_stmt) if isinstance(sql_or_stmt, str) else sql_or_stmt
        if isinstance(stmt, ast.Explain):
            return self.explain(stmt.text if stmt.text is not None else stmt.select)
        if isinstance(stmt, ast.Select):
            return self.execute_select(stmt, ctx=ctx)
        if isinstance(stmt, ast.Insert):
            return self._execute_insert(stmt)
        if isinstance(stmt, ast.Update):
            return self._execute_update(stmt)
        if isinstance(stmt, ast.Delete):
            return self._execute_delete(stmt)
        if isinstance(stmt, ast.CreateTable):
            return self.create_table(stmt)
        if isinstance(stmt, ast.CreateIndex):
            return self.create_index(stmt)
        raise ExecutionError(f"unsupported statement: {type(stmt).__name__}")

    def execute_remote(self, sql, shards=None):
        """Endpoint for the cache's RemoteQuery operator: the result as one
        dense ColumnBatch, concatenated from the executor's batches with
        no row built; a result that starts as rows (a tiny plan) is
        wrapped, so the cache unwraps it for free.

        ``shards`` (a shard pin from the cache optimizer) is accepted for
        protocol compatibility and ignored — one server is one shard.
        """
        return self.execute(sql).as_batch()

    def estimate(self, select):
        """(cost, rows, width) estimate for a Select AST or SQL string."""
        if isinstance(select, str):
            select = parse(select)
        plan = self.optimizer.optimize(select, self.catalog)
        return plan.cost, plan.est_rows, plan.est_width

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def execute_text(self, sql, select=None, ctx=None):
        """Run a SELECT text through the plan cache.

        A text hit or a template bind executes a compiled plan: no parse,
        no optimize.  A miss parses ``sql`` — unless the caller hands its
        parse in as ``select`` — and compiles it.  The sharded
        coordinator enters its partitions here.
        """
        ctx = ctx or ExecutionContext(clock=self.clock)
        plan = self.plans.lookup(sql)
        if plan is None:
            plan = self.plans.compile(sql, parse(sql) if select is None else select)
        return self.executor.execute(plan.root(), ctx=ctx, column_names=plan.column_names)

    def execute_select(self, select, ctx=None):
        """Optimize and run one parsed Select, caching nothing: the
        reference path every compiled plan must agree with."""
        ctx = ctx or ExecutionContext(clock=self.clock)
        plan = self.optimizer.optimize(select, self.catalog)
        return self.executor.execute(plan.root(), ctx=ctx, column_names=plan.column_names)

    def optimize(self, select):
        """Expose the optimizer (plan inspection in tests/benches)."""
        if isinstance(select, str):
            select = parse(select)
        return self.optimizer.optimize(select, self.catalog)

    def explain(self, select):
        """EXPLAIN: a one-column result of plan-description lines.

        For a SELECT text, the plan executing that text would run
        (compiled on a miss, as execution would) and the ``template:``
        line of the cache's EXPLAIN: the text's shape and which literal
        slots are bound per statement.  A parsed Select is optimized
        afresh and has no template.
        """
        from repro.engine.executor import PhaseTimings, QueryResult

        text = None
        if isinstance(select, str):
            text, select = select, parse(select)
        if text is None:
            plan = self.optimizer.optimize(select, self.catalog)
        else:
            plan = self.plans.lookup(text) or self.plans.compile(text, select)
        lines = explain_lines(plan, self.plans.describe(text))
        ctx = ExecutionContext(clock=self.clock)
        return QueryResult(["plan"], [(line,) for line in lines], PhaseTimings(), ctx)

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _execute_insert(self, stmt):
        entry = self.catalog.table(stmt.table)
        schema = entry.schema
        columns = stmt.columns or schema.names()
        positions = {c: schema.index_of(c) for c in columns}
        expr_ctx = self.placement.expr_ctx
        empty = RowBinding([])

        rows = []
        for value_row in stmt.rows:
            if len(value_row) != len(columns):
                raise ExecutionError(
                    f"INSERT arity mismatch: {len(value_row)} values, {len(columns)} columns"
                )
            values = [None] * len(schema)
            for column, expr in zip(columns, value_row):
                values[positions[column]] = compile_expr(expr, empty, expr_ctx)(())
            rows.append(tuple(values))

        def _apply(txn):
            for row in rows:
                txn.insert(stmt.table, row)

        self.txn_manager.run(_apply)
        return len(rows)

    def _target_rows(self, table_name, where):
        """(pk, values) of rows matching a DML WHERE clause."""
        entry = self.catalog.table(table_name)
        table = entry.table
        binding = RowBinding(
            [OutputCol(c.name, table_name) for c in entry.schema.columns]
        )
        predicate = (
            compile_expr(where, binding, self.placement.expr_ctx)
            if where is not None
            else None
        )
        ci = table.clustered_index()
        if ci is None:
            raise ExecutionError(f"table {table_name} needs a primary key for DML")
        out = []
        for _, values in table.scan():
            if predicate is None or predicate(values) is True:
                out.append((ci.key_of(values), values))
        return entry, out

    def _execute_update(self, stmt):
        entry, targets = self._target_rows(stmt.table, stmt.where)
        schema = entry.schema
        binding = RowBinding([OutputCol(c.name, stmt.table) for c in schema.columns])
        expr_ctx = self.placement.expr_ctx
        compiled = [
            (schema.index_of(column), compile_expr(expr, binding, expr_ctx))
            for column, expr in stmt.assignments
        ]

        def _apply(txn):
            for pk, values in targets:
                new_values = list(values)
                for position, fn in compiled:
                    new_values[position] = fn(values)
                txn.update(stmt.table, pk, new_values)

        self.txn_manager.run(_apply)
        return len(targets)

    def _execute_delete(self, stmt):
        _, targets = self._target_rows(stmt.table, stmt.where)

        def _apply(txn):
            for pk, _ in targets:
                txn.delete(stmt.table, pk)

        self.txn_manager.run(_apply)
        return len(targets)

    # ------------------------------------------------------------------
    # Simulation helpers
    # ------------------------------------------------------------------
    def run_for(self, seconds):
        """Advance simulated time, firing heartbeats and other events."""
        return self.scheduler.run_for(seconds)

    def __repr__(self):
        return f"<BackendServer tables={sorted(t.name for t in self.catalog.tables())}>"
