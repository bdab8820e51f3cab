"""End-to-end verification of delivered C&C guarantees.

After MTCache executes a query, the checker independently verifies the
paper's central promise: *the result is equivalent to evaluating the query
against snapshots of the base tables that satisfy the normalized C&C
constraint*.  It

1. determines, from the executed plan tree, which source (local view at
   which snapshot, or the back-end) supplied each input operand;
2. checks every currency bound against the source's actual snapshot age;
3. checks every consistency class: all its operands must come from the same
   snapshot; and
4. (deep mode) reconstructs those snapshots from the replication log,
   re-evaluates the query on them, and compares row multisets.

Property-based tests drive random workloads through MTCache and assert an
empty violation list — the strongest statement this reproduction makes.
"""

from collections import Counter

from repro.cache.backend import BackendServer
from repro.cc.constraint import constraint_from_select
from repro.engine import operators as ops
from repro.semantics.model import HistoryView
from repro.sql import ast


class Violation:
    """One detected breach of the query's C&C constraint."""

    def __init__(self, kind, message):
        self.kind = kind  # "currency" | "consistency" | "equivalence"
        self.message = message

    def __repr__(self):
        return f"Violation({self.kind}: {self.message})"


class SourceInfo:
    """Where one operand's data came from."""

    def __init__(self, alias, kind, sync_txn, snapshot_time):
        self.alias = alias
        self.kind = kind  # "view" | "remote"
        self.sync_txn = sync_txn
        self.snapshot_time = snapshot_time

    def __repr__(self):
        return f"SourceInfo({self.alias} <- {self.kind}@txn{self.sync_txn})"


class CheckReport:
    def __init__(self, sources, violations):
        self.sources = sources
        self.violations = violations

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"CheckReport({status}, sources={self.sources})"


class ResultChecker:
    """Validates MTCache results against the formal semantics."""

    def __init__(self, mtcache, deep=True):
        self.mtcache = mtcache
        self.backend = mtcache.backend
        self.deep = deep

    # ------------------------------------------------------------------
    def check(self, select, result, at_time=None):
        """Check one executed query; returns a CheckReport."""
        if isinstance(select, str):
            from repro.sql.parser import parse

            select = parse(select)
        at_time = at_time if at_time is not None else self.mtcache.clock.now()
        constraint, operands = constraint_from_select(select)
        sources = self._trace_sources(result)
        violations = []

        history = HistoryView(self.backend.txn_manager.log)
        latest_txn = self.backend.txn_manager.last_txn_id

        # Operands served remotely that the plan shipped wholesale may not
        # appear in the trace; they are current by construction.
        for alias in operands:
            if alias not in sources:
                sources[alias] = SourceInfo(alias, "remote", latest_txn, at_time)

        # ---- currency ------------------------------------------------
        for cc_tuple in constraint:
            for alias in cc_tuple.operands:
                source = sources.get(alias)
                if source is None:
                    continue
                staleness = 0.0 if source.kind == "remote" else max(
                    0.0, at_time - source.snapshot_time
                )
                if staleness > cc_tuple.bound + 1e-9:
                    violations.append(
                        Violation(
                            "currency",
                            f"{alias}: staleness {staleness:.3f}s exceeds bound "
                            f"{cc_tuple.bound:g}s",
                        )
                    )

        # ---- consistency ----------------------------------------------
        for cc_tuple in constraint:
            syncs = {
                sources[alias].sync_txn
                for alias in cc_tuple.operands
                if alias in sources
            }
            if len(syncs) > 1:
                violations.append(
                    Violation(
                        "consistency",
                        f"class {sorted(cc_tuple.operands)} spans snapshots {sorted(syncs)}",
                    )
                )

        # ---- equivalence ----------------------------------------------
        if self.deep and not violations:
            mismatch = self._check_equivalence(select, result, sources, history)
            if mismatch is not None:
                violations.append(Violation("equivalence", mismatch))

        return CheckReport(sources, violations)

    # ------------------------------------------------------------------
    # Source tracing
    # ------------------------------------------------------------------
    def _trace_sources(self, result):
        sources = {}
        root = result.plan.root() if result.plan is not None else None
        if root is None:
            return sources
        latest_txn = self.backend.txn_manager.last_txn_id
        now = self.mtcache.clock.now()
        self._walk_active(root, sources, latest_txn, now)
        return sources

    def _walk_active(self, op, sources, latest_txn, now):
        if isinstance(op, ops.SwitchUnion):
            # Only the chosen branch produced data.  ``chosen`` is reset on
            # close, so consult the recorded decision if needed.
            index = op.chosen if op.chosen is not None else self._last_choice(op)
            if index is not None:
                self._walk_active(op.inputs[index], sources, latest_txn, now)
            return
        if isinstance(op, ops.RemoteQuery):
            for col in op.output.columns:
                if col.qualifier:
                    sources[col.qualifier] = SourceInfo(col.qualifier, "remote", latest_txn, now)
            return
        if isinstance(op, (ops.SeqScan, ops.IndexSeek, ops.IndexRangeScan)):
            alias = op.output.columns[0].qualifier if op.output.columns else None
            view = self._view_for_table(op.table)
            if view is not None and alias is not None:
                sources[alias] = SourceInfo(
                    alias, "view", view.applied_txn, view.snapshot_time
                )
            elif alias is not None:
                sources[alias] = SourceInfo(alias, "remote", latest_txn, now)
            return
        for child in op.children():
            self._walk_active(child, sources, latest_txn, now)

    def _last_choice(self, op):
        return op.last_chosen

    def _view_for_table(self, table):
        for view in self.mtcache.catalog.matviews():
            if view.table is table:
                return view
        return None

    # ------------------------------------------------------------------
    # Deep equivalence
    # ------------------------------------------------------------------
    def _check_equivalence(self, select, result, sources, history):
        """Re-evaluate the query on reconstructed snapshots; compare rows.

        Only single-block queries over base tables are re-evaluated (the
        same subset the cost-based optimizer handles); anything else is
        skipped (returns None).
        """
        from_tables = []
        for item in select.from_items:
            if not isinstance(item, ast.FromTable):
                return None
            from_tables.append(item)
        scratch = BackendServer()
        for item in from_tables:
            source = sources.get(item.alias)
            if source is None:
                return None
            base_entry = self.backend.catalog.table(item.name)
            # Register the reconstruction under the *alias* so two aliases
            # of one table may carry different snapshots.
            entry = scratch.catalog.create_table(
                item.alias, base_entry.schema, primary_key=base_entry.table.primary_key
            )
            state = history.snapshot(item.name, up_to_txn=source.sync_txn)
            for row in state.values():
                entry.table.insert(row)
            scratch.refresh_statistics(item.alias)

        rewritten = ast.Select(
            select.items,
            [ast.FromTable(item.alias, item.alias) for item in from_tables],
            where=select.where,
            group_by=select.group_by,
            having=select.having,
            order_by=select.order_by,
            distinct=select.distinct,
            currency=None,
            limit=select.limit,
        )
        try:
            expected = scratch.execute(rewritten)
        except Exception as exc:  # pragma: no cover - unsupported rewrites
            return f"re-evaluation failed: {exc}"
        if select.limit is not None or select.order_by:
            # Row sets may legitimately differ under LIMIT without full
            # ordering; compare only cardinality.
            if len(expected.rows) != len(result.rows):
                return (
                    f"cardinality mismatch: expected {len(expected.rows)}, "
                    f"got {len(result.rows)}"
                )
            return None
        if Counter(expected.rows) != Counter(result.rows):
            missing = Counter(expected.rows) - Counter(result.rows)
            extra = Counter(result.rows) - Counter(expected.rows)
            return (
                f"result differs from snapshot evaluation "
                f"(missing={sum(missing.values())}, extra={sum(extra.values())})"
            )
        return None
