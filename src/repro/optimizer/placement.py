"""Placement providers: where can each operand's data come from?

The optimizer itself is placement-agnostic.  A :class:`PlacementProvider`
supplies access-path candidates per operand; the back-end provider only
knows base tables, while the cache provider (in :mod:`repro.cache.mtcache`)
adds matching local materialized views — guarded by SwitchUnions when a
finite currency bound applies — and remote-query candidates.
"""

from collections import namedtuple

from repro.cc.properties import BACKEND_REGION, ConsistencyProperty
from repro.engine.expressions import ExpressionContext, OutputCol, RowBinding, compile_expr
from repro.engine import operators as ops
from repro.engine.ir import IRUnsupported, compile_ir, const_ir
from repro.sql import ast


def _const_key_fns(values):
    """Key evaluators for plan-time constants, carrying their IR so the
    plan can snapshot (falls back to bare closures for exotic values).
    A bindable literal compiles to a read of its parameter cell."""
    out = []
    for v in values:
        if isinstance(v, ast.Param):
            out.append(compile_expr(v, _NO_COLUMNS))
            continue
        try:
            out.append(compile_ir(const_ir(v)))
        except IRUnsupported:
            out.append(lambda _, v=v: v)
    return out


_NO_COLUMNS = RowBinding([])


def combine_conjuncts(conjuncts):
    """AND together a conjunct list (None for an empty list)."""
    result = None
    for conjunct in conjuncts:
        result = conjunct if result is None else ast.BinaryOp("and", result, conjunct)
    return result


def estimate_selectivity(stats, conjuncts, sargs):
    """Combined selectivity of an operand's local predicates.

    Sargs use column statistics; conjuncts that yielded no sargs get a
    default.  Independence is assumed throughout (System-R style).
    """
    selectivity = 1.0
    sarg_exprs = {id(s.expr) for s in sargs}
    by_column = {}
    for sarg in sargs:
        by_column.setdefault(sarg.column, []).append(sarg)
    for column, column_sargs in by_column.items():
        col_stats = stats.column(column)
        eq = [s for s in column_sargs if s.op == "="]
        if eq:
            selectivity *= col_stats.eq_selectivity()
            continue
        in_lists = [s for s in column_sargs if s.op == "in"]
        if in_lists:
            shortest = min(len(s.value) for s in in_lists)
            selectivity *= min(1.0, shortest * col_stats.eq_selectivity())
            continue
        low = high = None
        low_inc = high_inc = True
        for s in column_sargs:
            if s.op in (">", ">="):
                if low is None or s.value > low:
                    low = s.value
                    low_inc = s.op == ">="
            elif s.op in ("<", "<="):
                if high is None or s.value < high:
                    high = s.value
                    high_inc = s.op == "<="
        selectivity *= col_stats.range_selectivity(
            low=low, high=high, low_inclusive=low_inc, high_inclusive=high_inc
        )
    for conjunct in conjuncts:
        if id(conjunct) not in sarg_exprs and not _covered_by_sargs(conjunct, sargs):
            selectivity *= 0.25
    return max(selectivity, 1e-9)


def _covered_by_sargs(conjunct, sargs):
    return any(s.expr is conjunct for s in sargs)


def width_of(binding, stats_lookup):
    """Sum of average column widths for a binding.

    ``stats_lookup(qualifier, name)`` returns a ColumnStats or None.
    """
    total = 0.0
    for col in binding.columns:
        stats = stats_lookup(col.qualifier, col.name)
        total += stats.avg_width if stats is not None else 8.0
    return total


class PlacementProvider:
    """Interface the optimizer uses to discover data placements."""

    def __init__(self, cost_model, clock=None):
        self.cost_model = cost_model
        self.clock = clock
        self.expr_ctx = ExpressionContext(clock=clock)

    def access_candidates(self, operand, query_info):
        """Candidates for accessing one operand.  Must be non-empty unless
        the operand is genuinely inaccessible."""
        raise NotImplementedError

    def subset_remote_candidate(self, aliases, query_info):
        """A single remote query computing the join of a whole alias subset
        (None when there is no remote server, i.e. on the back-end)."""
        return None

    def whole_query_candidate(self, query_info):
        """A candidate shipping the entire statement (aggregation and all)
        to the remote server; None on the back-end."""
        return None

    def nl_inner_sources(self, operand, join_columns):
        """Sources usable as the inner of an index nested-loops join.

        Yields ``(table, index, binding, delivered, skip_conjuncts)`` for
        every local source of ``operand`` that has an index keyed (at least
        prefix-wise) on ``join_columns``.  Default: none.
        """
        return ()

    def semi_inner_source(self, semi):
        """The build side of a hash semi join for an IN-subquery.

        Returns ``(build_fn, key_expr_binding, cost, rows, delivered)`` or
        None when this placement cannot supply the inner relation (the
        caller then runs the conjunct as a compiled subquery).
        """
        return None

    # ------------------------------------------------------------------
    # Shared machinery: access paths over a heap table
    # ------------------------------------------------------------------
    def base_table_candidates(
        self,
        table,
        alias,
        conjuncts,
        sargs,
        stats,
        delivered,
        kind_prefix,
        binding=None,
        skip_conjuncts=(),
    ):
        """Seq-scan and index access candidates over ``table``.

        ``conjuncts``/``sargs`` are the operand's local predicates;
        ``skip_conjuncts`` are predicates already enforced by the source
        (e.g. a view's definition predicate) that need not be re-applied.
        ``delivered`` is the ConsistencyProperty of data from this source.
        """
        from repro.optimizer.candidates import Candidate

        cm = self.cost_model
        binding = binding or RowBinding(
            [OutputCol(c.name, alias) for c in table.schema.columns]
        )
        live_conjuncts = [c for c in conjuncts if c not in skip_conjuncts]
        selectivity = estimate_selectivity(stats, live_conjuncts, [s for s in sargs if s.expr not in skip_conjuncts])
        base_rows = stats.row_count
        out_rows = max(base_rows * selectivity, 0.0)
        width = width_of(binding, lambda q, n: stats.column(n))

        candidates = []

        # --- sequential scan -------------------------------------------
        predicate_expr = combine_conjuncts(live_conjuncts)
        def build_seq(predicate_expr=predicate_expr, binding=binding):
            predicate = (
                compile_expr(predicate_expr, binding, self.expr_ctx)
                if predicate_expr is not None
                else None
            )
            return ops.SeqScan(table, binding, predicate=predicate)

        # Local scans run as fused batch pipelines (scan+filter in one
        # loop), so their CPU term gets the fused discount.
        seq_cost = cm.fused_pipeline(
            cm.seq_row + (cm.filter_row if live_conjuncts else 0.0), base_rows
        )
        candidates.append(
            Candidate(
                build_seq,
                seq_cost,
                out_rows,
                width,
                binding,
                delivered,
                [alias],
                f"{kind_prefix}-seq",
                detail=table.name,
            )
        )

        # --- full ordered scan over the clustered index -----------------
        # Slightly costlier than the heap scan, but delivers the clustered
        # sort order, enabling merge joins above.
        clustered = table.clustered_index()
        if clustered is not None:
            sort_order = tuple((alias, c) for c in clustered.column_names)

            def build_ordered(clustered=clustered, predicate_expr=predicate_expr, binding=binding):
                predicate = (
                    compile_expr(predicate_expr, binding, self.expr_ctx)
                    if predicate_expr is not None
                    else None
                )
                return ops.IndexRangeScan(table, clustered, binding, predicate=predicate)

            ordered_cost = cm.index_descent + cm.fused_pipeline(
                cm.index_row + (cm.filter_row if live_conjuncts else 0.0), base_rows
            )
            candidates.append(
                Candidate(
                    build_ordered,
                    ordered_cost,
                    out_rows,
                    width,
                    binding,
                    delivered,
                    [alias],
                    f"{kind_prefix}-ordered",
                    detail=f"{table.name}.{clustered.name}",
                    sort_order=sort_order,
                )
            )

        # --- index paths ------------------------------------------------
        live_sargs = [s for s in sargs if s.expr not in skip_conjuncts]
        for index in table.indexes.values():
            match = _match_index(index, live_sargs)
            if match is None:
                continue
            matched = max(base_rows * _prefix_selectivity(stats, index, match), 0.0)
            residual = [c for c in live_conjuncts if c not in match.used_exprs]
            probes = 1 if match.in_values is None else len(match.in_values)
            cost = probes * cm.index_descent + cm.fused_pipeline(
                cm.index_row + (cm.filter_row if residual else 0.0), matched
            )

            def build_index(
                index=index,
                match=match,
                residual=tuple(residual),
                binding=binding,
            ):
                residual_expr = combine_conjuncts(list(residual))
                predicate = (
                    compile_expr(residual_expr, binding, self.expr_ctx)
                    if residual_expr is not None
                    else None
                )
                range_low, range_high = match.range_low, match.range_high
                if range_low is None and range_high is None:
                    key_fns = _const_key_fns(match.eq_values)
                    in_fns = None if match.in_values is None else _const_key_fns(match.in_values)
                    return ops.IndexSeek(
                        table, index, key_fns, binding, predicate=predicate, in_fns=in_fns
                    )
                # Range bounds are baked into the operator, so an equality
                # prefix must be known now: reading a Param's value raises
                # ParamRead and the template build pins that slot.
                prefix = tuple(
                    v.value if isinstance(v, ast.Param) else v for v in match.eq_values
                )
                low = prefix + ((range_low,) if range_low is not None else ())
                high = prefix + ((range_high,) if range_high is not None else ())
                return ops.IndexRangeScan(
                    table,
                    index,
                    binding,
                    low=low if low else None,
                    high=high if high else None,
                    low_inclusive=match.low_inc,
                    high_inclusive=match.high_inc,
                    predicate=predicate,
                )

            # An IN seek probes its keys in list order, not index order,
            # so it delivers no sort order.
            sort_order = (
                tuple((alias, c) for c in index.column_names)
                if match.in_values is None
                else ()
            )
            candidates.append(
                Candidate(
                    build_index,
                    cost,
                    out_rows,
                    width,
                    binding,
                    delivered,
                    [alias],
                    f"{kind_prefix}-index",
                    detail=f"{table.name}.{index.name}",
                    sort_order=sort_order,
                )
            )
        return candidates


#: How sargs use an index: an equality prefix, then optionally one IN-list
#: *or* a range on the next key column; ``used_exprs`` are the conjuncts
#: the access consumes (the rest stay residual).
IndexMatch = namedtuple(
    "IndexMatch",
    "eq_values in_values range_low range_high low_inc high_inc used_exprs",
)


def _match_index(index, sargs):
    """Match sargs against an index key prefix: an :class:`IndexMatch`, or
    None if the index is unusable."""
    by_column = {}
    for sarg in sargs:
        by_column.setdefault(sarg.column, []).append(sarg)

    eq_values = []
    used_exprs = set()
    position = 0
    for position, column in enumerate(index.column_names):
        column_sargs = by_column.get(column)
        if not column_sargs:
            break
        eq = next((s for s in column_sargs if s.op == "="), None)
        if eq is None:
            break
        eq_values.append(eq.value)
        used_exprs.add(eq.expr)
    else:
        position = len(index.column_names)

    # Optional IN-list (the shortest, if several) or range on the next key
    # column; key columns after it stay residual.
    in_values = range_low = range_high = None
    low_inc = high_inc = True
    if position < len(index.column_names):
        column_sargs = by_column.get(index.column_names[position], [])
        in_lists = [s for s in column_sargs if s.op == "in"]
        if in_lists:
            shortest = min(in_lists, key=lambda s: len(s.value))
            in_values = shortest.value
            used_exprs.add(shortest.expr)
        else:
            # The tighter bound wins; at a tie, the exclusive one.
            for s in column_sargs:
                if s.op in (">", ">="):
                    if range_low is None or (s.value, s.op == ">") > (range_low, not low_inc):
                        range_low = s.value
                        low_inc = s.op == ">="
                    used_exprs.add(s.expr)
                elif s.op in ("<", "<="):
                    if range_high is None or (s.value, s.op == "<=") < (range_high, high_inc):
                        range_high = s.value
                        high_inc = s.op == "<="
                    used_exprs.add(s.expr)

    if not eq_values and in_values is None and range_low is None and range_high is None:
        return None
    return IndexMatch(
        eq_values, in_values, range_low, range_high, low_inc, high_inc, used_exprs
    )


def _prefix_selectivity(stats, index, match):
    selectivity = 1.0
    for i, _ in enumerate(match.eq_values):
        selectivity *= stats.column(index.column_names[i]).eq_selectivity()
    if match.in_values is None and match.range_low is None and match.range_high is None:
        return selectivity
    column = stats.column(index.column_names[len(match.eq_values)])
    if match.in_values is not None:
        return selectivity * min(1.0, len(match.in_values) * column.eq_selectivity())
    return selectivity * column.range_selectivity(
        low=match.range_low,
        high=match.range_high,
        low_inclusive=match.low_inc,
        high_inclusive=match.high_inc,
    )


class BackendPlacement(PlacementProvider):
    """Placement on the back-end (master) server: base tables only.

    Everything is local and current, so the delivered property of every
    access is the reserved back-end region and all constraints are
    trivially satisfiable.
    """

    def __init__(self, catalog, cost_model, clock=None):
        super().__init__(cost_model, clock=clock)
        self.catalog = catalog

    def access_candidates(self, operand, query_info):
        delivered = ConsistencyProperty.single(BACKEND_REGION, [operand.alias])
        return self.base_table_candidates(
            operand.entry.table,
            operand.alias,
            operand.conjuncts,
            operand.sargs,
            operand.stats,
            delivered,
            "base",
        )

    def nl_inner_sources(self, operand, join_columns):
        table = operand.entry.table
        binding = RowBinding([OutputCol(c.name, operand.alias) for c in table.schema.columns])
        delivered = ConsistencyProperty.single(BACKEND_REGION, [operand.alias])
        for index in table.indexes.values():
            if index.column_names and index.column_names[0] in join_columns:
                yield table, index, binding, delivered, ()

    def semi_inner_source(self, semi):
        entry = self.catalog.table(semi.inner_table)
        table = entry.table
        binding = RowBinding(
            [OutputCol(c.name, semi.inner_alias) for c in table.schema.columns]
        )

        def build(table=table, binding=binding, where=semi.inner_where):
            predicate = (
                compile_expr(where, binding, self.expr_ctx)
                if where is not None
                else None
            )
            return ops.SeqScan(table, binding, predicate=predicate)

        rows = entry.stats.row_count * (0.25 if semi.inner_where is not None else 1.0)
        cost = self.cost_model.seq_scan(entry.stats.row_count) + (
            self.cost_model.filter(entry.stats.row_count)
            if semi.inner_where is not None
            else 0.0
        )
        delivered = ConsistencyProperty.single(BACKEND_REGION, [semi.inner_alias])
        return build, binding, cost, rows, delivered
