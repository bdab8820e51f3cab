"""The cost-based optimizer (paper §3.2.2).

Search strategy: dynamic programming over operand subsets (the classic
System-R enumeration, adequate for the join sizes a mid-tier cache sees),
keeping — per subset — the cheapest candidate *per delivered consistency
property*.  Keeping one candidate per property is essential: a cheap local
plan and a more expensive remote plan for the same subset are incomparable
until we know which joins sit above them, because the consistency rules may
later disqualify the local one.

Pruning uses the consistency *violation* rule on partial plans and the
*satisfaction* rule on complete plans, exactly as in the paper; candidates
whose guarded view can never meet the currency bound (bound < region delay)
are never generated in the first place.

Every SELECT block goes through this one search.  A FROM-subquery is a
derived operand whose one access candidate is its own plan; a subquery in
an expression is compiled once per statement (:meth:`Optimizer.plan_subquery`)
into a :class:`Subplan` that runs per outer row with its correlated
references bound, and the filter that evaluates it delivers the merge of
the outer and inner blocks' consistency properties.
"""

import itertools
from itertools import islice

from repro.catalog.statistics import TableStats
from repro.common.errors import OptimizerError
from repro.cc.properties import satisfies, violates
from repro.obs.metrics import NULL_REGISTRY
from repro.engine import operators as ops
from repro.engine.executor import ExecutionContext
from repro.engine.expressions import ExpressionContext, OutputCol, RowBinding, compile_expr
from repro.engine.ir import compile_ir
from repro.optimizer.candidates import Candidate, stamp_estimates
from repro.optimizer.placement import combine_conjuncts, estimate_selectivity
from repro.optimizer.query_info import analyze_select, correlate
from repro.sql import ast


class OptimizedPlan:
    """The output of optimization: a buildable plan plus metadata."""

    def __init__(self, candidate, column_names, query_info):
        self.candidate = candidate
        self.column_names = column_names
        self.query_info = query_info
        self._summary = None

    @property
    def cost(self):
        return self.candidate.cost

    @property
    def est_rows(self):
        return self.candidate.rows

    @property
    def est_width(self):
        return self.candidate.width

    @property
    def kind(self):
        return self.candidate.kind

    def root(self):
        """Build (once) and return the physical operator tree.

        Every execution of this plan runs the same tree: operators fully
        reset their state in ``open``/``close``, so sequential reuse is
        safe, in either engine.  A freshly optimized plan has a fresh
        tree (EXPLAIN ANALYZE instruments one that way).
        """
        return self.candidate.operator()

    def explain(self):
        return self.root().explain()

    def summary(self):
        """A compact signature of the plan shape, for tests and benches.

        Examples: ``remote(q)``, ``hashjoin(remote(c), guarded(orders_prj))``.
        The shape is fixed once the plan is built, so it is computed once.
        """
        if self._summary is None:
            self._summary = _summarize(self.root())
        return self._summary

    def __repr__(self):
        return f"OptimizedPlan({self.kind}, cost={self.cost:.1f})"


def _summarize(op):
    if isinstance(op, ops.RemoteQuery):
        return "remote"
    if isinstance(op, ops.SwitchUnion):
        return f"guarded({op.label})"
    if isinstance(op, (ops.HashJoin, ops.MergeJoin, ops.IndexNLJoin)):
        name = {
            ops.HashJoin: "hashjoin",
            ops.MergeJoin: "mergejoin",
            ops.IndexNLJoin: "nljoin",
        }[type(op)]
        children = ", ".join(_summarize(c) for c in op.children())
        return f"{name}({children})"
    if isinstance(op, (ops.SeqScan, ops.IndexSeek, ops.IndexRangeScan)):
        return f"scan({op.table.name})"
    children = list(op.children())
    if len(children) == 1:
        return _summarize(children[0])
    return op.describe()


class Subplan:
    """A subquery block compiled once per statement: its plan, the
    :class:`~repro.sql.ast.Params` cell its correlated references were
    rewritten into, and those references (``outer_refs[slot]``), which the
    enclosing expression evaluates against its row."""

    __slots__ = ("plan", "params", "outer_refs", "clock")

    def __init__(self, plan, params, outer_refs, clock):
        self.plan = plan
        self.params = params
        self.outer_refs = outer_refs
        self.clock = clock

    def rows(self, values, limit=None):
        """The block's rows, at most ``limit`` of them, with its outer
        references bound to ``values``: the compiled root re-runs."""
        self.params[:] = values
        root = self.plan.root()
        root.open(ExecutionContext(clock=self.clock))
        try:
            return list(islice(root.rows(), limit))
        finally:
            root.close()


class Optimizer:
    """Optimizes SELECT blocks against a placement provider.

    ``early_pruning`` applies the consistency *violation* rule to partial
    plans (the paper's early-discard optimization).  Disabling it only
    delays the check to the complete-plan satisfaction rule — results are
    identical, but the search table holds more candidates; the ablation
    bench measures the difference.  ``stats`` (reset per optimization)
    counts candidates considered / admitted / pruned.
    """

    def __init__(self, placement, early_pruning=True, registry=None):
        self.placement = placement
        self.cost_model = placement.cost_model
        self.early_pruning = early_pruning
        self.stats = {"considered": 0, "admitted": 0, "pruned": 0}
        #: Metrics registry (candidate counters, enumeration span); the
        #: cache points this at its own registry, the back-end leaves the
        #: no-op default.
        self.registry = registry if registry is not None else NULL_REGISTRY

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def optimize(self, select, catalog):
        """Optimize a Select AST; returns an OptimizedPlan.

        Nested blocks are planned within the same call: each derived
        table once, each subquery in an expression once (not once per
        outer row).  Raises OptimizerError for constructs outside the
        supported subset.
        """
        return self.optimize_info(analyze_select(select, catalog))

    def optimize_info(self, query_info):
        """Optimize an analyzed statement; the candidate counters cover
        all of its blocks."""
        self.stats = {"considered": 0, "admitted": 0, "pruned": 0}
        try:
            return self._plan(query_info)
        finally:
            for outcome in ("considered", "admitted", "pruned"):
                self.registry.counter(
                    "optimizer_candidates_total", labels={"outcome": outcome},
                    help="DP-search candidates by outcome",
                ).inc(self.stats[outcome])

    def plan_subquery(self, select, catalog):
        """Compile a subquery block once, as a :class:`Subplan`.

        Its references to the enclosing row become Param slots
        (:func:`~repro.optimizer.query_info.correlate`), so an inner
        ``o.o_custkey = <outer column>`` is an index seek on a parameter,
        as in a plan template.  Plan-time code that reads such a slot's
        value marks it opaque — the conjunct reading it is then planned
        as a plain residual — and the block is planned again: a
        correlated slot is never pinned.
        """
        rewritten, params, outer_refs = correlate(select, catalog)
        while True:
            try:
                plan = self._plan(analyze_select(rewritten, catalog))
                plan.root()  # a late value read stays inside the try
                break
            except ast.ParamRead as read:
                if read.params is not params:
                    raise  # an enclosing block's slot, or a template's
                if read.slot in params.opaque:
                    raise OptimizerError(
                        f"subquery reads its outer reference ?{read.slot} at plan time"
                    ) from None
                params.opaque.add(read.slot)
        return Subplan(plan, params, outer_refs, self.placement.expr_ctx.clock)

    def _plan(self, query_info):
        required = query_info.constraint
        for operand in query_info.operands.values():
            derived = operand.derived
            if derived is not None:
                derived.plan = self._plan(analyze_select(derived.select, query_info.catalog))
                derived.stats = TableStats(row_count=derived.plan.est_rows)
        with self.registry.span("enumerate_joins"):
            best_by_subset = self._enumerate_joins(query_info, required)

        # Subqueries compile once per statement, against this statement's
        # catalog; every build of this plan reads the same compiled blocks.
        subplans = {}
        catalog = query_info.catalog

        def subplan(select):
            block = subplans.get(id(select))
            if block is None:
                block = subplans[id(select)] = self.plan_subquery(select, catalog)
            return block

        expr_ctx = ExpressionContext(self.placement.expr_ctx.clock, subplan)
        all_aliases = frozenset(query_info.aliases())
        finalists = [
            self._finish(candidate, query_info, expr_ctx)
            for candidate in best_by_subset.get(all_aliases, {}).values()
        ]

        whole = self.placement.whole_query_candidate(query_info)
        if whole is not None and not violates(whole.delivered, required):
            finalists.append(whole)

        valid = [c for c in finalists if satisfies(c.delivered, required)]
        if not valid:
            raise OptimizerError(
                f"no plan satisfies the C&C constraint {required!r}"
            )
        best = min(valid, key=lambda c: c.cost)
        column_names = [name for _, name in query_info.items]
        return OptimizedPlan(best, column_names, query_info)

    # ------------------------------------------------------------------
    # Join enumeration
    # ------------------------------------------------------------------
    def _enumerate_joins(self, query_info, required):
        aliases = query_info.aliases()
        table = {}  # frozenset(aliases) -> {signature: Candidate}

        def admit(subset, candidate):
            self.stats["considered"] += 1
            if self.early_pruning and violates(candidate.delivered, required):
                self.stats["pruned"] += 1
                return
            bucket = table.setdefault(subset, {})
            signature = candidate.signature()
            incumbent = bucket.get(signature)
            if incumbent is None or candidate.cost < incumbent.cost:
                bucket[signature] = candidate
                self.stats["admitted"] += 1

        for alias in aliases:
            operand = query_info.operand(alias)
            subset = frozenset([alias])
            if operand.derived is not None:
                candidates = [self._derived_candidate(operand)]
            else:
                candidates = self.placement.access_candidates(operand, query_info)
            for candidate in candidates:
                admit(subset, candidate)
            remote = self.placement.subset_remote_candidate(subset, query_info)
            if remote is not None:
                admit(subset, remote)

        for size in range(2, len(aliases) + 1):
            for combo in itertools.combinations(aliases, size):
                subset = frozenset(combo)
                # Joins of every (left, right) partition.
                for left_subset in _proper_subsets(subset):
                    right_subset = subset - left_subset
                    left_bucket = table.get(left_subset)
                    right_bucket = table.get(right_subset)
                    if not left_bucket or not right_bucket:
                        continue
                    join_conjuncts = query_info.join_conjuncts_between(left_subset, right_subset)
                    # An empty conjunct list degrades HashJoin to a cross
                    # product (single hash bucket); allowed but expensive,
                    # so real join orders always win when one exists.
                    for left in left_bucket.values():
                        for right in right_bucket.values():
                            for candidate in self._join_candidates(
                                left, right, join_conjuncts, subset, query_info
                            ):
                                admit(subset, candidate)
                remote = self.placement.subset_remote_candidate(subset, query_info)
                if remote is not None:
                    admit(subset, remote)
        return table

    def _derived_candidate(self, operand):
        """A derived table's one access candidate: its own plan, with that
        plan's cost, rows and delivered properties, its output relabelled
        to the operand's alias and its conjuncts applied above it."""
        plan = operand.derived.plan
        binding = RowBinding([OutputCol(name, operand.alias) for name in plan.column_names])
        conjuncts = operand.conjuncts
        predicate_expr = combine_conjuncts(conjuncts)
        rows = plan.est_rows * estimate_selectivity(operand.stats, conjuncts, ())
        cost = plan.cost + (self.cost_model.filter(plan.est_rows) if conjuncts else 0.0)

        def build():
            relabel = ops.Project(
                plan.root(), [compile_ir(("col", i)) for i in range(len(binding))], binding
            )
            if predicate_expr is None:
                return relabel
            predicate = compile_expr(predicate_expr, binding, self.placement.expr_ctx)
            return ops.Filter(stamp_estimates(relabel, plan.est_rows), predicate)

        return Candidate(build, cost, rows, plan.est_width, binding,
                         plan.candidate.delivered, [operand.alias], "derived",
                         detail=operand.alias)

    def _join_candidates(self, left, right, join_conjuncts, subset, query_info):
        """Physical join alternatives for one (left, right) candidate pair."""
        cm = self.cost_model
        binding = left.binding.concat(right.binding)
        delivered = left.delivered.join(right.delivered)

        # Estimated output cardinality: containment-of-values.
        out_rows = left.rows * right.rows
        for jc, swapped in join_conjuncts:
            left_stats = query_info.operand(jc.left_alias).stats.column(jc.left_column)
            right_stats = query_info.operand(jc.right_alias).stats.column(jc.right_column)
            ndv = max(left_stats.ndv, right_stats.ndv, 1)
            out_rows /= ndv
        out_rows = max(out_rows, 0.0)

        # Residual predicates that become applicable at this subset.
        residuals = [
            conjunct
            for conjunct in query_info.residual_conjuncts
            if _refs_within(conjunct, subset, query_info)
            and not _refs_within(conjunct, left.aliases, query_info)
            and not _refs_within(conjunct, right.aliases, query_info)
        ]
        width = left.width + right.width

        def key_fns(candidate_binding, refs):
            return [compile_expr(ref, candidate_binding, self.placement.expr_ctx)
                    for ref in refs]

        left_refs = []
        right_refs = []
        for jc, swapped in join_conjuncts:
            if not swapped:
                left_refs.append(ast.ColumnRef(jc.left_column, qualifier=jc.left_alias))
                right_refs.append(ast.ColumnRef(jc.right_column, qualifier=jc.right_alias))
            else:
                left_refs.append(ast.ColumnRef(jc.right_column, qualifier=jc.right_alias))
                right_refs.append(ast.ColumnRef(jc.left_column, qualifier=jc.left_alias))

        residual_expr = combine_conjuncts(residuals)

        def build_hash(left=left, right=right, binding=binding):
            residual = (
                compile_expr(residual_expr, binding, self.placement.expr_ctx)
                if residual_expr is not None
                else None
            )
            return ops.HashJoin(
                left.operator(),
                right.operator(),
                key_fns(left.binding, left_refs),
                key_fns(right.binding, right_refs),
                binding,
                residual=residual,
            )

        cost = (
            left.cost
            + right.cost
            + cm.hash_join(left.rows, right.rows, out_rows)
            + (cm.filter(out_rows) if residuals else 0.0)
        )
        yield Candidate(
            build_hash,
            cost,
            out_rows * (0.25 if residuals else 1.0),
            width,
            binding,
            delivered,
            subset,
            "hash-join",
            detail=f"{sorted(left.aliases)}x{sorted(right.aliases)}",
            # Our hash join streams the probe (left) side in order.
            sort_order=left.sort_order,
        )

        # Merge join: valid when both children deliver the join keys as a
        # prefix of their sort orders, pairwise aligned.
        aligned = _align_merge_keys(left.sort_order, right.sort_order, left_refs, right_refs)
        if aligned is not None:
            merge_left_refs, merge_right_refs = aligned

            def build_merge(left=left, right=right, binding=binding):
                residual = (
                    compile_expr(residual_expr, binding, self.placement.expr_ctx)
                    if residual_expr is not None
                    else None
                )
                return ops.MergeJoin(
                    left.operator(),
                    right.operator(),
                    key_fns(left.binding, merge_left_refs),
                    key_fns(right.binding, merge_right_refs),
                    binding,
                    residual=residual,
                )

            merge_cost = (
                left.cost
                + right.cost
                + cm.merge_join(left.rows, right.rows, out_rows)
                + (cm.filter(out_rows) if residuals else 0.0)
            )
            yield Candidate(
                build_merge,
                merge_cost,
                out_rows * (0.25 if residuals else 1.0),
                width,
                binding,
                delivered,
                subset,
                "merge-join",
                detail=f"{sorted(left.aliases)}x{sorted(right.aliases)}",
                sort_order=left.sort_order,
            )

        # Index nested-loops: inner is a single operand with an index whose
        # key prefix is covered by the join columns (placement decides which
        # sources qualify, e.g. base tables on the back-end).
        if len(right.aliases) == 1 and join_conjuncts:
            inner_alias = next(iter(right.aliases))
            inner_operand = query_info.operand(inner_alias)
            # inner join column -> outer-side reference
            col_to_outer = {}
            for (jc, swapped), outer_ref in zip(join_conjuncts, left_refs):
                inner_col = jc.right_column if not swapped else jc.left_column
                col_to_outer.setdefault(inner_col, outer_ref)
            sources = () if inner_operand.derived is not None else (
                self.placement.nl_inner_sources(inner_operand, set(col_to_outer)))
            for source in sources:
                table, index, inner_binding, inner_delivered, skip = source
                # Key columns must form a prefix of the index key, in index
                # order; require the full join-column set to be used.
                prefix = []
                for col in index.column_names:
                    if col in col_to_outer:
                        prefix.append(col)
                    else:
                        break
                if len(prefix) != len(col_to_outer):
                    continue
                ordered_outer_refs = [col_to_outer[col] for col in prefix]
                inner_conjuncts = [c for c in inner_operand.conjuncts if c not in skip]
                residual_all = combine_conjuncts(residuals)
                nl_binding = left.binding.concat(inner_binding)
                rows_per_probe = max(out_rows / max(left.rows, 1.0), 0.0)

                def build_nl(
                    left=left,
                    table=table,
                    index=index,
                    inner_binding=inner_binding,
                    inner_conjuncts=tuple(inner_conjuncts),
                    ordered_outer_refs=tuple(ordered_outer_refs),
                    nl_binding=nl_binding,
                    residual_all=residual_all,
                    rows_per_probe=rows_per_probe,
                ):
                    inner_pred_expr = combine_conjuncts(list(inner_conjuncts))
                    inner_pred = (
                        compile_expr(inner_pred_expr, inner_binding, self.placement.expr_ctx)
                        if inner_pred_expr is not None
                        else None
                    )
                    # The seek's key is each outer row's key columns.
                    inner = stamp_estimates(
                        ops.IndexSeek(table, index, (), inner_binding, predicate=inner_pred),
                        rows_per_probe,
                    )
                    residual = (
                        compile_expr(residual_all, nl_binding, self.placement.expr_ctx)
                        if residual_all is not None
                        else None
                    )
                    outer_keys = [left.binding.resolve(ref) for ref in ordered_outer_refs]
                    return ops.IndexNLJoin(left.operator(), inner, nl_binding,
                                           residual=residual, outer_keys=outer_keys)

                nl_cost = (
                    left.cost
                    + cm.index_nl_join(left.rows, rows_per_probe, out_rows)
                    + (cm.filter(out_rows) if residuals else 0.0)
                )
                yield Candidate(
                    build_nl,
                    nl_cost,
                    out_rows * (0.25 if residuals else 1.0),
                    left.width + right.width,
                    nl_binding,
                    left.delivered.join(inner_delivered),
                    subset,
                    "nl-join",
                    detail=f"{sorted(left.aliases)}->{table.name}.{index.name}",
                    # Nested loops preserve the outer side's order.
                    sort_order=left.sort_order,
                )

    # ------------------------------------------------------------------
    # Finishing: projection, aggregation, order, distinct, limit
    # ------------------------------------------------------------------
    def _finish(self, candidate, query_info, expr_ctx):
        cm = self.cost_model
        binding = candidate.binding
        cost = candidate.cost
        rows = candidate.rows
        delivered = candidate.delivered

        # Uncorrelated IN-subqueries become hash semi joins when the
        # placement can supply the inner relation; every other subquery
        # conjunct runs in one filter above the join, its block compiled
        # once and re-run per row.  The plan delivers the merge of the
        # outer and the inner blocks' properties.
        semis = []
        post = list(query_info.post_conjuncts)
        nested = list(query_info.subqueries)
        for semi in query_info.semi_joins:
            source = self.placement.semi_inner_source(semi)
            if source is None:
                post.append(semi.conjunct)
                nested.append(semi.conjunct)
            else:
                semis.append((semi, source))
        for node in nested:
            block = expr_ctx.subqueries(node.select).plan
            delivered = delivered.join(block.candidate.delivered)
            cost += rows * block.cost

        if post:
            post_expr = combine_conjuncts(post)
            prev_candidate = candidate
            cost += cm.filter(rows)
            rows = max(1.0, rows * 0.25)

            def build_post(prev_candidate=prev_candidate, post_expr=post_expr,
                           binding=binding, est=(rows, cost)):
                predicate = compile_expr(post_expr, binding, expr_ctx)
                return stamp_estimates(
                    ops.Filter(prev_candidate.operator(), predicate, output=binding), *est
                )
            candidate = Candidate(
                build_post,
                cost,
                rows,
                prev_candidate.width,
                binding,
                delivered,
                prev_candidate.aliases,
                prev_candidate.kind,
                detail=prev_candidate.detail,
            )

        for semi, source in semis:
            prev_candidate = candidate
            build_inner, inner_binding, inner_cost, inner_rows, inner_delivered = source
            cost += inner_cost + cm.hash_join(rows, inner_rows, rows * 0.5)
            rows = max(1.0, rows * 0.5)
            delivered = delivered.join(inner_delivered)

            def build_semi(prev_candidate=prev_candidate, semi=semi, binding=binding,
                           build_inner=build_inner, inner_binding=inner_binding,
                           est=(rows, cost)):
                left_key = compile_expr(semi.outer_ref, binding, expr_ctx)
                right_key = compile_expr(semi.inner_ref, inner_binding, expr_ctx)
                operator = ops.HashAntiJoin if semi.negated else ops.HashSemiJoin
                return stamp_estimates(
                    operator(
                        prev_candidate.operator(), build_inner(), [left_key], [right_key],
                        output=binding,
                    ),
                    *est,
                )
            candidate = Candidate(
                build_semi,
                cost,
                rows,
                prev_candidate.width,
                binding,
                delivered,
                prev_candidate.aliases,
                prev_candidate.kind,
                detail=prev_candidate.detail,
            )

        if query_info.is_aggregate:
            build_child = candidate
            group_refs = query_info.group_refs
            agg_items = query_info.agg_items
            agg_specs_info = [item for item in agg_items if item.kind == "agg"]

            # Aggregate output: group columns (in GROUP BY order) then
            # aggregates (in select-list order).
            agg_binding = RowBinding(
                [OutputCol(g.name, g.qualifier) for g in group_refs]
                + [OutputCol(item.name) for item in agg_specs_info]
            )

            having_expr = query_info.having
            group_ndv = 1.0
            for g in group_refs:
                stats = query_info.operand(_qualifier_of(g, query_info)).stats
                group_ndv *= max(stats.column(g.name).ndv, 1)
            out_rows = min(rows, group_ndv) if group_refs else 1.0
            cost += cm.aggregate(rows) + cm.project(out_rows)
            rows = out_rows

            def build_agg(est=(rows, cost)):
                child = build_child.operator()
                group_fns = [compile_expr(g, binding, expr_ctx) for g in group_refs]
                specs = []
                for item in agg_specs_info:
                    arg_fn = (
                        compile_expr(item.arg, binding, expr_ctx)
                        if item.arg is not None
                        else None
                    )
                    specs.append(ops.AggregateSpec(item.func, arg_fn))
                having = (
                    compile_expr(having_expr, agg_binding, expr_ctx)
                    if having_expr is not None
                    else None
                )
                agg = stamp_estimates(
                    ops.HashAggregate(child, group_fns, specs, agg_binding, having=having),
                    est[0],
                )
                # Re-order to the select-list order and name outputs.
                out_binding = RowBinding([OutputCol(item.name) for item in agg_items])
                exprs = []
                for item in agg_items:
                    if item.kind == "group":
                        exprs.append(compile_expr(item.expr, agg_binding, expr_ctx))
                    else:
                        exprs.append(
                            compile_expr(ast.ColumnRef(item.name), agg_binding, expr_ctx)
                        )
                return stamp_estimates(ops.Project(agg, exprs, out_binding), *est)
            out_binding = RowBinding([OutputCol(item.name) for item in agg_items])
            build = build_agg
        else:
            items = query_info.items
            out_binding = RowBinding([OutputCol(name) for _, name in items])

            # ORDER BY may reference columns that are not in the select
            # list (standard SQL); the whole sort then runs *before* the
            # projection, against the full join binding.
            sort_placement = _sort_placement(query_info.order_by, binding, out_binding)

            def build_project(candidate=candidate, items=items, out_binding=out_binding,
                              sort_placement=sort_placement, est_rows=rows):
                child = candidate.operator()
                if sort_placement == "pre":
                    key_fns = [
                        compile_expr(o.expr, binding, expr_ctx)
                        for o in query_info.order_by
                    ]
                    descending = [o.descending for o in query_info.order_by]
                    child = stamp_estimates(
                        ops.Sort(child, key_fns, descending, output=binding), est_rows
                    )
                exprs = [compile_expr(expr, binding, expr_ctx) for expr, _ in items]
                return stamp_estimates(ops.Project(child, exprs, out_binding), est_rows)

            # Plain projection runs fused (column picking, or tuple
            # re-ordering on the tiny-plan path): the fused discount.
            cost += cm.fused_pipeline(cm.project_row, rows)
            if sort_placement == "pre":
                cost += cm.sort(rows)
            build = build_project

        # DISTINCT
        if query_info.distinct:
            prev_build = build
            cost += cm.aggregate(rows)
            rows = max(1.0, rows * 0.9)

            def build_distinct(prev_build=prev_build, est=(rows, cost)):
                return stamp_estimates(ops.Distinct(prev_build()), *est)

            build = build_distinct

        # ORDER BY (compiled against the output binding: select aliases),
        # unless the sort already ran before the projection.
        if query_info.order_by and (
            query_info.is_aggregate or _sort_placement(query_info.order_by, binding, out_binding) == "post"
        ):
            prev_build = build
            order_items = query_info.order_by

            cost += cm.sort(rows)

            def build_sort(prev_build=prev_build, order_items=order_items,
                           out_binding=out_binding, est=(rows, cost)):
                child = prev_build()
                key_fns = [
                    compile_expr(rebind_to_output(o.expr, out_binding), out_binding, expr_ctx)
                    for o in order_items
                ]
                descending = [o.descending for o in order_items]
                return stamp_estimates(
                    ops.Sort(child, key_fns, descending, output=out_binding), *est
                )

            build = build_sort

        # LIMIT
        if query_info.limit is not None:
            prev_build = build
            limit = query_info.limit
            rows = min(rows, float(limit))

            def build_limit(prev_build=prev_build, limit=limit, est=(rows, cost)):
                return stamp_estimates(ops.Limit(prev_build(), limit), *est)

            build = build_limit

        return Candidate(
            build,
            cost,
            rows,
            candidate.width,
            out_binding,
            delivered,
            candidate.aliases,
            candidate.kind,
            detail=candidate.detail,
        )


def _align_merge_keys(left_order, right_order, left_refs, right_refs):
    """Reorder the join-key pairs so both sides' sort orders cover them as
    aligned prefixes; returns (left_refs, right_refs) or None.

    ``left_refs[i]`` joins with ``right_refs[i]``; a merge join needs both
    inputs sorted by the keys in the *same* pairwise sequence.
    """
    if not left_refs:
        return None
    pairs = {}
    for lref, rref in zip(left_refs, right_refs):
        pairs[(lref.qualifier, lref.name)] = (lref, rref)
    ordered = []
    for position, key in enumerate(left_order):
        if key not in pairs:
            break
        lref, rref = pairs[key]
        if position >= len(right_order) or right_order[position] != (rref.qualifier, rref.name):
            return None
        ordered.append((lref, rref))
    if len(ordered) != len(pairs):
        return None
    return [l for l, _ in ordered], [r for _, r in ordered]


def _resolves_in(expr, binding):
    """Can every column reference in ``expr`` be resolved in ``binding``?"""
    for ref in expr.column_refs():
        rebound = rebind_to_output(ref, binding)
        if not any(col.matches(rebound) for col in binding.columns):
            return False
    return True


def _sort_placement(order_by, pre_binding, post_binding):
    """Where the ORDER BY sort must run: "post" (after projection, the
    normal case — keys are select-list outputs) or "pre" (before it, when
    a key references a non-selected column).  Mixed requirements that fit
    neither binding raise."""
    if not order_by:
        return "post"
    if all(_resolves_in(o.expr, post_binding) for o in order_by):
        return "post"
    if all(_resolves_in(o.expr, pre_binding) for o in order_by):
        return "pre"
    raise OptimizerError(
        "ORDER BY mixes select-list aliases with non-selected columns"
    )


def rebind_to_output(expr, out_binding):
    """Rewrite an ORDER BY expression against the projected output binding.

    Projection strips qualifiers, so ``ORDER BY d.dname`` must resolve to
    output column ``dname``.  Qualified references that no longer resolve
    are replaced by their bare name when that name is unique in the output.
    """
    if isinstance(expr, ast.ColumnRef) and expr.qualifier is not None:
        if not any(col.matches(expr) for col in out_binding.columns):
            names = [col.name for col in out_binding.columns]
            if names.count(expr.name) == 1:
                return ast.ColumnRef(expr.name)
    return expr


def _proper_subsets(subset):
    """Non-empty proper subsets of a frozenset (each partition seen once per
    orientation; both orientations are enumerated for join-side choice)."""
    items = sorted(subset)
    out = []
    for size in range(1, len(items)):
        for combo in itertools.combinations(items, size):
            out.append(frozenset(combo))
    return out


def _refs_within(expr, aliases, query_info):
    """True if every column reference in ``expr`` resolves within ``aliases``."""
    for ref in expr.column_refs():
        if ref.qualifier is not None:
            if ref.qualifier not in aliases:
                return False
        else:
            owners = [
                alias
                for alias in query_info.aliases()
                if query_info.operand(alias).schema.has_column(ref.name)
            ]
            if len(owners) != 1 or owners[0] not in aliases:
                return False
    return True


def _qualifier_of(ref, query_info):
    if ref.qualifier is not None:
        return ref.qualifier
    for alias in query_info.aliases():
        if query_info.operand(alias).schema.has_column(ref.name):
            return alias
    raise OptimizerError(f"cannot resolve {ref.to_sql()}")
