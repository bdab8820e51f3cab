"""The cache's placement provider: local views behind currency guards,
and remote queries to the back-end (paper §3.2).

The optimizer asks a placement provider for the access candidates of
each operand.  On the cache those are the matching local materialized
views — wrapped, under a finite currency bound, in a SwitchUnion whose
selector is the region's currency guard — plus remote queries shipping
an operand, an alias subset or the whole statement to the back-end.
"""

from repro.cc.properties import BACKEND_REGION, ConsistencyProperty
from repro.engine import operators as ops
from repro.engine.expressions import OutputCol, RowBinding, compile_expr
from repro.optimizer.candidates import Candidate, stamp_estimates
from repro.optimizer.cost import guard_probability
from repro.optimizer.placement import PlacementProvider, combine_conjuncts
from repro.sql import ast
from repro.sql.compare import equal_ignoring_qualifiers


class CachePlacement(PlacementProvider):
    """Placement provider for the cache: local views + remote queries.

    ``probability_aware`` toggles the §3.2.4 guard-probability term in the
    SwitchUnion cost.  When off, guarded plans are costed as if the guard
    always passed (p = 1) — the ablation baseline: the optimizer then
    overestimates how useful a rarely-fresh replica is.
    """

    def __init__(self, mtcache, cost_model, probability_aware=True):
        super().__init__(cost_model, clock=mtcache.clock)
        self.mtcache = mtcache
        self.probability_aware = probability_aware

    # ------------------------------------------------------------------
    # Local views (with currency guards)
    # ------------------------------------------------------------------
    def access_candidates(self, operand, query_info):
        candidates = []
        bound = query_info.constraint.bound_for(operand.alias)
        if bound <= 0:
            return candidates  # local data can never be 0-stale
        for view in self._matching_views(operand):
            region = self.mtcache.catalog.region(view.region)
            if bound < region.update_delay and bound != ast.UNBOUNDED:
                # Compile-time pruning: the region can never guarantee the
                # requested currency (paper §3.2.2, last paragraph).
                continue
            candidates.extend(self._view_candidates(operand, query_info, view, region, bound))
        return candidates

    def _matching_views(self, operand):
        """View matching: same base table, covering columns, predicate
        implied by the query's conjuncts."""
        for view in self.mtcache.catalog.matviews_on(operand.table_name):
            if not operand.needed_columns <= set(view.columns):
                continue
            if view.predicate is not None and not any(
                equal_ignoring_qualifiers(view.predicate, conjunct)
                for conjunct in operand.conjuncts
            ):
                continue
            yield view

    def _view_candidates(self, operand, query_info, view, region, bound):
        alias = operand.alias
        skip = tuple(
            conjunct
            for conjunct in operand.conjuncts
            if view.predicate is not None
            and equal_ignoring_qualifiers(view.predicate, conjunct)
        )
        binding = RowBinding([OutputCol(c, alias) for c in view.columns])
        local_delivered = ConsistencyProperty.single(region.cid, [alias])
        locals_ = self.base_table_candidates(
            view.table,
            alias,
            operand.conjuncts,
            operand.sargs,
            view.stats,
            local_delivered,
            "view",
            binding=binding,
            skip_conjuncts=skip,
        )
        strict = self.mtcache.table_consistency(view.base_table) == "strict"
        if bound == ast.UNBOUNDED and not strict:
            # No guard needed: any staleness is acceptable.  (Consistency
            # still matters, hence the region id in the property.)  Strict
            # tables keep the guard even unbounded: the selector must be
            # able to bounce a read whose session floor outruns the local
            # replica, however stale the query is willing to go.
            return locals_

        # Finite bound: wrap each local alternative in a SwitchUnion whose
        # selector is the currency guard over the region's local heartbeat.
        # A plan whose sargs pin the operand to one partition only answers
        # for that shard's replication lag (and its remote fallback only
        # hits that shard).
        shard = self.mtcache.shard_hint(operand)
        remote = self._operand_remote_candidate(operand, shard=shard)
        if self.probability_aware:
            p = guard_probability(bound, region.update_delay, region.update_interval)
        else:
            p = 1.0
        guarded = []
        common_binding = remote.binding  # needed columns, sorted
        needed = sorted(operand.needed_columns)
        delivered = ConsistencyProperty.single(("guarded", region.cid, bound), [alias])
        for local in locals_:
            def build(local=local, remote=remote, view=view, bound=bound,
                      needed=needed, common_binding=common_binding, shard=shard):
                # Project the local branch to the remote branch's column
                # order so both SwitchUnion inputs agree — unless the view
                # already produces exactly those columns in that order.
                if [c.name for c in local.binding.columns] == needed:
                    local_branch = local.operator()
                else:
                    exprs = [
                        compile_expr(ast.ColumnRef(c, qualifier=operand.alias),
                                     local.binding, self.expr_ctx)
                        for c in needed
                    ]
                    local_branch = stamp_estimates(
                        ops.Project(local.operator(), exprs, common_binding), local.rows
                    )
                selector = self.mtcache.make_currency_guard(view, bound, shard=shard)
                return ops.SwitchUnion(
                    [local_branch, remote.operator()],
                    selector,
                    common_binding,
                    label=view.name,
                )

            cost = self.cost_model.switch_union(
                p, local.cost + self.cost_model.project(local.rows), remote.cost
            )
            guarded.append(
                Candidate(
                    build,
                    cost,
                    local.rows,
                    remote.width,
                    common_binding,
                    delivered,
                    [alias],
                    "guarded-view",
                    detail=f"{view.name}|{local.kind}",
                )
            )
        return guarded

    # ------------------------------------------------------------------
    # Remote candidates
    # ------------------------------------------------------------------
    def _operand_remote_candidate(self, operand, shard=None):
        """A remote query fetching one operand (σπ of a base table)."""
        needed = sorted(operand.needed_columns)
        select = ast.Select(
            [ast.SelectItem(ast.ColumnRef(c, qualifier=operand.alias)) for c in needed],
            [ast.FromTable(operand.table_name, operand.alias)],
            where=combine_conjuncts(operand.conjuncts),
            nested=False,
        )
        binding = RowBinding([OutputCol(c, operand.alias) for c in needed])
        width = sum(operand.stats.column(c).avg_width for c in needed)
        return self._remote_candidate(
            select, binding, [operand.alias], "remote-fetch", width=width,
            shards=None if shard is None else (shard,),
        )

    def subset_remote_candidate(self, aliases, query_info):
        """One remote query computing the σπ⋈ of an alias subset."""
        aliases = frozenset(aliases)
        items = []
        binding_cols = []
        from_items = []
        conjuncts = []
        width = 0.0
        for alias in sorted(aliases):
            operand = query_info.operand(alias)
            from_items.append(ast.FromTable(operand.table_name, alias))
            for column in sorted(operand.needed_columns):
                items.append(ast.SelectItem(ast.ColumnRef(column, qualifier=alias)))
                binding_cols.append(OutputCol(column, alias))
                width += operand.stats.column(column).avg_width
            conjuncts.extend(operand.conjuncts)
        for jc in query_info.join_conjuncts:
            if jc.left_alias in aliases and jc.right_alias in aliases:
                conjuncts.append(jc.expr)
        for conjunct in query_info.residual_conjuncts:
            refs = {r.qualifier for r in conjunct.column_refs() if r.qualifier}
            if refs <= aliases:
                conjuncts.append(conjunct)
        select = ast.Select(items, from_items, where=combine_conjuncts(conjuncts), nested=False)
        binding = RowBinding(binding_cols)
        return self._remote_candidate(select, binding, aliases, "remote-subset", width=width)

    def whole_query_candidate(self, query_info):
        """Ship the entire statement (minus the currency clause)."""
        select = query_info.select.replace(currency=None)
        binding = RowBinding([OutputCol(name) for _, name in query_info.items])
        return self._remote_candidate(
            select,
            binding,
            query_info.aliases(),
            "remote-query",
            width=self._items_width(query_info),
        )

    @staticmethod
    def _items_width(query_info):
        """Estimated byte width of the query's output row (what the whole-
        query remote plan actually ships)."""
        width = 0.0
        for expr, _ in query_info.items:
            if isinstance(expr, ast.ColumnRef):
                for alias in query_info.aliases():
                    operand = query_info.operand(alias)
                    if (expr.qualifier in (None, alias)) and operand.schema.has_column(expr.name):
                        width += operand.stats.column(expr.name).avg_width
                        break
                else:
                    width += 8.0
            else:
                width += 8.0
        return width

    def _remote_candidate(self, select, binding, aliases, kind, width=None, shards=None):
        backend = self.mtcache.backend
        sql = select.to_sql()
        cost, rows, est_width = backend.estimate(select)
        if width is None or width <= 0:
            width = est_width
        total = cost + self.cost_model.transfer(rows, max(width, 1.0))
        delivered = ConsistencyProperty.single(BACKEND_REGION, aliases)
        # A template's remote text has placeholders where its bindable
        # literals go; the operator renders it per execution.
        params = ast.params_of(select.where) if "\x00" in sql else None

        def build(sql=sql, binding=binding, shards=shards):
            if shards is None:
                return ops.RemoteQuery(
                    sql, binding, self.mtcache.remote_executor, params=params
                )

            def pinned_executor(q):
                return self.mtcache.remote_executor(q, shards=shards)

            return ops.RemoteQuery(
                sql, binding, pinned_executor, shards=shards, params=params
            )

        return Candidate(build, total, rows, width, binding, delivered, aliases, kind, detail=sql[:60])
