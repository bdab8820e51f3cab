"""Query analysis: from a parsed Select to an optimizable form.

``analyze_select`` resolves names against a catalog, splits the WHERE clause
into per-operand conjuncts / equijoin conjuncts / residuals, extracts
sargable predicates for index selection, expands ``*`` items, classifies
aggregation, and computes the normalized C&C constraint.

Every SELECT block goes through the one cost-based search.  A
FROM-subquery is a :class:`DerivedTable` operand, which the optimizer
plans as a block of its own; a subquery in an expression is compiled by
the optimizer once per statement, after :func:`correlate` has rewritten
its references to the enclosing row into parameter slots.
"""

from repro.catalog.statistics import TableStats
from repro.common.errors import CatalogError, OptimizerError
from repro.cc.constraint import constraint_from_select
from repro.sql import ast
from repro.storage.schema import Column, DataType, Schema


class Sarg:
    """A sargable predicate on one column: ``col <op> constant``.

    ``op`` is one of = < <= > >= in.  BETWEEN contributes two sargs.
    ``value`` is the constant (a tuple of them for ``in``); in a plan
    template the constant of an ``=`` and the items of an ``in`` may be
    opaque :class:`~repro.sql.ast.Param` markers.
    """

    __slots__ = ("column", "op", "value", "expr")

    def __init__(self, column, op, value, expr):
        self.column = column
        self.op = op
        self.value = value
        self.expr = expr  # original conjunct (for remote SQL round-trip)

    def __repr__(self):
        return f"Sarg({self.column} {self.op} {self.value!r})"


class DerivedTable:
    """A FROM-subquery standing as an operand: its block and output schema;
    the optimizer plans the block and sets ``stats`` from the plan's
    estimated cardinality."""

    def __init__(self, select, names):
        self.select = select
        self.schema = Schema([Column(name, DataType.STRING) for name in names])
        self.stats = TableStats()
        self.plan = None


class OperandInfo:
    """One FROM-clause operand: a base-table instance, or a derived table
    (``entry`` and ``derived`` are then its :class:`DerivedTable`)."""

    derived = None

    def __init__(self, alias, table_name, entry):
        self.alias = alias
        self.table_name = table_name
        self.entry = entry  # catalog TableEntry
        self.conjuncts = []  # single-operand predicates (Expr)
        self.sargs = []  # Sarg list extracted from conjuncts
        self.needed_columns = set()  # columns referenced anywhere in the query

    @property
    def schema(self):
        return self.entry.schema

    @property
    def stats(self):
        return self.entry.stats

    def __repr__(self):
        return f"OperandInfo({self.alias} -> {self.table_name})"


class SemiJoinInfo:
    """An uncorrelated ``col IN (SELECT inner_col FROM t [WHERE …])``
    conjunct (or its NOT IN counterpart), eligible for a hash semi/anti
    join.

    ``conjunct`` keeps the original expression: it runs as a compiled
    subquery filter when a placement cannot supply the inner side.
    """

    __slots__ = ("outer_ref", "inner_table", "inner_alias", "inner_ref",
                 "inner_where", "conjunct", "negated")

    def __init__(self, outer_ref, inner_table, inner_alias, inner_ref, inner_where,
                 conjunct, negated=False):
        self.outer_ref = outer_ref
        self.inner_table = inner_table
        self.inner_alias = inner_alias
        self.inner_ref = inner_ref
        self.inner_where = inner_where
        self.conjunct = conjunct
        #: True for NOT IN (anti join).
        self.negated = negated

    def __repr__(self):
        op = "NOT IN" if self.negated else "IN"
        return (
            f"SemiJoinInfo({self.outer_ref.to_sql()} {op} "
            f"{self.inner_table}.{self.inner_ref.name})"
        )


def _try_semi_join(conjunct, catalog):
    """Recognize an eligible IN-subquery conjunct; returns SemiJoinInfo or
    None.  Eligible: outer operand a plain column, inner a single-block
    single-table projection of one plain column, uncorrelated
    (:func:`correlate` finds no outer reference).  Negated conjuncts
    (NOT IN) become anti joins.  An inner CURRENCY clause does not stand
    in the way: the statement's normalised constraint already carries
    it."""
    if not isinstance(conjunct, ast.InSubquery):
        return None
    if not isinstance(conjunct.operand, ast.ColumnRef):
        return None
    select = conjunct.select
    if (
        select.group_by
        or select.having is not None
        or select.distinct
        or select.limit is not None
    ):
        return None
    if len(select.from_items) != 1 or not isinstance(select.from_items[0], ast.FromTable):
        return None
    from_item = select.from_items[0]
    if not catalog.has_table(from_item.name):
        return None
    if len(select.items) != 1 or select.items[0].star:
        return None
    inner_ref = select.items[0].expr
    if not isinstance(inner_ref, ast.ColumnRef):
        return None
    if select.nested or correlate(select, catalog)[2]:
        return None  # a nested block, or correlated
    return SemiJoinInfo(
        conjunct.operand,
        from_item.name,
        from_item.alias,
        inner_ref,
        select.where,
        conjunct,
        negated=conjunct.negated,
    )


class JoinConjunct:
    """An equijoin predicate ``a.x = b.y`` between two operands."""

    __slots__ = ("left_alias", "left_column", "right_alias", "right_column", "expr")

    def __init__(self, left_alias, left_column, right_alias, right_column, expr):
        self.left_alias = left_alias
        self.left_column = left_column
        self.right_alias = right_alias
        self.right_column = right_column
        self.expr = expr

    def aliases(self):
        return frozenset([self.left_alias, self.right_alias])

    def __repr__(self):
        return (
            f"JoinConjunct({self.left_alias}.{self.left_column} = "
            f"{self.right_alias}.{self.right_column})"
        )


class AggregateItem:
    """One select item in an aggregation query."""

    __slots__ = ("kind", "expr", "name", "func", "arg")

    def __init__(self, kind, expr, name, func=None, arg=None):
        self.kind = kind  # "group" | "agg"
        self.expr = expr
        self.name = name
        self.func = func
        self.arg = arg  # argument expression, None for COUNT(*)


class QueryInfo:
    """Everything the planner needs about a single-block query."""

    def __init__(self, select, catalog=None):
        self.select = select
        self.catalog = catalog  # the catalog names resolved against
        self.operands = {}  # alias -> OperandInfo
        self.from_order = []  # aliases in FROM order
        self.join_conjuncts = []
        self.residual_conjuncts = []  # multi-operand non-equijoin predicates
        self.items = []  # expanded (expr, output_name) pairs
        self.is_aggregate = False
        self.group_refs = []  # ColumnRef list
        self.agg_items = []  # AggregateItem list (when is_aggregate)
        self.having = None
        self.order_by = []
        self.distinct = False
        self.limit = None
        self.constraint = None
        #: WHERE conjuncts containing subqueries; applied as a filter above
        #: the join, before aggregation.
        self.post_conjuncts = []
        #: Uncorrelated IN-subqueries eligible for hash semi joins.
        self.semi_joins = []
        #: Every other subquery of this block (post conjuncts, select list,
        #: HAVING, ORDER BY): each compiles to a block run per row.
        self.subqueries = []

    def operand(self, alias):
        return self.operands[alias]

    def aliases(self):
        return list(self.from_order)

    def join_conjuncts_between(self, left_set, right_set):
        """Join conjuncts connecting two disjoint alias sets."""
        out = []
        for jc in self.join_conjuncts:
            if jc.left_alias in left_set and jc.right_alias in right_set:
                out.append((jc, False))
            elif jc.right_alias in left_set and jc.left_alias in right_set:
                out.append((jc, True))  # swapped orientation
        return out

    def __repr__(self):
        return f"QueryInfo(operands={self.from_order}, joins={len(self.join_conjuncts)})"


def _split_conjuncts(expr):
    """Flatten a predicate tree on AND into a conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _has_subquery(expr):
    return any(isinstance(node, ast.Subquery) for node in expr.walk())


def output_names(select, catalog):
    """The column names a block produces, ``*`` expanded."""
    names = []
    for item in select.items:
        if not item.star:
            names.append(item.output_name())
            continue
        for source in select.from_items:
            if item.star_qualifier not in (None, source.alias):
                continue
            if isinstance(source, ast.FromSubquery):
                names.extend(output_names(source.select, catalog))
            else:
                names.extend(catalog.table(source.name).schema.names())
    return names


def _scope(select, catalog):
    """alias -> column names of one block's FROM items."""
    scope = {}
    for item in select.from_items:
        if isinstance(item, ast.FromSubquery):
            scope[item.alias] = set(output_names(item.select, catalog))
        elif catalog.has_table(item.name):
            scope[item.alias] = set(catalog.table(item.name).schema.names())
        else:
            scope[item.alias] = set()
    return scope


def correlate(select, catalog):
    """Rewrite a subquery block so it can be planned on its own.

    Every column reference that neither ``select`` nor a block nested in
    it resolves reads the enclosing row: it becomes a
    :class:`~repro.sql.ast.Param` over one fresh cell, one slot per
    distinct reference.  Returns ``(select', params, outer_refs)``, where
    ``outer_refs[slot]`` is the reference that slot stands for, as written
    (the caller compiles it against the enclosing row).
    """
    params = ast.Params()
    params.opaque = set()
    outer_refs = []
    slots = {}

    def outer(ref):
        key = (ref.qualifier, ref.name)
        if key not in slots:
            slots[key] = len(outer_refs)
            outer_refs.append(ref)
            params.append(None)
        return ast.Param(slots[key], params)

    def block(sel, chain):
        inner = chain + [_scope(sel, catalog)]
        own = set(output_names(sel, catalog))

        def expr(node, aliases=()):
            if node is None:
                return None
            if isinstance(node, ast.ColumnRef):
                # Local: a select-list output (HAVING, ORDER BY), or a FROM
                # item of this block or of one between it and ``select``.
                if (node.qualifier is None and node.name in aliases) or any(
                    node.qualifier in scope if node.qualifier is not None
                    else any(node.name in names for names in scope.values())
                    for scope in inner
                ):
                    return node
                return outer(node)
            copy = node.map(lambda child: expr(child, aliases))
            if isinstance(node, ast.Subquery):
                copy.select = block(node.select, inner)
            return copy

        return sel.replace(
            items=[
                item if item.star
                else ast.SelectItem(expr(item.expr), item.alias or item.output_name())
                for item in sel.items
            ],
            from_items=[
                ast.FromSubquery(block(item.select, chain), item.alias)
                if isinstance(item, ast.FromSubquery) else item
                for item in sel.from_items
            ],
            where=expr(sel.where),
            group_by=[expr(g) for g in sel.group_by],
            # HAVING and ORDER BY may name select-list outputs.
            having=expr(sel.having, own),
            order_by=[ast.OrderItem(expr(o.expr, own), o.descending) for o in sel.order_by],
        )

    return block(select, []), params, outer_refs


class _Resolver:
    """Maps column references to (alias, column) pairs."""

    def __init__(self, operands):
        self.operands = operands

    def resolve(self, ref):
        if ref.qualifier is not None:
            info = self.operands.get(ref.qualifier)
            if info is None:
                raise CatalogError(f"unknown alias {ref.qualifier!r} in {ref.to_sql()}")
            if not info.schema.has_column(ref.name):
                raise CatalogError(f"no column {ref.name!r} in {info.table_name}")
            return ref.qualifier, ref.name
        matches = [
            alias for alias, info in self.operands.items() if info.schema.has_column(ref.name)
        ]
        if not matches:
            raise CatalogError(f"unresolved column {ref.name!r}")
        if len(matches) > 1:
            raise CatalogError(f"ambiguous column {ref.name!r} (in {sorted(matches)})")
        return matches[0], ref.name

    def aliases_in(self, expr):
        out = set()
        for ref in expr.column_refs():
            alias, _ = self.resolve(ref)
            out.add(alias)
        return out


def _constant_value(expr):
    """Evaluate a constant literal expression, or return (False, None).
    A bindable literal (:class:`~repro.sql.ast.Param`) is its own, opaque,
    value: sargs carry it to the index-key and shard-pin code that knows
    how to consume one — unless its slot is one no plan may read."""
    if isinstance(expr, ast.Literal):
        return True, expr.value
    if isinstance(expr, ast.Param):
        if expr.slot in expr.params.opaque:
            return False, None
        return True, expr
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        ok, value = _constant_value(expr.operand)
        if ok and isinstance(value, (int, float)):
            return True, -value
    return False, None


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def _extract_sargs(conjunct, resolver, alias):
    """Extract Sargs from a single-operand conjunct, if it is sargable.  A
    range bound is baked into its index range scan, so it must be a
    literal: a Param is a sarg value for ``=`` and ``in`` only."""
    out = []
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in ("=", "<", "<=", ">", ">="):
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if not isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef):
            left, right, op = right, left, _FLIP[op]
        if isinstance(left, ast.ColumnRef):
            ok, value = _constant_value(right)
            if ok and (op == "=" or not isinstance(value, ast.Param)):
                _, column = resolver.resolve(left)
                out.append(Sarg(column, op, value, conjunct))
    elif isinstance(conjunct, ast.Between) and not conjunct.negated:
        lo_ok, lo = _constant_value(conjunct.low)
        hi_ok, hi = _constant_value(conjunct.high)
        if (lo_ok and hi_ok and isinstance(conjunct.operand, ast.ColumnRef)
                and not isinstance(lo, ast.Param) and not isinstance(hi, ast.Param)):
            _, column = resolver.resolve(conjunct.operand)
            out.append(Sarg(column, ">=", lo, conjunct))
            out.append(Sarg(column, "<=", hi, conjunct))
    elif isinstance(conjunct, ast.InList) and not conjunct.negated:
        if isinstance(conjunct.operand, ast.ColumnRef):
            values = []
            for item in conjunct.items:
                ok, value = _constant_value(item)
                if not ok:
                    return out
                values.append(value)
            _, column = resolver.resolve(conjunct.operand)
            out.append(Sarg(column, "in", tuple(values), conjunct))
    return out


def analyze_select(select, catalog):
    """Analyze a Select AST against ``catalog``; returns a QueryInfo.

    Raises OptimizerError for constructs outside the supported subset.
    """
    info = QueryInfo(select, catalog)
    info.distinct = select.distinct
    info.limit = select.limit

    # The normalized C&C constraint covers all blocks, including subqueries.
    info.constraint, _ = constraint_from_select(select)

    for item in select.from_items:
        if item.alias in info.operands:
            raise OptimizerError(f"duplicate alias in FROM: {item.alias}")
        if isinstance(item, ast.FromSubquery):
            operand = OperandInfo(item.alias, item.alias, DerivedTable(
                item.select, output_names(item.select, catalog)))
            operand.derived = operand.entry
            info.operands[item.alias] = operand
        elif not catalog.has_table(item.name):
            raise CatalogError(f"unknown table: {item.name}")
        else:
            info.operands[item.alias] = OperandInfo(
                item.alias, item.name, catalog.table(item.name)
            )
        info.from_order.append(item.alias)

    resolver = _Resolver(info.operands)

    # ------------------------------------------------------------------
    # WHERE classification
    # ------------------------------------------------------------------
    for conjunct in _split_conjuncts(select.where):
        if _has_subquery(conjunct):
            semi = _try_semi_join(conjunct, catalog)
            if semi is not None:
                # The outer operand needs the compared column.
                alias, column = resolver.resolve(semi.outer_ref)
                info.operands[alias].needed_columns.add(column)
                info.semi_joins.append(semi)
            else:
                info.post_conjuncts.append(conjunct)
            continue
        aliases = resolver.aliases_in(conjunct)
        if len(aliases) <= 1:
            alias = next(iter(aliases)) if aliases else info.from_order[0]
            operand = info.operands[alias]
            operand.conjuncts.append(conjunct)
            operand.sargs.extend(_extract_sargs(conjunct, resolver, alias))
        elif len(aliases) == 2 and _is_equijoin(conjunct):
            la, lc = resolver.resolve(conjunct.left)
            ra, rc = resolver.resolve(conjunct.right)
            info.join_conjuncts.append(JoinConjunct(la, lc, ra, rc, conjunct))
        else:
            info.residual_conjuncts.append(conjunct)

    # ------------------------------------------------------------------
    # Select list expansion & aggregation detection
    # ------------------------------------------------------------------
    has_agg = bool(select.group_by) or any(
        isinstance(node, ast.FuncCall) and node.is_aggregate
        for item in select.items
        if item.expr is not None
        for node in item.expr.walk()
    )
    info.is_aggregate = has_agg

    expanded = []
    for item in select.items:
        if item.star:
            targets = [item.star_qualifier] if item.star_qualifier else info.from_order
            for alias in targets:
                operand = info.operands.get(alias)
                if operand is None:
                    raise CatalogError(f"unknown alias in star expansion: {alias}")
                for col in operand.schema.columns:
                    expanded.append((ast.ColumnRef(col.name, qualifier=alias), col.name))
        else:
            expanded.append((item.expr, item.output_name()))
    info.items = expanded

    if has_agg:
        info.group_refs = []
        for g in select.group_by:
            if not isinstance(g, ast.ColumnRef):
                raise OptimizerError("GROUP BY supports column references only")
            info.group_refs.append(g)
        group_keys = {resolver.resolve(g) for g in info.group_refs}
        for expr, name in expanded:
            if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
                arg = None
                if not expr.star:
                    if expr.name != "count" and not expr.args:
                        raise OptimizerError(f"{expr.name.upper()} needs an argument")
                    arg = expr.args[0] if expr.args else None
                info.agg_items.append(AggregateItem("agg", expr, name, func=expr.name, arg=arg))
            elif isinstance(expr, ast.ColumnRef):
                if resolver.resolve(expr) not in group_keys:
                    raise OptimizerError(
                        f"column {expr.to_sql()} must appear in GROUP BY"
                    )
                info.agg_items.append(AggregateItem("group", expr, name))
            elif not any(
                isinstance(node, ast.FuncCall) and node.is_aggregate for node in expr.walk()
            ) and all(resolver.resolve(ref) in group_keys for ref in expr.column_refs()):
                # An expression over grouping columns, evaluated per group.
                info.agg_items.append(AggregateItem("group", expr, name))
            else:
                raise OptimizerError(
                    "aggregation select items must be grouping columns, "
                    "expressions over them, or aggregates"
                )
        info.having = select.having

    info.order_by = list(select.order_by)
    if select.nested:
        info.subqueries = [
            node
            for expr in info.post_conjuncts + [e for e, _ in expanded] + [select.having]
            + [o.expr for o in select.order_by]
            if expr is not None
            for node in expr.walk()
            if isinstance(node, ast.Subquery)
        ]

    # ------------------------------------------------------------------
    # Needed columns per operand (for projection pushdown to remote SQL)
    # ------------------------------------------------------------------
    def note_refs(expr):
        if expr is None:
            return
        for ref in expr.column_refs():
            alias, column = resolver.resolve(ref)
            info.operands[alias].needed_columns.add(column)

    for expr, _ in expanded:
        note_refs(expr)
    for conjuncts_owner in info.operands.values():
        for conjunct in conjuncts_owner.conjuncts:
            note_refs(conjunct)
    for jc in info.join_conjuncts:
        info.operands[jc.left_alias].needed_columns.add(jc.left_column)
        info.operands[jc.right_alias].needed_columns.add(jc.right_column)
    for conjunct in info.residual_conjuncts:
        note_refs(conjunct)
    def note_refs_tolerant(expr):
        """HAVING and ORDER BY may reference select-list aliases (e.g. a
        named aggregate), which have no owning operand — skip those."""
        if expr is None:
            return
        for ref in expr.column_refs():
            try:
                alias, column = resolver.resolve(ref)
            except CatalogError:
                continue
            info.operands[alias].needed_columns.add(column)

    for g in info.group_refs:
        note_refs(g)
    note_refs_tolerant(info.having)
    for o in info.order_by:
        note_refs_tolerant(o.expr)

    # Subquery conjuncts may reference any column of any operand (their
    # inner refs are not resolvable here), so be conservative.
    if info.post_conjuncts:
        for operand in info.operands.values():
            operand.needed_columns.update(operand.schema.names())

    # An operand referenced nowhere still needs at least one column so a
    # remote fetch has something to SELECT.
    for operand in info.operands.values():
        if not operand.needed_columns:
            operand.needed_columns.add(operand.schema.columns[0].name)

    return info


def _is_equijoin(conjunct):
    return (
        isinstance(conjunct, ast.BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ast.ColumnRef)
        and isinstance(conjunct.right, ast.ColumnRef)
    )
