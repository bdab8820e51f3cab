"""Compilation of AST expressions to row-evaluator closures.

Operators exchange plain tuples; a :class:`RowBinding` describes which
(qualifier, name) pair each tuple position holds, so :func:`compile_expr`
can resolve column references to positions once, at plan build time, rather
than per row.  Every compiled expression is a plain ``fn(row) -> value``
over the bare tuple; a bare column reference also exposes
``fn.column_pos``, so projections can collapse to tuple re-ordering.

A subquery (``EXISTS``, ``IN (SELECT …)``, a scalar ``(SELECT …)``)
compiles through the :class:`ExpressionContext`'s ``subqueries`` hook:
the planner hands back the block compiled once, its correlated outer
references rewritten into the slots of a :class:`~repro.sql.ast.Params`
cell.  Per row, the expression evaluates those references against the
row, and the compiled block runs with them bound.  This keeps the
expression layer independent of the planner.
"""

from repro.common.errors import ExecutionError
from repro.sql import ast


class OutputCol:
    """One column of an operator's output: an optional qualifier + name."""

    __slots__ = ("qualifier", "name")

    def __init__(self, name, qualifier=None):
        self.name = name.lower()
        self.qualifier = qualifier.lower() if qualifier else None

    def matches(self, ref):
        """Does this output column match a ColumnRef?"""
        if ref.name != self.name:
            return False
        return ref.qualifier is None or ref.qualifier == self.qualifier

    def __eq__(self, other):
        return (
            isinstance(other, OutputCol)
            and self.name == other.name
            and self.qualifier == other.qualifier
        )

    def __repr__(self):
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


class RowBinding:
    """Resolves column references against an ordered list of OutputCols.

    Resolution is dict-based: a ``(qualifier, name)`` index is built once
    per binding (lazily, on first resolve) so each reference costs one
    hash lookup instead of a scan over all columns — compile time used to
    be quadratic in column count for wide join bindings.
    """

    def __init__(self, columns):
        self.columns = list(columns)
        self._index = None  # lazily built lookup tables

    def __len__(self):
        return len(self.columns)

    def _build_index(self):
        by_qualified = {}  # (qualifier, name) -> [positions]
        by_name = {}  # name -> [positions], any qualifier
        for position, col in enumerate(self.columns):
            by_name.setdefault(col.name, []).append(position)
            by_qualified.setdefault((col.qualifier, col.name), []).append(position)
        self._index = (by_qualified, by_name)
        return self._index

    def resolve(self, ref):
        """The row position a ColumnRef reads."""
        by_qualified, by_name = self._index or self._build_index()
        if ref.qualifier is None:
            matches = by_name.get(ref.name, ())
        else:
            matches = by_qualified.get((ref.qualifier, ref.name), ())
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise ExecutionError(f"ambiguous column reference: {ref.to_sql()}")
        raise ExecutionError(
            f"unresolved column reference: {ref.to_sql()} (have {self.columns})"
        )

    def concat(self, other):
        """Binding for the concatenation of two rows (joins)."""
        return RowBinding(self.columns + other.columns)

    def __repr__(self):
        return f"RowBinding({self.columns})"


class ExpressionContext:
    """Plan-time services expressions may need: the clock GETDATE()
    reads, and ``subqueries(select)``, the planner's hook that compiles a
    nested block (None where subqueries are not available)."""

    def __init__(self, clock=None, subqueries=None):
        self.clock = clock
        self.subqueries = subqueries

    def now(self):
        if self.clock is None:
            raise ExecutionError("GETDATE() used without a clock in context")
        return self.clock.now()


def compile_expr(expr, binding, ctx=None):
    """Compile ``expr`` into a callable ``fn(row) -> value``.

    The callable carries ``ir`` — its serializable IR, None for an
    expression without one (a subquery) — and, when it reads bindable
    literals, ``params``, the cell they read.
    """
    fn = _compile(expr, binding, ctx or ExpressionContext())
    fn.ir = _ir_of(expr, binding)
    params = ast.params_of(expr)
    if params is not None:
        #: The cell the IR's ("param", slot) nodes read (plan templates).
        fn.params = params
    return fn


def _ir_of(expr, binding):
    """Serializable IR for a compiled expression, or None when it has no
    IR form (subqueries; plans holding such closures cannot snapshot)."""
    from repro.engine import ir as _ir  # local: ir imports _binary from here

    try:
        return _ir.from_ast(expr, binding)
    except Exception:
        return None


def _compile(expr, binding, ctx):
    """Recursive compiler: every closure takes the bare row tuple."""

    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda _: value

    if isinstance(expr, ast.Param):
        params, slot = expr.params, expr.slot
        return lambda _: params[slot]

    if isinstance(expr, ast.ColumnRef):
        pos = binding.resolve(expr)

        def column(row, _pos=pos):
            return row[_pos]

        column.column_pos = pos
        return column

    if isinstance(expr, ast.BinaryOp):
        return _binary(
            expr.op, _compile(expr.left, binding, ctx), _compile(expr.right, binding, ctx)
        )

    if isinstance(expr, ast.UnaryOp):
        operand = _compile(expr.operand, binding, ctx)
        if expr.op == "not":
            def _not(row):
                v = operand(row)
                return None if v is None else (not v)

            return _not
        return lambda row: None if (v := operand(row)) is None else -v

    if isinstance(expr, ast.IsNull):
        operand = _compile(expr.operand, binding, ctx)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    if isinstance(expr, ast.Between):
        operand = _compile(expr.operand, binding, ctx)
        low = _compile(expr.low, binding, ctx)
        high = _compile(expr.high, binding, ctx)
        negated = expr.negated

        def _between(row):
            v = operand(row)
            lo = low(row)
            hi = high(row)
            if v is None or lo is None or hi is None:
                return None
            result = lo <= v <= hi
            return (not result) if negated else result

        return _between

    if isinstance(expr, ast.InList):
        operand = _compile(expr.operand, binding, ctx)
        items = [_compile(i, binding, ctx) for i in expr.items]
        return _in_list(operand, items, expr.negated)

    if isinstance(expr, ast.FuncCall):
        return _compile_func(expr, ctx)

    if isinstance(expr, ast.Subquery):
        return _compile_subquery(expr, binding, ctx)

    raise ExecutionError(f"cannot compile expression: {expr!r}")


def _compile_subquery(expr, binding, ctx):
    """A subquery over the block the planner compiled once: per row, its
    correlated outer references are read from ``row`` and the block runs
    with them bound (``block.rows(values, limit)``)."""
    if ctx.subqueries is None:
        raise ExecutionError("subqueries are not available in this context")
    block = ctx.subqueries(expr.select)
    outer = [_compile(ref, binding, ctx) for ref in block.outer_refs]
    run = block.rows

    def values(row):
        return [fn(row) for fn in outer]

    if isinstance(expr, ast.ExistsSubquery):
        negated = expr.negated
        return lambda row: bool(run(values(row), 1)) != negated

    if isinstance(expr, ast.ScalarSubquery):
        def _scalar(row):
            rows = run(values(row), 2)
            if len(rows) > 1:
                raise ExecutionError("scalar subquery returned more than one row")
            return rows[0][0] if rows else None

        return _scalar

    operand = _compile(expr.operand, binding, ctx)
    negated = expr.negated

    def _in_subquery(row):
        v = operand(row)
        rows = run(values(row))
        if v is None:
            # NULL [NOT] IN (<empty>) is FALSE [TRUE]; else unknown.
            return bool(negated) if not rows else None
        saw_null = False
        for inner in rows:
            if inner[0] is None:
                saw_null = True
            elif inner[0] == v:
                return not negated
        if saw_null:
            return None  # three-valued IN: unknown, filtered by WHERE
        return bool(negated)

    return _in_subquery


def _in_list(operand, items, negated):
    """``x [NOT] IN (items)`` under SQL nulls, shared with the IR compiler:
    TRUE iff x matches an item; UNKNOWN if x is NULL, or if it matches
    nothing and some item is NULL; FALSE otherwise (NOT flips TRUE/FALSE)."""

    def _in(arg):
        v = operand(arg)
        if v is None:
            return None
        saw_null = False
        for item in items:
            w = item(arg)
            if w is None:
                saw_null = True
            elif w == v:
                return not negated
        return None if saw_null else negated

    return _in


def _sql_div(l, r):
    """SQL ``/``: true division; a zero divisor is an ExecutionError."""
    try:
        return l / r
    except ZeroDivisionError:
        raise ExecutionError("division by zero") from None


def _sql_mod(l, r):
    """SQL ``%``: the remainder takes the dividend's sign (``-7 % 3`` is
    -1; Python's ``%`` takes the divisor's); a zero divisor is an
    ExecutionError."""
    try:
        m = l % r
    except ZeroDivisionError:
        raise ExecutionError("division by zero") from None
    return m - r if m and (m < 0) != (l < 0) else m


def _binary(op, left, right):
    """The closure for ``left <op> right`` under SQL nulls; ``left`` and
    ``right`` are compiled operands of one argument."""
    if op == "and":
        def _and(arg):
            l = left(arg)
            if l is False:
                return False
            r = right(arg)
            if r is False:
                return False
            if l is None or r is None:
                return None
            return True

        return _and
    if op == "or":
        def _or(arg):
            l = left(arg)
            if l is True:
                return True
            r = right(arg)
            if r is True:
                return True
            if l is None or r is None:
                return None
            return False

        return _or

    def _null_guard(fn):
        def wrapped(arg):
            l = left(arg)
            r = right(arg)
            if l is None or r is None:
                return None
            return fn(l, r)

        return wrapped

    table = {
        "=": lambda l, r: l == r,
        "<>": lambda l, r: l != r,
        "<": lambda l, r: l < r,
        "<=": lambda l, r: l <= r,
        ">": lambda l, r: l > r,
        ">=": lambda l, r: l >= r,
        "+": lambda l, r: l + r,
        "-": lambda l, r: l - r,
        "*": lambda l, r: l * r,
        "/": _sql_div,
        "%": _sql_mod,
    }
    try:
        return _null_guard(table[op])
    except KeyError:
        raise ExecutionError(f"unsupported binary operator: {op}") from None


def _compile_func(expr, ctx):
    name = expr.name
    if name == "getdate":
        return lambda _: ctx.now()
    if expr.is_aggregate:
        raise ExecutionError(
            f"aggregate {name.upper()} outside of an aggregation operator"
        )
    raise ExecutionError(f"unknown function: {name}")
