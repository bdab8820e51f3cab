"""Compilation of AST expressions to row-evaluator closures.

Operators exchange plain tuples; a :class:`RowBinding` describes which
(qualifier, name) pair each tuple position holds, so :func:`compile_expr`
can resolve column references to positions once, at plan build time, rather
than per row.

Compilation is dual-mode, in service of the batch execution engine:

* **row mode** — when an expression only references local columns (no
  correlated outer references, no subqueries), it compiles to a closure
  ``fn(row) -> value`` over the bare tuple.  Batch operators evaluate
  these over whole chunks without allocating a per-row environment; the
  compiled callable exposes the variant as ``fn.row_fn``.  A bare local
  column reference additionally exposes ``fn.column_pos`` so projections
  can collapse to tuple re-ordering.
* **env mode** — correlated or subquery-bearing expressions compile to
  ``fn(env)`` over an :class:`_Env` (the local row plus the outer row
  chain), exactly as the row-at-a-time engine always worked.

Correlated subqueries (EXISTS / IN (SELECT …)) are supported through the
:class:`ExpressionContext`'s ``subquery_runner`` callback: the engine that
owns the plan supplies a function that executes a Select AST given the
current outer row environment.  This keeps the expression layer independent
of the planner.
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

    def __init__(self, columns, outer=None):
        self.columns = list(columns)
        #: Optional enclosing binding for correlated subqueries.  Positions
        #: resolved against the outer binding are returned as ("outer", pos).
        self.outer = outer
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
        """Return ("local", position) or ("outer", locator) for a ColumnRef."""
        by_qualified, by_name = self._index or self._build_index()
        if ref.qualifier is None:
            matches = by_name.get(ref.name, ())
        else:
            matches = by_qualified.get((ref.qualifier, ref.name), ())
        if len(matches) == 1:
            return ("local", matches[0])
        if len(matches) > 1:
            raise ExecutionError(f"ambiguous column reference: {ref.to_sql()}")
        if self.outer is not None:
            return ("outer", self.outer.resolve(ref))
        raise ExecutionError(
            f"unresolved column reference: {ref.to_sql()} (have {self.columns})"
        )

    def concat(self, other):
        """Binding for the concatenation of two rows (joins)."""
        return RowBinding(self.columns + other.columns, outer=self.outer)

    def __repr__(self):
        return f"RowBinding({self.columns})"


class ExpressionContext:
    """Run-time services expressions may need."""

    def __init__(self, clock=None, subquery_runner=None):
        self.clock = clock
        self.subquery_runner = subquery_runner

    def now(self):
        if self.clock is None:
            raise ExecutionError("GETDATE() used without a clock in context")
        return self.clock.now()


class _Env:
    """Run-time row environment: the local row plus optional outer env."""

    __slots__ = ("row", "outer")

    def __init__(self, row, outer=None):
        self.row = row
        self.outer = outer

    def fetch(self, locator):
        scope, pos = locator
        if scope == "local":
            return self.row[pos]
        if self.outer is None:
            raise ExecutionError("correlated reference with no outer row")
        return self.outer.fetch(pos)


def compile_expr(expr, binding, ctx=None):
    """Compile ``expr`` into a callable ``fn(env) -> value``.

    ``env`` is an :class:`_Env`; most callers use :func:`evaluator`, which
    wraps the closure to accept a bare row tuple.  When the expression is
    non-correlated and subquery-free, the returned callable carries a
    ``row_fn`` attribute — the row-mode variant ``fn(row) -> value`` the
    engine evaluates without building environments.
    """
    ctx = ctx or ExpressionContext()
    row_fn = _compile(expr, binding, ctx, row_mode=True)
    if row_fn is not None:

        def fn(env, _fn=row_fn):
            return _fn(env.row)

        fn.row_fn = row_fn
        pos = getattr(row_fn, "column_pos", None)
        if pos is not None:
            fn.column_pos = pos
    else:
        fn = _compile(expr, binding, ctx, row_mode=False)
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


def row_fn_of(fn):
    """The row-mode variant of a compiled expression, or None."""
    return getattr(fn, "row_fn", None)


def row_fns_of(fns):
    """Row-mode variants for a list of compiled fns, or None if any is
    env-only (the caller then falls back to the environment path)."""
    out = [getattr(fn, "row_fn", None) for fn in fns]
    if all(f is not None for f in out):
        return out
    return None


def _compile(expr, binding, ctx, row_mode):
    """Recursive compiler shared by both modes.

    In row mode the produced closures take a bare row tuple and the
    function returns None whenever the expression needs an environment
    (outer references, subqueries); in env mode it always succeeds.
    """

    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda _: value

    if isinstance(expr, ast.Param):
        params, slot = expr.params, expr.slot
        return lambda _: params[slot]

    if isinstance(expr, ast.ColumnRef):
        locator = binding.resolve(expr)
        if row_mode:
            scope, pos = locator
            if scope != "local":
                return None

            def column(row, _pos=pos):
                return row[_pos]

            column.column_pos = pos
            return column
        return lambda env: env.fetch(locator)

    if isinstance(expr, ast.BinaryOp):
        left = _compile(expr.left, binding, ctx, row_mode)
        right = _compile(expr.right, binding, ctx, row_mode)
        if left is None or right is None:
            return None
        return _binary(expr.op, left, right)

    if isinstance(expr, ast.UnaryOp):
        operand = _compile(expr.operand, binding, ctx, row_mode)
        if operand is None:
            return None
        if expr.op == "not":
            def _not(arg):
                v = operand(arg)
                return None if v is None else (not v)

            return _not
        return lambda arg: None if operand(arg) is None else -operand(arg)

    if isinstance(expr, ast.IsNull):
        operand = _compile(expr.operand, binding, ctx, row_mode)
        if operand is None:
            return None
        if expr.negated:
            return lambda arg: operand(arg) is not None
        return lambda arg: operand(arg) is None

    if isinstance(expr, ast.Between):
        operand = _compile(expr.operand, binding, ctx, row_mode)
        low = _compile(expr.low, binding, ctx, row_mode)
        high = _compile(expr.high, binding, ctx, row_mode)
        if operand is None or low is None or high is None:
            return None
        negated = expr.negated

        def _between(arg):
            v = operand(arg)
            lo = low(arg)
            hi = high(arg)
            if v is None or lo is None or hi is None:
                return None
            result = lo <= v <= hi
            return (not result) if negated else result

        return _between

    if isinstance(expr, ast.InList):
        operand = _compile(expr.operand, binding, ctx, row_mode)
        items = [_compile(i, binding, ctx, row_mode) for i in expr.items]
        if operand is None or any(i is None for i in items):
            return None
        return _in_list(operand, items, expr.negated)

    if isinstance(expr, ast.FuncCall):
        return _compile_func(expr, ctx)

    if isinstance(expr, ast.ExistsSubquery):
        if row_mode:
            return None  # subqueries need the environment chain
        if ctx.subquery_runner is None:
            raise ExecutionError("subqueries are not available in this context")
        select = expr.select
        negated = expr.negated
        runner = ctx.subquery_runner

        def _exists(env):
            # The runner receives the outer binding so correlated references
            # inside the subquery can be compiled against it.
            rows = runner(select, binding, env)
            found = any(True for _ in rows)
            return (not found) if negated else found

        return _exists

    if isinstance(expr, ast.InSubquery):
        if row_mode:
            return None
        if ctx.subquery_runner is None:
            raise ExecutionError("subqueries are not available in this context")
        operand = _compile(expr.operand, binding, ctx, row_mode=False)
        select = expr.select
        negated = expr.negated
        runner = ctx.subquery_runner

        def _in_subquery(env):
            v = operand(env)
            rows = runner(select, binding, env)
            if v is None:
                # NULL [NOT] IN (<empty>) is FALSE [TRUE]; else unknown.
                if next(iter(rows), None) is None:
                    return bool(negated)
                return None
            found = False
            saw_null = False
            for row in rows:
                if row[0] is None:
                    saw_null = True
                elif row[0] == v:
                    found = True
                    break
            if found:
                return False if negated else True
            if saw_null:
                return None  # three-valued IN: unknown, filtered by WHERE
            return True if negated else False

        return _in_subquery

    raise ExecutionError(f"cannot compile expression: {expr!r}")


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


def _binary(op, left, right):
    """Combinators are mode-agnostic: they only ever call their children
    with whatever single argument (env or row) the mode supplies."""
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
        "/": lambda l, r: l / r,
        "%": lambda l, r: l % r,
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


def evaluator(expr, binding, ctx=None):
    """Compile ``expr`` and wrap it to accept a bare row tuple."""
    fn = compile_expr(expr, binding, ctx)
    row_fn = getattr(fn, "row_fn", None)
    if row_fn is not None:
        return row_fn
    return lambda row: fn(_Env(row))


def make_env(row, outer=None):
    """Public constructor for row environments (used by join operators and
    subquery runners)."""
    return _Env(row, outer)
