"""A restricted, serializable expression IR.

:func:`compile_expr` closures are opaque: they can be executed but not
shipped.  Plan snapshots (``repro.plan``) need the opposite — a compact,
versioned description of every compiled predicate that any fleet node can
re-compile locally without re-parsing SQL.  This module defines that
form: a tree of plain tuples whose leaves are positional column loads,
constants, and outer-row locators.

The IR is deliberately *restricted*: subqueries are not expressible (a
plan containing one ships whole as a RemoteQuery, which serializes as
SQL text), and anything else the compiler cannot translate raises
:class:`IRUnsupported` so callers can fall back gracefully.

Three consumers:

* :func:`from_ast` — built alongside the closure in ``compile_expr`` and
  attached as ``fn.ir``;
* :func:`compile_ir` — rebuilds the closure from the IR at snapshot
  instantiation time, with semantics identical to ``compile_expr`` (it
  reuses :func:`repro.engine.expressions._binary` for the three-valued
  comparison/arithmetic table);
* :func:`selection_fn` — the columnar engine's predicate codegen: emits
  one Python comprehension per filter (null-guarded, short-circuiting
  ``and``/``or``) mapping a column set + selection vector to the
  surviving row indexes.

Node forms (plain tuples, JSON-serializable via to_obj/from_obj)::

    ("const", value)                 ("col", position)
    ("outer", locator)               ("now",)
    ("param", slot)                  a plan template's bindable literal
    ("bin", op, left, right)         op: and or = <> < <= > >= + - * / %
    ("not", x)                       ("neg", x)
    ("isnull", x, negated)           ("between", x, lo, hi, negated)
    ("inlist", x, (items...), negated)
"""

from repro.common.errors import ExecutionError
from repro.engine.expressions import _binary
from repro.sql import ast


class IRUnsupported(ExecutionError):
    """The expression has no IR form (subquery, unknown function...)."""


_SCALARS = (bool, int, float, str)

_BIN_OPS = frozenset(
    ["and", "or", "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"]
)


# ----------------------------------------------------------------------
# AST -> IR
# ----------------------------------------------------------------------
def from_ast(expr, binding):
    """Translate an AST expression to IR, or raise :class:`IRUnsupported`."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        if value is not None and not isinstance(value, _SCALARS):
            raise IRUnsupported(f"non-scalar literal: {value!r}")
        return ("const", value)
    if isinstance(expr, ast.Param):
        return ("param", expr.slot)
    if isinstance(expr, ast.ColumnRef):
        locator = binding.resolve(expr)
        scope, pos = locator
        if scope == "local":
            return ("col", pos)
        return ("outer", pos)
    if isinstance(expr, ast.BinaryOp):
        if expr.op not in _BIN_OPS:
            raise IRUnsupported(f"binary operator {expr.op!r}")
        return ("bin", expr.op, from_ast(expr.left, binding), from_ast(expr.right, binding))
    if isinstance(expr, ast.UnaryOp):
        inner = from_ast(expr.operand, binding)
        if expr.op == "not":
            return ("not", inner)
        return ("neg", inner)
    if isinstance(expr, ast.IsNull):
        return ("isnull", from_ast(expr.operand, binding), bool(expr.negated))
    if isinstance(expr, ast.Between):
        return (
            "between",
            from_ast(expr.operand, binding),
            from_ast(expr.low, binding),
            from_ast(expr.high, binding),
            bool(expr.negated),
        )
    if isinstance(expr, ast.InList):
        return (
            "inlist",
            from_ast(expr.operand, binding),
            tuple(from_ast(i, binding) for i in expr.items),
            bool(expr.negated),
        )
    if isinstance(expr, ast.FuncCall):
        if expr.name == "getdate":
            return ("now",)
        raise IRUnsupported(f"function {expr.name!r}")
    raise IRUnsupported(f"no IR form for {type(expr).__name__}")


def const_ir(value):
    """IR for a plan-time constant (index-seek key values)."""
    if value is not None and not isinstance(value, _SCALARS):
        raise IRUnsupported(f"non-scalar constant: {value!r}")
    return ("const", value)


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------
def to_obj(node, params=None):
    """IR tuple tree -> nested lists (json.dumps-ready).  ``params`` is
    the cell ``("param", slot)`` nodes read; they are written out as the
    constants currently bound, so the serialized form stays const-only."""
    tag = node[0]
    if tag == "const":
        return ["const", node[1]]
    if tag == "param":
        return ["const", params[node[1]]]
    if tag == "col":
        return ["col", node[1]]
    if tag == "outer":
        return ["outer", _locator_obj(node[1])]
    if tag == "now":
        return ["now"]
    if tag == "inlist":
        return [
            "inlist", to_obj(node[1], params),
            [to_obj(i, params) for i in node[2]], node[3],
        ]
    out = [tag]
    for part in node[1:]:
        out.append(to_obj(part, params) if isinstance(part, tuple) else part)
    return out


def from_obj(obj):
    """Nested lists (json.loads output) -> IR tuple tree."""
    tag = obj[0]
    if tag in ("const", "col"):
        return (tag, obj[1])
    if tag == "outer":
        return ("outer", _locator_tuple(obj[1]))
    if tag == "now":
        return ("now",)
    if tag == "inlist":
        return ("inlist", from_obj(obj[1]), tuple(from_obj(i) for i in obj[2]), obj[3])
    parts = [tag]
    for part in obj[1:]:
        parts.append(from_obj(part) if isinstance(part, list) else part)
    return tuple(parts)


def _locator_obj(locator):
    scope, pos = locator
    return [scope, pos if scope == "local" else _locator_obj(pos)]


def _locator_tuple(obj):
    scope, pos = obj
    return (scope, pos if scope == "local" else _locator_tuple(pos))


# ----------------------------------------------------------------------
# IR -> closure (same dual-mode contract as compile_expr)
# ----------------------------------------------------------------------
def compile_ir(node, ctx=None, params=None):
    """Re-compile an IR tree into the ``fn(env)`` closure contract of
    :func:`repro.engine.expressions.compile_expr` (with ``row_fn`` /
    ``column_pos`` attached when the expression is local-only).  The
    rebuilt closure carries the IR back as ``fn.ir``, so a re-serialized
    snapshot round-trips bit-identically.  ``params`` is the cell that
    ``("param", slot)`` nodes read."""
    row_fn = _build(node, ctx, True, params)
    if row_fn is not None:

        def fn(env, _fn=row_fn):
            return _fn(env.row)

        fn.row_fn = row_fn
        pos = getattr(row_fn, "column_pos", None)
        if pos is not None:
            fn.column_pos = pos
    else:
        fn = _build(node, ctx, False, params)
    fn.ir = node
    if params is not None:
        fn.params = params
    return fn


def _build(node, ctx, row_mode, params):
    tag = node[0]
    if tag == "const":
        value = node[1]
        return lambda _: value
    if tag == "param":
        slot = node[1]
        return lambda _: params[slot]
    if tag == "col":
        pos = node[1]

        def column(row, _pos=pos):
            return row[_pos]

        if not row_mode:
            return lambda env: env.row[pos]
        column.column_pos = pos
        return column
    if tag == "outer":
        if row_mode:
            return None
        locator = ("outer", node[1])
        return lambda env: env.fetch(locator)
    if tag == "now":
        if ctx is None:
            raise ExecutionError("GETDATE() in IR without an expression context")
        return lambda _: ctx.now()
    if tag == "bin":
        left = _build(node[2], ctx, row_mode, params)
        right = _build(node[3], ctx, row_mode, params)
        if left is None or right is None:
            return None
        return _binary(node[1], left, right)
    if tag == "not":
        inner = _build(node[1], ctx, row_mode, params)
        if inner is None:
            return None

        def _not(arg):
            v = inner(arg)
            return None if v is None else (not v)

        return _not
    if tag == "neg":
        inner = _build(node[1], ctx, row_mode, params)
        if inner is None:
            return None
        return lambda arg: None if (v := inner(arg)) is None else -v
    if tag == "isnull":
        inner = _build(node[1], ctx, row_mode, params)
        if inner is None:
            return None
        if node[2]:
            return lambda arg: inner(arg) is not None
        return lambda arg: inner(arg) is None
    if tag == "between":
        operand = _build(node[1], ctx, row_mode, params)
        low = _build(node[2], ctx, row_mode, params)
        high = _build(node[3], ctx, row_mode, params)
        if operand is None or low is None or high is None:
            return None
        negated = node[4]

        def _between(arg):
            v = operand(arg)
            lo = low(arg)
            hi = high(arg)
            if v is None or lo is None or hi is None:
                return None
            result = lo <= v <= hi
            return (not result) if negated else result

        return _between
    if tag == "inlist":
        operand = _build(node[1], ctx, row_mode, params)
        items = [_build(i, ctx, row_mode, params) for i in node[2]]
        if operand is None or any(i is None for i in items):
            return None
        negated = node[3]

        def _in(arg):
            v = operand(arg)
            if v is None:
                return None
            result = any(item(arg) == v for item in items)
            return (not result) if negated else result

        return _in
    raise ExecutionError(f"unknown IR node: {tag!r}")


# ----------------------------------------------------------------------
# Columnar predicate codegen
# ----------------------------------------------------------------------
class _ColumnarUnsupported(Exception):
    """Internal: this IR shape has no columnar form (fall back to rows)."""


class _Gen:
    """Emit a null-guarded boolean Python expression over row index ``i``.

    SQL qualification semantics collapse three-valued logic to two:
    ``is_true`` keeps a row only when the predicate is TRUE (NULL filters
    like FALSE), and ``NOT x`` becomes ``is_false(x)`` — De Morgan over
    the guarded comparison forms.  Constants are passed through the exec
    namespace (never repr-injected), so any comparable Python value the
    row engine accepts works here too.  A ``("param", slot)`` reads
    ``_p[slot]``, the kernel's fourth argument (never NULL: bindable
    literals are NUMBER/STRING tokens).
    """

    def __init__(self):
        self.namespace = {}
        self._n_const = 0
        self._n_tmp = 0
        self.col_vars = {}  # position -> local variable name

    def _const(self, value):
        name = f"_k{self._n_const}"
        self._n_const += 1
        self.namespace[name] = value
        return name

    def _col(self, pos):
        name = self.col_vars.get(pos)
        if name is None:
            name = self.col_vars[pos] = f"_c{pos}"
        return name

    def value(self, node):
        """Return (guard, expr): ``guard`` is a boolean source string that
        is true iff the value is non-NULL (None when statically non-null,
        "False" when statically NULL)."""
        tag = node[0]
        if tag == "const":
            if node[1] is None:
                return "False", "None"
            return None, self._const(node[1])
        if tag == "param":
            return None, f"_p[{node[1]}]"
        if tag == "col":
            col = self._col(node[1])
            tmp = f"_t{self._n_tmp}"
            self._n_tmp += 1
            return f"({tmp} := {col}[i]) is not None", tmp
        if tag == "neg":
            guard, expr = self.value(node[1])
            return guard, f"(-{expr})"
        if tag == "bin" and node[1] in ("+", "-", "*", "/", "%"):
            lg, lv = self.value(node[2])
            rg, rv = self.value(node[3])
            guard = _conj(lg, rg)
            return guard, f"({lv} {node[1]} {rv})"
        raise _ColumnarUnsupported(tag)

    def is_true(self, node):
        tag = node[0]
        if tag == "bin":
            op = node[1]
            if op == "and":
                return f"({self.is_true(node[2])} and {self.is_true(node[3])})"
            if op == "or":
                return f"({self.is_true(node[2])} or {self.is_true(node[3])})"
            return self._cmp(node, negate=False)
        if tag == "not":
            return self.is_false(node[1])
        if tag == "isnull":
            return self._isnull(node, negate=False)
        if tag == "between":
            return self.is_true(_lower_between(node))
        if tag == "inlist":
            return self._inlist(node, negate=False)
        if tag == "const":
            return "True" if node[1] else "False"
        raise _ColumnarUnsupported(tag)

    def is_false(self, node):
        tag = node[0]
        if tag == "bin":
            op = node[1]
            if op == "and":
                return f"({self.is_false(node[2])} or {self.is_false(node[3])})"
            if op == "or":
                return f"({self.is_false(node[2])} and {self.is_false(node[3])})"
            return self._cmp(node, negate=True)
        if tag == "not":
            return self.is_true(node[1])
        if tag == "isnull":
            return self._isnull(node, negate=True)
        if tag == "between":
            return self.is_false(_lower_between(node))
        if tag == "inlist":
            return self._inlist(node, negate=True)
        if tag == "const":
            return "False" if (node[1] or node[1] is None) else "True"
        raise _ColumnarUnsupported(tag)

    _PY_CMP = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

    def _cmp(self, node, negate):
        op = self._PY_CMP.get(node[1])
        if op is None:
            raise _ColumnarUnsupported(node[1])
        lg, lv = self.value(node[2])
        rg, rv = self.value(node[3])
        guard = _conj(lg, rg)
        cmp_expr = f"{lv} {op} {rv}"
        if negate:
            cmp_expr = f"not ({cmp_expr})"
        if guard is None:
            return f"({cmp_expr})"
        return f"({guard} and ({cmp_expr}))"

    def _isnull(self, node, negate):
        guard, _ = self.value(node[1])
        # IS [NOT] NULL is two-valued; negate flips is_true <-> is_false.
        want_null = not node[2]
        if negate:
            want_null = not want_null
        if guard is None:
            return "False" if want_null else "True"
        if guard == "False":
            return "True" if want_null else "False"
        return f"(not ({guard}))" if want_null else f"({guard})"

    def _inlist(self, node, negate):
        _, items, negated = node[1], node[2], node[3]
        if any(i[0] not in ("const", "param") for i in items):
            raise _ColumnarUnsupported("inlist with non-constant items")
        values = [i[1] for i in items if i[0] == "const"]
        has_null = any(v is None for v in values)
        guard, expr = self.value(node[1])
        if len(values) == len(items):
            try:
                members = set(v for v in values if v is not None)
            except TypeError:
                raise _ColumnarUnsupported("unhashable IN-list item") from None
            set_name = self._const(members)
        else:
            # Bindable items are only known per execution: a tuple display.
            parts = [self.value(i)[1] for i in items if i[1] is not None]
            set_name = "(" + "".join(f"{part}, " for part in parts) + ")"
        inside = f"{expr} in {set_name}"
        # Truth table of x IN (...) under SQL nulls: TRUE iff x matches a
        # non-null item; FALSE iff x is non-null, matches nothing, and the
        # list has no NULL (a NULL item makes the miss UNKNOWN).
        want_true = negated if negate else not negated
        if want_true:
            body = inside
        else:
            if has_null:
                return "False"
            body = f"{expr} not in {set_name}"
        if guard is None:
            return f"({body})"
        if guard == "False":
            return "False"
        return f"({guard} and ({body}))"


def _conj(*guards):
    parts = [g for g in guards if g is not None]
    if "False" in parts:
        return "False"
    return " and ".join(parts) if parts else None


def _lower_between(node):
    _, operand, low, high, negated = node
    lowered = ("bin", "and", ("bin", ">=", operand, low), ("bin", "<=", operand, high))
    return ("not", lowered) if negated else lowered


_SELECTION_CACHE = {}


def selection_fn(node):
    """Compile an IR predicate to ``fn(columns, sel, n, params=None) ->
    sel'`` — the columnar filter kernel — or return None when the IR (or
    the lack of one) forces the row fallback.  Compiled kernels are cached
    per IR; ``params`` is the cell of a predicate that has ``("param",
    slot)`` nodes (``predicate.params``)."""
    if node is None:
        return None
    try:
        cached = _SELECTION_CACHE.get(node, False)
    except TypeError:
        cached = False  # unhashable constant somewhere: compile uncached
    if cached is not False:
        return cached
    fn = _compile_selection(node)
    try:
        _SELECTION_CACHE[node] = fn
    except TypeError:
        pass
    return fn


def _compile_selection(node):
    gen = _Gen()
    try:
        test = gen.is_true(node)
    except _ColumnarUnsupported:
        return None
    binds = "".join(
        f"    {var} = columns[{pos}]\n" for pos, var in sorted(gen.col_vars.items())
    )
    source = (
        "def _selection(columns, sel, n, _p=None):\n"
        f"{binds}"
        "    if sel is None:\n"
        f"        return [i for i in range(n) if {test}]\n"
        f"    return [i for i in sel if {test}]\n"
    )
    namespace = dict(gen.namespace)
    exec(compile(source, "<columnar-filter>", "exec"), namespace)  # noqa: S102
    fn = namespace["_selection"]
    fn.source = source
    return fn
