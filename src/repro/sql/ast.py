"""Abstract syntax trees for the SQL subset, including the CURRENCY clause.

Every node knows how to render itself back to SQL (``to_sql``).  This is not
just a debugging aid: MTCache ships the remote branches of its plans to the
back-end server as SQL text, so faithful round-tripping is part of the
execution path.
"""

import re

from repro.common.errors import ParseError

#: Currency bound value meaning "any staleness is acceptable".
UNBOUNDED = float("inf")


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class for scalar expressions."""

    def to_sql(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_sql()})"

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(self.to_sql())

    def children(self):
        """Child expressions, for generic tree walks."""
        return ()

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def column_refs(self):
        """All ColumnRef nodes in this expression."""
        return [n for n in self.walk() if isinstance(n, ColumnRef)]

    def map(self, fn):
        """A copy of this node with ``fn`` applied to each child
        expression; a leaf is its own copy."""
        return self


class Literal(Expr):
    def __init__(self, value, slot=None):
        self.value = value
        #: Index of the NUMBER/STRING token this literal was parsed from,
        #: among the statement's literals (``fingerprint(sql)[1][slot]``);
        #: None for NULL/TRUE/FALSE and literals built in code.
        self.slot = slot

    def __eq__(self, other):
        if type(other) is not Literal:
            return NotImplemented  # a Param gets to refuse the comparison
        return self.value == other.value

    __hash__ = Expr.__hash__

    def to_sql(self):
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


class ParamRead(Exception):
    """Plan-time code read the value of a :class:`Param`.

    The plan being compiled would have baked that value in, so it cannot
    be shared across bindings: the template build catches this, pins
    ``slot`` to its exact value and compiles again.
    """

    def __init__(self, slot, params=None):
        super().__init__(f"plan-time read of parameter ?{slot}")
        self.slot = slot
        #: The cell the read parameter belongs to.
        self.params = params


class Params(list):
    """The parameter cell of one plan template: the literal values, by
    slot, of the statement the template is running.  Compiled closures
    read it on every row, binding a statement overwrites it in place.
    ``classes`` maps each slot plan-time code classified
    (:meth:`Param.classify`) to the classifying function, ``groups`` each
    tuple of slots classified as one set (:func:`classify_set`) to its.

    ``opaque`` holds the slots no plan may be keyed on, not even by
    pinning: a compiled subquery's correlated references, whose values
    change per outer row.  Plan-time code treats a conjunct that reads
    one as a plain residual."""

    opaque = frozenset()

    def __init__(self, values=()):
        super().__init__(values)
        self.classes = {}
        self.groups = {}


class Param(Expr):
    """A bindable literal: stands for ``params[slot]`` in a plan compiled
    once per statement shape.

    The value is *opaque* at plan time — ``value``, comparison, hashing,
    ordering, arithmetic and truth all raise :class:`ParamRead` — so the
    optimizer cannot choose a plan by it unnoticed.  The sanctioned
    consumers are expression compilation (a read of the cell per row),
    ``to_sql`` (a placeholder, filled in by :func:`render_params`) and
    :meth:`classify`.
    """

    def __init__(self, slot, params):
        self.slot = slot
        self.params = params

    def to_sql(self):
        return f"\x00{self.slot}\x00"

    def __repr__(self):
        return f"Param(?{self.slot})"

    def classify(self, fn):
        """``fn(value)`` for a plan decision that may depend on the value
        through ``fn`` alone (which shard a key lives on).  Recorded, so
        the template's key carries ``fn`` of the bound value and a binding
        of another class compiles its own plan."""
        self.params.classes[self.slot] = fn
        return fn(self.params[self.slot])

    def _read(self, *_):
        raise ParamRead(self.slot, self.params)

    value = property(_read)
    __hash__ = __bool__ = __neg__ = __int__ = __float__ = __index__ = _read
    __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _read
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _read
    __truediv__ = __rtruediv__ = __mod__ = __rmod__ = _read

    def __eq__(self, other):
        if other is self:
            return True
        raise ParamRead(self.slot, self.params)


def classify(value, fn):
    """``fn(value)`` for a plan-time constant that may be a :class:`Param`."""
    return value.classify(fn) if isinstance(value, Param) else fn(value)


def classify_set(values, fn):
    """``{fn(v) for v in values}`` for plan-time constants that may be
    Params, for a plan decision that depends on the *set* of classes only
    (the shards an IN-list spans).  The Params are recorded as one group,
    so the template's key carries the set of their classes: every order
    and multiplicity of the same classes binds one plan."""
    slots = tuple(value.slot for value in values if isinstance(value, Param))
    if not slots:
        return {fn(value) for value in values}
    params = next(value.params for value in values if isinstance(value, Param))
    params.groups[slots] = fn
    return {
        fn(params[value.slot] if isinstance(value, Param) else value)
        for value in values
    }


def params_of(expr):
    """The parameter cell of the bindable literals under ``expr``, or None."""
    if expr is not None:
        for node in expr.walk():
            if isinstance(node, Param):
                return node.params
    return None


_PLACEHOLDER_RE = re.compile("\x00([0-9]+)\x00")


def render_params(sql, params):
    """``sql`` with every :class:`Param` placeholder replaced by its
    current value, quoted as a literal."""
    return _PLACEHOLDER_RE.sub(
        lambda match: Literal(params[int(match.group(1))]).to_sql(), sql
    )


class ColumnRef(Expr):
    """A possibly qualified column reference, e.g. ``c.c_custkey``."""

    def __init__(self, name, qualifier=None):
        self.name = name.lower()
        self.qualifier = qualifier.lower() if qualifier else None

    def to_sql(self):
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    @property
    def full_name(self):
        return self.to_sql()


class BinaryOp(Expr):
    """Arithmetic, comparison and boolean binary operators."""

    COMPARISONS = frozenset(["=", "<>", "!=", "<", "<=", ">", ">="])
    BOOLEAN = frozenset(["and", "or"])
    ARITHMETIC = frozenset(["+", "-", "*", "/", "%"])

    def __init__(self, op, left, right):
        self.op = op.lower()
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def map(self, fn):
        return BinaryOp(self.op, fn(self.left), fn(self.right))

    def to_sql(self):
        op = self.op.upper() if self.op in self.BOOLEAN else self.op
        return f"({self.left.to_sql()} {op} {self.right.to_sql()})"


class UnaryOp(Expr):
    """NOT and unary minus."""

    def __init__(self, op, operand):
        self.op = op.lower()
        self.operand = operand

    def children(self):
        return (self.operand,)

    def map(self, fn):
        return UnaryOp(self.op, fn(self.operand))

    def to_sql(self):
        op = "NOT " if self.op == "not" else "-"
        return f"({op}{self.operand.to_sql()})"


class IsNull(Expr):
    def __init__(self, operand, negated=False):
        self.operand = operand
        self.negated = negated

    def children(self):
        return (self.operand,)

    def map(self, fn):
        return IsNull(fn(self.operand), self.negated)

    def to_sql(self):
        tail = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {tail})"


class Between(Expr):
    def __init__(self, operand, low, high, negated=False):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def children(self):
        return (self.operand, self.low, self.high)

    def map(self, fn):
        return Between(fn(self.operand), fn(self.low), fn(self.high), self.negated)

    def to_sql(self):
        neg = "NOT " if self.negated else ""
        return f"({self.operand.to_sql()} {neg}BETWEEN {self.low.to_sql()} AND {self.high.to_sql()})"


class InList(Expr):
    def __init__(self, operand, items, negated=False):
        self.operand = operand
        self.items = list(items)
        self.negated = negated

    def children(self):
        return tuple([self.operand] + self.items)

    def map(self, fn):
        return InList(fn(self.operand), [fn(item) for item in self.items], self.negated)

    def to_sql(self):
        neg = "NOT " if self.negated else ""
        inner = ", ".join(i.to_sql() for i in self.items)
        return f"({self.operand.to_sql()} {neg}IN ({inner}))"


class FuncCall(Expr):
    """Scalar and aggregate function calls (COUNT/SUM/AVG/MIN/MAX/GETDATE)."""

    AGGREGATES = frozenset(["count", "sum", "avg", "min", "max"])

    def __init__(self, name, args, star=False):
        self.name = name.lower()
        self.args = list(args)
        self.star = star  # COUNT(*)

    def children(self):
        return tuple(self.args)

    def map(self, fn):
        return FuncCall(self.name, [fn(arg) for arg in self.args], self.star)

    @property
    def is_aggregate(self):
        return self.name in self.AGGREGATES

    def to_sql(self):
        if self.star:
            return f"{self.name.upper()}(*)"
        inner = ", ".join(a.to_sql() for a in self.args)
        return f"{self.name.upper()}({inner})"


class Subquery(Expr):
    """A nested SELECT block used as an expression.  ``children`` never
    descends into ``select``: a walk of the enclosing expression sees the
    block's outer operand (IN), not its insides.  ``map`` copies the node
    and shares the block."""

    def __init__(self, select):
        self.select = select


class ExistsSubquery(Subquery):
    def __init__(self, select, negated=False):
        self.select = select
        self.negated = negated

    def map(self, fn):
        return ExistsSubquery(self.select, self.negated)

    def to_sql(self):
        neg = "NOT " if self.negated else ""
        return f"({neg}EXISTS ({self.select.to_sql()}))"


class InSubquery(Subquery):
    def __init__(self, operand, select, negated=False):
        self.operand = operand
        self.select = select
        self.negated = negated

    def children(self):
        return (self.operand,)

    def map(self, fn):
        return InSubquery(fn(self.operand), self.select, self.negated)

    def to_sql(self):
        neg = "NOT " if self.negated else ""
        return f"({self.operand.to_sql()} {neg}IN ({self.select.to_sql()}))"


class ScalarSubquery(Subquery):
    """``(SELECT …)`` as a value: NULL for no row, the one row's first
    column for one, an error for more."""

    def map(self, fn):
        return ScalarSubquery(self.select)

    def to_sql(self):
        return f"({self.select.to_sql()})"


# ----------------------------------------------------------------------
# Currency clause (the paper's §2 contribution)
# ----------------------------------------------------------------------
class CurrencySpec:
    """One triple of the currency clause:

    * ``bound`` — maximum staleness in seconds (``UNBOUNDED`` allowed);
    * ``targets`` — aliases of the inputs forming one consistency class;
    * ``by_columns`` — optional grouping columns splitting the class into
      per-group consistency groups (paper example: ``(R) BY R.isbn``).
    """

    def __init__(self, bound, targets, by_columns=()):
        if bound < 0:
            raise ParseError(f"currency bound must be non-negative, got {bound}")
        self.bound = float(bound)
        self.targets = [t.lower() for t in targets]
        self.by_columns = list(by_columns)

    def __eq__(self, other):
        return (
            isinstance(other, CurrencySpec)
            and self.bound == other.bound
            and self.targets == other.targets
            and self.by_columns == other.by_columns
        )

    def to_sql(self):
        if self.bound == UNBOUNDED:
            head = "UNBOUNDED"
        elif self.bound == int(self.bound):
            head = f"{int(self.bound)} SEC"
        else:
            head = f"{self.bound} SEC"
        clause = f"{head} ON ({', '.join(self.targets)})"
        if self.by_columns:
            clause += " BY " + ", ".join(c.to_sql() for c in self.by_columns)
        return clause

    def __repr__(self):
        return f"CurrencySpec({self.to_sql()})"


class CurrencyClause:
    """``CURRENCY BOUND spec, spec, ...`` attached to one SFW block."""

    def __init__(self, specs):
        self.specs = list(specs)

    def __eq__(self, other):
        return isinstance(other, CurrencyClause) and self.specs == other.specs

    def to_sql(self):
        return "CURRENCY BOUND " + ", ".join(s.to_sql() for s in self.specs)

    def __repr__(self):
        return f"CurrencyClause({self.to_sql()})"


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
class Statement:
    def to_sql(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_sql()})"


class SelectItem:
    """One item of the select list: an expression with an optional alias."""

    def __init__(self, expr, alias=None, star=False, star_qualifier=None):
        self.expr = expr
        self.alias = alias.lower() if alias else None
        self.star = star
        self.star_qualifier = star_qualifier.lower() if star_qualifier else None

    def to_sql(self):
        if self.star:
            return f"{self.star_qualifier}.*" if self.star_qualifier else "*"
        sql = self.expr.to_sql()
        if self.alias:
            sql += f" AS {self.alias}"
        return sql

    def output_name(self):
        """The column name this item produces in the result schema."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return self.expr.to_sql()

    def __repr__(self):
        return f"SelectItem({self.to_sql()})"


class FromTable:
    """A base table (or view) reference in the FROM clause."""

    def __init__(self, name, alias=None):
        self.name = name.lower()
        self.alias = (alias or name).lower()

    def to_sql(self):
        if self.alias != self.name:
            return f"{self.name} {self.alias}"
        return self.name

    def __repr__(self):
        return f"FromTable({self.to_sql()})"


class FromSubquery:
    """A derived table: ``(SELECT ...) alias``."""

    def __init__(self, select, alias):
        self.select = select
        self.alias = alias.lower()

    def to_sql(self):
        return f"({self.select.to_sql()}) {self.alias}"

    def __repr__(self):
        return f"FromSubquery({self.alias})"


class OrderItem:
    def __init__(self, expr, descending=False):
        self.expr = expr
        self.descending = descending

    def to_sql(self):
        return self.expr.to_sql() + (" DESC" if self.descending else "")


class Select(Statement):
    """A Select-From-Where block, optionally with a currency clause."""

    def __init__(
        self,
        items,
        from_items,
        where=None,
        group_by=None,
        having=None,
        order_by=None,
        distinct=False,
        currency=None,
        limit=None,
        nested=None,
    ):
        self.items = list(items)
        self.from_items = list(from_items)
        self.where = where
        self.group_by = list(group_by or [])
        self.having = having
        self.order_by = list(order_by or [])
        self.distinct = distinct
        self.currency = currency
        self.limit = limit
        #: Whether another block is nested in this one: a FROM-subquery, or
        #: a subquery anywhere in its clauses.  The parser knows; a block
        #: built in code is walked once.
        self.nested = self._nests() if nested is None else nested

    def _nests(self):
        exprs = [item.expr for item in self.items] + [self.where, self.having]
        exprs += self.group_by + [o.expr for o in self.order_by]
        return any(isinstance(item, FromSubquery) for item in self.from_items) or any(
            isinstance(node, Subquery)
            for expr in exprs if expr is not None
            for node in expr.walk()
        )

    def replace(self, **changes):
        """A copy of this block with some clauses replaced; the copy keeps
        ``nested``, so a replacement clause nests what the original did."""
        clauses = dict(
            items=self.items, from_items=self.from_items, where=self.where,
            group_by=self.group_by, having=self.having, order_by=self.order_by,
            distinct=self.distinct, currency=self.currency, limit=self.limit,
            nested=self.nested,
        )
        clauses.update(changes)
        return Select(**clauses)

    def to_sql(self):
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(i.to_sql() for i in self.items))
        parts.append("FROM")
        parts.append(", ".join(f.to_sql() for f in self.from_items))
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(g.to_sql() for g in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having.to_sql()}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.currency is not None:
            parts.append(self.currency.to_sql())
        return " ".join(parts)


class Insert(Statement):
    def __init__(self, table, columns, rows):
        self.table = table.lower()
        self.columns = [c.lower() for c in columns] if columns else None
        self.rows = [tuple(r) for r in rows]  # rows of Expr

    def to_sql(self):
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        values = ", ".join("(" + ", ".join(v.to_sql() for v in row) + ")" for row in self.rows)
        return f"INSERT INTO {self.table}{cols} VALUES {values}"


class Update(Statement):
    def __init__(self, table, assignments, where=None):
        self.table = table.lower()
        self.assignments = [(c.lower(), e) for c, e in assignments]
        self.where = where

    def to_sql(self):
        sets = ", ".join(f"{c} = {e.to_sql()}" for c, e in self.assignments)
        sql = f"UPDATE {self.table} SET {sets}"
        if self.where is not None:
            sql += f" WHERE {self.where.to_sql()}"
        return sql


class Delete(Statement):
    def __init__(self, table, where=None):
        self.table = table.lower()
        self.where = where

    def to_sql(self):
        sql = f"DELETE FROM {self.table}"
        if self.where is not None:
            sql += f" WHERE {self.where.to_sql()}"
        return sql


class ColumnDef:
    def __init__(self, name, type_name, nullable=True):
        self.name = name.lower()
        self.type_name = type_name.lower()
        self.nullable = nullable

    def to_sql(self):
        null = "" if self.nullable else " NOT NULL"
        return f"{self.name} {self.type_name.upper()}{null}"


class CreateTable(Statement):
    def __init__(self, name, columns, primary_key=None):
        self.name = name.lower()
        self.columns = list(columns)
        self.primary_key = [c.lower() for c in primary_key] if primary_key else None

    def to_sql(self):
        defs = [c.to_sql() for c in self.columns]
        if self.primary_key:
            defs.append(f"PRIMARY KEY ({', '.join(self.primary_key)})")
        return f"CREATE TABLE {self.name} ({', '.join(defs)})"


class CreateIndex(Statement):
    def __init__(self, name, table, columns, unique=False, clustered=False):
        self.name = name.lower()
        self.table = table.lower()
        self.columns = [c.lower() for c in columns]
        self.unique = unique
        self.clustered = clustered

    def to_sql(self):
        mods = ("UNIQUE " if self.unique else "") + ("CLUSTERED " if self.clustered else "")
        return f"CREATE {mods}INDEX {self.name} ON {self.table} ({', '.join(self.columns)})"


class CreateRegion(Statement):
    """CREATE CURRENCY REGION — cache-side DDL for a currency region."""

    def __init__(self, name, interval, delay, heartbeat=None):
        self.name = name.lower()
        self.interval = float(interval)
        self.delay = float(delay)
        self.heartbeat = float(heartbeat) if heartbeat is not None else None

    def to_sql(self):
        sql = (
            f"CREATE CURRENCY REGION {self.name} "
            f"INTERVAL {self.interval:g} SEC DELAY {self.delay:g} SEC"
        )
        if self.heartbeat is not None:
            sql += f" HEARTBEAT {self.heartbeat:g} SEC"
        return sql


class CreateMatview(Statement):
    """CREATE MATERIALIZED VIEW ... IN REGION r AS SELECT ...

    The defining select is restricted to a single-table
    projection/selection, as in the paper's prototype.
    """

    def __init__(self, name, region, select):
        self.name = name.lower()
        self.region = region.lower()
        self.select = select

    def to_sql(self):
        return (
            f"CREATE MATERIALIZED VIEW {self.name} IN REGION {self.region} "
            f"AS {self.select.to_sql()}"
        )


class Explain(Statement):
    """EXPLAIN [ANALYZE] <select>: return the chosen plan instead of (or,
    with ANALYZE, alongside actually) executing it."""

    def __init__(self, select, analyze=False, text=None):
        self.select = select
        self.analyze = analyze
        #: Source text of ``select`` (None when built in code): the plan
        #: cache is keyed on statement text, so EXPLAIN needs it to show
        #: the plan that executing the statement would run.
        self.text = text

    def to_sql(self):
        keyword = "EXPLAIN ANALYZE" if self.analyze else "EXPLAIN"
        return f"{keyword} {self.select.to_sql()}"


class BeginTimeordered(Statement):
    def to_sql(self):
        return "BEGIN TIMEORDERED"


class EndTimeordered(Statement):
    def to_sql(self):
        return "END TIMEORDERED"
