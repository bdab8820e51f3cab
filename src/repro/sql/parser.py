"""Recursive-descent parser for the SQL subset plus the CURRENCY clause.

Grammar highlights (see the paper's §2 for the currency clause design):

.. code-block:: text

    select        := SELECT [DISTINCT] items FROM from_list [WHERE expr]
                     [GROUP BY exprs] [HAVING expr] [ORDER BY order_items]
                     [LIMIT n] [currency_clause]
    currency      := CURRENCY BOUND spec (',' spec)*
    spec          := duration ON '(' ident (',' ident)* ')' [BY colrefs]
    duration      := NUMBER [unit] | UNBOUNDED
    unit          := MS|SEC|SECOND(S)|MIN|MINUTE(S)|HOUR(S)|DAY(S)

The FROM clause accepts comma joins, ``[INNER] JOIN ... ON`` and derived
tables ``(SELECT ...) alias``.  JOIN/ON pairs are normalized into the from
list plus conjuncts in WHERE, which is the form the optimizer consumes.
"""

from repro.common.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import Lexer, TokenType

#: duration-unit -> seconds multiplier
_UNITS = {
    "ms": 0.001,
    "sec": 1.0,
    "second": 1.0,
    "seconds": 1.0,
    "min": 60.0,
    "minute": 60.0,
    "minutes": 60.0,
    "hour": 3600.0,
    "hours": 3600.0,
    "day": 86400.0,
    "days": 86400.0,
}


def parse(sql, registry=None):
    """Parse one SQL statement and return its AST node.

    ``registry`` (a :class:`repro.obs.MetricsRegistry`) is optional; when
    given, the parse is timed as a ``parse`` span and counted, which is
    how MTCache attributes front-end time in its metrics.
    """
    if registry is None:
        return Parser(sql).parse_statement()
    with registry.span("parse"):
        stmt = Parser(sql).parse_statement()
    registry.counter("statements_parsed_total", help="SQL statements parsed").inc()
    return stmt


def parse_expression(sql):
    """Parse a standalone scalar expression (used for view predicates)."""
    parser = Parser(sql)
    expr = parser._expr()
    parser._expect_eof()
    return expr


class Parser:
    def __init__(self, sql):
        self.sql = sql
        self.tokens = Lexer(sql).tokens()
        self.i = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self, offset=0):
        i = min(self.i + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def _advance(self):
        token = self.tokens[self.i]
        if token.type is not TokenType.EOF:
            self.i += 1
        return token

    def _error(self, message):
        token = self._peek()
        raise ParseError(f"{message}, found {token.value!r}", token.pos)

    def _accept_keyword(self, *words):
        if self._peek().is_keyword(*words):
            return self._advance()
        return None

    def _expect_keyword(self, *words):
        token = self._accept_keyword(*words)
        if token is None:
            self._error(f"expected {'/'.join(w.upper() for w in words)}")
        return token

    def _accept_punct(self, ch):
        token = self._peek()
        if token.type is TokenType.PUNCT and token.value == ch:
            return self._advance()
        return None

    def _expect_punct(self, ch):
        if self._accept_punct(ch) is None:
            self._error(f"expected {ch!r}")

    def _accept_operator(self, *ops):
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in ops:
            return self._advance()
        return None

    def _ident(self, what="identifier"):
        token = self._peek()
        if token.type is TokenType.IDENT:
            return self._advance().value
        # Non-reserved-in-context keywords usable as identifiers would go
        # here; we keep the grammar strict instead.
        self._error(f"expected {what}")

    def _expect_eof(self):
        if self._peek().type is not TokenType.EOF:
            self._error("unexpected trailing input")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self):
        token = self._peek()
        if token.is_keyword("select"):
            stmt = self._select()
        elif token.is_keyword("insert"):
            stmt = self._insert()
        elif token.is_keyword("update"):
            stmt = self._update()
        elif token.is_keyword("delete"):
            stmt = self._delete()
        elif token.is_keyword("create"):
            stmt = self._create()
        elif token.is_keyword("explain"):
            self._advance()
            analyze = self._accept_keyword("analyze") is not None
            text = self.sql[self._peek().pos:]
            stmt = ast.Explain(self._select(), analyze=analyze, text=text)
        elif token.is_keyword("begin"):
            self._advance()
            self._expect_keyword("timeordered")
            stmt = ast.BeginTimeordered()
        elif token.is_keyword("end"):
            self._advance()
            self._expect_keyword("timeordered")
            stmt = ast.EndTimeordered()
        else:
            self._error("expected a statement")
        self._expect_eof()
        return stmt

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _select(self):
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct") is not None
        items = [self._select_item()]
        while self._accept_punct(","):
            items.append(self._select_item())

        self._expect_keyword("from")
        from_items, join_conds = self._from_list()

        where = None
        if self._accept_keyword("where"):
            where = self._expr()
        for cond in join_conds:
            where = cond if where is None else ast.BinaryOp("and", where, cond)

        group_by = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self._expr())
            while self._accept_punct(","):
                group_by.append(self._expr())

        having = None
        if self._accept_keyword("having"):
            having = self._expr()

        order_by = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._order_item())
            while self._accept_punct(","):
                order_by.append(self._order_item())

        limit = None
        if self._accept_keyword("limit"):
            token = self._peek()
            if token.type is not TokenType.NUMBER or not isinstance(token.value, int):
                self._error("expected integer after LIMIT")
            limit = self._advance().value

        currency = self._currency_clause()

        return ast.Select(
            items,
            from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            distinct=distinct,
            currency=currency,
            limit=limit,
        )

    def _select_item(self):
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return ast.SelectItem(None, star=True)
        # qualified star: ident . *
        if (
            token.type is TokenType.IDENT
            and self._peek(1).type is TokenType.PUNCT
            and self._peek(1).value == "."
            and self._peek(2).type is TokenType.OPERATOR
            and self._peek(2).value == "*"
        ):
            qualifier = self._advance().value
            self._advance()  # .
            self._advance()  # *
            return ast.SelectItem(None, star=True, star_qualifier=qualifier)
        expr = self._expr()
        alias = None
        if self._accept_keyword("as"):
            alias = self._ident("alias")
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().value
        return ast.SelectItem(expr, alias=alias)

    def _order_item(self):
        expr = self._expr()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return ast.OrderItem(expr, descending=descending)

    def _from_list(self):
        """Parse the FROM clause; returns (from_items, join_conditions)."""
        items = []
        conds = []
        items.append(self._from_item())
        while True:
            if self._accept_punct(","):
                items.append(self._from_item())
                continue
            if self._peek().is_keyword("join", "inner", "left"):
                if self._accept_keyword("left"):
                    self._accept_keyword("outer")
                    self._error("LEFT OUTER JOIN is not supported")
                self._accept_keyword("inner")
                self._expect_keyword("join")
                items.append(self._from_item())
                self._expect_keyword("on")
                conds.append(self._expr())
                continue
            return items, conds

    def _from_item(self):
        if self._accept_punct("("):
            select = self._select()
            self._expect_punct(")")
            self._accept_keyword("as")
            alias = self._ident("derived-table alias")
            return ast.FromSubquery(select, alias)
        name = self._ident("table name")
        alias = None
        if self._accept_keyword("as"):
            alias = self._ident("alias")
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().value
        return ast.FromTable(name, alias)

    # ------------------------------------------------------------------
    # CURRENCY clause
    # ------------------------------------------------------------------
    def _currency_clause(self):
        if not self._accept_keyword("currency"):
            return None
        self._expect_keyword("bound")
        specs = [self._currency_spec()]
        while self._accept_punct(","):
            specs.append(self._currency_spec())
        return ast.CurrencyClause(specs)

    def _currency_spec(self):
        bound = self._duration()
        self._expect_keyword("on")
        self._expect_punct("(")
        targets = [self._ident("input name")]
        while self._accept_punct(","):
            targets.append(self._ident("input name"))
        self._expect_punct(")")
        by_columns = []
        if self._accept_keyword("by"):
            by_columns.append(self._column_ref())
            # A comma may either continue the BY list or start the next
            # spec ("... BY b.isbn, 30 MIN ON (r)"); only consume it when
            # an identifier (a column reference) follows.
            while (
                self._peek().type is TokenType.PUNCT
                and self._peek().value == ","
                and self._peek(1).type is TokenType.IDENT
            ):
                self._advance()
                by_columns.append(self._column_ref())
        return ast.CurrencySpec(bound, targets, by_columns)

    def _duration(self):
        if self._accept_keyword("unbounded"):
            return ast.UNBOUNDED
        token = self._peek()
        if token.type is not TokenType.NUMBER:
            self._error("expected a currency bound (number or UNBOUNDED)")
        value = self._advance().value
        unit_token = self._peek()
        if unit_token.type is TokenType.KEYWORD and unit_token.value in _UNITS:
            self._advance()
            return value * _UNITS[unit_token.value]
        return float(value)  # bare number: seconds

    def _column_ref(self):
        first = self._ident("column reference")
        if self._accept_punct("."):
            return ast.ColumnRef(self._ident("column name"), qualifier=first)
        return ast.ColumnRef(first)

    # ------------------------------------------------------------------
    # DML / DDL
    # ------------------------------------------------------------------
    def _insert(self):
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._ident("table name")
        columns = None
        if self._accept_punct("("):
            columns = [self._ident("column name")]
            while self._accept_punct(","):
                columns.append(self._ident("column name"))
            self._expect_punct(")")
        self._expect_keyword("values")
        rows = [self._value_row()]
        while self._accept_punct(","):
            rows.append(self._value_row())
        return ast.Insert(table, columns, rows)

    def _value_row(self):
        self._expect_punct("(")
        values = [self._expr()]
        while self._accept_punct(","):
            values.append(self._expr())
        self._expect_punct(")")
        return values

    def _update(self):
        self._expect_keyword("update")
        table = self._ident("table name")
        self._expect_keyword("set")
        assignments = [self._assignment()]
        while self._accept_punct(","):
            assignments.append(self._assignment())
        where = None
        if self._accept_keyword("where"):
            where = self._expr()
        return ast.Update(table, assignments, where=where)

    def _assignment(self):
        column = self._ident("column name")
        if self._accept_operator("=") is None:
            self._error("expected '=' in SET clause")
        return column, self._expr()

    def _delete(self):
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table = self._ident("table name")
        where = None
        if self._accept_keyword("where"):
            where = self._expr()
        return ast.Delete(table, where=where)

    def _create(self):
        self._expect_keyword("create")
        if self._accept_keyword("currency"):
            return self._create_region()
        if self._accept_keyword("materialized"):
            return self._create_matview()
        unique = self._accept_keyword("unique") is not None
        clustered = self._accept_keyword("clustered") is not None
        if unique or clustered or self._peek().is_keyword("index"):
            clustered = clustered or self._accept_keyword("clustered") is not None
            self._expect_keyword("index")
            name = self._ident("index name")
            self._expect_keyword("on")
            table = self._ident("table name")
            self._expect_punct("(")
            columns = [self._ident("column name")]
            while self._accept_punct(","):
                columns.append(self._ident("column name"))
            self._expect_punct(")")
            return ast.CreateIndex(name, table, columns, unique=unique, clustered=clustered)
        self._expect_keyword("table")
        name = self._ident("table name")
        self._expect_punct("(")
        columns = []
        primary_key = None
        while True:
            if self._accept_keyword("primary"):
                self._expect_keyword("key")
                self._expect_punct("(")
                primary_key = [self._ident("column name")]
                while self._accept_punct(","):
                    primary_key.append(self._ident("column name"))
                self._expect_punct(")")
            else:
                columns.append(self._column_def())
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return ast.CreateTable(name, columns, primary_key=primary_key)

    def _create_region(self):
        """CREATE CURRENCY REGION name INTERVAL d DELAY d [HEARTBEAT d]."""
        self._expect_keyword("region")
        name = self._ident("region name")
        self._expect_keyword("interval")
        interval = self._duration()
        self._expect_keyword("delay")
        delay = self._duration()
        heartbeat = None
        if self._accept_keyword("heartbeat"):
            heartbeat = self._duration()
        return ast.CreateRegion(name, interval, delay, heartbeat=heartbeat)

    def _create_matview(self):
        """CREATE MATERIALIZED VIEW name IN REGION r AS SELECT ..."""
        self._expect_keyword("view")
        name = self._ident("view name")
        self._expect_keyword("in")
        self._expect_keyword("region")
        region = self._ident("region name")
        self._expect_keyword("as")
        select = self._select()
        return ast.CreateMatview(name, region, select)

    _TYPE_KEYWORDS = (
        "int",
        "integer",
        "float",
        "real",
        "string",
        "varchar",
        "text",
        "bool",
        "boolean",
        "timestamp",
    )

    def _column_def(self):
        name = self._ident("column name")
        type_token = self._expect_keyword(*self._TYPE_KEYWORDS)
        # Swallow an optional length, e.g. VARCHAR(25).
        if self._accept_punct("("):
            if self._peek().type is TokenType.NUMBER:
                self._advance()
            self._expect_punct(")")
        nullable = True
        if self._accept_keyword("not"):
            self._expect_keyword("null")
            nullable = False
        else:
            self._accept_keyword("null")
        return ast.ColumnDef(name, type_token.value, nullable=nullable)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _expr(self):
        return self._or_expr()

    def _or_expr(self):
        left = self._and_expr()
        while self._accept_keyword("or"):
            left = ast.BinaryOp("or", left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._not_expr()
        while self._accept_keyword("and"):
            left = ast.BinaryOp("and", left, self._not_expr())
        return left

    def _not_expr(self):
        if self._accept_keyword("not"):
            return ast.UnaryOp("not", self._not_expr())
        return self._comparison()

    def _comparison(self):
        if self._peek().is_keyword("exists"):
            self._advance()
            self._expect_punct("(")
            select = self._select()
            self._expect_punct(")")
            return ast.ExistsSubquery(select)

        left = self._additive()

        negated = self._accept_keyword("not") is not None
        if self._accept_keyword("between"):
            low = self._additive()
            self._expect_keyword("and")
            high = self._additive()
            return ast.Between(left, low, high, negated=negated)
        if self._accept_keyword("in"):
            self._expect_punct("(")
            if self._peek().is_keyword("select"):
                select = self._select()
                self._expect_punct(")")
                return ast.InSubquery(left, select, negated=negated)
            items = [self._expr()]
            while self._accept_punct(","):
                items.append(self._expr())
            self._expect_punct(")")
            return ast.InList(left, items, negated=negated)
        if negated:
            self._error("expected BETWEEN or IN after NOT")

        if self._accept_keyword("is"):
            is_negated = self._accept_keyword("not") is not None
            self._expect_keyword("null")
            return ast.IsNull(left, negated=is_negated)

        op = self._accept_operator("=", "<>", "!=", "<", "<=", ">", ">=")
        if op is not None:
            right = self._additive()
            op_value = "<>" if op.value == "!=" else op.value
            return ast.BinaryOp(op_value, left, right)
        return left

    def _additive(self):
        left = self._multiplicative()
        while True:
            op = self._accept_operator("+", "-")
            if op is None:
                return left
            left = ast.BinaryOp(op.value, left, self._multiplicative())

    def _multiplicative(self):
        left = self._unary()
        while True:
            op = self._accept_operator("*", "/", "%")
            if op is None:
                return left
            left = ast.BinaryOp(op.value, left, self._unary())

    def _unary(self):
        if self._accept_operator("-"):
            return ast.UnaryOp("-", self._unary())
        self._accept_operator("+")
        return self._primary()

    def _primary(self):
        token = self._peek()
        if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value, slot=token.slot)
        if token.is_keyword("null"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("true"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("false"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("getdate"):
            self._advance()
            self._expect_punct("(")
            self._expect_punct(")")
            return ast.FuncCall("getdate", [])
        if token.type is TokenType.PUNCT and token.value == "(":
            self._advance()
            if self._peek().is_keyword("select"):
                select = self._select()
                self._expect_punct(")")
                return ast.ExistsSubquery(select)  # bare subquery treated as EXISTS
            expr = self._expr()
            self._expect_punct(")")
            return expr
        if token.type is TokenType.IDENT:
            name = self._advance().value
            if self._accept_punct("("):
                return self._func_call_tail(name)
            if self._accept_punct("."):
                return ast.ColumnRef(self._ident("column name"), qualifier=name)
            return ast.ColumnRef(name)
        # Aggregate keywords COUNT/SUM/... are identifiers in our lexer; MIN
        # however collides with the MIN time-unit keyword, so accept it here.
        if token.is_keyword("min"):
            self._advance()
            self._expect_punct("(")
            return self._func_call_tail("min")
        self._error("expected an expression")

    def _func_call_tail(self, name):
        """Parse the argument list after ``name(``."""
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            self._expect_punct(")")
            return ast.FuncCall(name, [], star=True)
        args = []
        if not (token.type is TokenType.PUNCT and token.value == ")"):
            args.append(self._expr())
            while self._accept_punct(","):
                args.append(self._expr())
        self._expect_punct(")")
        return ast.FuncCall(name, args)
