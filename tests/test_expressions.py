"""Tests for expression compilation, including SQL NULL semantics."""

import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import ExecutionError
from repro.cache.backend import BackendServer
from repro.engine.expressions import (
    ExpressionContext,
    OutputCol,
    RowBinding,
    compile_expr,
)
from repro.optimizer.query_info import correlate
from repro.sql import ast
from repro.sql.parser import parse, parse_expression


def run(sql, row=(), columns=(), clock=None):
    binding = RowBinding([OutputCol(name, qualifier) for qualifier, name in columns])
    ctx = ExpressionContext(clock=clock)
    return compile_expr(parse_expression(sql), binding, ctx)(row)


class TestLiteralsAndColumns:
    def test_integer_literal(self):
        assert run("42") == 42

    def test_string_literal(self):
        assert run("'abc'") == "abc"

    def test_null_literal(self):
        assert run("NULL") is None

    def test_booleans(self):
        assert run("TRUE") is True
        assert run("FALSE") is False

    def test_column_by_name(self):
        assert run("a", row=(7,), columns=[("t", "a")]) == 7

    def test_column_qualified(self):
        columns = [("t", "a"), ("u", "a")]
        assert run("t.a", row=(1, 2), columns=columns) == 1
        assert run("u.a", row=(1, 2), columns=columns) == 2

    def test_ambiguous_column_raises(self):
        with pytest.raises(ExecutionError):
            run("a", row=(1, 2), columns=[("t", "a"), ("u", "a")])

    def test_unknown_column_raises(self):
        with pytest.raises(ExecutionError):
            run("zz", row=(1,), columns=[("t", "a")])


class TestArithmetic:
    def test_add_mul(self):
        assert run("1 + 2 * 3") == 7

    def test_division_float(self):
        assert run("7 / 2") == 3.5

    def test_modulo(self):
        assert run("7 % 3") == 1

    def test_unary_minus(self):
        assert run("-a", row=(5,), columns=[("t", "a")]) == -5

    def test_null_propagates(self):
        assert run("a + 1", row=(None,), columns=[("t", "a")]) is None


class TestComparisons:
    def test_basic(self):
        assert run("3 < 5") is True
        assert run("3 > 5") is False
        assert run("3 = 3") is True
        assert run("3 <> 3") is False
        assert run("3 <= 3") is True
        assert run("3 >= 4") is False

    def test_null_comparison_is_null(self):
        assert run("a = 1", row=(None,), columns=[("t", "a")]) is None

    def test_between(self):
        assert run("a BETWEEN 2 AND 4", row=(3,), columns=[("t", "a")]) is True
        assert run("a BETWEEN 2 AND 4", row=(5,), columns=[("t", "a")]) is False

    def test_not_between(self):
        assert run("a NOT BETWEEN 2 AND 4", row=(5,), columns=[("t", "a")]) is True

    def test_between_null(self):
        assert run("a BETWEEN 2 AND 4", row=(None,), columns=[("t", "a")]) is None

    def test_in_list(self):
        assert run("a IN (1, 2, 3)", row=(2,), columns=[("t", "a")]) is True
        assert run("a IN (1, 2, 3)", row=(9,), columns=[("t", "a")]) is False

    def test_not_in_list(self):
        assert run("a NOT IN (1, 2)", row=(9,), columns=[("t", "a")]) is True

    def test_is_null(self):
        assert run("a IS NULL", row=(None,), columns=[("t", "a")]) is True
        assert run("a IS NULL", row=(1,), columns=[("t", "a")]) is False
        assert run("a IS NOT NULL", row=(1,), columns=[("t", "a")]) is True


class TestBooleanLogic:
    def test_and_or(self):
        assert run("1 = 1 AND 2 = 2") is True
        assert run("1 = 1 AND 2 = 3") is False
        assert run("1 = 2 OR 2 = 2") is True

    def test_three_valued_and(self):
        # NULL AND FALSE = FALSE; NULL AND TRUE = NULL
        assert run("a = 1 AND 1 = 2", row=(None,), columns=[("t", "a")]) is False
        assert run("a = 1 AND 1 = 1", row=(None,), columns=[("t", "a")]) is None

    def test_three_valued_or(self):
        # NULL OR TRUE = TRUE; NULL OR FALSE = NULL
        assert run("a = 1 OR 1 = 1", row=(None,), columns=[("t", "a")]) is True
        assert run("a = 1 OR 1 = 2", row=(None,), columns=[("t", "a")]) is None

    def test_not_null_is_null(self):
        assert run("NOT a = 1", row=(None,), columns=[("t", "a")]) is None


class TestFunctions:
    def test_getdate_uses_clock(self):
        clock = SimulatedClock(start=123.0)
        assert run("GETDATE()", clock=clock) == 123.0

    def test_getdate_without_clock_raises(self):
        with pytest.raises(ExecutionError):
            run("GETDATE()")

    def test_aggregate_outside_aggregation_raises(self):
        with pytest.raises(ExecutionError):
            run("COUNT(*)")

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            run("frobnicate(1)")


class _Block:
    """A stand-in for a compiled subquery block: records the outer values
    each run is bound to and answers with ``rows_for(values)``."""

    def __init__(self, outer_refs, rows_for):
        self.outer_refs = outer_refs
        self.rows_for = rows_for
        self.runs = []

    def rows(self, values, limit=None):
        self.runs.append(list(values))
        return self.rows_for(values)[:limit]


class TestCorrelatedResolution:
    """A correlated subquery compiles once: its outer references become
    Param slots of one cell, and each row binds them to its own values."""

    def _server(self):
        server = BackendServer()
        server.create_table("CREATE TABLE s (y INT NOT NULL, z INT, PRIMARY KEY (y))")
        server.create_table("CREATE TABLE u (w INT NOT NULL, PRIMARY KEY (w))")
        return server

    def test_outer_reference_reads_its_param_slot(self):
        select = parse("SELECT s.y FROM s WHERE s.y = o.x AND s.z > o.x AND s.z < v")
        rewritten, params, outer_refs = correlate(select, self._server().catalog)
        assert [ref.to_sql() for ref in outer_refs] == ["o.x", "v"]
        where = rewritten.where.to_sql()
        # One slot per distinct reference; the inner columns stay columns.
        assert where.count("\x000\x00") == 2 and where.count("\x001\x00") == 1
        assert "s.y" in where and "o.x" not in where
        assert select.where.to_sql().count("o.x") == 2  # the parse is untouched
        with pytest.raises(ast.ParamRead) as read:
            bool(ast.Param(0, params))
        assert read.value.params is params and read.value.slot == 0

    def test_nested_block_references_reach_the_outermost_cell(self):
        select = parse(
            "SELECT s.y FROM s WHERE EXISTS (SELECT 1 FROM u WHERE u.w = s.z AND u.w = o.x)"
        )
        rewritten, params, outer_refs = correlate(select, self._server().catalog)
        assert [ref.to_sql() for ref in outer_refs] == ["o.x"]
        inner = rewritten.where.select.where.to_sql()
        assert "s.z" in inner and "\x000\x00" in inner

    def test_each_row_binds_the_outer_values(self):
        binding = RowBinding([OutputCol("x", "o")])
        block = _Block([ast.ColumnRef("x", "o")],
                       lambda values: [(1,)] if values[0] % 2 else [])
        ctx = ExpressionContext(subqueries=lambda select: block)
        fn = compile_expr(parse_expression("EXISTS (SELECT 1 FROM s WHERE s.y = o.x)"),
                          binding, ctx)
        assert [fn((x,)) for x in (1, 2, 3)] == [True, False, True]
        assert block.runs == [[1], [2], [3]]

    def test_scalar_subquery_values(self):
        binding = RowBinding([OutputCol("x", "o")])
        answers = {0: [], 1: [(7,)], 2: [(7,), (8,)]}
        block = _Block([ast.ColumnRef("x", "o")], lambda values: answers[values[0]])
        ctx = ExpressionContext(subqueries=lambda select: block)
        fn = compile_expr(parse_expression("(SELECT s.y FROM s WHERE s.z = o.x)"),
                          binding, ctx)
        assert fn((0,)) is None and fn((1,)) == 7
        with pytest.raises(ExecutionError, match="more than one row"):
            fn((2,))

    def test_subquery_without_runner_raises(self):
        binding = RowBinding([OutputCol("a", "t")])
        with pytest.raises(ExecutionError):
            compile_expr(parse_expression("EXISTS (SELECT 1 FROM s)"), binding)
