"""Property tests for SQL's three-valued logic in the expression engine.

A compiled predicate returns True / False / None (unknown).  These tests pin the
Kleene-logic laws the WHERE clause depends on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.expressions import OutputCol, RowBinding, compile_expr
from repro.sql import ast
from repro.sql.parser import parse_expression
from tests.conftest import EXECUTION_PATHS
from tests.sql_reference import SqliteReference

TRUTH = st.sampled_from([True, False, None])


def evaluate(expr, a=None, b=None, c=None):
    binding = RowBinding([OutputCol("a", "t"), OutputCol("b", "t"), OutputCol("c", "t")])
    return compile_expr(expr, binding)((a, b, c))


def var(name):
    # Booleans stored directly in columns; comparisons build 3VL atoms.
    return parse_expression(f"t.{name} = TRUE")


def tv(value):
    """Column encoding: True/False stay booleans, None is NULL."""
    return value


class TestKleeneLaws:
    @settings(max_examples=60)
    @given(a=TRUTH, b=TRUTH)
    def test_de_morgan_and(self, a, b):
        lhs = parse_expression("NOT (t.a = TRUE AND t.b = TRUE)")
        rhs = parse_expression("(NOT t.a = TRUE) OR (NOT t.b = TRUE)")
        assert evaluate(lhs, tv(a), tv(b)) == evaluate(rhs, tv(a), tv(b))

    @settings(max_examples=60)
    @given(a=TRUTH, b=TRUTH)
    def test_de_morgan_or(self, a, b):
        lhs = parse_expression("NOT (t.a = TRUE OR t.b = TRUE)")
        rhs = parse_expression("(NOT t.a = TRUE) AND (NOT t.b = TRUE)")
        assert evaluate(lhs, tv(a), tv(b)) == evaluate(rhs, tv(a), tv(b))

    @settings(max_examples=60)
    @given(a=TRUTH, b=TRUTH)
    def test_commutativity(self, a, b):
        for op in ("AND", "OR"):
            e1 = parse_expression(f"t.a = TRUE {op} t.b = TRUE")
            e2 = parse_expression(f"t.b = TRUE {op} t.a = TRUE")
            assert evaluate(e1, tv(a), tv(b)) == evaluate(e2, tv(a), tv(b))

    @settings(max_examples=60)
    @given(a=TRUTH, b=TRUTH, c=TRUTH)
    def test_associativity(self, a, b, c):
        for op in ("AND", "OR"):
            e1 = parse_expression(f"(t.a = TRUE {op} t.b = TRUE) {op} t.c = TRUE")
            e2 = parse_expression(f"t.a = TRUE {op} (t.b = TRUE {op} t.c = TRUE)")
            assert evaluate(e1, tv(a), tv(b), tv(c)) == evaluate(e2, tv(a), tv(b), tv(c))

    @settings(max_examples=60)
    @given(a=TRUTH)
    def test_double_negation(self, a):
        expr = parse_expression("NOT (NOT t.a = TRUE)")
        base = parse_expression("t.a = TRUE")
        assert evaluate(expr, tv(a)) == evaluate(base, tv(a))

    @settings(max_examples=60)
    @given(a=TRUTH)
    def test_absorbing_elements(self, a):
        # FALSE absorbs AND even with unknown; TRUE absorbs OR.
        e_and = parse_expression("t.a = TRUE AND 1 = 2")
        e_or = parse_expression("t.a = TRUE OR 1 = 1")
        assert evaluate(e_and, tv(a)) is False
        assert evaluate(e_or, tv(a)) is True

    @settings(max_examples=60)
    @given(a=TRUTH)
    def test_null_comparison_is_unknown_not_false(self, a):
        # a = NULL is unknown regardless of a.
        expr = parse_expression("t.a = NULL")
        assert evaluate(expr, tv(a)) is None


class TestWhereSemantics:
    """Only TRUE passes a WHERE filter; UNKNOWN and FALSE are dropped."""

    def test_unknown_rows_filtered(self):
        from repro.cache.backend import BackendServer

        backend = BackendServer()
        backend.create_table(
            "CREATE TABLE t (id INT NOT NULL, v INT, PRIMARY KEY (id))"
        )
        backend.execute("INSERT INTO t VALUES (1, 5), (2, NULL), (3, 20)")
        backend.refresh_statistics()
        assert backend.execute("SELECT x.id FROM t x WHERE x.v > 1").rows == [(1,), (3,)]
        # NOT (v > 1) also excludes the NULL row: unknown is not false.
        assert backend.execute("SELECT x.id FROM t x WHERE NOT x.v > 1").rows == []

    def test_is_null_catches_what_comparisons_miss(self):
        from repro.cache.backend import BackendServer

        backend = BackendServer()
        backend.create_table(
            "CREATE TABLE t (id INT NOT NULL, v INT, PRIMARY KEY (id))"
        )
        backend.execute("INSERT INTO t VALUES (1, 5), (2, NULL)")
        backend.refresh_statistics()
        assert backend.execute("SELECT x.id FROM t x WHERE x.v IS NULL").rows == [(2,)]


# ----------------------------------------------------------------------
# [NOT] IN with NULL items, on both execution paths, against stdlib sqlite3
# ----------------------------------------------------------------------
IN_LIST_PREDICATES = [
    "t.v NOT IN (10, NULL)",
    "t.v IN (10, NULL)",
    "NOT (t.v IN (10, NULL))",
    "NOT (t.v NOT IN (10, NULL))",
    "t.v NOT IN (10, 20)",
    "t.v IN (NULL)",
    "t.v NOT IN (NULL)",
    "t.k IN (3, NULL) OR t.v NOT IN (1, NULL)",
    "t.k IN (3, NULL) OR NOT (t.v IN (4, NULL))",
]

#: Small stays under the executor's COLUMNAR_MIN_EST_ROWS (the "columnar"
#: path runs the row closures, the "batch" path its kernel); large
#: crosses it (both paths run the kernel).
IN_LIST_TABLE_SIZES = {"small": 20, "large": 200}


def _in_list_rows(n):
    return [(k, None if k % 7 == 0 else k % 30) for k in range(1, n + 1)]


@pytest.fixture(scope="module")
def in_list_backends():
    from repro.cache.backend import BackendServer

    out = {}
    for size, n in IN_LIST_TABLE_SIZES.items():
        backend = BackendServer()
        backend.create_table("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
        values = ", ".join(
            f"({k}, {'NULL' if v is None else v})" for k, v in _in_list_rows(n)
        )
        backend.execute(f"INSERT INTO t VALUES {values}")
        backend.refresh_statistics()
        out[size] = backend, SqliteReference(backend)
    return out


class TestInListWithNullItems:
    @pytest.mark.parametrize("size", sorted(IN_LIST_TABLE_SIZES))
    @pytest.mark.parametrize("path", EXECUTION_PATHS, indirect=True)
    @pytest.mark.parametrize("predicate", IN_LIST_PREDICATES)
    def test_matches_sqlite(self, in_list_backends, path, size, predicate):
        sql = f"SELECT t.k FROM t WHERE {predicate}"
        backend, reference = in_list_backends[size]
        reference.check(backend.execute(sql).rows, sql)

    def test_closures_follow_the_kernel_truth_table(self):
        # x [NOT] IN (1, NULL): a hit is TRUE (FALSE negated), a miss UNKNOWN.
        expr = parse_expression("t.a IN (1, NULL)")
        negated = parse_expression("t.a NOT IN (1, NULL)")
        assert (evaluate(expr, 1), evaluate(negated, 1)) == (True, False)
        assert (evaluate(expr, 2), evaluate(negated, 2)) == (None, None)
        assert (evaluate(expr, None), evaluate(negated, None)) == (None, None)
        plain = parse_expression("t.a NOT IN (1, 3)")
        assert (evaluate(plain, 2), evaluate(plain, 3)) == (True, False)
