"""Unit tests for placement internals: index matching, selectivity
combination, and width computation."""

import pytest

from repro.catalog.statistics import ColumnStats, TableStats
from repro.engine.expressions import OutputCol, RowBinding
from repro.optimizer.placement import (
    _match_index,
    combine_conjuncts,
    estimate_selectivity,
    width_of,
)
from repro.optimizer.query_info import Sarg
from repro.sql.parser import parse_expression
from repro.storage.index import Index


def sarg(column, op, value, text=None):
    expr = parse_expression(text or f"{column} {op} {value}")
    return Sarg(column, op, value, expr)


class TestMatchIndex:
    def make_index(self, *columns):
        return Index("ix", list(columns), list(range(len(columns))))

    def test_single_equality(self):
        plan = _match_index(self.make_index("a"), [sarg("a", "=", 5)])
        assert plan.eq_values == [5]
        assert plan.in_values is None
        assert plan.range_low is None and plan.range_high is None

    def test_equality_prefix_plus_range(self):
        plan = _match_index(
            self.make_index("a", "b"),
            [sarg("a", "=", 5), sarg("b", ">", 1), sarg("b", "<=", 9)],
        )
        assert plan.eq_values == [5]
        assert (plan.range_low, plan.range_high) == (1, 9)
        assert not plan.low_inc and plan.high_inc
        assert len(plan.used_exprs) == 3

    def test_leading_range_only(self):
        plan = _match_index(self.make_index("a", "b"), [sarg("a", ">=", 3)])
        assert plan.eq_values == []
        assert plan.range_low == 3 and plan.low_inc

    def test_no_leading_column_match(self):
        assert _match_index(self.make_index("a", "b"), [sarg("b", "=", 1)]) is None

    def test_no_sargs(self):
        assert _match_index(self.make_index("a"), []) is None

    def test_tightest_range_bound_wins(self):
        plan = _match_index(
            self.make_index("a"),
            [sarg("a", ">", 1), sarg("a", ">=", 5)],
        )
        assert plan.range_low == 5 and plan.low_inc

    def test_gap_in_prefix_stops_matching(self):
        plan = _match_index(
            self.make_index("a", "b", "c"),
            [sarg("a", "=", 1), sarg("c", "=", 3)],
        )
        assert plan.eq_values == [1]
        assert plan.range_low is None and plan.range_high is None

    def test_leading_in_list(self):
        s = sarg("a", "in", (3, 1), "a IN (3, 1)")
        plan = _match_index(self.make_index("a", "b"), [s])
        assert plan.eq_values == [] and plan.in_values == (3, 1)
        assert plan.used_exprs == {s.expr}

    def test_in_list_after_equality_prefix_ends_the_key(self):
        eq = sarg("a", "=", 5)
        in_b = sarg("b", "in", (1, 2), "b IN (1, 2)")
        plan = _match_index(
            self.make_index("a", "b", "c"), [eq, in_b, sarg("c", "=", 7)]
        )
        assert plan.eq_values == [5] and plan.in_values == (1, 2)
        assert plan.used_exprs == {eq.expr, in_b.expr}  # c stays residual

    def test_shortest_in_list_wins_and_range_stays_residual(self):
        long_ = sarg("a", "in", (1, 2, 3), "a IN (1, 2, 3)")
        short = sarg("a", "in", (2, 3), "a IN (2, 3)")
        plan = _match_index(self.make_index("a"), [long_, short, sarg("a", ">", 1)])
        assert plan.in_values == (2, 3)
        assert plan.range_low is None
        assert plan.used_exprs == {short.expr}

    def test_equality_beats_in_list_on_one_column(self):
        eq = sarg("a", "=", 5)
        plan = _match_index(self.make_index("a"), [sarg("a", "in", (5, 6), "a IN (5, 6)"), eq])
        assert plan.eq_values == [5] and plan.in_values is None
        assert plan.used_exprs == {eq.expr}


class TestEstimateSelectivity:
    def stats(self):
        return TableStats(
            row_count=1000,
            columns={
                "a": ColumnStats(min=0, max=99, ndv=100),
                "b": ColumnStats(min=0.0, max=1.0, ndv=500),
            },
        )

    def test_equality_uses_ndv(self):
        s = sarg("a", "=", 5)
        assert estimate_selectivity(self.stats(), [s.expr], [s]) == pytest.approx(0.01)

    def test_range_combines_bounds(self):
        lo = sarg("a", ">=", 0)
        hi = sarg("a", "<=", 49)
        sel = estimate_selectivity(self.stats(), [lo.expr, hi.expr], [lo, hi])
        assert sel == pytest.approx(0.495, abs=0.02)

    def test_unsargable_conjunct_default(self):
        expr = parse_expression("a + b > 3")
        sel = estimate_selectivity(self.stats(), [expr], [])
        assert sel == pytest.approx(0.25)

    def test_conjunction_multiplies(self):
        s1 = sarg("a", "=", 5)
        s2 = sarg("b", "<=", 0.5)
        sel = estimate_selectivity(self.stats(), [s1.expr, s2.expr], [s1, s2])
        assert sel == pytest.approx(0.01 * 0.5, rel=0.1)

    def test_never_zero(self):
        s = sarg("a", ">", 1000)
        assert estimate_selectivity(self.stats(), [s.expr], [s]) > 0.0

    def test_empty_predicates(self):
        assert estimate_selectivity(self.stats(), [], []) == 1.0


class TestHelpers:
    def test_combine_conjuncts_none(self):
        assert combine_conjuncts([]) is None

    def test_combine_conjuncts_single(self):
        expr = parse_expression("a = 1")
        assert combine_conjuncts([expr]) is expr

    def test_combine_conjuncts_multiple_is_and_tree(self):
        a, b, c = (parse_expression(t) for t in ("a = 1", "b = 2", "c = 3"))
        combined = combine_conjuncts([a, b, c])
        assert combined.op == "and"
        assert "a = 1" in combined.to_sql()
        assert "c = 3" in combined.to_sql()

    def test_width_of_uses_stats(self):
        binding = RowBinding([OutputCol("x", "t"), OutputCol("y", "t")])
        widths = {"x": ColumnStats(avg_width=4), "y": ColumnStats(avg_width=16)}
        total = width_of(binding, lambda q, n: widths.get(n))
        assert total == 20

    def test_width_of_unknown_column_default(self):
        binding = RowBinding([OutputCol("z", "t")])
        assert width_of(binding, lambda q, n: None) == 8.0
