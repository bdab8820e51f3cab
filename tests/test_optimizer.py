"""Tests for the optimizer internals: analysis, costing, access paths."""

import math

import pytest

from repro.cache.backend import BackendServer
from repro.common.errors import CatalogError, OptimizerError
from repro.optimizer.cost import CostModel, guard_probability
from repro.optimizer.placement import estimate_selectivity
from repro.optimizer.query_info import analyze_select
from repro.sql.parser import parse


@pytest.fixture()
def server():
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE r (a INT NOT NULL, b INT NOT NULL, c FLOAT, PRIMARY KEY (a))"
    )
    backend.create_table(
        "CREATE TABLE s (x INT NOT NULL, y INT NOT NULL, PRIMARY KEY (x))"
    )
    for i in range(1, 101):
        backend.execute(f"INSERT INTO r VALUES ({i}, {i % 10}, {float(i)})")
        backend.execute(f"INSERT INTO s VALUES ({i}, {i % 5})")
    backend.refresh_statistics()
    return backend


class TestGuardProbability:
    """Paper §3.2.4, formula (1)."""

    def test_below_delay_zero(self):
        assert guard_probability(3.0, delay=5.0, interval=10.0) == 0.0

    def test_at_delay_zero(self):
        assert guard_probability(5.0, delay=5.0, interval=10.0) == 0.0

    def test_linear_region(self):
        assert guard_probability(10.0, delay=5.0, interval=10.0) == pytest.approx(0.5)
        assert guard_probability(7.0, delay=5.0, interval=10.0) == pytest.approx(0.2)

    def test_above_cycle_one(self):
        assert guard_probability(20.0, delay=5.0, interval=10.0) == 1.0

    def test_boundary_exactly_delay_plus_interval(self):
        assert guard_probability(15.0, delay=5.0, interval=10.0) == pytest.approx(1.0)

    def test_continuous_propagation(self):
        # f = 0: step function at B = d.
        assert guard_probability(6.0, delay=5.0, interval=0.0) == 1.0
        assert guard_probability(4.0, delay=5.0, interval=0.0) == 0.0

    def test_unbounded(self):
        assert guard_probability(math.inf, delay=5.0, interval=10.0) == 1.0
        assert guard_probability(None, delay=5.0, interval=10.0) == 1.0

    def test_monotone_in_bound(self):
        probs = [guard_probability(b, 5.0, 10.0) for b in range(0, 30)]
        assert probs == sorted(probs)


class TestCostModel:
    def test_switch_union_formula(self):
        cm = CostModel(guard_cost=10.0)
        assert cm.switch_union(0.25, 100.0, 200.0) == pytest.approx(
            0.25 * 100 + 0.75 * 200 + 10.0
        )

    def test_transfer_includes_rpc(self):
        cm = CostModel(remote_query_overhead=50.0, net_byte=2.0)
        assert cm.transfer(10, 4.0) == pytest.approx(50.0 + 80.0)

    def test_sort_nlogn(self):
        cm = CostModel(sort_row_log=1.0)
        assert cm.sort(8) == pytest.approx(24.0)
        assert cm.sort(1) == 1.0


class TestAnalyze:
    def test_operands_and_joins(self, server):
        info = analyze_select(
            parse("SELECT r.a FROM r, s WHERE r.a = s.x AND r.b > 3"), server.catalog
        )
        assert set(info.from_order) == {"r", "s"}
        assert len(info.join_conjuncts) == 1
        assert len(info.operand("r").conjuncts) == 1
        assert info.operand("r").sargs[0].column == "b"

    def test_unqualified_columns_resolve_uniquely(self, server):
        info = analyze_select(parse("SELECT a FROM r WHERE c > 1"), server.catalog)
        assert info.operand("r").needed_columns >= {"a", "c"}

    def test_ambiguous_column_raises(self, server):
        server.create_table("CREATE TABLE r2 (a INT NOT NULL, PRIMARY KEY (a))")
        with pytest.raises(CatalogError):
            analyze_select(parse("SELECT a FROM r, r2"), server.catalog)

    def test_between_yields_two_sargs(self, server):
        info = analyze_select(
            parse("SELECT r.a FROM r WHERE r.c BETWEEN 1 AND 5"), server.catalog
        )
        ops = sorted(s.op for s in info.operand("r").sargs)
        assert ops == ["<=", ">="]

    def test_flipped_comparison_normalized(self, server):
        info = analyze_select(parse("SELECT r.a FROM r WHERE 10 > r.a"), server.catalog)
        sarg = info.operand("r").sargs[0]
        assert sarg.op == "<"
        assert sarg.value == 10

    def test_negative_literal_sarg(self, server):
        info = analyze_select(parse("SELECT r.a FROM r WHERE r.c > -5"), server.catalog)
        assert info.operand("r").sargs[0].value == -5

    def test_residual_conjunct_classified(self, server):
        info = analyze_select(
            parse("SELECT r.a FROM r, s WHERE r.a = s.x AND r.b + s.y > 4"),
            server.catalog,
        )
        assert len(info.residual_conjuncts) == 1

    def test_non_equijoin_is_residual(self, server):
        info = analyze_select(
            parse("SELECT r.a FROM r, s WHERE r.a < s.x"), server.catalog
        )
        assert len(info.join_conjuncts) == 0
        assert len(info.residual_conjuncts) == 1

    def test_aggregate_detection(self, server):
        info = analyze_select(
            parse("SELECT r.b, COUNT(*) AS n FROM r GROUP BY r.b"), server.catalog
        )
        assert info.is_aggregate
        kinds = [i.kind for i in info.agg_items]
        assert kinds == ["group", "agg"]

    def test_nongrouped_column_rejected(self, server):
        with pytest.raises(OptimizerError):
            analyze_select(
                parse("SELECT r.a, COUNT(*) AS n FROM r GROUP BY r.b"), server.catalog
            )

    def test_star_expansion(self, server):
        info = analyze_select(parse("SELECT * FROM r"), server.catalog)
        assert [name for _, name in info.items] == ["a", "b", "c"]

    def test_from_subquery_becomes_derived_operand(self, server):
        info = analyze_select(
            parse("SELECT t.a FROM (SELECT a FROM r) t WHERE t.a > 1"), server.catalog
        )
        operand = info.operand("t")
        assert operand.derived is not None and operand.derived.select.from_items[0].name == "r"
        assert operand.schema.names() == ["a"]
        assert len(operand.conjuncts) == 1  # the outer filter on the derived rows
        plan = server.optimizer.optimize_info(info)
        assert "derived" in plan.explain() or plan.summary() == "scan(r)"
        assert server.execute("SELECT t.a FROM (SELECT a FROM r) t WHERE t.a > 1").rows \
            == server.execute("SELECT r.a FROM r WHERE r.a > 1").rows

    def test_where_subquery_becomes_post_conjunct(self, server):
        info = analyze_select(
            parse("SELECT r.a FROM r WHERE EXISTS (SELECT 1 FROM s WHERE s.x = r.a)"),
            server.catalog,
        )
        assert len(info.post_conjuncts) == 1
        assert info.subqueries == [info.post_conjuncts[0]]
        # Conservative: every column of r marked needed.
        assert info.operand("r").needed_columns == {"a", "b", "c"}

    def test_unknown_table_raises(self, server):
        with pytest.raises(CatalogError):
            analyze_select(parse("SELECT z.a FROM zzz z"), server.catalog)


class TestSelectivity:
    def test_eq_uses_ndv(self, server):
        info = analyze_select(parse("SELECT r.a FROM r WHERE r.a = 5"), server.catalog)
        operand = info.operand("r")
        sel = estimate_selectivity(operand.stats, operand.conjuncts, operand.sargs)
        assert sel == pytest.approx(0.01)

    def test_range_interpolates(self, server):
        info = analyze_select(
            parse("SELECT r.a FROM r WHERE r.c BETWEEN 1 AND 50"), server.catalog
        )
        operand = info.operand("r")
        sel = estimate_selectivity(operand.stats, operand.conjuncts, operand.sargs)
        assert 0.3 < sel < 0.7

    def test_conjunction_multiplies(self, server):
        info = analyze_select(
            parse("SELECT r.a FROM r WHERE r.a = 5 AND r.b = 3"), server.catalog
        )
        operand = info.operand("r")
        sel = estimate_selectivity(operand.stats, operand.conjuncts, operand.sargs)
        assert sel == pytest.approx(0.01 * 0.1)


class TestBackendPlans:
    def test_join_uses_equijoin_not_cartesian(self, server):
        plan = server.optimize("SELECT r.a, s.y FROM r, s WHERE r.a = s.x")
        result = server.execute("SELECT r.a, s.y FROM r, s WHERE r.a = s.x")
        assert len(result.rows) == 100

    def test_nl_join_available_for_selective_outer(self, server):
        # Selective predicate on r, join into s's pk: NL join should win.
        plan = server.optimize(
            "SELECT r.a, s.y FROM r, s WHERE r.a = s.x AND r.a = 5"
        )
        assert "IndexNLJoin" in plan.explain() or "IndexSeek" in plan.explain()

    def test_three_way_join(self, server):
        server.create_table("CREATE TABLE t3 (x INT NOT NULL, z INT, PRIMARY KEY (x))")
        for i in range(1, 101):
            server.execute(f"INSERT INTO t3 VALUES ({i}, {i})")
        server.refresh_statistics()
        result = server.execute(
            "SELECT r.a, t3.z FROM r, s, t3 WHERE r.a = s.x AND s.x = t3.x AND r.a < 5"
        )
        assert len(result.rows) == 4

    def test_plan_reusable_across_executions(self, server):
        plan = server.optimize("SELECT r.a FROM r WHERE r.a < 5")
        root = plan.root()
        from repro.engine.executor import Executor

        executor = Executor()
        first = executor.execute(root, column_names=plan.column_names)
        second = executor.execute(root, column_names=plan.column_names)
        assert first.rows == second.rows

    def test_order_by_select_alias(self, server):
        result = server.execute(
            "SELECT r.b AS grp, COUNT(*) AS n FROM r GROUP BY r.b ORDER BY grp DESC"
        )
        assert result.rows[0][0] == 9
