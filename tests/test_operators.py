"""Tests for physical operators and the executor."""

import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import ExecutionError
from repro.engine import operators as ops
from repro.engine.columnar import ColumnBatch
from repro.engine.executor import ExecutionContext, Executor
from repro.engine.expressions import (
    ExpressionContext,
    OutputCol,
    RowBinding,
    compile_expr,
)
from repro.sql.parser import parse_expression
from repro.storage.schema import Column, DataType, Schema
from repro.storage.table import HeapTable


def make_table(rows):
    schema = Schema(
        [
            Column("id", DataType.INT, nullable=False),
            Column("grp", DataType.INT),
            Column("v", DataType.FLOAT),
        ]
    )
    table = HeapTable("t", schema, primary_key=["id"])
    for row in rows:
        table.insert(row)
    return table


def binding_for(alias="t"):
    return RowBinding([OutputCol("id", alias), OutputCol("grp", alias), OutputCol("v", alias)])


def predicate(sql, binding):
    return compile_expr(parse_expression(sql), binding, ExpressionContext())


def run_op(op):
    executor = Executor(clock=SimulatedClock())
    return executor.execute(op)


ROWS = [(1, 1, 10.0), (2, 1, 20.0), (3, 2, 30.0), (4, 2, 40.0), (5, 3, 50.0)]


class TestScans:
    def test_seq_scan_all(self):
        result = run_op(ops.SeqScan(make_table(ROWS), binding_for()))
        assert len(result.rows) == 5

    def test_seq_scan_with_predicate(self):
        binding = binding_for()
        scan = ops.SeqScan(make_table(ROWS), binding, predicate=predicate("t.v > 25", binding))
        assert [r[0] for r in run_op(scan).rows] == [3, 4, 5]

    def test_index_seek(self):
        table = make_table(ROWS)
        binding = binding_for()
        seek = ops.IndexSeek(
            table, table.clustered_index(), [lambda env: 3], binding
        )
        assert run_op(seek).rows == [(3, 2, 30.0)]

    def test_index_seek_miss(self):
        table = make_table(ROWS)
        seek = ops.IndexSeek(table, table.clustered_index(), [lambda env: 99], binding_for())
        assert run_op(seek).rows == []

    def test_index_range_scan(self):
        table = make_table(ROWS)
        scan = ops.IndexRangeScan(
            table, table.clustered_index(), binding_for(), low=(2,), high=(4,)
        )
        assert [r[0] for r in run_op(scan).rows] == [2, 3, 4]

    def test_index_range_scan_with_residual(self):
        table = make_table(ROWS)
        binding = binding_for()
        scan = ops.IndexRangeScan(
            table,
            table.clustered_index(),
            binding,
            low=(2,),
            high=(5,),
            predicate=predicate("t.grp = 2", binding),
        )
        assert [r[0] for r in run_op(scan).rows] == [3, 4]

    def test_secondary_index_order(self):
        table = make_table(ROWS)
        ix = table.create_index("by_v", ["v"])
        scan = ops.IndexRangeScan(table, ix, binding_for(), low=(15.0,))
        assert [r[2] for r in run_op(scan).rows] == [20.0, 30.0, 40.0, 50.0]


class TestFilterProject:
    def test_filter(self):
        binding = binding_for()
        plan = ops.Filter(
            ops.SeqScan(make_table(ROWS), binding), predicate("t.grp = 1", binding)
        )
        assert len(run_op(plan).rows) == 2

    def test_project(self):
        binding = binding_for()
        out = RowBinding([OutputCol("twice")])
        plan = ops.Project(
            ops.SeqScan(make_table(ROWS), binding),
            [compile_expr(parse_expression("t.v * 2"), binding)],
            out,
        )
        assert run_op(plan).rows[0] == (20.0,)


class TestJoins:
    def left_rows(self):
        return [(1, "a"), (2, "b"), (3, "c")]

    def right_rows(self):
        return [(1, 10.0), (1, 11.0), (3, 30.0), (4, 40.0)]

    def make_sides(self):
        lb = RowBinding([OutputCol("k", "l"), OutputCol("name", "l")])
        rb = RowBinding([OutputCol("k", "r"), OutputCol("v", "r")])
        left = ops.Materialized(self.left_rows(), lb)
        right = ops.Materialized(self.right_rows(), rb)
        return left, right, lb, rb

    def key_fn(self, binding, sql):
        return compile_expr(parse_expression(sql), binding)

    def test_hash_join(self):
        left, right, lb, rb = self.make_sides()
        plan = ops.HashJoin(
            left, right, [self.key_fn(lb, "l.k")], [self.key_fn(rb, "r.k")], lb.concat(rb)
        )
        rows = run_op(plan).rows
        assert sorted(rows) == [(1, "a", 1, 10.0), (1, "a", 1, 11.0), (3, "c", 3, 30.0)]

    def test_hash_join_empty_keys_is_cross_product(self):
        left, right, lb, rb = self.make_sides()
        plan = ops.HashJoin(left, right, [], [], lb.concat(rb))
        assert len(run_op(plan).rows) == 12

    def test_hash_join_null_keys_never_match(self):
        lb = RowBinding([OutputCol("k", "l")])
        rb = RowBinding([OutputCol("k", "r")])
        left = ops.Materialized([(None,), (1,)], lb)
        right = ops.Materialized([(None,), (1,)], rb)
        plan = ops.HashJoin(
            left, right, [self.key_fn(lb, "l.k")], [self.key_fn(rb, "r.k")], lb.concat(rb)
        )
        assert run_op(plan).rows == [(1, 1)]

    def test_hash_join_residual(self):
        left, right, lb, rb = self.make_sides()
        combined = lb.concat(rb)
        plan = ops.HashJoin(
            left,
            right,
            [self.key_fn(lb, "l.k")],
            [self.key_fn(rb, "r.k")],
            combined,
            residual=predicate("r.v > 10.5", combined),
        )
        assert sorted(run_op(plan).rows) == [(1, "a", 1, 11.0), (3, "c", 3, 30.0)]

    def test_merge_join(self):
        left, right, lb, rb = self.make_sides()
        plan = ops.MergeJoin(
            left, right, [self.key_fn(lb, "l.k")], [self.key_fn(rb, "r.k")], lb.concat(rb)
        )
        rows = run_op(plan).rows
        assert sorted(rows) == [(1, "a", 1, 10.0), (1, "a", 1, 11.0), (3, "c", 3, 30.0)]

    def test_merge_join_right_side_behind(self):
        # Regression: with gaps on the left, the right side must skip
        # forward (the advance condition once read `rk > lk` and silently
        # produced misaligned pairs).
        lb = RowBinding([OutputCol("k", "l")])
        rb = RowBinding([OutputCol("k", "r")])
        left = ops.Materialized([(1,), (8,), (9,)], lb)
        right = ops.Materialized([(i,) for i in range(1, 11)], rb)
        plan = ops.MergeJoin(
            left, right, [self.key_fn(lb, "l.k")], [self.key_fn(rb, "r.k")], lb.concat(rb)
        )
        assert run_op(plan).rows == [(1, 1), (8, 8), (9, 9)]

    def test_merge_join_duplicate_blocks_both_sides(self):
        lb = RowBinding([OutputCol("k", "l")])
        rb = RowBinding([OutputCol("k", "r")])
        left = ops.Materialized([(1,), (1,), (2,)], lb)
        right = ops.Materialized([(1,), (1,), (2,)], rb)
        plan = ops.MergeJoin(
            left, right, [self.key_fn(lb, "l.k")], [self.key_fn(rb, "r.k")], lb.concat(rb)
        )
        assert len(run_op(plan).rows) == 5  # 2x2 + 1

    def test_index_nl_join(self):
        table = make_table(ROWS)
        outer_binding = RowBinding([OutputCol("okey", "o")])
        outer = ops.Materialized([(2,), (5,), (9,)], outer_binding)
        inner_binding = binding_for()
        key_binding = RowBinding([], outer=outer_binding)
        inner = ops.IndexSeek(
            table,
            table.clustered_index(),
            [compile_expr(parse_expression("o.okey"), key_binding)],
            inner_binding,
        )
        plan = ops.IndexNLJoin(outer, inner, outer_binding.concat(inner_binding))
        rows = run_op(plan).rows
        assert sorted(r[1] for r in rows) == [2, 5]


class TestAggregation:
    def test_group_by_count_sum(self):
        binding = binding_for()
        out = RowBinding([OutputCol("grp"), OutputCol("n"), OutputCol("total")])
        plan = ops.HashAggregate(
            ops.SeqScan(make_table(ROWS), binding),
            [compile_expr(parse_expression("t.grp"), binding)],
            [
                ops.AggregateSpec("count", None),
                ops.AggregateSpec("sum", compile_expr(parse_expression("t.v"), binding)),
            ],
            out,
        )
        rows = sorted(run_op(plan).rows)
        assert rows == [(1, 2, 30.0), (2, 2, 70.0), (3, 1, 50.0)]

    def test_avg_min_max(self):
        binding = binding_for()
        out = RowBinding([OutputCol("a"), OutputCol("lo"), OutputCol("hi")])
        v = compile_expr(parse_expression("t.v"), binding)
        plan = ops.HashAggregate(
            ops.SeqScan(make_table(ROWS), binding),
            [],
            [
                ops.AggregateSpec("avg", v),
                ops.AggregateSpec("min", v),
                ops.AggregateSpec("max", v),
            ],
            out,
        )
        assert run_op(plan).rows == [(30.0, 10.0, 50.0)]

    def test_scalar_aggregate_on_empty_input(self):
        binding = binding_for()
        out = RowBinding([OutputCol("n"), OutputCol("s")])
        plan = ops.HashAggregate(
            ops.SeqScan(make_table([]), binding),
            [],
            [
                ops.AggregateSpec("count", None),
                ops.AggregateSpec("sum", compile_expr(parse_expression("t.v"), binding)),
            ],
            out,
        )
        assert run_op(plan).rows == [(0, None)]

    def test_group_aggregate_on_empty_input_no_rows(self):
        binding = binding_for()
        out = RowBinding([OutputCol("grp"), OutputCol("n")])
        plan = ops.HashAggregate(
            ops.SeqScan(make_table([]), binding),
            [compile_expr(parse_expression("t.grp"), binding)],
            [ops.AggregateSpec("count", None)],
            out,
        )
        assert run_op(plan).rows == []

    def test_count_expr_skips_nulls(self):
        binding = RowBinding([OutputCol("x", "t")])
        source = ops.Materialized([(1,), (None,), (3,)], binding)
        out = RowBinding([OutputCol("n")])
        plan = ops.HashAggregate(
            source,
            [],
            [ops.AggregateSpec("count", compile_expr(parse_expression("t.x"), binding))],
            out,
        )
        assert run_op(plan).rows == [(2,)]

    def test_having_filters_groups(self):
        binding = binding_for()
        out = RowBinding([OutputCol("grp"), OutputCol("n")])
        having = compile_expr(parse_expression("n > 1"), out)
        plan = ops.HashAggregate(
            ops.SeqScan(make_table(ROWS), binding),
            [compile_expr(parse_expression("t.grp"), binding)],
            [ops.AggregateSpec("count", None)],
            out,
            having=having,
        )
        assert sorted(run_op(plan).rows) == [(1, 2), (2, 2)]


class TestSortDistinctLimit:
    def test_sort_asc(self):
        binding = binding_for()
        plan = ops.Sort(
            ops.SeqScan(make_table([(3, 1, 1.0), (1, 1, 2.0), (2, 1, 3.0)]), binding),
            [compile_expr(parse_expression("t.id"), binding)],
            [False],
        )
        assert [r[0] for r in run_op(plan).rows] == [1, 2, 3]

    def test_sort_desc(self):
        binding = binding_for()
        plan = ops.Sort(
            ops.SeqScan(make_table(ROWS), binding),
            [compile_expr(parse_expression("t.v"), binding)],
            [True],
        )
        assert [r[2] for r in run_op(plan).rows][:2] == [50.0, 40.0]

    def test_sort_multi_key_mixed(self):
        binding = binding_for()
        rows = [(1, 2, 5.0), (2, 1, 5.0), (3, 2, 1.0), (4, 1, 9.0)]
        plan = ops.Sort(
            ops.SeqScan(make_table(rows), binding),
            [
                compile_expr(parse_expression("t.grp"), binding),
                compile_expr(parse_expression("t.v"), binding),
            ],
            [False, True],
        )
        assert [r[0] for r in run_op(plan).rows] == [4, 2, 1, 3]

    def test_sort_nulls_first(self):
        binding = RowBinding([OutputCol("x", "t")])
        source = ops.Materialized([(2,), (None,), (1,)], binding)
        plan = ops.Sort(source, [compile_expr(parse_expression("t.x"), binding)], [False])
        assert run_op(plan).rows == [(None,), (1,), (2,)]

    def test_distinct(self):
        binding = RowBinding([OutputCol("x", "t")])
        source = ops.Materialized([(1,), (2,), (1,)], binding)
        assert sorted(run_op(ops.Distinct(source)).rows) == [(1,), (2,)]

    def test_limit(self):
        binding = binding_for()
        plan = ops.Limit(ops.SeqScan(make_table(ROWS), binding), 2)
        assert len(run_op(plan).rows) == 2

    def test_limit_zero(self):
        binding = binding_for()
        plan = ops.Limit(ops.SeqScan(make_table(ROWS), binding), 0)
        assert run_op(plan).rows == []


class TestSwitchUnion:
    def make(self, selector):
        binding = RowBinding([OutputCol("x")])
        a = ops.Materialized([("a",)], binding)
        b = ops.Materialized([("b",)], binding)
        return ops.SwitchUnion([a, b], selector, binding, label="guard")

    def test_selects_first(self):
        result = run_op(self.make(lambda ctx: 0))
        assert result.rows == [("a",)]
        assert result.context.branches == [("guard", 0)]

    def test_selects_second(self):
        result = run_op(self.make(lambda ctx: 1))
        assert result.rows == [("b",)]

    def test_bad_selector_index(self):
        plan = self.make(lambda ctx: 5)
        with pytest.raises(ExecutionError):
            run_op(plan)

    def test_last_chosen_survives_close(self):
        plan = self.make(lambda ctx: 1)
        run_op(plan)
        assert plan.chosen is None
        assert plan.last_chosen == 1

    def test_untaken_branch_not_opened(self):
        binding = RowBinding([OutputCol("x")])

        class Exploding(ops.PhysicalOperator):
            output = binding

            def open(self, ctx, outer_env=None):
                raise AssertionError("must not be opened")

        good = ops.Materialized([("ok",)], binding)
        plan = ops.SwitchUnion([good, Exploding()], lambda ctx: 0, binding)
        assert run_op(plan).rows == [("ok",)]


class TestRemoteQuery:
    def test_executes_and_records(self):
        binding = RowBinding([OutputCol("x")])
        calls = []

        def remote(sql):
            calls.append(sql)
            return ColumnBatch.from_rows([(1,), (2,)], 1)

        plan = ops.RemoteQuery("SELECT x FROM t", binding, remote)
        result = run_op(plan)
        assert result.rows == [(1,), (2,)]
        assert calls == ["SELECT x FROM t"]
        assert result.context.remote_queries == [("SELECT x FROM t", 2)]


class TestExecutorPhases:
    def test_phase_timings_nonnegative(self):
        result = run_op(ops.SeqScan(make_table(ROWS), binding_for()))
        timings = result.timings
        assert timings.setup >= 0
        assert timings.run >= 0
        assert timings.shutdown >= 0
        assert timings.total == pytest.approx(timings.setup + timings.run + timings.shutdown)

    def test_result_helpers(self):
        result = run_op(ops.SeqScan(make_table(ROWS), binding_for()))
        assert result.columns == ["id", "grp", "v"]
        assert result.column("id") == [1, 2, 3, 4, 5]
        assert result.as_dicts()[0]["v"] == 10.0

    def test_scalar_helper(self):
        binding = RowBinding([OutputCol("x")])
        result = run_op(ops.Materialized([(7,)], binding))
        assert result.scalar() == 7

    def test_scalar_rejects_multirow(self):
        binding = RowBinding([OutputCol("x")])
        result = run_op(ops.Materialized([(7,), (8,)], binding))
        with pytest.raises(ValueError):
            result.scalar()

    def test_explain_renders_tree(self):
        binding = binding_for()
        plan = ops.Filter(
            ops.SeqScan(make_table(ROWS), binding), predicate("t.grp = 1", binding)
        )
        text = plan.explain()
        assert "Filter" in text
        assert "SeqScan(t)" in text
