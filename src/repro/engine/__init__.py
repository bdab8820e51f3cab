"""Physical execution engine: operators that stream column batches (or,
for tiny plans, materialize one row list) over explicit setup / run /
shutdown phases, plus expression compilation to row closures."""

from repro.engine.expressions import ExpressionContext, OutputCol, RowBinding, compile_expr
from repro.engine.executor import ExecutionContext, Executor, PhaseTimings, QueryResult
from repro.engine.operators import (
    DEFAULT_BATCH_SIZE,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    IndexNLJoin,
    IndexRangeScan,
    IndexSeek,
    Limit,
    Materialized,
    MergeJoin,
    PhysicalOperator,
    Project,
    RemoteQuery,
    SeqScan,
    Sort,
    SwitchUnion,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "Distinct",
    "ExecutionContext",
    "Executor",
    "ExpressionContext",
    "Filter",
    "Materialized",
    "HashAggregate",
    "HashJoin",
    "IndexNLJoin",
    "IndexRangeScan",
    "IndexSeek",
    "Limit",
    "MergeJoin",
    "OutputCol",
    "PhaseTimings",
    "PhysicalOperator",
    "Project",
    "QueryResult",
    "RemoteQuery",
    "RowBinding",
    "SeqScan",
    "Sort",
    "SwitchUnion",
    "compile_expr",
]
