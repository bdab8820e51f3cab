"""Plan snapshots: serialize an optimized plan, instantiate it anywhere.

A snapshot is a plain dict (json.dumps-compatible) describing a physical
operator tree:

* tables and indexes by *name*, resolved against the instantiating
  node's catalog;
* every compiled predicate / key / projection as the restricted
  expression IR of :mod:`repro.engine.ir` (``fn.ir``, attached by
  ``compile_expr``) — closures are rebuilt locally with identical
  three-valued semantics;
* currency guards by their parameters (``view``, ``bound``, ``shard``,
  from ``selector.guard_params``) — the guard itself is *rebuilt by the
  instantiating node* against its own local heartbeat state, never
  shipped;
* remote queries by SQL text plus their shard pin;
* the optimizer's per-operator estimates (``est_rows`` / ``est_cost``),
  re-stamped at instantiation so EXPLAIN ANALYZE and the executor's
  adaptive columnar threshold behave identically.

Anything outside that vocabulary — subquery-bearing closures (no IR),
operators over buffered row sets — raises :class:`SnapshotUnsupported`;
callers fall back to normal optimization.  ``version`` gates the format:
an instantiating node refuses snapshots from a different format version.
"""

from repro.common.errors import ExecutionError
from repro.engine import ir as eir
from repro.engine import operators as ops
from repro.engine.expressions import ExpressionContext, OutputCol, RowBinding
from repro.optimizer.candidates import stamp_estimates

#: Format version; bump on any change to the snapshot vocabulary.
SNAPSHOT_VERSION = 1

__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotPlan",
    "SnapshotUnsupported",
    "serialize_plan",
    "instantiate_snapshot",
]


class SnapshotUnsupported(ExecutionError):
    """The plan cannot be expressed in the snapshot vocabulary."""


_SCALARS = (bool, int, float, str)


def _scalar(value, what):
    if value is not None and not isinstance(value, _SCALARS):
        raise SnapshotUnsupported(f"non-scalar {what}: {value!r}")
    return value


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def _binding_obj(binding):
    if binding is None:
        raise SnapshotUnsupported("operator without an output binding")
    if binding.outer is not None:
        raise SnapshotUnsupported("binding with an outer scope")
    return [[c.qualifier, c.name] for c in binding.columns]


def _expr_obj(fn, what="predicate"):
    if fn is None:
        return None
    node = getattr(fn, "ir", None)
    if node is None:
        raise SnapshotUnsupported(f"{what} has no IR (subquery or correlated)")
    # A template's bindable literals serialize as the constants bound now.
    return eir.to_obj(node, getattr(fn, "params", None))


def _expr_objs(fns, what):
    return [_expr_obj(fn, what) for fn in fns]


def serialize_plan(plan, engine=None):
    """Serialize an :class:`~repro.optimizer.optimizer.OptimizedPlan`
    (or any object exposing ``root()`` / ``column_names`` / ``cost`` /
    ``est_rows``) into a snapshot dict, or raise
    :class:`SnapshotUnsupported`."""
    root = plan.root()
    snapshot = {
        "version": SNAPSHOT_VERSION,
        "engine": engine,
        "column_names": list(plan.column_names or []),
        "cost": float(plan.cost) if plan.cost is not None else None,
        "est_rows": float(plan.est_rows) if plan.est_rows is not None else None,
        "root": _serialize_op(root),
    }
    return snapshot


def _serialize_op(op):
    record = _OP_SERIALIZERS.get(type(op))
    if record is None:
        raise SnapshotUnsupported(f"operator {type(op).__name__} cannot snapshot")
    out = record(op)
    out["est_rows"] = op.est_rows
    out["est_cost"] = op.est_cost
    return out


def _ser_seq_scan(op):
    return {
        "op": "SeqScan",
        "table": op.table.name,
        "binding": _binding_obj(op.output),
        "predicate": _expr_obj(op.predicate),
    }


def _ser_index_seek(op):
    out = {
        "op": "IndexSeek",
        "table": op.table.name,
        "index": op.index.name,
        "keys": _expr_objs(op.key_fns, "index key"),
        "binding": _binding_obj(op.output),
        "predicate": _expr_obj(op.predicate),
    }
    # Only an IN seek carries "in": an equality seek's record is unchanged.
    if op.in_fns is not None:
        out["in"] = _expr_objs(op.in_fns, "IN item")
    return out


def _ser_index_range(op):
    def key_obj(key):
        if key is None:
            return None
        return [_scalar(v, "range key component") for v in key]

    return {
        "op": "IndexRangeScan",
        "table": op.table.name,
        "index": op.index.name,
        "low": key_obj(op.low),
        "high": key_obj(op.high),
        "low_inclusive": op.low_inclusive,
        "high_inclusive": op.high_inclusive,
        "binding": _binding_obj(op.output),
        "predicate": _expr_obj(op.predicate),
    }


def _ser_filter(op):
    return {
        "op": "Filter",
        "child": _serialize_op(op.child),
        "binding": _binding_obj(op.output),
        "predicate": _expr_obj(op.predicate),
    }


def _ser_project(op):
    return {
        "op": "Project",
        "child": _serialize_op(op.child),
        "exprs": _expr_objs(op.exprs, "projection"),
        "binding": _binding_obj(op.output),
    }


def _ser_hash_join(op):
    return {
        "op": type(op).__name__,  # HashJoin | MergeJoin
        "left": _serialize_op(op.left),
        "right": _serialize_op(op.right),
        "left_keys": _expr_objs(op.left_key_fns, "join key"),
        "right_keys": _expr_objs(op.right_key_fns, "join key"),
        "binding": _binding_obj(op.output),
        "residual": _expr_obj(op.residual, "join residual"),
    }


def _ser_semi_join(op):
    return {
        "op": type(op).__name__,  # HashSemiJoin | HashAntiJoin
        "left": _serialize_op(op.left),
        "right": _serialize_op(op.right),
        "left_keys": _expr_objs(op.left_key_fns, "join key"),
        "right_keys": _expr_objs(op.right_key_fns, "join key"),
        "binding": _binding_obj(op.output),
    }


def _ser_index_nl_join(op):
    return {
        "op": "IndexNLJoin",
        "outer": _serialize_op(op.outer),
        "inner": _serialize_op(op.inner),
        "binding": _binding_obj(op.output),
        "residual": _expr_obj(op.residual, "join residual"),
        "outer_keys": op.outer_keys,
    }


def _ser_sort(op):
    return {
        "op": "Sort",
        "child": _serialize_op(op.child),
        "keys": _expr_objs(op.key_fns, "sort key"),
        "descending": list(op.descending),
        "binding": _binding_obj(op.output),
    }


def _ser_aggregate(op):
    return {
        "op": "HashAggregate",
        "child": _serialize_op(op.child),
        "groups": _expr_objs(op.group_fns, "group key"),
        "aggs": [
            [spec.func, _expr_obj(spec.arg_fn, "aggregate argument")]
            for spec in op.agg_specs
        ],
        "binding": _binding_obj(op.output),
        "having": _expr_obj(op.having, "HAVING"),
    }


def _ser_distinct(op):
    return {"op": "Distinct", "child": _serialize_op(op.child)}


def _ser_limit(op):
    return {"op": "Limit", "child": _serialize_op(op.child), "limit": op.limit}


def _ser_switch_union(op):
    guard = getattr(op.selector, "guard_params", None)
    if guard is None:
        raise SnapshotUnsupported("SwitchUnion selector without guard_params")
    return {
        "op": "SwitchUnion",
        "inputs": [_serialize_op(child) for child in op.inputs],
        "guard": {
            "view": guard["view"],
            "bound": _scalar(guard["bound"], "currency bound"),
            "shard": guard["shard"],
        },
        "binding": _binding_obj(op.output),
        "label": op.label,
    }


def _ser_remote_query(op):
    return {
        "op": "RemoteQuery",
        "sql": op.sql,
        "binding": _binding_obj(op.output),
        "shards": None if op.shards is None else list(op.shards),
    }


_OP_SERIALIZERS = {
    ops.SeqScan: _ser_seq_scan,
    ops.IndexSeek: _ser_index_seek,
    ops.IndexRangeScan: _ser_index_range,
    ops.Filter: _ser_filter,
    ops.Project: _ser_project,
    ops.HashJoin: _ser_hash_join,
    ops.MergeJoin: _ser_hash_join,
    ops.HashSemiJoin: _ser_semi_join,
    ops.HashAntiJoin: _ser_semi_join,
    ops.IndexNLJoin: _ser_index_nl_join,
    ops.Sort: _ser_sort,
    ops.HashAggregate: _ser_aggregate,
    ops.Distinct: _ser_distinct,
    ops.Limit: _ser_limit,
    ops.SwitchUnion: _ser_switch_union,
    ops.RemoteQuery: _ser_remote_query,
}


# ----------------------------------------------------------------------
# Instantiation
# ----------------------------------------------------------------------
class _Instantiator:
    """Builds a live operator tree from a snapshot against one host.

    The host is an :class:`~repro.cache.mtcache.MTCache` (or FleetNode):
    it supplies the catalog the table/index/view names resolve against,
    ``make_currency_guard`` for SwitchUnion selectors, ``remote_executor``
    for RemoteQuery, and the clock for GETDATE().
    """

    def __init__(self, host):
        self.host = host
        self.ctx = ExpressionContext(clock=getattr(host, "clock", None))

    def _table(self, name):
        catalog = self.host.catalog
        if getattr(catalog, "has_matview", None) and catalog.has_matview(name):
            return catalog.matview(name).table
        try:
            return catalog.table(name).table
        except Exception:
            raise SnapshotUnsupported(f"unknown table {name!r} on this node") from None

    def _index(self, table, name):
        index = table.indexes.get(name)
        if index is None:
            raise SnapshotUnsupported(
                f"index {name!r} missing on {table.name!r}"
            )
        return index

    def _binding(self, obj):
        return RowBinding([OutputCol(name, qualifier) for qualifier, name in obj])

    def _expr(self, obj):
        if obj is None:
            return None
        return eir.compile_ir(eir.from_obj(obj), self.ctx)

    def _exprs(self, objs):
        return [self._expr(o) for o in objs]

    def build(self, node):
        builder = getattr(self, "_build_" + node["op"], None)
        if builder is None:
            raise SnapshotUnsupported(f"unknown snapshot operator {node['op']!r}")
        op = builder(node)
        return stamp_estimates(op, node.get("est_rows"), node.get("est_cost"))

    def _build_SeqScan(self, node):
        return ops.SeqScan(
            self._table(node["table"]),
            self._binding(node["binding"]),
            predicate=self._expr(node["predicate"]),
        )

    def _build_IndexSeek(self, node):
        table = self._table(node["table"])
        return ops.IndexSeek(
            table,
            self._index(table, node["index"]),
            self._exprs(node["keys"]),
            self._binding(node["binding"]),
            predicate=self._expr(node["predicate"]),
            in_fns=self._exprs(node["in"]) if "in" in node else None,
        )

    def _build_IndexRangeScan(self, node):
        table = self._table(node["table"])
        return ops.IndexRangeScan(
            table,
            self._index(table, node["index"]),
            self._binding(node["binding"]),
            low=None if node["low"] is None else tuple(node["low"]),
            high=None if node["high"] is None else tuple(node["high"]),
            low_inclusive=node["low_inclusive"],
            high_inclusive=node["high_inclusive"],
            predicate=self._expr(node["predicate"]),
        )

    def _build_Filter(self, node):
        return ops.Filter(
            self.build(node["child"]),
            self._expr(node["predicate"]),
            output=self._binding(node["binding"]),
        )

    def _build_Project(self, node):
        return ops.Project(
            self.build(node["child"]),
            self._exprs(node["exprs"]),
            self._binding(node["binding"]),
        )

    def _join_args(self, node):
        return (
            self.build(node["left"]),
            self.build(node["right"]),
            self._exprs(node["left_keys"]),
            self._exprs(node["right_keys"]),
        )

    def _build_HashJoin(self, node):
        left, right, lk, rk = self._join_args(node)
        return ops.HashJoin(
            left, right, lk, rk,
            self._binding(node["binding"]),
            residual=self._expr(node["residual"]),
        )

    def _build_MergeJoin(self, node):
        left, right, lk, rk = self._join_args(node)
        return ops.MergeJoin(
            left, right, lk, rk,
            self._binding(node["binding"]),
            residual=self._expr(node["residual"]),
        )

    def _build_HashSemiJoin(self, node):
        left, right, lk, rk = self._join_args(node)
        return ops.HashSemiJoin(left, right, lk, rk, output=self._binding(node["binding"]))

    def _build_HashAntiJoin(self, node):
        left, right, lk, rk = self._join_args(node)
        return ops.HashAntiJoin(left, right, lk, rk, output=self._binding(node["binding"]))

    def _build_IndexNLJoin(self, node):
        return ops.IndexNLJoin(
            self.build(node["outer"]),
            self.build(node["inner"]),
            self._binding(node["binding"]),
            residual=self._expr(node["residual"]),
            outer_keys=node.get("outer_keys"),
        )

    def _build_Sort(self, node):
        return ops.Sort(
            self.build(node["child"]),
            self._exprs(node["keys"]),
            list(node["descending"]),
            output=self._binding(node["binding"]),
        )

    def _build_HashAggregate(self, node):
        return ops.HashAggregate(
            self.build(node["child"]),
            self._exprs(node["groups"]),
            [ops.AggregateSpec(func, self._expr(arg)) for func, arg in node["aggs"]],
            self._binding(node["binding"]),
            having=self._expr(node["having"]),
        )

    def _build_Distinct(self, node):
        return ops.Distinct(self.build(node["child"]))

    def _build_Limit(self, node):
        return ops.Limit(self.build(node["child"]), node["limit"])

    def _build_SwitchUnion(self, node):
        guard = node["guard"]
        catalog = self.host.catalog
        try:
            view = catalog.matview(guard["view"])
        except Exception:
            raise SnapshotUnsupported(
                f"view {guard['view']!r} missing on this node"
            ) from None
        selector = self.host.make_currency_guard(
            view, guard["bound"], shard=guard["shard"]
        )
        return ops.SwitchUnion(
            [self.build(child) for child in node["inputs"]],
            selector,
            self._binding(node["binding"]),
            label=node["label"],
        )

    def _build_RemoteQuery(self, node):
        host = self.host
        shards = node["shards"]
        if shards is None:
            executor = host.remote_executor
        else:
            shards = tuple(shards)

            def executor(sql, _host=host, _shards=shards):
                return _host.remote_executor(sql, shards=_shards)

        return ops.RemoteQuery(
            node["sql"], self._binding(node["binding"]), executor, shards=shards
        )


class SnapshotPlan:
    """An instantiated snapshot, duck-typed to
    :class:`~repro.optimizer.optimizer.OptimizedPlan`: ``root()`` /
    ``column_names`` / ``cost`` / ``est_rows`` / ``summary()``.  It slots
    straight into the MTCache plan cache and executor."""

    kind = "snapshot"
    query_info = None

    def __init__(self, snapshot, host):
        self.snapshot = snapshot
        self.column_names = list(snapshot["column_names"])
        self._host = host
        self._root = None
        self._summary = None

    @property
    def cost(self):
        return self.snapshot["cost"]

    @property
    def est_rows(self):
        return self.snapshot["est_rows"]

    def root(self):
        if self._root is None:
            self._root = _Instantiator(self._host).build(self.snapshot["root"])
        return self._root

    def explain(self):
        return self.root().explain()

    def summary(self):
        if self._summary is None:
            from repro.optimizer.optimizer import _summarize

            self._summary = _summarize(self.root())
        return self._summary

    def __repr__(self):
        return f"SnapshotPlan(cost={self.cost}, columns={self.column_names})"


def instantiate_snapshot(snapshot, host):
    """Turn a snapshot dict into an executable :class:`SnapshotPlan` on
    ``host``, building (and thereby validating) the operator tree once.
    Raises :class:`SnapshotUnsupported` on version mismatch or when any
    named table/index/view does not exist on the host."""
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotUnsupported(
            f"snapshot format v{version!r} (this node speaks v{SNAPSHOT_VERSION})"
        )
    plan = SnapshotPlan(snapshot, host)
    plan.root()  # build eagerly: fail here, not at execute time
    return plan
