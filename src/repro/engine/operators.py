"""Physical operators.

Every operator follows the classic iterator protocol, split into explicit
phases so the executor can time them (the paper's Table 4.5 profiles
*setup plan*, *run plan* and *shutdown plan*):

* ``open(ctx, outer_env=None)`` — bind resources, evaluate SwitchUnion
  selectors, issue remote queries;
* ``rows()`` — a generator producing result tuples (row-at-a-time);
* ``batches(size)`` — a generator producing *chunks* (lists of tuples,
  target size ~256), the batch-at-a-time protocol the executor drives;
* ``close()`` — release state.

Batch execution is the primary path: operators that can, exchange chunks
and evaluate expressions in *row mode* (position-resolved closures over
bare tuples, no per-row environment allocation — see
:mod:`repro.engine.expressions`).  The scan operators fuse scan + filter
into a single loop when the predicate is non-correlated, and
:class:`Project` collapses to tuple re-ordering when every output is a
plain column.  ``rows()`` remains fully supported on every operator — the
correlated paths (IndexNLJoin inners, subquery runners) and the
``batch_size=1`` debugging mode still speak it; the base class bridges
each protocol to the other so the two engines always agree.

Operators expose ``output`` — a :class:`~repro.engine.expressions.RowBinding`
describing their result columns — which parent operators use to compile
expressions at plan-build time.
"""

from itertools import islice
from operator import itemgetter

from repro.common.errors import ExecutionError
from repro.engine.columnar import ColumnBatch, column_store
from repro.engine.expressions import make_env, row_fn_of, row_fns_of
from repro.engine.ir import selection_fn
from repro.sql.ast import render_params

#: Target chunk size of the batch protocol.  Large enough to amortize
#: per-batch dispatch, small enough to stay cache-resident.
DEFAULT_BATCH_SIZE = 256

#: The three execution engines, by exchange format: row tuples, row-tuple
#: chunks, and :class:`~repro.engine.columnar.ColumnBatch`.
ENGINES = ("row", "batch", "columnar")

#: Shared rowless environment for evaluating uncorrelated key expressions
#: (expressions only ever read an env, so one instance serves all opens).
_EMPTY_ENV = make_env(())


def coerce_batch_size(value):
    """Validate a batch-size knob: an integer >= 1 (1 = legacy row path)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(
            f"invalid batch_size: {value!r} (expected an integer >= 1; "
            f"1 selects the legacy row-at-a-time engine)"
        )
    return value


def coerce_engine(engine, batch_size=DEFAULT_BATCH_SIZE):
    """Resolve the engine knob: None picks columnar (or row when
    ``batch_size=1``); an explicit name is validated, with ``batch_size=1``
    always forcing the row engine (a 1-row batch is just a slower row)."""
    if engine is None:
        return "row" if batch_size == 1 else "columnar"
    name = str(engine).lower()
    if name not in ENGINES:
        raise ValueError(
            f"invalid engine: {engine!r} (expected one of: {', '.join(ENGINES)})"
        )
    return "row" if batch_size == 1 else name


class PhysicalOperator:
    """Base class for all physical operators."""

    #: RowBinding of the produced rows; set by subclasses.
    output = None

    #: Plan-time estimates stamped by the optimizer (Candidate.operator()
    #: and the finishing builds) for EXPLAIN ANALYZE's estimate-vs-actual
    #: comparison; None on trees built outside the optimizer.
    est_rows = None
    est_cost = None

    def open(self, ctx, outer_env=None):
        raise NotImplementedError

    def rows(self):
        raise NotImplementedError

    def batches(self, size=DEFAULT_BATCH_SIZE):
        """Produce result rows in chunks (lists) of up to ``size`` rows.

        Compatibility default: chunk the ``rows()`` stream.  Batch-native
        operators override this with chunk-at-a-time pipelines.
        """
        it = iter(self.rows())
        while True:
            chunk = list(islice(it, size))
            if not chunk:
                return
            yield chunk

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        """Produce result rows as :class:`ColumnBatch`es.

        Compatibility default: columnarize the ``batches()`` chunks (each
        batch remembers its source rows, so a downstream ``to_rows()`` is
        free).  Columnar-native operators — scans, filters, positional
        projections — override this with per-column pipelines.
        """
        width = len(self.output) if self.output is not None else 0
        for chunk in self.batches(size):
            yield ColumnBatch.from_rows(chunk, width)

    def all_rows(self, size=DEFAULT_BATCH_SIZE):
        """Materialize the whole result as one list of row tuples.

        The executor drives this instead of ``batches()`` when the plan's
        estimated cardinality is tiny (guarded point lookups — the cache's
        hottest request): one list in, one list out, zero generator frames
        on the hot path.  The default drains ``batches()``; operators on
        the point-lookup spine override it with direct list builds.
        """
        out = []
        for chunk in self.batches(size):
            out.extend(chunk)
        return out

    def close(self):
        pass

    # -- helpers for batch-native subclasses ---------------------------
    #: Cached describe() string used as the fused-pipeline label; built on
    #: first use so reused operator trees pay the formatting only once.
    _fused_label = None

    def _record_fused(self, ctx):
        if ctx is not None:
            label = self._fused_label
            if label is None:
                label = self._fused_label = self.describe()
            ctx.record_fused(label)

    # -- introspection -------------------------------------------------
    def children(self):
        return ()

    def explain(self, depth=0):
        """Render the operator tree as an indented string."""
        line = "  " * depth + self.describe()
        parts = [line]
        for child in self.children():
            parts.append(child.explain(depth + 1))
        return "\n".join(parts)

    def describe(self):
        return type(self).__name__

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()


def _chunked(iterable, size):
    """Yield lists of up to ``size`` items."""
    it = iter(iterable)
    while True:
        chunk = list(islice(it, size))
        if not chunk:
            return
        yield chunk


class SeqScan(PhysicalOperator):
    """Full scan of a heap table (base table or local materialized view).

    In batch mode the scan and its predicate fuse into one loop: when the
    predicate is non-correlated it runs in row mode over the stored tuples
    directly, so a filtered scan allocates nothing per row.
    """

    def __init__(self, table, output, predicate=None):
        self.table = table
        self.output = output
        self.predicate = predicate  # compiled fn(env) or None
        self._outer_env = None
        self._ctx = None

    def open(self, ctx, outer_env=None):
        self._ctx = ctx
        self._outer_env = outer_env

    def rows(self):
        predicate = self.predicate
        outer = self._outer_env
        if predicate is None:
            for _, values in self.table.scan():
                yield values
            return
        row_pred = row_fn_of(predicate)
        if row_pred is not None:
            for _, values in self.table.scan():
                if row_pred(values) is True:
                    yield values
        else:
            for _, values in self.table.scan():
                if predicate(make_env(values, outer)) is True:
                    yield values

    def batches(self, size=DEFAULT_BATCH_SIZE):
        predicate = self.predicate
        scan = self.table.scan()
        if predicate is None:
            self._record_fused(self._ctx)
            for chunk in _chunked(scan, size):
                yield [values for _, values in chunk]
            return
        row_pred = row_fn_of(predicate)
        if row_pred is not None:
            # Fused scan+filter: one comprehension per chunk, no envs.
            self._record_fused(self._ctx)
            for chunk in _chunked(scan, size):
                out = [values for _, values in chunk if row_pred(values) is True]
                if out:
                    yield out
            return
        outer = self._outer_env
        for chunk in _chunked(scan, size):
            out = [
                values
                for _, values in chunk
                if predicate(make_env(values, outer)) is True
            ]
            if out:
                yield out

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        """Zero-copy columnar scan: one batch referencing the table's
        column store, with the (IR-compiled) predicate collapsed into a
        selection vector.  Predicates without a columnar kernel fall back
        to the row pipeline."""
        predicate = self.predicate
        store = column_store(self.table)
        if predicate is None:
            self._record_fused(self._ctx)
            return [store] if store.length else []
        sel_fn = selection_fn(getattr(predicate, "ir", None))
        if sel_fn is None:
            return PhysicalOperator.col_batches(self, size)
        self._record_fused(self._ctx)
        if not store.length:
            return []
        sel = sel_fn(store.columns, None, store.length,
                     getattr(predicate, "params", None))
        if not sel:
            return []
        return [ColumnBatch(store.columns, store.length, sel)]

    def describe(self):
        return f"SeqScan({self.table.name})"


class IndexSeek(PhysicalOperator):
    """Point lookup: equality on an index key prefix, optional residual.

    Key evaluation is hoisted to ``open()`` — the key cannot change within
    one execution, so re-deriving it per ``rows()`` call (as the row engine
    once did) only burned allocations on the hottest lookup path.
    """

    def __init__(self, table, index, key_fns, output, predicate=None):
        self.table = table
        self.index = index
        self.key_fns = list(key_fns)  # fn(env of outer) -> key component
        self.output = output
        self.predicate = predicate
        self._outer_env = None
        self._ctx = None
        self._key = None
        # Single-component keys (the common point lookup) skip the
        # key-tuple genexpr at open().
        self._single_key_fn = self.key_fns[0] if len(self.key_fns) == 1 else None

    def open(self, ctx, outer_env=None):
        self._ctx = ctx
        self._outer_env = outer_env
        env = _EMPTY_ENV if outer_env is None else make_env((), outer_env)
        single = self._single_key_fn
        if single is not None:
            self._key = (single(env),)
        else:
            self._key = tuple([fn(env) for fn in self.key_fns])

    def _rid_iter(self):
        key = self._key
        if len(key) == len(self.index.key_positions):
            return self.index.seek(key)
        return (rid for _, rid in self.index.range(low=key, high=key))

    def _rid_list(self):
        key = self._key
        index = self.index
        if len(key) == len(index.key_positions):
            return index.seek_list(key)
        return [rid for _, rid in index.range(low=key, high=key)]

    def rows(self):
        predicate = self.predicate
        outer = self._outer_env
        table_row = self.table.row
        if predicate is None:
            for rid in self._rid_iter():
                yield table_row(rid)
            return
        row_pred = row_fn_of(predicate)
        if row_pred is not None:
            for rid in self._rid_iter():
                values = table_row(rid)
                if row_pred(values) is True:
                    yield values
        else:
            for rid in self._rid_iter():
                values = table_row(rid)
                if predicate(make_env(values, outer)) is True:
                    yield values

    def batches(self, size=DEFAULT_BATCH_SIZE):
        # Equality-seek result sets are small (bounded by one key's
        # duplicates), so materialize the whole fused lookup at once —
        # the hottest batch pipeline there is (guarded point lookups).
        predicate = self.predicate
        table_row = self.table.row
        if predicate is None:
            self._record_fused(self._ctx)
            out = [table_row(rid) for rid in self._rid_iter()]
        else:
            row_pred = row_fn_of(predicate)
            if row_pred is None:
                yield from _chunked(self.rows(), size)
                return
            self._record_fused(self._ctx)
            out = [
                values
                for values in map(table_row, self._rid_iter())
                if row_pred(values) is True
            ]
        for start in range(0, len(out), size):
            yield out[start:start + size]

    def all_rows(self, size=DEFAULT_BATCH_SIZE):
        predicate = self.predicate
        table_row = self.table.row
        if predicate is None:
            self._record_fused(self._ctx)
            return list(map(table_row, self._rid_list()))
        row_pred = row_fn_of(predicate)
        if row_pred is None:
            return list(self.rows())
        self._record_fused(self._ctx)
        return [
            values
            for values in map(table_row, self._rid_list())
            if row_pred(values) is True
        ]

    def describe(self):
        return f"IndexSeek({self.table.name}.{self.index.name})"


class IndexRangeScan(PhysicalOperator):
    """Range scan low <= key <= high over an index prefix."""

    def __init__(
        self,
        table,
        index,
        output,
        low=None,
        high=None,
        low_inclusive=True,
        high_inclusive=True,
        predicate=None,
    ):
        self.table = table
        self.index = index
        self.output = output
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.predicate = predicate
        self._outer_env = None
        self._ctx = None

    def open(self, ctx, outer_env=None):
        self._ctx = ctx
        self._outer_env = outer_env

    def _range(self):
        return self.index.range(
            low=self.low,
            high=self.high,
            low_inclusive=self.low_inclusive,
            high_inclusive=self.high_inclusive,
        )

    def rows(self):
        predicate = self.predicate
        outer = self._outer_env
        table_row = self.table.row
        if predicate is None:
            for _, rid in self._range():
                yield table_row(rid)
            return
        row_pred = row_fn_of(predicate)
        if row_pred is not None:
            for _, rid in self._range():
                values = table_row(rid)
                if row_pred(values) is True:
                    yield values
        else:
            for _, rid in self._range():
                values = table_row(rid)
                if predicate(make_env(values, outer)) is True:
                    yield values

    def batches(self, size=DEFAULT_BATCH_SIZE):
        predicate = self.predicate
        table_row = self.table.row
        if predicate is None:
            self._record_fused(self._ctx)
            for chunk in _chunked(self._range(), size):
                yield [table_row(rid) for _, rid in chunk]
            return
        row_pred = row_fn_of(predicate)
        if row_pred is not None:
            self._record_fused(self._ctx)
            for chunk in _chunked(self._range(), size):
                out = [
                    values
                    for values in (table_row(rid) for _, rid in chunk)
                    if row_pred(values) is True
                ]
                if out:
                    yield out
            return
        yield from _chunked(self.rows(), size)

    def describe(self):
        return (
            f"IndexRangeScan({self.table.name}.{self.index.name} "
            f"[{self.low}..{self.high}])"
        )


class Filter(PhysicalOperator):
    def __init__(self, child, predicate, output=None):
        self.child = child
        self.predicate = predicate
        self.output = output or child.output
        self._outer_env = None
        self._ctx = None

    def children(self):
        return (self.child,)

    def open(self, ctx, outer_env=None):
        self._ctx = ctx
        self._outer_env = outer_env
        self.child.open(ctx, outer_env)

    def rows(self):
        predicate = self.predicate
        row_pred = row_fn_of(predicate)
        if row_pred is not None:
            for row in self.child.rows():
                if row_pred(row) is True:
                    yield row
            return
        outer = self._outer_env
        for row in self.child.rows():
            if predicate(make_env(row, outer)) is True:
                yield row

    def batches(self, size=DEFAULT_BATCH_SIZE):
        predicate = self.predicate
        row_pred = row_fn_of(predicate)
        if row_pred is not None:
            self._record_fused(self._ctx)
            for chunk in self.child.batches(size):
                out = [row for row in chunk if row_pred(row) is True]
                if out:
                    yield out
            return
        outer = self._outer_env
        for chunk in self.child.batches(size):
            out = [row for row in chunk if predicate(make_env(row, outer)) is True]
            if out:
                yield out

    def all_rows(self, size=DEFAULT_BATCH_SIZE):
        predicate = self.predicate
        row_pred = row_fn_of(predicate)
        if row_pred is not None:
            self._record_fused(self._ctx)
            return [
                row for row in self.child.all_rows(size) if row_pred(row) is True
            ]
        outer = self._outer_env
        return [
            row
            for row in self.child.all_rows(size)
            if predicate(make_env(row, outer)) is True
        ]

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        """Columnar filter: shrink the selection vector in place (no row
        materialization).  Predicates without a columnar kernel apply
        their row form to the live rows of each incoming batch."""
        sel_fn = selection_fn(getattr(self.predicate, "ir", None))
        if sel_fn is not None:
            self._record_fused(self._ctx)
            params = getattr(self.predicate, "params", None)
            for batch in self.child.col_batches(size):
                sel = sel_fn(batch.columns, batch.sel, batch.length, params)
                if sel:
                    yield ColumnBatch(batch.columns, batch.length, sel)
            return
        row_pred = row_fn_of(self.predicate)
        if row_pred is not None:
            width = len(self.output)
            for batch in self.child.col_batches(size):
                out = [row for row in batch.to_rows() if row_pred(row) is True]
                if out:
                    yield ColumnBatch.from_rows(out, width)
            return
        yield from PhysicalOperator.col_batches(self, size)

    def close(self):
        self.child.close()

    def describe(self):
        return "Filter"


class Project(PhysicalOperator):
    """Projection.

    Batch fast paths, in decreasing order of specialization: when every
    output expression is a plain local column the projection is pure tuple
    re-ordering; when all expressions are row-mode it evaluates them over
    the bare tuples; otherwise it falls back to per-row environments.
    """

    def __init__(self, child, exprs, output):
        self.child = child
        self.exprs = list(exprs)  # compiled fns
        self.output = output
        self._outer_env = None
        self._ctx = None
        self._row_exprs = row_fns_of(self.exprs)
        positions = [getattr(fn, "column_pos", None) for fn in self.exprs]
        self._positions = positions if all(p is not None for p in positions) else None
        # C-speed row picker for the positional case: itemgetter builds the
        # output tuple without a per-row generator frame (the all_rows fast
        # path maps it straight over the child's materialized list).
        if self._positions is None:
            self._picker = None
        elif len(self._positions) == 1:
            pos = self._positions[0]
            self._picker = lambda row, _p=pos: (row[_p],)
        else:
            self._picker = itemgetter(*self._positions)

    def children(self):
        return (self.child,)

    def open(self, ctx, outer_env=None):
        self._ctx = ctx
        self._outer_env = outer_env
        self.child.open(ctx, outer_env)

    def rows(self):
        row_exprs = self._row_exprs
        if row_exprs is not None:
            for row in self.child.rows():
                yield tuple(fn(row) for fn in row_exprs)
            return
        exprs = self.exprs
        outer = self._outer_env
        for row in self.child.rows():
            env = make_env(row, outer)
            yield tuple(fn(env) for fn in exprs)

    def batches(self, size=DEFAULT_BATCH_SIZE):
        positions = self._positions
        if positions is not None:
            self._record_fused(self._ctx)
            for chunk in self.child.batches(size):
                yield [tuple(row[p] for p in positions) for row in chunk]
            return
        row_exprs = self._row_exprs
        if row_exprs is not None:
            self._record_fused(self._ctx)
            for chunk in self.child.batches(size):
                yield [tuple(fn(row) for fn in row_exprs) for row in chunk]
            return
        exprs = self.exprs
        outer = self._outer_env
        for chunk in self.child.batches(size):
            out = []
            for row in chunk:
                env = make_env(row, outer)
                out.append(tuple(fn(env) for fn in exprs))
            yield out

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        """Columnar projection: pure column picking when every output is
        a plain column reference — no per-row work at all."""
        positions = self._positions
        if positions is None:
            yield from PhysicalOperator.col_batches(self, size)
            return
        self._record_fused(self._ctx)
        for batch in self.child.col_batches(size):
            yield batch.take(positions)

    def all_rows(self, size=DEFAULT_BATCH_SIZE):
        picker = self._picker
        if picker is not None:
            self._record_fused(self._ctx)
            return list(map(picker, self.child.all_rows(size)))
        row_exprs = self._row_exprs
        if row_exprs is not None:
            self._record_fused(self._ctx)
            return [
                tuple(fn(row) for fn in row_exprs)
                for row in self.child.all_rows(size)
            ]
        exprs = self.exprs
        outer = self._outer_env
        return [
            tuple(fn(make_env(row, outer)) for fn in exprs)
            for row in self.child.all_rows(size)
        ]

    def close(self):
        self.child.close()

    def describe(self):
        return f"Project({self.output.columns})"


def _key_of(fns, row_fns, row, outer):
    """Join/group key for one row: row mode when available, env otherwise."""
    if row_fns is not None:
        return tuple(fn(row) for fn in row_fns)
    env = make_env(row, outer)
    return tuple(fn(env) for fn in fns)


def _key_positions(key_fns):
    """Column positions when every key is a bare column ref, else None —
    the precondition for building/probing a hash join on key columns."""
    positions = [getattr(fn, "column_pos", None) for fn in key_fns]
    if positions and all(p is not None for p in positions):
        return positions
    return None


class HashJoin(PhysicalOperator):
    """Equality hash join; the right child is the build side."""

    def __init__(self, left, right, left_key_fns, right_key_fns, output, residual=None):
        self.left = left
        self.right = right
        self.left_key_fns = list(left_key_fns)
        self.right_key_fns = list(right_key_fns)
        self.output = output
        self.residual = residual
        self._outer_env = None
        self._hash_table = None

    def children(self):
        return (self.left, self.right)

    def open(self, ctx, outer_env=None):
        self._outer_env = outer_env
        self.left.open(ctx, outer_env)
        self.right.open(ctx, outer_env)
        self._hash_table = table = {}
        key_fns = self.right_key_fns
        positions = _key_positions(key_fns)
        if positions is not None and getattr(ctx, "engine", None) == "columnar":
            # Columnar build: the join keys come straight off the key
            # columns (one zip over column buffers per batch), rows
            # materialize once for the output side.
            for batch in self.right.col_batches():
                keys = zip(*[batch.column_values(p) for p in positions])
                for row, key in zip(batch.to_rows(), keys):
                    if None in key:
                        continue
                    table.setdefault(key, []).append(row)
            return
        row_keys = row_fns_of(key_fns)
        for chunk in self.right.batches():
            for row in chunk:
                key = _key_of(key_fns, row_keys, row, outer_env)
                if any(k is None for k in key):
                    continue
                table.setdefault(key, []).append(row)

    def _probe(self, left_rows):
        outer = self._outer_env
        table = self._hash_table
        residual = self.residual
        row_residual = None if residual is None else row_fn_of(residual)
        key_fns = self.left_key_fns
        row_keys = row_fns_of(key_fns)
        for left_row in left_rows:
            key = _key_of(key_fns, row_keys, left_row, outer)
            if any(k is None for k in key):
                continue
            for right_row in table.get(key, ()):
                combined = left_row + right_row
                if residual is None:
                    yield combined
                elif row_residual is not None:
                    if row_residual(combined) is True:
                        yield combined
                elif residual(make_env(combined, outer)) is True:
                    yield combined

    def rows(self):
        return self._probe(self.left.rows())

    def batches(self, size=DEFAULT_BATCH_SIZE):
        for chunk in self.left.batches(size):
            out = list(self._probe(chunk))
            if out:
                yield out

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        """Columnar probe: per-batch key tuples zipped off the probe-side
        key columns, residual applied to the concatenated rows."""
        positions = _key_positions(self.left_key_fns)
        if positions is None:
            yield from PhysicalOperator.col_batches(self, size)
            return
        table = self._hash_table
        residual = self.residual
        row_residual = None if residual is None else row_fn_of(residual)
        outer = self._outer_env
        width = len(self.output)
        get = table.get
        for batch in self.left.col_batches(size):
            keys = zip(*[batch.column_values(p) for p in positions])
            out = []
            for left_row, key in zip(batch.to_rows(), keys):
                if None in key:
                    continue
                for right_row in get(key, ()):
                    combined = left_row + right_row
                    if residual is None:
                        out.append(combined)
                    elif row_residual is not None:
                        if row_residual(combined) is True:
                            out.append(combined)
                    elif residual(make_env(combined, outer)) is True:
                        out.append(combined)
            if out:
                yield ColumnBatch.from_rows(out, width)

    def close(self):
        self._hash_table = None
        self.left.close()
        self.right.close()

    def describe(self):
        return "HashJoin"


class MergeJoin(PhysicalOperator):
    """Equality merge join; both children must deliver key-sorted rows.

    Stays row-at-a-time internally (the pairwise advance has no batch
    advantage); the base class chunks its stream for batch parents.
    """

    def __init__(self, left, right, left_key_fns, right_key_fns, output, residual=None):
        self.left = left
        self.right = right
        self.left_key_fns = list(left_key_fns)
        self.right_key_fns = list(right_key_fns)
        self.output = output
        self.residual = residual
        self._outer_env = None

    def children(self):
        return (self.left, self.right)

    def open(self, ctx, outer_env=None):
        self._outer_env = outer_env
        self.left.open(ctx, outer_env)
        self.right.open(ctx, outer_env)

    def _key(self, fns, row):
        env = make_env(row, self._outer_env)
        return tuple(fn(env) for fn in fns)

    def rows(self):
        outer = self._outer_env
        residual = self.residual
        left_iter = iter(self.left.rows())
        right_iter = iter(self.right.rows())
        left_row = next(left_iter, None)
        right_row = next(right_iter, None)
        while left_row is not None and right_row is not None:
            lk = self._key(self.left_key_fns, left_row)
            rk = self._key(self.right_key_fns, right_row)
            if None in lk or lk < rk:
                left_row = next(left_iter, None)
            elif None in rk or rk < lk:
                right_row = next(right_iter, None)
            else:
                # Gather the full duplicate block on the right.
                block = [right_row]
                right_row = next(right_iter, None)
                while right_row is not None and self._key(self.right_key_fns, right_row) == lk:
                    block.append(right_row)
                    right_row = next(right_iter, None)
                while left_row is not None and self._key(self.left_key_fns, left_row) == lk:
                    for r in block:
                        combined = left_row + r
                        if residual is None or residual(make_env(combined, outer)) is True:
                            yield combined
                    left_row = next(left_iter, None)

    def close(self):
        self.left.close()
        self.right.close()

    def describe(self):
        return "MergeJoin"


class HashSemiJoin(PhysicalOperator):
    """Semi join: emit each left row with at least one key match on the
    right (SQL ``x IN (SELECT …)`` semantics for non-null keys).

    Output rows are the *left* rows unchanged — the right side only
    filters.  Null keys never match, per SQL's three-valued IN.
    """

    def __init__(self, left, right, left_key_fns, right_key_fns, output=None):
        self.left = left
        self.right = right
        self.left_key_fns = list(left_key_fns)
        self.right_key_fns = list(right_key_fns)
        self.output = output or left.output
        self._outer_env = None
        self._keys = None

    def children(self):
        return (self.left, self.right)

    def open(self, ctx, outer_env=None):
        self._outer_env = outer_env
        self.left.open(ctx, outer_env)
        self.right.open(ctx, outer_env)
        self._keys = keys = set()
        key_fns = self.right_key_fns
        positions = _key_positions(key_fns)
        if positions is not None and getattr(ctx, "engine", None) == "columnar":
            # Columnar build: only the key columns are ever touched — the
            # build side's rows are never materialized.
            for batch in self.right.col_batches():
                for key in zip(*[batch.column_values(p) for p in positions]):
                    if None not in key:
                        keys.add(key)
            return
        row_keys = row_fns_of(key_fns)
        for chunk in self.right.batches():
            for row in chunk:
                key = _key_of(key_fns, row_keys, row, outer_env)
                if any(k is None for k in key):
                    continue
                keys.add(key)

    def _filter(self, left_rows):
        keys = self._keys
        outer = self._outer_env
        key_fns = self.left_key_fns
        row_keys = row_fns_of(key_fns)
        for row in left_rows:
            key = _key_of(key_fns, row_keys, row, outer)
            if any(k is None for k in key):
                continue
            if key in keys:
                yield row

    def rows(self):
        return self._filter(self.left.rows())

    def batches(self, size=DEFAULT_BATCH_SIZE):
        for chunk in self.left.batches(size):
            out = list(self._filter(chunk))
            if out:
                yield out

    def close(self):
        self._keys = None
        self.left.close()
        self.right.close()

    def describe(self):
        return "HashSemiJoin"


class HashAntiJoin(PhysicalOperator):
    """Anti join: emit each left row with *no* key match on the right —
    SQL ``x NOT IN (SELECT …)`` semantics, including the NULL trap: if the
    right side produced any NULL key, no row qualifies (the comparison is
    unknown for every row), and left rows with NULL keys never qualify.
    """

    def __init__(self, left, right, left_key_fns, right_key_fns, output=None):
        self.left = left
        self.right = right
        self.left_key_fns = list(left_key_fns)
        self.right_key_fns = list(right_key_fns)
        self.output = output or left.output
        self._outer_env = None
        self._keys = None
        self._right_had_null = False

    def children(self):
        return (self.left, self.right)

    def open(self, ctx, outer_env=None):
        self._outer_env = outer_env
        self.left.open(ctx, outer_env)
        self.right.open(ctx, outer_env)
        self._keys = keys = set()
        self._right_had_null = False
        key_fns = self.right_key_fns
        positions = _key_positions(key_fns)
        if positions is not None and getattr(ctx, "engine", None) == "columnar":
            for batch in self.right.col_batches():
                for key in zip(*[batch.column_values(p) for p in positions]):
                    if None in key:
                        self._right_had_null = True
                    else:
                        keys.add(key)
            return
        row_keys = row_fns_of(key_fns)
        for chunk in self.right.batches():
            for row in chunk:
                key = _key_of(key_fns, row_keys, row, outer_env)
                if any(k is None for k in key):
                    self._right_had_null = True
                else:
                    keys.add(key)

    def _filter(self, left_rows):
        keys = self._keys
        outer = self._outer_env
        key_fns = self.left_key_fns
        row_keys = row_fns_of(key_fns)
        for row in left_rows:
            key = _key_of(key_fns, row_keys, row, outer)
            if any(k is None for k in key):
                continue
            if key not in keys:
                yield row

    def rows(self):
        if self._right_had_null:
            return iter(())
        return self._filter(self.left.rows())

    def batches(self, size=DEFAULT_BATCH_SIZE):
        if self._right_had_null:
            return
        for chunk in self.left.batches(size):
            out = list(self._filter(chunk))
            if out:
                yield out

    def close(self):
        self._keys = None
        self.left.close()
        self.right.close()

    def describe(self):
        return "HashAntiJoin"


class IndexNLJoin(PhysicalOperator):
    """Index nested-loops join: for each outer row, seek the inner index.

    The inner side is an operator subtree (usually an IndexSeek) whose key
    functions reference the outer row through the correlated environment —
    the canonical consumer of the ``rows()`` compatibility shim; batching
    the correlated inner would only re-buffer one seek's handful of rows.
    """

    def __init__(self, outer, inner, output, residual=None):
        self.outer = outer
        self.inner = inner
        self.output = output
        self.residual = residual
        self._ctx = None
        self._outer_env = None

    def children(self):
        return (self.outer, self.inner)

    def open(self, ctx, outer_env=None):
        self._ctx = ctx
        self._outer_env = outer_env
        self.outer.open(ctx, outer_env)

    def rows(self):
        ctx = self._ctx
        residual = self.residual
        for outer_row in self.outer.rows():
            env = make_env(outer_row, self._outer_env)
            self.inner.open(ctx, env)
            try:
                for inner_row in self.inner.rows():
                    combined = outer_row + inner_row
                    if residual is None or residual(make_env(combined, self._outer_env)) is True:
                        yield combined
            finally:
                self.inner.close()

    def close(self):
        self.outer.close()

    def describe(self):
        return "IndexNLJoin"


class Sort(PhysicalOperator):
    """Full in-memory sort."""

    def __init__(self, child, key_fns, descending, output=None):
        self.child = child
        self.key_fns = list(key_fns)
        self.descending = list(descending)
        self.output = output or child.output
        self._outer_env = None

    def children(self):
        return (self.child,)

    def open(self, ctx, outer_env=None):
        self._outer_env = outer_env
        self.child.open(ctx, outer_env)

    def _sorted(self, buffered):
        outer = self._outer_env
        # Stable multi-key sort with mixed ASC/DESC: sort by each key from
        # the least significant to the most significant.
        for pos in range(len(self.key_fns) - 1, -1, -1):
            fn = self.key_fns[pos]
            desc = self.descending[pos]
            row_fn = row_fn_of(fn)
            if row_fn is not None:
                def one_key(row, fn=row_fn):
                    v = fn(row)
                    # Sort NULLs first (before any value).
                    return (v is not None, v)
            else:
                def one_key(row, fn=fn):
                    v = fn(make_env(row, outer))
                    return (v is not None, v)

            buffered.sort(key=one_key, reverse=desc)
        return buffered

    def rows(self):
        return iter(self._sorted(list(self.child.rows())))

    def batches(self, size=DEFAULT_BATCH_SIZE):
        buffered = []
        for chunk in self.child.batches(size):
            buffered.extend(chunk)
        yield from _chunked(self._sorted(buffered), size)

    def close(self):
        self.child.close()

    def describe(self):
        return "Sort"


class _Accumulator:
    """State for one aggregate function over one group."""

    __slots__ = ("func", "count", "total", "best", "seen")

    def __init__(self, func):
        self.func = func
        self.count = 0
        self.total = None
        self.best = None
        self.seen = False

    def add(self, value):
        if self.func == "count":
            # COUNT(expr) counts non-null; COUNT(*) is passed a sentinel.
            if value is not None:
                self.count += 1
            return
        if value is None:
            return
        self.seen = True
        if self.func in ("sum", "avg"):
            self.total = value if self.total is None else self.total + value
            self.count += 1
        elif self.func == "min":
            self.best = value if self.best is None else min(self.best, value)
        elif self.func == "max":
            self.best = value if self.best is None else max(self.best, value)

    def result(self):
        if self.func == "count":
            return self.count
        if not self.seen:
            return None
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            return self.total / self.count
        return self.best


class AggregateSpec:
    """One aggregate in the select list: func name + argument evaluator.

    ``arg_fn`` is None for COUNT(*).
    """

    __slots__ = ("func", "arg_fn")

    def __init__(self, func, arg_fn=None):
        self.func = func
        self.arg_fn = arg_fn


class HashAggregate(PhysicalOperator):
    """Hash grouping with the standard SQL aggregates.

    Output rows are ``group_values + aggregate_values``.  With no grouping
    expressions a single row is produced even for empty input (SQL scalar
    aggregate semantics).
    """

    def __init__(self, child, group_fns, agg_specs, output, having=None):
        self.child = child
        self.group_fns = list(group_fns)
        self.agg_specs = list(agg_specs)
        self.output = output
        self.having = having
        self._outer_env = None

    def children(self):
        return (self.child,)

    def open(self, ctx, outer_env=None):
        self._outer_env = outer_env
        self.child.open(ctx, outer_env)

    def _accumulate(self):
        outer = self._outer_env
        groups = {}
        group_fns = self.group_fns
        agg_specs = self.agg_specs
        row_groups = row_fns_of(group_fns)
        arg_fns = [s.arg_fn for s in agg_specs]
        row_args = row_fns_of([fn for fn in arg_fns if fn is not None])
        row_mode = row_groups is not None and row_args is not None
        if row_mode:
            # Thread the row-mode arg evaluators back into spec order
            # (COUNT(*) slots keep None -> sentinel value 1).
            it = iter(row_args)
            per_spec = [None if fn is None else next(it) for fn in arg_fns]
            for chunk in self.child.batches():
                for row in chunk:
                    key = tuple(fn(row) for fn in row_groups)
                    accs = groups.get(key)
                    if accs is None:
                        accs = [_Accumulator(s.func) for s in agg_specs]
                        groups[key] = accs
                    for arg_fn, acc in zip(per_spec, accs):
                        acc.add(1 if arg_fn is None else arg_fn(row))
        else:
            for row in self.child.rows():
                env = make_env(row, outer)
                key = tuple(fn(env) for fn in group_fns)
                accs = groups.get(key)
                if accs is None:
                    accs = [_Accumulator(s.func) for s in agg_specs]
                    groups[key] = accs
                for spec, acc in zip(agg_specs, accs):
                    value = 1 if spec.arg_fn is None else spec.arg_fn(env)
                    acc.add(value)
        if not groups and not self.group_fns:
            groups[()] = [_Accumulator(s.func) for s in agg_specs]
        return groups

    def _emit(self, groups):
        having = self.having
        row_having = None if having is None else row_fn_of(having)
        outer = self._outer_env
        for key, accs in groups.items():
            out = key + tuple(acc.result() for acc in accs)
            if having is None:
                yield out
            elif row_having is not None:
                if row_having(out) is True:
                    yield out
            elif having(make_env(out, outer)) is True:
                yield out

    def rows(self):
        return self._emit(self._accumulate())

    def batches(self, size=DEFAULT_BATCH_SIZE):
        yield from _chunked(self._emit(self._accumulate()), size)

    def close(self):
        self.child.close()

    def describe(self):
        names = [s.func for s in self.agg_specs]
        return f"HashAggregate(groups={len(self.group_fns)}, aggs={names})"


class Distinct(PhysicalOperator):
    def __init__(self, child):
        self.child = child
        self.output = child.output

    def children(self):
        return (self.child,)

    def open(self, ctx, outer_env=None):
        self.child.open(ctx, outer_env)

    def rows(self):
        seen = set()
        for row in self.child.rows():
            if row not in seen:
                seen.add(row)
                yield row

    def batches(self, size=DEFAULT_BATCH_SIZE):
        seen = set()
        add = seen.add
        for chunk in self.child.batches(size):
            out = []
            for row in chunk:
                if row not in seen:
                    add(row)
                    out.append(row)
            if out:
                yield out

    def close(self):
        self.child.close()

    def describe(self):
        return "Distinct"


class Limit(PhysicalOperator):
    def __init__(self, child, limit):
        self.child = child
        self.limit = limit
        self.output = child.output

    def children(self):
        return (self.child,)

    def open(self, ctx, outer_env=None):
        self.child.open(ctx, outer_env)

    def rows(self):
        remaining = self.limit
        if remaining <= 0:
            return
        for row in self.child.rows():
            yield row
            remaining -= 1
            if remaining == 0:
                return

    def batches(self, size=DEFAULT_BATCH_SIZE):
        remaining = self.limit
        if remaining <= 0:
            return
        for chunk in self.child.batches(size):
            if len(chunk) >= remaining:
                yield chunk[:remaining]
                return
            remaining -= len(chunk)
            yield chunk

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        remaining = self.limit
        if remaining <= 0:
            return
        for batch in self.child.col_batches(size):
            n = batch.n_rows
            if n >= remaining:
                yield batch.head(remaining)
                return
            remaining -= n
            yield batch

    def close(self):
        self.child.close()

    def describe(self):
        return f"Limit({self.limit})"


class Materialized(PhysicalOperator):
    """A buffered row set used as a plan source (derived tables, tests)."""

    def __init__(self, rows, output):
        self._rows = list(rows)
        self.output = output

    def open(self, ctx, outer_env=None):
        pass

    def rows(self):
        return iter(self._rows)

    def batches(self, size=DEFAULT_BATCH_SIZE):
        rows = self._rows
        for start in range(0, len(rows), size):
            yield rows[start:start + size]

    def all_rows(self, size=DEFAULT_BATCH_SIZE):
        return list(self._rows)

    def describe(self):
        return f"Materialized({len(self._rows)} rows)"


class SwitchUnion(PhysicalOperator):
    """The paper's SwitchUnion: N inputs plus a selector expression.

    At open time the selector picks exactly one input; the others are never
    touched.  MTCache uses two-input SwitchUnions whose selector is a
    *currency guard* over the local heartbeat table: input 0 is the local
    (view) branch, input 1 the remote fallback.  Both protocols simply
    delegate to the chosen branch.
    """

    def __init__(self, inputs, selector, output, label=""):
        if not inputs:
            raise ExecutionError("SwitchUnion needs at least one input")
        self.inputs = list(inputs)
        self.selector = selector  # fn(ctx) -> int in [0, len(inputs))
        self.output = output
        self.label = label
        self.chosen = None
        #: The most recent selector decision; survives close() so callers
        #: (e.g. the semantics checker) can inspect which branch ran.
        self.last_chosen = None

    def children(self):
        return tuple(self.inputs)

    def open(self, ctx, outer_env=None):
        index = self.selector(ctx)
        if not 0 <= index < len(self.inputs):
            raise ExecutionError(f"SwitchUnion selector returned {index}")
        self.chosen = index
        self.last_chosen = index
        ctx.record_branch(self.label or "switchunion", index)
        self.inputs[index].open(ctx, outer_env)

    def rows(self):
        return self.inputs[self.chosen].rows()

    def batches(self, size=DEFAULT_BATCH_SIZE):
        return self.inputs[self.chosen].batches(size)

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        return self.inputs[self.chosen].col_batches(size)

    def all_rows(self, size=DEFAULT_BATCH_SIZE):
        return self.inputs[self.chosen].all_rows(size)

    def close(self):
        if self.chosen is not None:
            self.inputs[self.chosen].close()
            self.chosen = None

    def describe(self):
        return f"SwitchUnion({self.label})"


class RemoteQuery(PhysicalOperator):
    """Ship a SQL query to the back-end server and stream its result.

    ``remote_executor`` is a callable ``(sql) -> (rows, n_cols)`` provided
    by the cache's connection to the back-end.  The query is issued during
    ``open`` (binding phase), mirroring the paper's observation that remote
    binding makes plan setup more expensive.

    In a plan template the text holds placeholders for the statement's
    bindable literals; ``params`` is then the template's parameter cell
    and ``sql`` renders the text for the statement currently bound.
    """

    def __init__(self, sql, output, remote_executor, shards=None, params=None):
        self._sql = sql
        self._params = params
        self.output = output
        self.remote_executor = remote_executor
        #: Optional shard pin the executor closure was built with; carried
        #: on the operator so plan snapshots can re-pin on instantiation.
        self.shards = shards
        self._buffered = None

    @property
    def sql(self):
        if self._params is None:
            return self._sql
        return render_params(self._sql, self._params)

    def open(self, ctx, outer_env=None):
        sql = self.sql
        rows = self.remote_executor(sql)
        self._buffered = rows
        ctx.record_remote_query(sql, len(rows))

    def rows(self):
        return iter(self._buffered)

    def batches(self, size=DEFAULT_BATCH_SIZE):
        rows = self._buffered
        for start in range(0, len(rows), size):
            yield rows[start:start + size]

    def all_rows(self, size=DEFAULT_BATCH_SIZE):
        return list(self._buffered)

    def close(self):
        self._buffered = None

    def describe(self):
        return f"RemoteQuery({self.sql})"
