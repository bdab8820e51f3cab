"""Physical operators.

Every operator follows the classic iterator protocol, split into explicit
phases so the executor can time them (the paper's Table 4.5 profiles
*setup plan*, *run plan* and *shutdown plan*):

* ``open(ctx)`` — bind resources, evaluate SwitchUnion selectors, issue
  remote queries;
* ``col_batches(size)`` — a generator of
  :class:`~repro.engine.columnar.ColumnBatch` objects, the streaming
  protocol the executor drives for every plan that is not tiny;
* ``rows()`` — a generator of result tuples: compiled subqueries, the
  row-only operators' inputs and the default ``all_rows()`` speak it;
* ``all_rows()`` — the whole result as one list, the executor's path for
  tiny plans (guarded point lookups): one list in, one list out;
* ``close()`` — release state.

Scans, filters, positional projections, hash and index nested-loops
joins, limits and remote queries are columnar-native: filters shrink a
selection vector, projections pick columns, joins gather columns at
matched positions, a remote query serves the column result the back-end
shipped.  Every other
operator gets ``col_batches`` from the base class, which columnarizes its
``rows()``.  The row-only operators (Sort, HashAggregate, Distinct and the
row build of the hash operators) read their input through
:func:`_input_rows`, so a columnar child stays columnar beneath them.
Row-at-a-time expressions are position-resolved closures over bare tuples
(:mod:`repro.engine.expressions`).

Operators expose ``output`` — a :class:`~repro.engine.expressions.RowBinding`
describing their result columns — which parent operators use to compile
expressions at plan-build time.
"""

from itertools import chain, compress, islice, repeat
from operator import itemgetter

from repro.common.errors import ExecutionError
from repro.engine.columnar import ColumnBatch, column_store, store_positions
from repro.engine.ir import selection_fn
from repro.sql.ast import render_params

#: Rows per batch where an operator columnarizes a row stream (a scan's
#: batch is its whole column store instead).
DEFAULT_BATCH_SIZE = 256

#: The row a seek's key expressions are evaluated over: they read
#: constants and parameter cells, never a column.
_NO_ROW = ()


class PhysicalOperator:
    """Base class for all physical operators."""

    #: RowBinding of the produced rows; set by subclasses.
    output = None

    #: Plan-time estimates stamped by the optimizer (Candidate.operator()
    #: and the finishing builds) for EXPLAIN ANALYZE's estimate-vs-actual
    #: comparison; None on trees built outside the optimizer.
    est_rows = None
    est_cost = None

    #: On a root: the tables its SeqScans read, memoized by the executor's
    #: tiny-plan test (None until the tree first runs).
    scanned_tables = None

    def open(self, ctx):
        raise NotImplementedError

    def rows(self):
        raise NotImplementedError

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        """Produce result rows as :class:`ColumnBatch` objects.

        Default: columnarize the ``rows()`` stream, ``size`` rows a batch.
        Columnar-native operators override this with per-column pipelines.
        """
        yield from _columnarize(self.rows(), self.output, size)

    def all_rows(self):
        """Materialize the whole result as one list of row tuples.

        The executor drives this instead of ``rows()`` when the plan reads
        few rows (guarded point lookups — the cache's hottest request).
        Operators on the point-lookup spine override it with direct list
        builds: zero generator frames on the hot path.
        """
        return list(self.rows())

    def close(self):
        pass

    # -- helpers for fused pipelines -----------------------------------
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


def _columnarize(rows, output, size):
    """Yield ``rows`` as :class:`ColumnBatch` objects of up to ``size``
    rows each.  Every batch keeps its source rows, so a downstream
    ``to_rows()`` is free."""
    width = len(output) if output is not None else 0
    it = iter(rows)
    while True:
        chunk = list(islice(it, size))
        if not chunk:
            return
        yield ColumnBatch.from_rows(chunk, width)


def _input_rows(child, ctx):
    """Every row of ``child``, for an operator that consumes rows: read
    through ``col_batches()`` in a streamed run, so a columnar
    child (a hash join, a filtered scan) stays columnar beneath a
    row-only parent, and through ``rows()`` otherwise."""
    if getattr(ctx, "engine", None) == "columnar":
        return chain.from_iterable(batch.to_rows() for batch in child.col_batches())
    return child.rows()


class SeqScan(PhysicalOperator):
    """Full scan of a heap table (base table or local materialized view).

    The columnar scan is one zero-copy batch over the table's column
    store, its predicate collapsed into a selection vector.
    """

    def __init__(self, table, output, predicate=None):
        self.table = table
        self.output = output
        self.predicate = predicate  # compiled fn(row) or None
        self._ctx = None

    def open(self, ctx):
        self._ctx = ctx

    def rows(self):
        predicate = self.predicate
        if predicate is None:
            for _, values in self.table.scan():
                yield values
            return
        for _, values in self.table.scan():
            if predicate(values) is True:
                yield values

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        """Zero-copy columnar scan: one batch referencing the table's
        column store, with the (IR-compiled) predicate collapsed into a
        selection vector.  Predicates without a columnar kernel
        columnarize the row scan."""
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
    one execution, so re-deriving it per ``rows()`` call (as the seek
    once did) only burned allocations on the hottest lookup path.

    ``in_fns`` (optional) makes it an IN-list seek: the key is the equality
    prefix plus one of the IN items on the next key column.  ``open()``
    evaluates the items once, drops NULLs (they match nothing), folds
    duplicates (``1`` and ``1.0`` are one key) and probes each remaining
    key in the order it first appears — so the output is *not* in index
    order.
    """

    def __init__(self, table, index, key_fns, output, predicate=None, in_fns=None):
        self.table = table
        self.index = index
        self.key_fns = list(key_fns)  # fn(row) -> key component, row unused
        self.output = output
        self.predicate = predicate
        self.in_fns = None if in_fns is None else list(in_fns)
        self._ctx = None
        self._key = None
        # Single-component keys (the common point lookup) skip the
        # key-tuple genexpr at open().
        self._single_key_fn = self.key_fns[0] if len(self.key_fns) == 1 else None
        if in_fns is not None:
            # The IN probe replaces the rid sources on this instance only,
            # so the equality spine pays nothing for its existence.
            self._single_key_fn = None
            self._keys = ()
            self._rid_iter = self._rid_list = self._in_rid_list

    def open(self, ctx):
        self._ctx = ctx
        single = self._single_key_fn
        if single is not None:
            self._key = (single(_NO_ROW),)
        else:
            self._key = tuple([fn(_NO_ROW) for fn in self.key_fns])
            if self.in_fns is not None:
                self._keys = self._in_keys()

    def rows_at(self, key):
        """The rows under ``key``, an index-prefix tuple: the probe an
        index nested-loops join makes per outer row (its inner seek has
        no key expressions of its own)."""
        self._key = key
        return self.rows()

    def _in_keys(self):
        prefix = self._key
        if None in prefix:
            return []  # a NULL equality component matches no row
        seen = set()
        keys = []
        for fn in self.in_fns:
            value = fn(_NO_ROW)
            if value is None or value in seen:
                continue
            seen.add(value)
            keys.append(prefix + (value,))
        return keys

    def _in_rid_list(self):
        index = self.index
        full = len(index.key_positions)
        out = []
        for key in self._keys:
            try:
                if len(key) == full:
                    out.extend(index.seek_list(key))
                else:
                    out.extend([rid for _, rid in index.range(low=key, high=key)])
            except TypeError:
                continue  # an item of another type equals no stored key
        return out

    def _rid_iter(self):
        key = self._key
        if None in key:
            return ()  # a NULL key part matches no row
        if len(key) == len(self.index.key_positions):
            return self.index.seek(key)
        return (rid for _, rid in self.index.range(low=key, high=key))

    def _rid_list(self):
        key = self._key
        if None in key:
            return []
        index = self.index
        if len(key) == len(index.key_positions):
            return index.seek_list(key)
        return [rid for _, rid in index.range(low=key, high=key)]

    def rows(self):
        predicate = self.predicate
        table_row = self.table.row
        if predicate is None:
            for rid in self._rid_iter():
                yield table_row(rid)
            return
        for rid in self._rid_iter():
            values = table_row(rid)
            if predicate(values) is True:
                yield values

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        # Seek results are small (one key's duplicates, or an IN list's),
        # so the fused lookup materializes whole and is cut into batches.
        yield from _columnarize(self.all_rows(), self.output, size)

    def all_rows(self):
        predicate = self.predicate
        table_row = self.table.row
        self._record_fused(self._ctx)
        if predicate is None:
            return list(map(table_row, self._rid_list()))
        return [
            values
            for values in map(table_row, self._rid_list())
            if predicate(values) is True
        ]

    def describe(self):
        if self.in_fns is not None:
            return f"IndexSeek({self.table.name}.{self.index.name} IN {len(self.in_fns)})"
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
        self._ctx = None

    def open(self, ctx):
        self._ctx = ctx

    def _range(self):
        return self.index.range(
            low=self.low,
            high=self.high,
            low_inclusive=self.low_inclusive,
            high_inclusive=self.high_inclusive,
        )

    def rows(self):
        predicate = self.predicate
        table_row = self.table.row
        if predicate is None:
            for _, rid in self._range():
                yield table_row(rid)
            return
        for _, rid in self._range():
            values = table_row(rid)
            if predicate(values) is True:
                yield values

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        """Fused range scan + filter, columnarized ``size`` rows a batch."""
        self._record_fused(self._ctx)
        yield from _columnarize(self.rows(), self.output, size)

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
        self._ctx = None

    def children(self):
        return (self.child,)

    def open(self, ctx):
        self._ctx = ctx
        self.child.open(ctx)

    def rows(self):
        predicate = self.predicate
        for row in self.child.rows():
            if predicate(row) is True:
                yield row

    def all_rows(self):
        predicate = self.predicate
        self._record_fused(self._ctx)
        return [row for row in self.child.all_rows() if predicate(row) is True]

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        """Columnar filter: shrink the selection vector in place (no row
        materialization).  Predicates without a columnar kernel (a
        subquery) apply to the live rows of each incoming batch."""
        sel_fn = selection_fn(getattr(self.predicate, "ir", None))
        if sel_fn is not None:
            self._record_fused(self._ctx)
            params = getattr(self.predicate, "params", None)
            for batch in self.child.col_batches(size):
                sel = sel_fn(batch.columns, batch.sel, batch.length, params)
                if sel:
                    yield ColumnBatch(batch.columns, batch.length, sel)
            return
        predicate = self.predicate
        width = len(self.output)
        for batch in self.child.col_batches(size):
            out = [row for row in batch.to_rows() if predicate(row) is True]
            if out:
                yield ColumnBatch.from_rows(out, width)

    def close(self):
        self.child.close()

    def describe(self):
        return "Filter"


class Project(PhysicalOperator):
    """Projection.

    When every output expression is a plain column the projection picks
    columns (or re-orders tuples); otherwise it evaluates the expressions
    over each row.
    """

    def __init__(self, child, exprs, output):
        self.child = child
        self.exprs = list(exprs)  # compiled fns
        self.output = output
        self._ctx = None
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

    def open(self, ctx):
        self._ctx = ctx
        self.child.open(ctx)

    def rows(self):
        exprs = self.exprs
        for row in self.child.rows():
            yield tuple(fn(row) for fn in exprs)

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

    def all_rows(self):
        picker = self._picker
        self._record_fused(self._ctx)
        if picker is not None:
            return list(map(picker, self.child.all_rows()))
        exprs = self.exprs
        return [tuple(fn(row) for fn in exprs) for row in self.child.all_rows()]

    def close(self):
        self.child.close()

    def describe(self):
        return f"Project({self.output.columns})"


def _key_positions(key_fns):
    """Column positions when every key is a bare column ref (an empty list
    for the key-less cross join), else None — the precondition for
    building and probing a hash operator on key columns."""
    positions = [getattr(fn, "column_pos", None) for fn in key_fns]
    return None if None in positions else positions


def _null_free(key):
    return None if None in key else key


def _row_keyer(key_fns):
    """``row -> join key`` for the row protocol: the bare value of a single
    key, a tuple of several (``()`` for none); None when any component is
    NULL, since a NULL key matches nothing.  :func:`_batch_keys` yields the
    same form, so one build serves both protocols."""
    if len(key_fns) == 1:
        return key_fns[0]
    return lambda row: _null_free(tuple([fn(row) for fn in key_fns]))


def _batch_keys(batch, positions):
    """``(indexes, keys)`` of a columnar batch's live rows, in selection
    order: the underlying row indexes, and each row's join key in the form
    :func:`_row_keyer` gives.  Only the key columns are read."""
    sel = batch.sel
    indexes = range(batch.length) if sel is None else sel
    columns = batch.columns
    cols = [columns[p] if sel is None else map(columns[p].__getitem__, sel)
            for p in positions]
    if len(cols) == 1:
        return indexes, cols[0]
    if not cols:
        return indexes, repeat((), len(indexes))
    return indexes, [_null_free(key) for key in zip(*cols)]


def _index_keys(index, keys, start):
    """File build positions ``start, start+1, …`` under their join keys,
    in arrival order; NULL keys are left out."""
    for position, key in enumerate(keys, start):
        if key is not None:
            index.setdefault(key, []).append(position)


def _gather(columns, indexes):
    """``columns`` picked at ``indexes`` (non-empty), one tuple per column."""
    if len(indexes) == 1:
        i = indexes[0]
        return [(col[i],) for col in columns]
    pick = itemgetter(*indexes)
    return [pick(col) for col in columns]


def _batch_selector(predicate):
    """``fn(batch) -> live indexes`` for a join residual over a batch's
    live rows — its IR selection kernel when it has one, else its row
    form over the rows — or None without a residual."""
    if predicate is None:
        return None
    kernel = selection_fn(getattr(predicate, "ir", None))
    if kernel is not None:
        params = getattr(predicate, "params", None)
        return lambda batch: kernel(batch.columns, batch.sel, batch.length, params)

    def select(batch):
        live = range(batch.length) if batch.sel is None else batch.sel
        return [i for i, row in zip(live, batch.to_rows()) if predicate(row) is True]

    return select


class HashJoin(PhysicalOperator):
    """Equality hash join; the right child is the build side.

    The build is one structure for both protocols: the build side's rows
    plus a map from join key (:func:`_row_keyer`) to the positions of the
    build rows carrying it.  In a streamed run, with every key a
    bare column, the rows are kept as one list per column, and
    :meth:`col_batches` reads only the probe batch's key columns and emits
    each joined batch by gathering probe and build columns at the matched
    positions: no row is built inside the join.  The row form of a
    columnar build (a ``rows()`` parent) and the column form of a row
    build are each derived once, on first use.  Output is in probe order,
    then build order within a key, whichever the protocol.
    """

    def __init__(self, left, right, left_key_fns, right_key_fns, output, residual=None):
        self.left = left
        self.right = right
        self.left_key_fns = list(left_key_fns)
        self.right_key_fns = list(right_key_fns)
        self.output = output
        self.residual = residual
        self._index = None
        self._build_rows = None
        self._build_cols = None

    def children(self):
        return (self.left, self.right)

    def open(self, ctx):
        self.left.open(ctx)
        self.right.open(ctx)
        self._index = index = {}
        self._build_rows = self._build_cols = None
        positions = _key_positions(self.right_key_fns)
        if positions is not None and getattr(ctx, "engine", None) == "columnar":
            self._build_cols = build = ColumnBatch.concat(
                list(self.right.col_batches()), len(self.right.output))
            _index_keys(index, _batch_keys(build, positions)[1], 0)
            return
        self._build_rows = rows = list(_input_rows(self.right, ctx))
        _index_keys(index, map(_row_keyer(self.right_key_fns), rows), 0)

    def _build_row_list(self):
        if self._build_rows is None:
            self._build_rows = self._build_cols.to_rows()
        return self._build_rows

    def _build_columns(self):
        if self._build_cols is None:
            self._build_cols = ColumnBatch.from_rows(self._build_rows, len(self.right.output))
        return self._build_cols.columns

    def _probe(self, left_rows):
        get = self._index.get
        build = self._build_row_list()
        keyer = _row_keyer(self.left_key_fns)
        keep = self.residual
        for left_row in left_rows:
            hits = get(keyer(left_row))
            if hits is None:
                continue
            for position in hits:
                combined = left_row + build[position]
                if keep is None or keep(combined) is True:
                    yield combined

    def rows(self):
        return self._probe(self.left.rows())

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        """Columnar probe: key columns in, (probe, build) position pairs
        out, then one gathered batch per probe batch, residual applied as
        a selection vector."""
        positions = _key_positions(self.left_key_fns)
        if positions is None:
            yield from PhysicalOperator.col_batches(self, size)
            return
        get = self._index.get
        build = self._build_columns()
        residual_sel = _batch_selector(self.residual)
        for batch in self.left.col_batches(size):
            indexes, keys = _batch_keys(batch, positions)
            # Every step is one C-level pass: look each key up, keep the
            # probe indexes that hit, flatten their hit lists.
            hits = list(map(get, keys))
            if None in hits:
                probe_at = list(compress(indexes, hits))
                hits = list(filter(None, hits))
            else:
                probe_at = indexes
            build_at = list(chain.from_iterable(hits))
            if not build_at:
                continue
            if len(build_at) != len(probe_at):
                # A duplicated build key: its probe index repeats per hit.
                probe_at = list(chain.from_iterable(map(repeat, probe_at, map(len, hits))))
            if probe_at is indexes and batch.sel is None:
                probe_cols = batch.columns  # every row matched once: as is
            else:
                probe_cols = _gather(batch.columns, probe_at)
            joined = ColumnBatch(probe_cols + _gather(build, build_at), len(build_at))
            if residual_sel is not None:
                sel = residual_sel(joined)
                if not sel:
                    continue
                joined.sel = sel
            yield joined

    def close(self):
        self._index = self._build_rows = self._build_cols = None
        self.left.close()
        self.right.close()

    def describe(self):
        return "HashJoin"


class MergeJoin(PhysicalOperator):
    """Equality merge join; both children must deliver key-sorted rows.

    Stays row-at-a-time internally (the pairwise advance has no batch
    advantage); the base class columnarizes its stream.
    """

    def __init__(self, left, right, left_key_fns, right_key_fns, output, residual=None):
        self.left = left
        self.right = right
        self.left_key_fns = list(left_key_fns)
        self.right_key_fns = list(right_key_fns)
        self.output = output
        self.residual = residual

    def children(self):
        return (self.left, self.right)

    def open(self, ctx):
        self.left.open(ctx)
        self.right.open(ctx)

    @staticmethod
    def _key(fns, row):
        return tuple(fn(row) for fn in fns)

    def rows(self):
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
                        if residual is None or residual(combined) is True:
                            yield combined
                    left_row = next(left_iter, None)

    def close(self):
        self.left.close()
        self.right.close()

    def describe(self):
        return "MergeJoin"


class _HashKeyFilter(PhysicalOperator):
    """Shared body of the semi and anti joins: a set of the build (right)
    side's join keys filters the left rows, which pass through unchanged.
    The set holds keys in :func:`_row_keyer` form and is built from the
    key columns alone in a streamed run; ``col_batches`` only
    shrinks each left batch's selection vector."""

    def __init__(self, left, right, left_key_fns, right_key_fns, output=None):
        self.left = left
        self.right = right
        self.left_key_fns = list(left_key_fns)
        self.right_key_fns = list(right_key_fns)
        self.output = output or left.output
        self._keys = None
        self._right_had_null = False

    def children(self):
        return (self.left, self.right)

    def open(self, ctx):
        self.left.open(ctx)
        self.right.open(ctx)
        self._keys = keys = set()
        positions = _key_positions(self.right_key_fns)
        if positions is not None and getattr(ctx, "engine", None) == "columnar":
            for batch in self.right.col_batches():
                keys.update(_batch_keys(batch, positions)[1])
        else:
            keys.update(map(_row_keyer(self.right_key_fns), _input_rows(self.right, ctx)))
        self._right_had_null = None in keys
        keys.discard(None)

    def _key_test(self):
        """``key -> bool``: whether a left row with this key passes; None
        when no row can."""
        raise NotImplementedError

    def rows(self):
        test = self._key_test()
        if test is None:
            return iter(())
        keyer = _row_keyer(self.left_key_fns)
        return (row for row in self.left.rows() if test(keyer(row)))

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        positions = _key_positions(self.left_key_fns)
        if positions is None:
            yield from PhysicalOperator.col_batches(self, size)
            return
        test = self._key_test()
        if test is None:
            return
        for batch in self.left.col_batches(size):
            indexes, keys = _batch_keys(batch, positions)
            sel = list(compress(indexes, map(test, keys)))
            if sel:
                yield ColumnBatch(batch.columns, batch.length, sel)

    def close(self):
        self._keys = None
        self.left.close()
        self.right.close()


class HashSemiJoin(_HashKeyFilter):
    """Semi join: emit each left row with at least one key match on the
    right (SQL ``x IN (SELECT …)`` semantics for non-null keys).

    Output rows are the *left* rows unchanged — the right side only
    filters.  Null keys never match, per SQL's three-valued IN.
    """

    def _key_test(self):
        return self._keys.__contains__

    def describe(self):
        return "HashSemiJoin"


class HashAntiJoin(_HashKeyFilter):
    """Anti join: emit each left row with *no* key match on the right —
    SQL ``x NOT IN (SELECT …)`` semantics, including the NULL trap: if the
    right side produced any NULL key, no row qualifies (the comparison is
    unknown for every row), and left rows with NULL keys qualify only when
    the right side is empty (``NULL NOT IN (<empty>)`` is TRUE).
    """

    def _key_test(self):
        if self._right_had_null:
            return None
        keys = self._keys
        if not keys:
            return lambda key: True
        return lambda key: key is not None and key not in keys

    def describe(self):
        return "HashAntiJoin"


class IndexNLJoin(PhysicalOperator):
    """Index nested-loops join: for each outer row, seek the inner index.

    The inner side is an equality :class:`IndexSeek` with no key
    expressions of its own: ``outer_keys``, the outer-row positions of its
    key parts (resolved by the optimizer), form each probe's key
    (:meth:`IndexSeek.rows_at`).  When the inner predicate is absent or
    has a selection kernel, :meth:`col_batches` reads each outer batch's
    key columns, probes the index once per key and gathers the outer
    columns and the inner table's column store at the matches.  The
    output order is the row protocol's: outer order, then index order
    within a key.
    """

    def __init__(self, outer, inner, output, residual=None, outer_keys=()):
        self.outer = outer
        self.inner = inner
        self.output = output
        self.residual = residual
        self.outer_keys = list(outer_keys)
        self._ctx = None

    def children(self):
        return (self.outer, self.inner)

    def open(self, ctx):
        self._ctx = ctx
        self.outer.open(ctx)
        self.inner.open(ctx)

    def rows(self):
        residual = self.residual
        probe = self.inner.rows_at
        keys_at = self.outer_keys
        for outer_row in self.outer.rows():
            for inner_row in probe(tuple([outer_row[p] for p in keys_at])):
                combined = outer_row + inner_row
                if residual is None or residual(combined) is True:
                    yield combined

    def _inner_kernel(self):
        """The inner seek's selection kernel (``False`` without an inner
        predicate), or None when the columnar probe does not apply."""
        inner = self.inner
        if inner.predicate is None:
            return False
        return selection_fn(getattr(inner.predicate, "ir", None))

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        """Columnar probe: outer key columns in, (outer index, inner rid)
        pairs out, one gathered batch per outer batch; the inner predicate
        and the residual become its selection vector."""
        kernel = self._inner_kernel()
        if kernel is None:
            yield from PhysicalOperator.col_batches(self, size)
            return
        params = None if not kernel else getattr(self.inner.predicate, "params", None)
        table = self.inner.table
        store = column_store(table).columns
        rid_at = store_positions(table)  # None: rids are store positions
        seek_keys = self.inner.index.seek_keys
        keys_at = self.outer_keys
        residual_sel = _batch_selector(self.residual)
        for batch in self.outer.col_batches(size):
            sel = batch.sel
            indexes = range(batch.length) if sel is None else sel
            columns = batch.columns
            hits = seek_keys(zip(*[
                columns[p] if sel is None else map(columns[p].__getitem__, sel)
                for p in keys_at]))
            rids = list(chain.from_iterable(hits))
            if not rids:
                continue
            outer_at = list(chain.from_iterable(map(repeat, indexes, map(len, hits))))
            inner_cols = _gather(
                store, rids if rid_at is None else list(map(rid_at.__getitem__, rids)))
            n = len(rids)
            live = kernel(inner_cols, None, n, params) if kernel else None
            if live is not None and not live:
                continue
            joined = ColumnBatch(_gather(columns, outer_at) + inner_cols, n, live)
            if residual_sel is not None:
                live = residual_sel(joined)
                if not live:
                    continue
                joined.sel = live
            yield joined

    def close(self):
        self.outer.close()
        self.inner.close()

    def describe(self):
        return "IndexNLJoin"


class Sort(PhysicalOperator):
    """Full in-memory sort."""

    def __init__(self, child, key_fns, descending, output=None):
        self.child = child
        self.key_fns = list(key_fns)
        self.descending = list(descending)
        self.output = output or child.output
        self._ctx = None

    def children(self):
        return (self.child,)

    def open(self, ctx):
        self._ctx = ctx
        self.child.open(ctx)

    def _sorted(self, buffered):
        # Stable multi-key sort with mixed ASC/DESC: sort by each key from
        # the least significant to the most significant.
        for pos in range(len(self.key_fns) - 1, -1, -1):
            def one_key(row, fn=self.key_fns[pos]):
                v = fn(row)
                # Sort NULLs first (before any value).
                return (v is not None, v)

            buffered.sort(key=one_key, reverse=self.descending[pos])
        return buffered

    def rows(self):
        yield from self._sorted(list(_input_rows(self.child, self._ctx)))

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
        self._ctx = None

    def children(self):
        return (self.child,)

    def open(self, ctx):
        self._ctx = ctx
        self.child.open(ctx)

    def _accumulate(self):
        groups = {}
        group_fns = self.group_fns
        agg_specs = self.agg_specs
        # COUNT(*) slots keep None -> sentinel value 1.
        arg_fns = [s.arg_fn for s in agg_specs]
        for row in _input_rows(self.child, self._ctx):
            key = tuple(fn(row) for fn in group_fns)
            accs = groups.get(key)
            if accs is None:
                accs = [_Accumulator(s.func) for s in agg_specs]
                groups[key] = accs
            for arg_fn, acc in zip(arg_fns, accs):
                acc.add(1 if arg_fn is None else arg_fn(row))
        if not groups and not self.group_fns:
            groups[()] = [_Accumulator(s.func) for s in agg_specs]
        return groups

    def _emit(self, groups):
        having = self.having
        for key, accs in groups.items():
            out = key + tuple(acc.result() for acc in accs)
            if having is None or having(out) is True:
                yield out

    def rows(self):
        yield from self._emit(self._accumulate())

    def close(self):
        self.child.close()

    def describe(self):
        names = [s.func for s in self.agg_specs]
        return f"HashAggregate(groups={len(self.group_fns)}, aggs={names})"


class Distinct(PhysicalOperator):
    def __init__(self, child):
        self.child = child
        self.output = child.output
        self._ctx = None

    def children(self):
        return (self.child,)

    def open(self, ctx):
        self._ctx = ctx
        self.child.open(ctx)

    def rows(self):
        seen = set()
        add = seen.add
        for row in _input_rows(self.child, self._ctx):
            if row not in seen:
                add(row)
                yield row

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

    def open(self, ctx):
        self.child.open(ctx)

    def rows(self):
        remaining = self.limit
        if remaining <= 0:
            return
        for row in self.child.rows():
            yield row
            remaining -= 1
            if remaining == 0:
                return

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
    """A buffered row set used as a plan source (tests)."""

    def __init__(self, rows, output):
        self._rows = list(rows)
        self.output = output

    def open(self, ctx):
        pass

    def rows(self):
        return iter(self._rows)

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        return _columnarize(self._rows, self.output, size)

    def all_rows(self):
        return list(self._rows)

    def describe(self):
        return f"Materialized({len(self._rows)} rows)"


class SwitchUnion(PhysicalOperator):
    """The paper's SwitchUnion: N inputs plus a selector expression.

    At open time the selector picks exactly one input; the others are never
    touched.  MTCache uses two-input SwitchUnions whose selector is a
    *currency guard* over the local heartbeat table: input 0 is the local
    (view) branch, input 1 the remote fallback.  Every protocol simply
    delegates to the chosen branch.
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

    def open(self, ctx):
        index = self.selector(ctx)
        if not 0 <= index < len(self.inputs):
            raise ExecutionError(f"SwitchUnion selector returned {index}")
        self.chosen = index
        self.last_chosen = index
        ctx.record_branch(self.label or "switchunion", index)
        self.inputs[index].open(ctx)

    def rows(self):
        return self.inputs[self.chosen].rows()

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        return self.inputs[self.chosen].col_batches(size)

    def all_rows(self):
        return self.inputs[self.chosen].all_rows()

    def close(self):
        if self.chosen is not None:
            self.inputs[self.chosen].close()
            self.chosen = None

    def describe(self):
        return f"SwitchUnion({self.label})"


class RemoteQuery(PhysicalOperator):
    """Ship a SQL query to the back-end server and stream its result.

    ``remote_executor`` is a callable ``(sql) -> ColumnBatch`` provided by
    the cache's connection to the back-end: the result arrives as one
    dense batch, which ``col_batches`` serves as is and ``rows`` /
    ``all_rows`` zip once.  The query is issued during ``open`` (binding
    phase), mirroring the paper's observation that remote binding makes
    plan setup more expensive.

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

    def open(self, ctx):
        sql = self.sql
        batch = self.remote_executor(sql)
        self._buffered = batch
        ctx.record_remote_query(sql, batch.n_rows)

    def rows(self):
        return iter(self._buffered.to_rows())

    def col_batches(self, size=DEFAULT_BATCH_SIZE):
        batch = self._buffered
        return [batch] if batch.n_rows else []

    def all_rows(self):
        return self._buffered.to_rows()

    def close(self):
        self._buffered = None

    def describe(self):
        return f"RemoteQuery({self.sql})"
