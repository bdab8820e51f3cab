"""Columnar batches: per-column value lists plus a selection vector.

The streamed exchange format (the tiny-plan path's is the row
tuple): a :class:`ColumnBatch` holds one sequence per output column — a
plain list, or for the columns a hash join gathers a tuple — plus a
*selection vector* of live row indexes.  Filters never copy data: they
only shrink the selection vector; projections never copy rows: they pick
column references; hash joins gather columns at their matched
positions.  Rows materialize once, at the operator-tree boundary (or
when a row-only operator sits downstream).

A table's column store (:func:`column_store`) is one list per schema
column over its live rows; the lists hold the heap rows' own value
objects, so building and reading the store boxes no value, and the
kernels (:mod:`repro.engine.ir`, the hash joins' ``map``/``zip``
passes) run at C speed over them.
"""


class ColumnBatch:
    """A batch of rows in columnar form.

    ``columns[c][i]`` is the value of column ``c`` in underlying row
    ``i``; ``sel`` is either None (all ``length`` rows are live, in
    order) or a list of live row indexes in output order.  Instances may
    share columns with the table's column store or with upstream
    batches — treat them as immutable.
    """

    __slots__ = ("columns", "length", "sel", "source_rows")

    def __init__(self, columns, length, sel=None, source_rows=None):
        self.columns = columns
        self.length = length
        self.sel = sel
        #: The row chunk this batch was columnarized from, when it came
        #: through the shim unfiltered — lets ``to_rows()`` skip the
        #: re-zip on shim->boundary round trips.
        self.source_rows = source_rows

    @classmethod
    def from_rows(cls, rows, width):
        """Columnarize a chunk of row tuples (the shim for row-only
        upstream operators)."""
        if not rows:
            return cls([[] for _ in range(width)], 0)
        return cls(list(map(list, zip(*rows))), len(rows), source_rows=rows)

    @classmethod
    def concat(cls, batches, width):
        """One dense batch of the live rows of ``batches``, in order: a
        lone dense batch as is (zero-copy), else each column's values
        extended into one list, gathered through ``sel`` where a batch
        has one.  ``width`` gives the shape when there is no batch."""
        if len(batches) == 1 and batches[0].sel is None:
            return batches[0]
        if batches:
            width = len(batches[0].columns)
        columns = [[] for _ in range(width)]
        n = 0
        for batch in batches:
            sel = batch.sel
            for dst, col in zip(columns, batch.columns):
                dst.extend(col if sel is None else map(col.__getitem__, sel))
            n += batch.n_rows
        return cls(columns, n)

    @property
    def n_rows(self):
        """Live rows after selection."""
        return self.length if self.sel is None else len(self.sel)

    def to_rows(self):
        """Materialize the live rows as tuples, in selection order."""
        sel = self.sel
        if sel is None and self.source_rows is not None:
            return self.source_rows
        cols = self.columns
        if not cols:
            return [() for _ in range(self.n_rows)]
        if sel is None:
            return list(zip(*cols))
        return list(zip(*[[col[i] for i in sel] for col in cols]))

    def take(self, positions):
        """Zero-copy projection: a batch over the picked columns, same
        selection."""
        cols = self.columns
        return ColumnBatch([cols[p] for p in positions], self.length, self.sel)

    def head(self, n):
        """A batch restricted to the first ``n`` live rows."""
        if n >= self.n_rows:
            return self
        if self.sel is not None:
            return ColumnBatch(self.columns, self.length, self.sel[:n])
        return ColumnBatch(self.columns, self.length, list(range(n)))

    def __len__(self):
        return self.n_rows

    def __repr__(self):
        return f"<ColumnBatch {len(self.columns)}x{self.length} sel={self.n_rows}>"


def _snapshot(table):
    """``(mutation_count, store, positions)`` for ``table``, cached on it
    and rebuilt only when its mutation counter moves."""
    version = table.mutation_count
    cached = getattr(table, "_column_store", None)
    if cached is not None and cached[0] == version:
        return cached
    heap = table._rows
    rows = [v.values for v in heap if v is not None]
    width = len(table.schema.names())
    if rows:
        columns = [list(col) for col in zip(*rows)]
    else:
        columns = [[] for _ in range(width)]
    positions = None
    if len(rows) != len(heap):
        positions = []
        n = 0
        for v in heap:
            if v is None:
                positions.append(None)
            else:
                positions.append(n)
                n += 1
    cached = table._column_store = (version, ColumnBatch(columns, len(rows)), positions)
    return cached


def column_store(table):
    """The per-table columnar snapshot SeqScan reads: one list per
    schema column over the live rows, cached on the table and rebuilt
    only when its mutation counter moves."""
    return _snapshot(table)[1]


def store_positions(table):
    """``rid -> position`` in :func:`column_store`'s lists, built in the
    same pass: None when the heap has no tombstones (the two coincide),
    else a list with None at each deleted rid."""
    return _snapshot(table)[2]
