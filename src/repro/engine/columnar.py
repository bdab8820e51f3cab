"""Columnar batches: per-column buffers plus a selection vector.

The columnar engine's exchange format (the row engine's is the row
tuple): a :class:`ColumnBatch` holds one Python list — or, for dense
numeric columns, an ``array.array``, and for the columns a hash join
gathers, a tuple, all exposed through the same indexing protocol — per
output column, plus a *selection vector* of live row
indexes.  Filters never copy data: they only shrink the selection
vector; projections never copy rows: they pick column references; hash
joins gather columns at their matched positions.  Rows materialize once,
at the operator-tree boundary (or when a row-only operator sits
downstream).

``array``-typed buffers are built opportunistically by
:func:`column_store` for all-int / all-float columns (nullable or
string columns stay plain lists); both layouts index identically so the
generated filter kernels (:mod:`repro.engine.ir`) are layout-agnostic.
``memoryview(batch.buffer(i))`` is available over typed buffers for
zero-copy hand-off to external consumers.
"""

from array import array


class ColumnBatch:
    """A batch of rows in columnar form.

    ``columns[c][i]`` is the value of column ``c`` in underlying row
    ``i``; ``sel`` is either None (all ``length`` rows are live, in
    order) or a list of live row indexes in output order.  Instances may
    share column buffers with the table's column store or with upstream
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
        lone dense batch as is (zero-copy), else each column's buffers
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

    @property
    def density(self):
        """Fraction of underlying rows the selection keeps (1.0 = dense)."""
        return 1.0 if self.sel is None else (len(self.sel) / self.length if self.length else 1.0)

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

    def column_values(self, position):
        """The live values of one column, in selection order."""
        col = self.columns[position]
        if self.sel is None:
            return col if isinstance(col, list) else list(col)
        return [col[i] for i in self.sel]

    def buffer(self, position):
        """A memoryview over a typed column buffer (ValueError for plain
        list columns — check with ``isinstance(columns[i], array)``)."""
        col = self.columns[position]
        if isinstance(col, array):
            return memoryview(col)
        raise ValueError(f"column {position} is not a typed buffer")

    def __len__(self):
        return self.n_rows

    def __repr__(self):
        return f"<ColumnBatch {len(self.columns)}x{self.length} sel={self.n_rows}>"


def _typed_column(values):
    """Pack an all-int column into an array('q') or an all-float column
    into an array('d'); keep the plain list otherwise (nullable, string,
    mixed int/float — a float buffer would silently retype ints — or
    ints outside the signed-64-bit range)."""
    kind = None
    for v in values:
        if type(v) is int:
            if kind not in (None, "q") or not (-(2**63) <= v < 2**63):
                return values
            kind = "q"
        elif type(v) is float:
            if kind not in (None, "d"):
                return values
            kind = "d"
        else:
            return values  # None / str / bool / decimal...: keep the list
    if kind is None:
        return values  # empty column: nothing to win
    try:
        return array(kind, values)
    except (TypeError, OverflowError):
        return values


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
        columns = [_typed_column(list(col)) for col in zip(*rows)]
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
    """The per-table columnar snapshot SeqScan reads: one buffer per
    schema column over the live rows, cached on the table and rebuilt
    only when its mutation counter moves."""
    return _snapshot(table)[1]


def store_positions(table):
    """``rid -> position`` in :func:`column_store`'s buffers, built in the
    same pass: None when the heap has no tombstones (the two coincide),
    else a list with None at each deleted rid."""
    return _snapshot(table)[2]
