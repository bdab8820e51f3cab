"""Heap tables.

A :class:`HeapTable` stores rows as tuples in insertion order, with a
monotonically growing row-id space and tombstones for deleted rows.  Each
live row carries an ``xtime`` — the commit timestamp (transaction id) of the
transaction that last modified it — which is the appendix's ``xtime(O, Hn)``
and the basis for all currency accounting.

Tables may have one clustered index (by convention the primary key) and any
number of secondary indexes; all are kept synchronized on every mutation.
"""

from repro.common.errors import CatalogError, StorageError
from repro.storage.index import Index


class RowVersion:
    """A live row plus its modification timestamp.

    ``xtime`` is the transaction id of the writer; ``commit_time`` the
    (simulated) wall-clock commit time of that transaction.
    """

    __slots__ = ("values", "xtime", "commit_time")

    def __init__(self, values, xtime, commit_time):
        self.values = values
        self.xtime = xtime
        self.commit_time = commit_time

    def __repr__(self):
        return f"RowVersion({self.values}, xtime={self.xtime})"


class HeapTable:
    """An in-memory heap of rows with synchronized indexes."""

    def __init__(self, name, schema, primary_key=None):
        self.name = name.lower()
        self.schema = schema
        self._rows = []  # rowid -> RowVersion | None (tombstone)
        self._live = 0
        #: Bumped on every successful mutation; cheap change detection for
        #: derived structures (the columnar engine's column store).
        self.mutation_count = 0
        self._column_store = None  # (mutation_count, ColumnBatch, rid -> position)
        self.indexes = {}
        self.primary_key = None
        if primary_key:
            self.primary_key = [c.lower() for c in primary_key]
            self.create_index(f"pk_{self.name}", self.primary_key, unique=True, clustered=True)

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def create_index(self, name, column_names, unique=False, clustered=False):
        """Create an index and populate it from existing rows."""
        name = name.lower()
        if name in self.indexes:
            raise CatalogError(f"index {name} already exists on {self.name}")
        if clustered and any(ix.clustered for ix in self.indexes.values()):
            raise CatalogError(f"table {self.name} already has a clustered index")
        positions = [self.schema.index_of(c) for c in column_names]
        index = Index(name, [c.lower() for c in column_names], positions, unique=unique, clustered=clustered)
        for rid, version in enumerate(self._rows):
            if version is not None:
                index.insert(version.values, rid)
        self.indexes[name] = index
        return index

    def drop_index(self, name):
        name = name.lower()
        if name not in self.indexes:
            raise CatalogError(f"no index {name} on {self.name}")
        del self.indexes[name]

    def clustered_index(self):
        """Return the clustered index, or None."""
        for ix in self.indexes.values():
            if ix.clustered:
                return ix
        return None

    def index_on(self, column_names):
        """Return an index whose key starts with ``column_names``, or None."""
        wanted = [c.lower() for c in column_names]
        for ix in self.indexes.values():
            if ix.column_names[: len(wanted)] == wanted:
                return ix
        return None

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, values, xtime=0, commit_time=0.0):
        """Insert a row; returns the new row id."""
        values = tuple(values)
        self.schema.validate_row(values)
        rid = len(self._rows)
        version = RowVersion(values, xtime, commit_time)
        # Insert into indexes first so a failure (a uniqueness violation,
        # a key that does not compare) leaves the heap untouched.
        inserted = []
        try:
            for ix in self.indexes.values():
                ix.insert(values, rid)
                inserted.append(ix)
        except Exception:
            for ix in inserted:
                ix.delete(values, rid)
            raise
        self._rows.append(version)
        self._live += 1
        self.mutation_count += 1
        return rid

    def delete(self, rid, xtime=0, commit_time=0.0):
        """Delete the row with id ``rid``; returns its former values."""
        version = self._get_live(rid)
        for ix in self.indexes.values():
            ix.delete(version.values, rid)
        self._rows[rid] = None
        self._live -= 1
        self.mutation_count += 1
        return version.values

    def update(self, rid, values, xtime=0, commit_time=0.0):
        """Replace the row with id ``rid``; returns the old values."""
        values = tuple(values)
        self.schema.validate_row(values)
        version = self._get_live(rid)
        old = version.values
        for ix in self.indexes.values():
            ix.delete(old, rid)
        inserted = []
        try:
            for ix in self.indexes.values():
                ix.insert(values, rid)
                inserted.append(ix)
        except Exception:
            # Roll back: drop the new entries, restore the old ones.
            for ix in inserted:
                ix.delete(values, rid)
            for ix in self.indexes.values():
                ix.insert(old, rid)
            raise
        version.values = values
        version.xtime = xtime
        version.commit_time = commit_time
        self.mutation_count += 1
        return old

    def restore(self, rid, before):
        """Put row ``rid`` back to ``before`` — ``(values, xtime,
        commit_time)``, or None for no row — indexes included: the undo
        of a failed commit.  Undoing the newest insert pops it, so the
        heap is as it was before."""
        current = self._rows[rid]
        if current is not None:
            for ix in self.indexes.values():
                ix.delete(current.values, rid)
            self._live -= 1
        if before is not None:
            for ix in self.indexes.values():
                ix.insert(before[0], rid)
            self._live += 1
            self._rows[rid] = RowVersion(*before)
        elif rid == len(self._rows) - 1:
            self._rows.pop()
        else:
            self._rows[rid] = None
        self.mutation_count += 1

    def truncate(self):
        """Remove all rows."""
        self._rows = []
        self._live = 0
        self.mutation_count += 1
        for ix in self.indexes.values():
            ix.clear()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _get_live(self, rid):
        if rid < 0 or rid >= len(self._rows) or self._rows[rid] is None:
            raise StorageError(f"table {self.name}: no live row with id {rid}")
        return self._rows[rid]

    def row(self, rid):
        """Return the values of the live row ``rid``."""
        return self._get_live(rid).values

    def version(self, rid):
        """Return the RowVersion of the live row ``rid``."""
        return self._get_live(rid)

    def scan(self):
        """Yield (rid, values) for all live rows in heap order."""
        for rid, version in enumerate(self._rows):
            if version is not None:
                yield rid, version.values

    def first_values(self):
        """Values of the first live row, or None (currency guards probe
        single-row heartbeat tables on every query; this skips the
        generator machinery of :meth:`scan`)."""
        for version in self._rows:
            if version is not None:
                return version.values
        return None

    def scan_versions(self):
        """Yield (rid, RowVersion) for all live rows in heap order."""
        for rid, version in enumerate(self._rows):
            if version is not None:
                yield rid, version

    def find_by_key(self, index_name, key):
        """Yield row values matching ``key`` in the named index."""
        ix = self.indexes[index_name.lower()]
        for rid in ix.seek(key):
            yield self._rows[rid].values

    def pk_lookup(self, key):
        """Return the rid of the row with primary key ``key``, or None."""
        ci = self.clustered_index()
        if ci is None:
            raise CatalogError(f"table {self.name} has no primary key")
        for rid in ci.seek(key):
            return rid
        return None

    @property
    def row_count(self):
        return self._live

    def max_xtime(self):
        """Largest xtime among live rows (0 for an empty table)."""
        return max((v.xtime for _, v in self.scan_versions()), default=0)

    def __len__(self):
        return self._live

    def __repr__(self):
        return f"<HeapTable {self.name} rows={self._live} indexes={list(self.indexes)}>"
