"""Ordered indexes over heap tables.

An :class:`Index` maps key tuples (values of the indexed columns) to row ids
in the owning :class:`~repro.storage.table.HeapTable`.  Entries are kept in a
sorted list so both point lookups (bisect) and range scans are efficient —
the in-memory analogue of a B-tree.  A *clustered* index here only means the
optimizer treats the table as ordered by that key; the heap itself is not
physically reordered.
"""

import bisect

from repro.common.errors import StorageError

#: Sentinels that sort below/above every real value, used for open-ended
#: range scans over heterogeneous key tuples.
class _NegInf:
    def __lt__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __repr__(self):
        return "-inf"


class _PosInf:
    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return True

    def __repr__(self):
        return "+inf"


NEG_INF = _NegInf()
POS_INF = _PosInf()


class Index:
    """A sorted (key, rowid) index over a heap table."""

    def __init__(self, name, column_names, key_positions, unique=False, clustered=False):
        self.name = name
        self.column_names = list(column_names)
        self.key_positions = list(key_positions)
        self.unique = unique
        self.clustered = clustered
        # Parallel sorted arrays: _keys[i] corresponds to _rids[i].  Keys are
        # (key_tuple, rowid) pairs so duplicates stay ordered and removable.
        self._entries = []

    def __len__(self):
        return len(self._entries)

    def key_of(self, row):
        """Extract this index's key tuple from a full table row."""
        return tuple(row[p] for p in self.key_positions)

    def insert(self, row, rid):
        key = self.key_of(row)
        entry = (key, rid)
        try:
            pos = bisect.bisect_left(self._entries, entry)
        except TypeError:
            # NULL does not order against the stored keys.
            raise StorageError(f"index {self.name}: key {key} does not compare "
                               "with the stored keys") from None
        if self.unique:
            # Any entry with the same key (regardless of rid) is a violation.
            if pos < len(self._entries) and self._entries[pos][0] == key:
                raise StorageError(f"unique index {self.name}: duplicate key {key}")
            if pos > 0 and self._entries[pos - 1][0] == key:
                raise StorageError(f"unique index {self.name}: duplicate key {key}")
        self._entries.insert(pos, entry)

    def delete(self, row, rid):
        key = self.key_of(row)
        entry = (key, rid)
        pos = bisect.bisect_left(self._entries, entry)
        if pos >= len(self._entries) or self._entries[pos] != entry:
            raise StorageError(f"index {self.name}: missing entry {entry}")
        del self._entries[pos]

    def seek(self, key):
        """Yield row ids whose key equals ``key`` (a tuple)."""
        key = tuple(key)
        pos = bisect.bisect_left(self._entries, (key, -1))
        while pos < len(self._entries) and self._entries[pos][0] == key:
            yield self._entries[pos][1]
            pos += 1

    def seek_list(self, key):
        """Row ids whose key equals ``key``, as a list.

        Same contract as :meth:`seek` without the generator frame — the
        equality-seek hot path (guarded point lookups) materializes its
        handful of rids in one pass.
        """
        entries = self._entries
        n = len(entries)
        pos = bisect.bisect_left(entries, (key, -1))
        out = []
        while pos < n and entries[pos][0] == key:
            out.append(entries[pos][1])
            pos += 1
        return out

    def seek_keys(self, keys):
        """Row ids per key for a run of equality probes: one sequence per
        key of ``keys``, in index order.  A key may be a prefix of the
        index key: a bare prefix tuple sorts before all of its
        extensions, so one bisect lands on its first entry.  A key with a
        NULL part matches nothing."""
        entries = self._entries
        n = len(entries)
        full = len(self.key_positions)
        bisect_left = bisect.bisect_left
        out = []
        for key in keys:
            if None in key:
                out.append(())
                continue
            pos = bisect_left(entries, (key,))
            hits = []
            if len(key) == full:
                while pos < n and entries[pos][0] == key:
                    hits.append(entries[pos][1])
                    pos += 1
            else:
                width = len(key)
                while pos < n and entries[pos][0][:width] == key:
                    hits.append(entries[pos][1])
                    pos += 1
            out.append(hits)
        return out

    def range(self, low=None, high=None, low_inclusive=True, high_inclusive=True):
        """The (key, rid) pairs with low <= key <= high, in key order, as
        one list slice.

        ``low``/``high`` are *prefix* tuples: a bound shorter than the full
        key matches on the prefix.  ``None`` means unbounded on that side.
        Both ends are found by bisection.
        """
        entries = self._entries
        start = 0 if low is None else self._edge(low, not low_inclusive)
        end = len(entries) if high is None else self._edge(high, high_inclusive)
        return entries[start:end]

    def _edge(self, bound, past):
        """The entry position where keys with the prefix ``bound`` begin,
        or with ``past``, where they end.  The probe pads the prefix and
        the rid with -inf (sorts before every extension) or +inf (after
        every one)."""
        pad = POS_INF if past else NEG_INF
        bound = tuple(bound)
        probe = (bound + (pad,) * (len(self.key_positions) - len(bound)), pad)
        return bisect.bisect_left(self._entries, probe)

    def scan(self):
        """Yield all (key, rid) pairs in key order."""
        return iter(self._entries)

    def clear(self):
        self._entries = []

    def __repr__(self):
        kind = "clustered" if self.clustered else "secondary"
        uniq = " unique" if self.unique else ""
        return f"<Index {self.name} {kind}{uniq} on {self.column_names} ({len(self)} entries)>"
