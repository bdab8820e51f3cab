"""The test suite's one SQL referee: stdlib ``sqlite3``.

:class:`SqliteReference` copies tables into ``sqlite3.connect(":memory:")``
— every table of a :class:`~repro.cache.backend.BackendServer`, every
table of a :class:`~repro.shard.backend.ShardedBackend` (its rows
gathered from the shards that hold them), or bare
:class:`~repro.storage.table.HeapTable` objects — and :meth:`check`
grades the engine's rows for a statement against sqlite3's answer to the
same text with its CURRENCY clauses stripped:

* without ORDER BY or LIMIT, the two results are equal as multisets;
* with ORDER BY, the sort keys come in the same sequence and the rows
  are equal as multisets — rows that tie on the key may come in any
  order;
* with LIMIT, the engine's rows are a sub-multiset of the unlimited
  answer, of the same count (and, with ORDER BY, the same key sequence).

Floats are compared with a relative tolerance of 1e-9, since a SUM may
add in another order.  Where the two dialects differ (DESIGN.md §6,
"Dialect gaps": integer ``/``, zero divisors, ``%`` on REAL operands), a
test writes the statement so both mean the same thing, e.g.
``t.a * 1.0 / t.c``.
"""

import math
import re
import sqlite3
from collections import Counter

from repro.sql.parser import parse
from repro.storage.schema import DataType
from repro.storage.table import HeapTable

_AFFINITY = {
    DataType.INT: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.STRING: "TEXT",
    DataType.BOOL: "INTEGER",
    DataType.TIMESTAMP: "REAL",
}

#: A CURRENCY clause closes its SELECT block: it runs to the end of the
#: text or to the parenthesis that closes a subquery, and holds no
#: parentheses but its ``ON (...)`` target lists.
_CURRENCY = re.compile(r"\s*\bCURRENCY\s+BOUND\b(?:[^()]|\([^()]*\))*?(?=\)|$)", re.I)
_LIMIT = re.compile(r"\s+LIMIT\s+\d+\s*$", re.I)
_ORDER_BY = re.compile(r"\bORDER\s+BY\b", re.I)


def strip_currency(sql):
    return _CURRENCY.sub("", sql)


def _tables(source):
    """``(name, schema, rows)`` of every table ``source`` holds."""
    if isinstance(source, HeapTable):
        return [(source.name, source.schema, [v for _, v in source.scan()])]
    out = []
    for entry in source.catalog.tables():
        if hasattr(source, "partitions"):
            rows = [values
                    for shard in source._shards_for_table(entry.name)
                    for _, values in source.partitions[shard].catalog.table(entry.name).table.scan()]
        else:
            rows = [values for _, values in entry.table.scan()]
        out.append((entry.name, entry.schema, rows))
    return out


class SqliteReference:
    """An in-memory sqlite3 copy of ``sources`` (servers or tables), taken
    when it is built: build it after the rows it should see are in."""

    def __init__(self, *sources):
        self.db = sqlite3.connect(":memory:")
        for source in sources:
            for name, schema, rows in _tables(source):
                columns = ", ".join(f'"{c.name}" {_AFFINITY[c.dtype]}' for c in schema)
                self.db.execute(f'CREATE TABLE "{name}" ({columns})')
                marks = ", ".join("?" * len(schema))
                self.db.executemany(f'INSERT INTO "{name}" VALUES ({marks})', rows)

    def rows(self, sql):
        """sqlite3's rows for ``sql`` (CURRENCY clauses stripped)."""
        return self.db.execute(strip_currency(sql)).fetchall()

    def check(self, got, sql, key=None):
        """Assert ``got`` (the engine's rows for ``sql``) is sqlite3's
        answer.  ``key`` gives the output positions of the ORDER BY keys
        where they are not select items (``SELECT *``)."""
        text = strip_currency(sql)
        got = [tuple(row) for row in got]
        expected = self.db.execute(text).fetchall()
        if _ORDER_BY.search(text):
            key = _order_positions(parse(text)) if key is None else key
            assert _close(_keys(got, key), _keys(expected, key)), (sql, got, expected)
        if not _LIMIT.search(text):
            assert _same_bag(got, expected), (sql, got, expected)
            return
        unlimited = self.db.execute(_LIMIT.sub("", text)).fetchall()
        assert len(got) == len(expected), (sql, got, expected)
        assert not Counter(got) - Counter(unlimited), (sql, got, unlimited)


def _order_positions(select):
    """Output positions of ``select``'s ORDER BY keys: the select item
    whose expression the key is."""
    positions = []
    for item in select.order_by:
        for i, out in enumerate(select.items):
            if not out.star and out.expr == item.expr:
                positions.append(i)
                break
        else:
            raise ValueError(f"ORDER BY {item.expr.to_sql()} is no output column: pass key=")
    return positions


def _keys(rows, positions):
    return [tuple(row[p] for p in positions) for row in rows]


def _value_close(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return (a is not None and b is not None
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12))
    return a == b


def _close(rows_a, rows_b):
    return len(rows_a) == len(rows_b) and all(
        len(a) == len(b) and all(map(_value_close, a, b)) for a, b in zip(rows_a, rows_b))


def _sort_key(row):
    return tuple((0, 0) if v is None else (2, v) if isinstance(v, str) else (1, v)
                 for v in row)


def _same_bag(rows_a, rows_b):
    if Counter(rows_a) == Counter(rows_b):
        return True
    return _close(sorted(rows_a, key=_sort_key), sorted(rows_b, key=_sort_key))
