"""SQL arithmetic against stdlib sqlite3, on both execution paths.

``%`` takes the sign of the dividend, as in SQL Server and sqlite3
(``-298 % 3`` is -1; Python's ``%`` gives 2), in the row closures and in
the generated filter kernels alike.  A zero divisor of ``/`` or ``%`` is a
declared :class:`~repro.common.errors.ExecutionError`, never a raw
``ZeroDivisionError``; sqlite3 answers NULL there instead (a dialect gap
:mod:`tests.sql_reference` lists).  The small table's plans are tiny on
the ``"columnar"`` path (``all_rows()``); the large table's stream.
"""

import pytest

from repro.cache.backend import BackendServer
from repro.common.errors import ExecutionError
from tests.conftest import EXECUTION_PATHS
from tests.sql_reference import SqliteReference

#: Rows of t: ``a`` runs over negatives and positives, ``b`` holds zeros
#: and negative divisors, ``c`` is never zero.
SIZES = {"small": range(-10, 10), "large": range(-300, 300)}


def _rows(keys):
    return [(a, a % 7 - 3, a % 5 + 1) for a in keys]


@pytest.fixture(scope="module")
def servers():
    out = {}
    for size, keys in SIZES.items():
        server = BackendServer()
        server.create_table("CREATE TABLE t (a INT NOT NULL, b INT NOT NULL, "
                            "c INT NOT NULL, PRIMARY KEY (a))")
        server.execute("INSERT INTO t VALUES " + ", ".join(map(str, _rows(keys))))
        server.refresh_statistics()
        out[size] = server, SqliteReference(server)
    return out


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("path", EXECUTION_PATHS, indirect=True)
@pytest.mark.parametrize("sql", [
    "SELECT t.a FROM t WHERE t.a % 3 = 2",
    "SELECT t.a FROM t WHERE t.a % 3 = -1",
    "SELECT t.a FROM t WHERE t.a % -4 = -3",
    "SELECT t.a FROM t WHERE t.a % t.c <> 0",
    "SELECT t.a, t.a % 3, t.a % -3, -t.a % 3 FROM t",
    "SELECT t.a, t.a % t.c, t.b % t.c FROM t",
    "SELECT t.a, t.a * 1.0 / t.c FROM t",
    "SELECT t.a FROM t WHERE t.a * 1.0 / t.c < -20.5",
    "SELECT t.b, SUM(t.a % 4) AS s FROM t GROUP BY t.b",
])
def test_matches_sqlite(servers, path, size, sql):
    server, reference = servers[size]
    reference.check(server.execute(sql).rows, sql)


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("path", EXECUTION_PATHS, indirect=True)
@pytest.mark.parametrize("sql", [
    "SELECT t.a / t.b FROM t",
    "SELECT t.a % t.b FROM t",
    "SELECT t.a FROM t WHERE t.a % t.b = 1",
    "SELECT t.a FROM t WHERE t.a / t.b > 1",
])
def test_zero_divisor_is_declared(servers, path, size, sql):
    server, _ = servers[size]
    with pytest.raises(ExecutionError, match="division by zero"):
        server.execute(sql)


def test_sqlite_answers_null_there(servers):
    _, reference = servers["small"]
    assert (0, None) in reference.rows("SELECT t.b, t.a / t.b FROM t")
