"""The sharded coordinator, graded by stdlib ``sqlite3``.

A :class:`~repro.shard.backend.ShardedBackend` answers a select no shard
can answer alone — a join spanning shards, a final pass (GROUP BY,
HAVING, ORDER BY, LIMIT, DISTINCT, aggregates) over several shards, a
nested select — by planning it with the one optimizer over its own
catalog: each base operand is a σπ leg run on the shards holding its
rows, and the joins, aggregates, sorts and compiled subqueries run at
the coordinator over the legs' column batches.  This file checks the
rows against sqlite3 on two and three partitions, on both execution
paths, and that no statement copies a table to answer.
"""

import pytest

from repro.cache.backend import BackendServer
from repro.common.errors import ExecutionError
from repro.engine import operators as ops
from repro.shard.backend import ShardedBackend
from repro.sql.parser import parse
from repro.storage.table import HeapTable
from repro.workloads.queries import PLAN_CHOICE_QUERIES, plan_choice_query
from repro.workloads.tpcd import load_tpcd
from tests.conftest import each_path
from tests.sql_reference import SqliteReference, strip_currency

SCALE = 0.002  # 300 customers, 3,000 orders

QUERIES = [strip_currency(plan_choice_query(name, SCALE)) for name in PLAN_CHOICE_QUERIES] + [
    # Joins of two and three tables, pinned keys and none.
    "SELECT c.c_name, o.o_orderkey FROM customer c, orders o "
    "WHERE c.c_custkey = o.o_custkey AND c.c_custkey = 7",
    "SELECT c.c_name, o.o_totalprice FROM customer c, orders o "
    "WHERE c.c_custkey = o.o_custkey AND c.c_custkey IN (3, 8, 150, 299)",
    "SELECT c.c_custkey, o.o_orderkey, d.c_name FROM customer c, orders o, customer d "
    "WHERE c.c_custkey = o.o_custkey AND d.c_nationkey = c.c_nationkey "
    "AND c.c_custkey < 12 AND d.c_custkey < 30",
    "SELECT c.c_custkey, d.c_custkey FROM customer c, customer d "
    "WHERE c.c_acctbal < d.c_acctbal AND c.c_custkey < 6 AND d.c_custkey < 9",
    # Final passes over several shards.
    "SELECT COUNT(*) AS n, SUM(o.o_totalprice) AS s FROM orders o",
    "SELECT c.c_nationkey, COUNT(*) AS n, MAX(c.c_acctbal) AS m FROM customer c "
    "GROUP BY c.c_nationkey",
    "SELECT c.c_nationkey, COUNT(*) AS n, SUM(o.o_totalprice) AS s FROM customer c, orders o "
    "WHERE c.c_custkey = o.o_custkey GROUP BY c.c_nationkey HAVING n > 100",
    "SELECT o.o_orderstatus, COUNT(*) AS n FROM orders o WHERE o.o_custkey IN (1, 2, 3, 4) "
    "GROUP BY o.o_orderstatus",
    "SELECT c.c_custkey, c.c_acctbal FROM customer c ORDER BY c.c_acctbal DESC LIMIT 7",
    "SELECT o.o_orderkey, o.o_totalprice, c.c_name FROM customer c, orders o "
    "WHERE c.c_custkey = o.o_custkey AND c.c_nationkey = 3 "
    "ORDER BY o.o_totalprice, o.o_orderkey LIMIT 5",
    "SELECT c.c_custkey FROM customer c WHERE c.c_acctbal > 9000 LIMIT 4",
    "SELECT DISTINCT c.c_mktsegment FROM customer c",
    "SELECT DISTINCT c.c_nationkey FROM customer c, orders o "
    "WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 400000",
    # Nested selects: correlated on the partition key, uncorrelated, derived.
    "SELECT c.c_custkey FROM customer c WHERE c.c_custkey < 40 AND EXISTS "
    "(SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 300000)",
    "SELECT c.c_custkey, c.c_acctbal FROM customer c "
    "WHERE c.c_acctbal > (SELECT AVG(d.c_acctbal) FROM customer d) AND c.c_nationkey = 2",
    "SELECT c.c_custkey, (SELECT COUNT(*) FROM orders o WHERE o.o_custkey = c.c_custkey) AS k "
    "FROM customer c WHERE c.c_custkey < 15",
    "SELECT t.k, t.n FROM (SELECT o.o_custkey AS k, COUNT(*) AS n FROM orders o "
    "GROUP BY o.o_custkey) t WHERE t.n > 14",
    "SELECT c.c_name FROM customer c WHERE c.c_custkey IN "
    "(SELECT o.o_custkey FROM orders o WHERE o.o_totalprice > 450000)",
]


@pytest.fixture(scope="module", params=[2, 3], ids=["shards2", "shards3"])
def sharded(request):
    backend = load_tpcd(ShardedBackend(request.param), scale_factor=SCALE)
    return backend, SqliteReference(backend)


@pytest.mark.parametrize("sql", QUERIES)
def test_coordinator_matches_sqlite(sharded, sql):
    backend, reference = sharded
    for _ in each_path():
        reference.check(backend.execute(sql).rows, sql)
        reference.check(backend.execute_select(parse(sql)).rows, sql)
        reference.check(backend.execute_remote(sql).to_rows(), sql)


def test_cross_shard_reads_take_the_coordinator(sharded):
    backend, _ = sharded
    for sql in QUERIES[:3] + QUERIES[-5:]:  # Q1-Q3 and the nested selects
        assert backend.route_select(parse(sql)).mode == "coordinator", sql


def test_no_statement_copies_a_table(sharded, monkeypatch):
    backend, _ = sharded
    inserts, servers = [], []
    real_insert, real_init = HeapTable.insert, BackendServer.__init__
    monkeypatch.setattr(HeapTable, "insert",
                        lambda self, *a, **kw: inserts.append(self.name) or real_insert(self, *a, **kw))
    monkeypatch.setattr(BackendServer, "__init__",
                        lambda self, *a, **kw: servers.append(1) or real_init(self, *a, **kw))
    for sql in QUERIES:
        backend.execute(sql)
    assert inserts == [] and servers == []


def legs(op):
    """``{leg text: shards}`` of every RemoteQuery a plan runs, its
    compiled subqueries' included."""
    out = {}
    for node in op.walk():
        if isinstance(node, ops.RemoteQuery):
            out[node.describe()] = node.shards
        for block in node.subplans:
            out.update(legs(block.plan.root()))
    return out


def test_legs_run_on_the_shards_their_literal_keys_pin(sharded):
    backend, _ = sharded
    everywhere = tuple(range(backend.partition_count))
    plan = backend.optimize(
        "SELECT c.c_name, o.o_orderkey FROM customer c, orders o "
        "WHERE c.c_custkey = o.o_custkey AND c.c_custkey = 7 AND o.o_totalprice > 0")
    assert legs(plan.root()) == {
        "RemoteQuery(SELECT c.c_custkey, c.c_name FROM customer c WHERE (c.c_custkey = 7))":
            (backend.shard_of("customer", 7),),
        "RemoteQuery(SELECT o.o_custkey, o.o_orderkey, o.o_totalprice FROM orders o "
        "WHERE (o.o_totalprice > 0))": everywhere,
    }
    # A correlated key has no value at plan time: it never pins a leg.
    plan = backend.optimize(
        "SELECT c.c_custkey FROM customer c WHERE EXISTS "
        "(SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)")
    (inner,) = [text for text in legs(plan.root()) if "FROM orders" in text]
    assert legs(plan.root())[inner] == everywhere


def test_explain_prints_the_coordinator_plan_and_its_legs(sharded):
    backend, _ = sharded
    sql = ("SELECT c.c_custkey FROM customer c WHERE EXISTS "
           "(SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)")
    lines = [row[0] for row in backend.explain(sql).rows]
    assert lines[0].startswith("shard route: coordinator")
    text = "\n".join(lines)
    assert "Subquery(correlated)" in text
    assert "RemoteQuery(SELECT o.o_custkey FROM orders o WHERE (o.o_custkey = " in text


def test_estimate_prices_the_coordinator_plan(sharded):
    backend, _ = sharded
    sql = strip_currency(plan_choice_query("q2", SCALE))
    cost, rows, _ = backend.estimate(sql)
    plan = backend.optimize(sql)
    assert (cost, rows) == (plan.cost, plan.est_rows)
    assert plan.summary() == "hashjoin(remote, remote)"


# ----------------------------------------------------------------------
# DML holding a subquery is refused on shards (each shard evaluated it
# over its own rows only)
# ----------------------------------------------------------------------
DML = [
    "DELETE FROM orders WHERE orders.o_custkey IN "
    "(SELECT c.c_custkey FROM customer c WHERE c.c_acctbal < 0)",
    "UPDATE orders SET o_totalprice = 1.0 WHERE EXISTS "
    "(SELECT 1 FROM customer c WHERE c.c_custkey = orders.o_custkey AND c.c_nationkey = 1)",
    "UPDATE orders SET o_totalprice = (SELECT MAX(c.c_acctbal) FROM customer c) "
    "WHERE orders.o_custkey = 5",
    "INSERT INTO orders VALUES ((SELECT MAX(c.c_custkey) FROM customer c), 1, 1.0, 'F')",
]


@pytest.mark.parametrize("partitions", [2, 3])
@pytest.mark.parametrize("sql", DML)
def test_dml_with_a_subquery_is_refused_on_shards(partitions, sql):
    backend = load_tpcd(ShardedBackend(partitions), scale_factor=SCALE)
    before = backend.execute("SELECT COUNT(*) AS n, SUM(o.o_totalprice) AS s FROM orders o").rows
    with pytest.raises(ExecutionError, match="subquery"):
        backend.execute(sql)
    after = backend.execute("SELECT COUNT(*) AS n, SUM(o.o_totalprice) AS s FROM orders o").rows
    assert after == before


def test_a_non_co_located_subquery_delete_is_refused():
    """Each shard used to evaluate the subquery over its own rows only:
    this DELETE removed 30 rows on one server, 0 on two shards and 18 on
    three."""
    ddl = ["CREATE TABLE t (a INT NOT NULL, b INT, PRIMARY KEY (a))",
           "CREATE TABLE s (x INT NOT NULL, y INT, PRIMARY KEY (x))"]
    sql = "DELETE FROM t WHERE t.b IN (SELECT s.y FROM s WHERE s.x < 30)"
    counts = {}
    for backend in (BackendServer(), ShardedBackend(2), ShardedBackend(3)):
        for stmt in ddl:
            backend.create_table(stmt)
        backend.execute("INSERT INTO t VALUES " + ", ".join(f"({i}, {i})" for i in range(60)))
        backend.execute("INSERT INTO s VALUES " + ", ".join(f"({i}, {i + 1})" for i in range(60)))
        try:
            counts[backend.partition_count] = backend.execute(sql)
        except ExecutionError:
            counts[backend.partition_count] = "refused"
    assert counts == {1: 30, 2: "refused", 3: "refused"}


def test_load_tpcd_loads_a_sharded_backend():
    backend = load_tpcd(ShardedBackend(2), scale_factor=SCALE, batch_size=1000)
    server = load_tpcd(BackendServer(), scale_factor=SCALE, batch_size=1000)
    assert [len(p.catalog.table("orders").table) for p in backend.partitions] == [
        sum(1 for _, row in server.catalog.table("orders").table.scan()
            if backend.shard_of("orders", row[0]) == shard)
        for shard in range(2)
    ]
    assert backend.catalog.table("customer").stats.row_count == 300
