"""The back-end's plan cache: every SELECT text a server runs is compiled
through the same :class:`~repro.plan.compiler.PlanCompiler` the cache
tier uses, so a remote branch costs a fingerprint + bind + execute instead
of parse + optimize + execute.

The contract under test: a compiled plan is invisible — a warm
``execute_remote(text)`` answers exactly what the uncached path
(``execute_select(parse(text))``) answers, and both are stdlib sqlite3's
answer — and no plan outlives the schema or statistics it was costed
under.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import backend as backend_module
from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from repro.common.errors import OptimizerError
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.plan.compiler import PLAN_CACHE_SIZE
from repro.shard import backend as shard_module
from repro.shard.backend import ShardedBackend
from repro.sql.parser import parse
from tests import test_in_list_seek as in_list_seek
from tests import test_plan_template as plan_template
from tests.conftest import EXECUTION_PATHS
from tests.sql_reference import SqliteReference, strip_currency
from tests.test_plan_template import POINT, make_backend


def servers(backend):
    """Every server holding compiled plans: the partitions of a sharded
    back-end, or the single server itself."""
    return list(getattr(backend, "partitions", [backend]))


def cached_texts(backend):
    return {sql for server in servers(backend) for sql in server.plans.cache}


# ----------------------------------------------------------------------
# (a) Differential: a warm compiled plan == the uncached reference path
# ----------------------------------------------------------------------
NATION = st.integers(min_value=0, max_value=5)
PRICE = st.sampled_from([3.25, 100.0, 130.0, 250.5])


@st.composite
def subquery_statements(draw):
    """Statements outside the single-block optimizer: the naive path."""
    if draw(st.booleans()):
        return ("SELECT t.k FROM (SELECT c.c_custkey AS k FROM customer c "
                f"WHERE c.c_nationkey = {draw(NATION)}) t")
    return ("SELECT c.c_custkey FROM customer c WHERE EXISTS (SELECT o.o_orderkey "
            "FROM orders o WHERE o.o_custkey = c.c_custkey "
            f"AND o.o_totalprice > {draw(PRICE)})")


STATEMENTS = st.one_of(
    plan_template.statements().map(strip_currency),  # =, IN, ranges, residuals
    in_list_seek.statements(),  # IN-lists with dups, NULL, 1.0, absent keys
    subquery_statements(),
)

_ENVS = {}


def shared_backend(partitions):
    """One long-lived back-end per partition count, shared by both
    execution paths, and its sqlite3 copy: its templates stay warm across
    hypothesis examples, which is the state worth testing."""
    if partitions not in _ENVS:
        backend = make_backend(partitions)
        _ENVS[partitions] = backend, SqliteReference(backend)
    return _ENVS[partitions]


def same_rows(got, expected, sql):
    if "ORDER BY" in sql:
        assert got == expected, sql
    else:
        assert Counter(got) == Counter(expected), sql


def assert_remote_matches_reference(backend, sql, sqlite):
    reference = backend.execute_select(parse(sql)).rows
    sqlite.check(reference, sql)
    cold = backend.execute_remote(sql).to_rows()
    same_rows(cold, reference, sql)
    same_rows(backend.execute_remote(sql).to_rows(), reference, sql)  # the text hit
    # Naive-path statements stay uncached, and so do the fetch/gather
    # routes of a sharded back-end (their final runs on a scratch server).
    try:
        backend.optimize(sql)
        compiled = True
    except OptimizerError:
        compiled = False
    if isinstance(backend, ShardedBackend):
        route = backend.route_select(parse(sql))
        if route.mode == "single":  # the cache's pin for this statement
            same_rows(backend.execute_remote(sql, shards=route.shards).to_rows(), reference, sql)
        compiled = compiled and route.mode in ("single", "scatter")
    assert (sql in cached_texts(backend)) is compiled, sql
    for server in servers(backend):
        plan = server.plans.cache.get(sql)
        if plan is not None:
            assert "\x00" not in plan.explain(), sql


@pytest.mark.parametrize("partitions", [1, 2])
@pytest.mark.parametrize("path", EXECUTION_PATHS, indirect=True)
class TestDifferential:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(batch=st.lists(STATEMENTS, min_size=1, max_size=6))
    def test_warm_remote_text_matches_the_uncached_path(self, path, partitions, batch):
        backend, sqlite = shared_backend(partitions)
        for sql in batch:
            assert_remote_matches_reference(backend, sql, sqlite)

    def test_point_lookups_share_one_template_per_server(self, path, partitions):
        backend = make_backend(partitions)
        for key in range(1, 13):
            assert backend.execute_remote(POINT.format(key)).to_rows() == [(key, f"cust#{key}")]
        for server in servers(backend):
            assert len(server.plans.cache.templates) <= 1
            if server.plans.cache:
                (template,) = {plan.template for plan in server.plans.cache.values()}
                assert template.describe([1]).endswith("[?0 free]")

    def test_a_range_is_pinned_not_bound(self, path, partitions):
        backend = make_backend(partitions)
        sql = "SELECT c.c_custkey FROM customer c WHERE c.c_custkey < {}"
        for key in (5, 9, 5):
            rows = backend.execute_remote(sql.format(key)).to_rows()
            assert sorted(rows) == [(k,) for k in range(1, key)]
        for server in servers(backend):
            assert len(server.plans.cache.templates) == 2
            assert "?0 pinned=9" in server.plans.describe(sql.format(9))


# ----------------------------------------------------------------------
# (b) No plan outlives the schema or statistics it was costed under
# ----------------------------------------------------------------------
WARM = POINT.format(3)


def warm(backend):
    assert backend.execute_remote(WARM).to_rows() == [(3, "cust#3")]
    backend.execute_remote(WARM)
    plans = {id(server): server.plans.cache.get(WARM) for server in servers(backend)}
    assert any(plan is not None for plan in plans.values())
    return plans


def assert_recompiles(backend, before):
    assert WARM not in cached_texts(backend)
    assert backend.execute_remote(WARM).to_rows() == [(3, "cust#3")]
    after = [server.plans.cache.get(WARM) for server in servers(backend)]
    assert any(plan is not None for plan in after)
    assert not any(plan is not None and plan is before.get(id(server))
                   for server, plan in zip(servers(backend), after))


def auto_stats(backend):
    """Cache-routed writes past the churn threshold refresh the back-end's
    statistics, as the write path does in production."""
    cache = MTCache(backend)
    values = ", ".join(f"({k}, {k % 40 + 1}, 1.0)" for k in range(1000, 1250))
    cache.execute(f"INSERT INTO orders VALUES {values}")


INVALIDATIONS = {
    "create_table": lambda b: b.create_table(
        "CREATE TABLE extra (id INT NOT NULL, PRIMARY KEY (id))"),
    "create_index": lambda b: b.create_index(
        "CREATE INDEX ix_nation ON customer (c_nationkey)"),
    "refresh_statistics": lambda b: b.refresh_statistics(),
    "refresh one table": lambda b: b.refresh_statistics("orders"),
    "auto-stats": auto_stats,
}


@pytest.mark.parametrize("partitions", [1, 2])
class TestInvalidation:
    @pytest.mark.parametrize("path", sorted(INVALIDATIONS))
    def test_every_invalidation_path_recompiles(self, partitions, path):
        backend = make_backend(partitions=partitions)
        before = warm(backend)
        INVALIDATIONS[path](backend)
        assert_recompiles(backend, before)

    def test_a_new_index_is_used_by_the_next_remote_call(self, partitions):
        backend = make_backend(partitions=partitions)
        sql = "SELECT o.o_orderkey FROM orders o WHERE o.o_custkey = 7"
        expected = sorted(backend.execute_remote(sql).to_rows())
        assert "IndexSeek" not in "".join(
            plan.explain() for plan in
            (s.plans.cache.get(sql) for s in servers(backend)) if plan is not None)
        backend.create_index("CREATE INDEX ix_ocust ON orders (o_custkey)")
        assert sorted(backend.execute_remote(sql).to_rows()) == expected
        plans = [s.plans.cache[sql] for s in servers(backend) if sql in s.plans.cache]
        assert plans and all("IndexSeek(orders.ix_ocust)" in p.explain() for p in plans)


@pytest.mark.parametrize("path", EXECUTION_PATHS, indirect=True)
def test_a_promoted_replica_compiles_afresh(path):
    backend = make_backend(2, replicas=1)
    backend.run_for(1.0)  # the standbys catch up with the preload
    shard = backend.shard_of("customer", 3)
    warm(backend)
    old = backend.partitions[shard]
    assert WARM in old.plans.cache
    backend.crash_primary(shard)
    backend.promote_shard(shard)
    new = backend.partitions[shard]
    assert new is not old and not new.plans.cache
    assert backend.execute_remote(WARM, shards=(shard,)).to_rows() == [(3, "cust#3")]
    assert WARM in new.plans.cache


def test_staged_statistics_move_the_scratch_epoch():
    backend = make_backend(partitions=2)
    scratch = backend._scratch_server()
    epoch = scratch.ddl_epoch
    rows = backend.execute(
        "SELECT c.c_nationkey, COUNT(*) AS n FROM customer c GROUP BY c.c_nationkey"
    ).rows
    assert sorted(rows) == [(n, 8) for n in range(5)]
    assert scratch.ddl_epoch > epoch


# ----------------------------------------------------------------------
# (c) Every part of a server's plan cache is bounded
# ----------------------------------------------------------------------
@pytest.mark.parametrize("partitions", [1, 2])
def test_no_part_outgrows_the_capacity_after_1000_unique_texts(partitions):
    backend = make_backend(partitions=partitions)
    families = [
        POINT,  # one template, binds
        "SELECT c.c_custkey FROM customer c WHERE c.c_custkey < {}",  # pinned
        "SELECT a{0}.c_name FROM customer a{0} WHERE a{0}.c_custkey = 1",  # shapes
    ]
    for i in range(1000):
        backend.execute_remote(families[i % 3].format(i))
    for server in servers(backend):
        cache = server.plans.cache
        assert len(cache) <= PLAN_CACHE_SIZE
        assert len(cache.templates) <= PLAN_CACHE_SIZE
        assert len(cache.recipes) <= PLAN_CACHE_SIZE


# ----------------------------------------------------------------------
# (d) Parse counts: the coordinator parses only what it must route
# ----------------------------------------------------------------------
@pytest.fixture()
def parses(monkeypatch):
    calls = []
    for module in (backend_module, shard_module):
        real = module.parse
        monkeypatch.setattr(
            module, "parse", lambda *a, real=real, **kw: calls.append(a[0]) or real(*a, **kw))
    return calls


@pytest.mark.parametrize("partitions", [1, 2])
class TestParseCounts:
    def test_a_warm_pinned_remote_call_parses_nothing(self, partitions, parses):
        backend = make_backend(partitions=partitions)
        pin = (backend.shard_of("customer", 3) or 0,)
        del parses[:]
        backend.execute_remote(POINT.format(3), shards=pin)
        assert parses == [POINT.format(3)]  # the cold compile, on the partition
        del parses[:]
        same_shard = next(k for k in range(4, 40)
                          if (backend.shard_of("customer", k) or 0) == pin[0])
        assert backend.execute_remote(POINT.format(3), shards=pin).to_rows() == [(3, "cust#3")]
        assert backend.execute_remote(POINT.format(same_shard), shards=pin).to_rows() == [
            (same_shard, f"cust#{same_shard}")]
        assert parses == []

    @pytest.mark.parametrize("sql", [
        POINT.format(5),  # a single-shard route
        "SELECT c.c_custkey FROM customer c WHERE c.c_nationkey = 3",  # scatter
    ])
    def test_an_unpinned_template_miss_parses_once(self, partitions, parses, sql):
        backend = make_backend(partitions=partitions)
        del parses[:]
        backend.execute_remote(sql)
        assert parses == [sql]
        assert sql in cached_texts(backend)


# ----------------------------------------------------------------------
# (e) Observability: EXPLAIN of a text, and the back-end's own counters
# ----------------------------------------------------------------------
@pytest.mark.parametrize("partitions", [1, 2])
def test_explain_of_a_text_shows_the_plan_execution_runs(partitions):
    backend = make_backend(partitions=partitions)
    backend.execute_remote(POINT.format(4))
    lines = [row[0] for row in backend.explain(POINT.format(7)).rows]
    assert f"template: {POINT.format('?')} [?0 free]" in lines
    assert any("IndexSeek(customer.pk_customer)" in line for line in lines)
    if partitions > 1:
        assert lines[0].startswith("shard route: single")
    via_sql = [row[0] for row in backend.execute("EXPLAIN " + POINT.format(7)).rows]
    assert via_sql == lines
    parsed = [row[0] for row in backend.explain(parse(POINT.format(7))).rows]
    assert "template: none (this text has no compiled template)" in parsed


def test_the_back_end_counts_on_its_own_registry():
    assert isinstance(BackendServer().metrics, NullRegistry)
    registry = MetricsRegistry()
    backend = make_backend(metrics=registry)
    cache = MTCache(backend)
    sql = "SELECT c.c_name FROM customer c WHERE c.c_custkey = {} CURRENCY BOUND 0 SEC ON (c)"
    for key in (1, 2, 2):
        assert cache.execute(sql.format(key)).rows == [(f"cust#{key}",)]

    def events(metrics):
        return {
            event: metrics.counter("plan_cache_events_total", labels={"event": event}).value
            for event in ("hits", "misses", "binds")
        }

    # The cache's plans and the back-end's remote plans, counted apart.
    assert events(cache.metrics) == {"hits": 2, "misses": 1, "binds": 1}
    assert events(registry) == {"hits": 2, "misses": 1, "binds": 1}
