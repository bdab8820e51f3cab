"""The engine against stdlib sqlite3, on both execution paths, everywhere.

Every statement runs on both paths of :data:`tests.conftest.EXECUTION_PATHS`
— ``"columnar"``, the executor's own rule (a tiny plan runs ``all_rows()``,
every other plan streams ``col_batches()``), and ``"batch"``, where every
plan streams — and :class:`tests.sql_reference.SqliteReference` grades
the rows of each.  This module drives them over

* the deterministic enumeration of every query shape from
  ``test_optimizer_equivalence.py`` (scans, aggregates, 2/3-way joins,
  self joins, IN-subqueries, ORDER BY / DISTINCT / LIMIT, NULL sort keys
  and comparisons) on two back-end servers: a *small* one, whose plans
  are tiny on the ``"columnar"`` path, and a *large* one, whose scans
  stream on both paths, and
* the paper environments from ``test_paper_walkthrough.py`` and the
  plan-choice benches (guarded SwitchUnion plans, serve-stale warnings,
  mixed routing) on MTCache, graded against the back-end's tables after
  propagation on the frozen clock; routing and warnings must agree
  across the paths.

The paper-environment half additionally replays every query through a
*snapshot-instantiated* plan (serialize the optimized plan with
:mod:`repro.plan`, instantiate it back, execute) and grades its rows
too.  It also pins that the removed ``engine`` and ``batch_size`` knobs
stay removed, and that both tiers price plans with one cost model.
"""

import pytest

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from repro.engine.executor import Executor
from repro.plan import SnapshotUnsupported, instantiate_snapshot, serialize_plan
from repro.shard.backend import ShardedBackend
from repro.workloads.bookstore import load_bookstore
from repro.workloads.experiment import build_paper_setup
from repro.workloads.queries import guard_query, plan_choice_query
from tests.conftest import each_path
from tests.sql_reference import SqliteReference

# The query-shape vocabulary of test_optimizer_equivalence.py, enumerated
# exhaustively instead of sampled.
PREDICATES_R = [
    "", "r.a < 20", "r.b = 3", "r.c > 5.0", "r.a BETWEEN 10 AND 40",
    "r.b = 3 AND r.a < 30", "r.a < 20 OR r.c > 10.0", "NOT r.b = 2",
    "r.b IN (1, 2, 3)",
]
PREDICATES_JOIN = ["", "s.y = 2", "r.a + s.x < 30", "s.y < r.b"]
ITEMS = ["r.a", "r.a, r.c", "r.b, r.a", "r.a, r.b, r.c"]
#: Predicates over the nullable column ``r.d``: a NULL operand makes a
#: comparison UNKNOWN, which no filter passes.
PREDICATES_NULL = [
    "r.d <> 2", "NOT r.d = 2", "r.d <> r.b", "r.d IS NULL OR r.d <> 1",
    "NOT (r.d <> 3)",
]

#: Rows per table (r, s, u): the small sizes add up to under the executor's
#: tiny-plan threshold (33), so every join of them runs ``all_rows()``.
SIZES = {"small": (12, 10, 8), "large": (60, 40, 30)}


def _make_server(n_r, n_s, n_u):
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE r (a INT NOT NULL, b INT NOT NULL, c FLOAT NOT NULL, d INT, "
        "PRIMARY KEY (a))"
    )
    backend.create_table(
        "CREATE TABLE s (x INT NOT NULL, y INT NOT NULL, PRIMARY KEY (x))"
    )
    backend.create_table(
        "CREATE TABLE u (p INT NOT NULL, q INT NOT NULL, PRIMARY KEY (p))"
    )
    r_rows = ", ".join(
        f"({i}, {i % 7}, {float(i % 13)}, {'NULL' if i % 4 == 0 else i % 5})"
        for i in range(1, n_r + 1))
    s_rows = ", ".join(f"({i}, {i % 5})" for i in range(1, n_s + 1))
    u_rows = ", ".join(f"({i}, {i % 3})" for i in range(1, n_u + 1))
    backend.execute(f"INSERT INTO r VALUES {r_rows}")
    backend.execute(f"INSERT INTO s VALUES {s_rows}")
    backend.execute(f"INSERT INTO u VALUES {u_rows}")
    backend.execute("CREATE INDEX ix_r_b ON r (b)")
    backend.refresh_statistics()
    return backend


@pytest.fixture(scope="module")
def servers():
    """A small and a large server, each with its sqlite3 copy."""
    out = {}
    for size, counts in SIZES.items():
        server = _make_server(*counts)
        out[size] = server, SqliteReference(server)
    return out


def _check(servers, sql):
    """``sql`` on both servers and both paths: sqlite3's answer each time."""
    for server, reference in servers.values():
        for _ in each_path():
            reference.check(server.execute(sql).rows, sql)


class TestBackendEquivalence:
    @pytest.mark.parametrize("predicate", PREDICATES_R)
    @pytest.mark.parametrize("items", ITEMS)
    def test_scan_queries(self, servers, predicate, items):
        where = f" WHERE {predicate}" if predicate else ""
        _check(servers, f"SELECT {items} FROM r{where}")

    @pytest.mark.parametrize("predicate", PREDICATES_R)
    def test_aggregates(self, servers, predicate):
        where = f" WHERE {predicate}" if predicate else ""
        _check(
            servers,
            f"SELECT r.b, COUNT(*) AS n, SUM(r.c) AS total, AVG(r.d) AS mean, "
            f"COUNT(r.d) AS nd, MIN(r.d) AS lo FROM r{where} GROUP BY r.b",
        )

    @pytest.mark.parametrize("pred_r", PREDICATES_R)
    @pytest.mark.parametrize("pred_join", PREDICATES_JOIN)
    def test_two_way_joins(self, servers, pred_r, pred_join):
        conjuncts = ["r.a = s.x"]
        if pred_r:
            conjuncts.append(pred_r)
        if pred_join:
            conjuncts.append(pred_join)
        _check(
            servers,
            f"SELECT r.a, r.b, s.y FROM r, s WHERE {' AND '.join(conjuncts)}",
        )

    @pytest.mark.parametrize("pred", PREDICATES_R)
    @pytest.mark.parametrize("join2", ["s.x = u.p", "r.b = u.q"])
    def test_three_way_joins(self, servers, pred, join2):
        conjuncts = ["r.a = s.x", join2]
        if pred:
            conjuncts.append(pred)
        _check(
            servers,
            f"SELECT r.a, s.y, u.q FROM r, s, u WHERE {' AND '.join(conjuncts)}",
        )

    @pytest.mark.parametrize("pred", ["", "x.b = 2", "y.b = 3", "x.a < y.a"])
    def test_self_joins(self, servers, pred):
        conjuncts = ["x.b = y.b"]
        if pred:
            conjuncts.append(pred)
        _check(
            servers,
            f"SELECT x.a, y.a FROM r x, r y WHERE {' AND '.join(conjuncts)}",
        )

    @pytest.mark.parametrize("pred", PREDICATES_R)
    @pytest.mark.parametrize("inner", ["s.y = 2", "s.y < 3", "s.x > 20", ""])
    def test_in_subqueries(self, servers, pred, inner):
        inner_where = f" WHERE {inner}" if inner else ""
        conjuncts = [f"r.b IN (SELECT s.y FROM s{inner_where})"]
        if pred:
            conjuncts.append(pred)
        _check(servers, f"SELECT r.a, r.b FROM r WHERE {' AND '.join(conjuncts)}")

    @pytest.mark.parametrize("pred", PREDICATES_R)
    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    def test_order_by(self, servers, pred, direction):
        where = f" WHERE {pred}" if pred else ""
        _check(servers, f"SELECT r.a FROM r{where} ORDER BY r.a {direction}")

    @pytest.mark.parametrize("pred", ["", "r.b < 4", "r.d IS NOT NULL OR r.a < 9"])
    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    def test_order_by_nullable_key(self, servers, pred, direction):
        # NULL sorts first ascending and last descending; rows that tie on
        # d may come in any order.
        where = f" WHERE {pred}" if pred else ""
        _check(servers, f"SELECT r.d, r.a FROM r{where} ORDER BY r.d {direction}")

    @pytest.mark.parametrize("pred", PREDICATES_NULL)
    def test_null_comparisons(self, servers, pred):
        _check(servers, f"SELECT r.a, r.d FROM r WHERE {pred}")

    @pytest.mark.parametrize("pred", PREDICATES_R)
    def test_distinct(self, servers, pred):
        where = f" WHERE {pred}" if pred else ""
        _check(servers, f"SELECT DISTINCT r.b FROM r{where}")

    def test_limit(self, servers):
        _check(servers, "SELECT r.a FROM r ORDER BY r.a LIMIT 7")
        _check(servers, "SELECT r.b, r.a FROM r ORDER BY r.b LIMIT 7")
        _check(servers, "SELECT r.a, r.b FROM r WHERE r.b > 2 LIMIT 5")

    def test_small_server_runs_tiny_plans(self, servers):
        # The "columnar" path of the small server is the all_rows() path.
        server, _ = servers["small"]
        for sql in ("SELECT r.a FROM r ORDER BY r.a",
                    "SELECT r.a, s.y, u.q FROM r, s, u WHERE r.a = s.x AND s.x = u.p",
                    "SELECT r.b, AVG(r.d) AS mean FROM r GROUP BY r.b"):
            assert server.execute(sql).context.engine == "row", sql
        large, _ = servers["large"]
        assert large.execute("SELECT r.a FROM r ORDER BY r.a").context.engine == "columnar"


@pytest.fixture(scope="module")
def paper_env():
    """The paper environment, settled, and sqlite3's copy of its back-end."""
    env = build_paper_setup(scale_factor=0.002, paper_scale_stats=True)
    return env, SqliteReference(env.backend)


def _snapshot_replay(cache, sql, reference):
    """Serialize the cached plan, instantiate it back on the same node,
    execute, and grade its rows.  Plans outside the snapshot vocabulary
    (shipped subqueries) are exempt by design."""
    plan = cache._plans.cache.get(sql)
    if plan is None:
        plan = cache.optimize(sql)
    try:
        snapshot = serialize_plan(plan)
    except SnapshotUnsupported:
        return
    replayed = cache._execute_plan(
        instantiate_snapshot(snapshot, cache), sql_text=sql
    )
    reference.check(replayed.rows, sql)


def _check_paper_query(paper_env, sql, name):
    """``sql`` on both paths: sqlite3's rows each time, one routing and
    one set of warnings across the paths."""
    env, reference = paper_env
    results = []
    for _ in each_path():
        result = env.cache.execute(sql)
        reference.check(result.rows, sql)
        _snapshot_replay(env.cache, sql, reference)
        results.append(result)
    streamed, default = results
    assert default.routing == streamed.routing, name
    assert default.warnings == streamed.warnings, name


class TestPaperSetupEquivalence:
    @pytest.mark.parametrize("name", ["q1", "q2", "q3", "q4", "q5", "q6", "q7"])
    def test_plan_choice_queries(self, paper_env, name):
        # SF-1.0 selectivities, like the bench.
        _check_paper_query(paper_env, plan_choice_query(name), name)

    @pytest.mark.parametrize("name", ["gq1", "gq2", "gq3"])
    def test_guard_queries(self, paper_env, name):
        _check_paper_query(paper_env, guard_query(name, scale_factor=0.002), name)


def _make_bookstore():
    backend = BackendServer()
    load_bookstore(backend, n_books=30)
    cache = MTCache(backend, fallback_policy="serve_stale")
    cache.create_region("books_r", 3600.0, 1.0, heartbeat_interval=1.0)
    cache.create_matview("books_copy", "books", ["isbn", "title", "price"],
                         region="books_r")
    cache.create_matview("reviews_copy", "reviews",
                         ["review_id", "isbn", "rating"], region="books_r")
    cache.run_for(3601)
    return cache

BOOK_JOIN = "SELECT b.isbn, r.rating FROM books b, reviews r WHERE b.isbn = r.isbn"


def _bookstore_results(sql):
    """``sql`` mid-cycle on each path, graded by the back-end's tables."""
    cache = _make_bookstore()
    cache.run_for(1800)
    reference = SqliteReference(cache.backend)
    results = []
    for _ in each_path():
        result = cache.execute(sql)
        reference.check(result.rows, sql)
        results.append(result)
    return results


class TestWalkthroughEquivalence:
    @pytest.mark.parametrize("currency", [
        "",
        " CURRENCY BOUND 2 HOUR ON (b), 2 HOUR ON (r)",
        " CURRENCY BOUND 10 MIN ON (b, r)",
        # Mid-cycle the replicas are ~30 min stale: the optimizer still
        # picks the guarded plan for a 30-minute bound, the guard fails at
        # run time, and serve_stale attaches warnings — which must match.
        " CURRENCY BOUND 30 MIN ON (b), 30 MIN ON (r)",
    ])
    def test_bookstore_join(self, currency):
        streamed, default = _bookstore_results(BOOK_JOIN + currency)
        assert default.routing == streamed.routing, currency
        assert default.warnings == streamed.warnings, currency

    def test_serve_stale_warnings_fire_identically(self):
        streamed, default = _bookstore_results(
            BOOK_JOIN + " CURRENCY BOUND 30 MIN ON (b), 30 MIN ON (r)")
        # Guard equivalence must not be vacuous: this shape fails its
        # guards mid-cycle on every path.
        assert len(streamed.warnings) == 2
        assert default.warnings == streamed.warnings


class TestEngineKnobs:
    # The batch_size and engine knobs are gone: every value, good or bad,
    # is an unexpected keyword.
    def test_mtcache_rejects_bad_batch_sizes(self):
        backend = BackendServer()
        for size in (0, -1, 2.5, "256", True, None, 1, 256):
            with pytest.raises(TypeError, match="batch_size"):
                MTCache(backend, batch_size=size)

    def test_backend_rejects_bad_batch_sizes(self):
        for size in (0, -3, 1.0, "row", False, 1, 256):
            with pytest.raises(TypeError, match="batch_size"):
                BackendServer(batch_size=size)
            with pytest.raises(TypeError, match="batch_size"):
                ShardedBackend(2, batch_size=size)
            with pytest.raises(TypeError, match="batch_size"):
                build_paper_setup(batch_size=size)

    def test_engine_knob_is_gone(self):
        backend = BackendServer()
        for engine in ("row", "columnar", None):
            for make in (lambda: MTCache(backend, engine=engine),
                         lambda: BackendServer(engine=engine),
                         lambda: ShardedBackend(2, engine=engine),
                         lambda: Executor(engine=engine),
                         lambda: build_paper_setup(engine=engine)):
                with pytest.raises(TypeError, match="engine"):
                    make()

    def test_batch_engine_counts_batches_and_fused_pipelines(self, servers):
        # A streamed run is the one that moves batches.
        server, _ = servers["large"]
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        server.executor.set_registry(registry)
        try:
            result = server.execute("SELECT r.a FROM r WHERE r.c >= 1.0")
            assert result.context.engine == "columnar"
            assert registry.counter("engine_batches_total").value >= 1
            assert registry.counter("engine_fused_pipelines_total").value >= 1
        finally:
            server.executor.set_registry(server.metrics)


class TestOneCostModel:
    """The cache prices its local branch with its back-end's model: the
    paper's c = p*c_local + (1-p)*c_remote + c_guard compares one costing
    of each branch, on either back-end topology."""

    def test_cache_over_a_server_prices_like_the_server(self):
        backend = BackendServer()
        cache = MTCache(backend)
        assert (cache.cost_model.fused_pipeline(1.2, 1000)
                == backend.cost_model.fused_pipeline(1.2, 1000))

    def test_cache_over_shards_prices_like_the_shards(self):
        backend = ShardedBackend(2)
        cache = MTCache(backend)
        expected = backend.cost_model.fused_pipeline(1.2, 1000)
        assert cache.cost_model.fused_pipeline(1.2, 1000) == expected
        for partition in backend.partitions:
            assert partition.cost_model.fused_pipeline(1.2, 1000) == expected


def _roots_run(cache, sql, n=2):
    """Execute ``sql`` ``n`` times; the operator roots the executor ran,
    and the results."""
    roots = []
    execute = cache.executor.execute

    def spy(plan, *args, **kwargs):
        roots.append(plan)
        return execute(plan, *args, **kwargs)

    cache.executor.execute = spy
    try:
        return roots, [cache.execute(sql) for _ in range(n)]
    finally:
        del cache.executor.execute


#: A 30-row view scan: a tiny plan, run in row mode.
BOOK_SCAN = "SELECT b.isbn, b.price FROM books b WHERE b.price > 20.0"


class TestRowEngineReusesItsTree:
    """A cached plan runs the same operator tree on every execution in row
    mode (a tiny plan's ``all_rows()``), as it does streamed."""

    def test_compiled_plan(self):
        cache = _make_bookstore()
        roots, (cold, warm) = _roots_run(cache, BOOK_SCAN + " CURRENCY BOUND 2 HOUR ON (b)")
        assert cold.context.engine == "row"
        assert roots[0] is roots[1]
        assert warm.rows == cold.rows and cold.rows

    def test_snapshot_instantiated_plan(self):
        from repro.fleet import CacheFleet

        backend = BackendServer()
        load_bookstore(backend, n_books=30)
        fleet = CacheFleet(backend, n_nodes=2)
        fleet.create_region("books_r", 3600.0, 1.0, heartbeat_interval=1.0)
        fleet.create_matview("books_copy", "books", ["isbn", "title", "price"],
                             region="books_r")
        fleet.run_for(3601)
        publisher, peer = fleet.nodes
        publisher.execute(BOOK_SCAN)
        roots, (cold, warm) = _roots_run(peer, BOOK_SCAN)
        assert peer._plans.cache[BOOK_SCAN].kind == "snapshot"
        assert cold.context.engine == "row"
        assert roots[0] is roots[1]
        assert warm.rows == cold.rows and cold.rows
