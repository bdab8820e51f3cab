"""Engine equivalence: row == batch == columnar execution, everywhere.

The two execution engines — row-at-a-time (``engine="row"``, the
reference) and columnar :class:`~repro.engine.columnar.ColumnBatch`
(``"columnar"``, the default) — must be observationally identical: same
rows, same warnings, same routing, for every query shape the other
suites exercise.  On the back-end half the columnar engine also runs as
the ``"batch"`` path of :data:`tests.conftest.EXECUTION_PATHS`: its
tiny-plan shortcut off, so even the selective queries that would run
``all_rows()`` stream column batches.  This module drives them over

* the deterministic enumeration of every query shape from
  ``test_optimizer_equivalence.py`` (scans, aggregates, 2/3-way joins,
  self joins, IN-subqueries, ORDER BY / DISTINCT / LIMIT) on the
  back-end server, and
* the paper environments from ``test_paper_walkthrough.py`` and the
  plan-choice benches (guarded SwitchUnion plans, serve-stale warnings,
  mixed routing) on MTCache,

asserting zero diffs.  The paper-environment half additionally replays
every query through a *snapshot-instantiated* plan (serialize the
optimized plan with :mod:`repro.plan`, instantiate it back, execute) and
requires identical results there too.  It also pins down the ``engine``
knob's contract on both servers, and that both tiers price plans with
one cost model.
"""

from collections import Counter

import pytest

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from repro.engine.operators import ENGINES
from repro.plan import SnapshotUnsupported, instantiate_snapshot, serialize_plan
from repro.workloads.bookstore import load_bookstore
from repro.workloads.experiment import build_paper_setup
from repro.workloads.queries import guard_query, plan_choice_query
from tests.conftest import stream_every_plan

# The query-shape vocabulary of test_optimizer_equivalence.py, enumerated
# exhaustively instead of sampled.
PREDICATES_R = [
    "", "r.a < 20", "r.b = 3", "r.c > 5.0", "r.a BETWEEN 10 AND 40",
    "r.b = 3 AND r.a < 30", "r.a < 20 OR r.c > 10.0", "NOT r.b = 2",
    "r.b IN (1, 2, 3)",
]
PREDICATES_JOIN = ["", "s.y = 2", "r.a + s.x < 30", "s.y < r.b"]
ITEMS = ["r.a", "r.a, r.c", "r.b, r.a", "r.a, r.b, r.c"]


def _make_server(engine):
    backend = BackendServer(engine=engine)
    backend.create_table(
        "CREATE TABLE r (a INT NOT NULL, b INT NOT NULL, c FLOAT NOT NULL, "
        "PRIMARY KEY (a))"
    )
    backend.create_table(
        "CREATE TABLE s (x INT NOT NULL, y INT NOT NULL, PRIMARY KEY (x))"
    )
    backend.create_table(
        "CREATE TABLE u (p INT NOT NULL, q INT NOT NULL, PRIMARY KEY (p))"
    )
    r_rows = ", ".join(f"({i}, {i % 7}, {float(i % 13)})" for i in range(1, 61))
    s_rows = ", ".join(f"({i}, {i % 5})" for i in range(1, 41))
    u_rows = ", ".join(f"({i}, {i % 3})" for i in range(1, 31))
    backend.execute(f"INSERT INTO r VALUES {r_rows}")
    backend.execute(f"INSERT INTO s VALUES {s_rows}")
    backend.execute(f"INSERT INTO u VALUES {u_rows}")
    backend.execute("CREATE INDEX ix_r_b ON r (b)")
    backend.refresh_statistics()
    return backend


@pytest.fixture(scope="module")
def engines():
    """One backend per engine, over identical data."""
    return {engine: _make_server(engine) for engine in ENGINES}


def _streamed_rows(server, sql):
    """``sql``'s rows on the "batch" path: every plan streams batches."""
    with pytest.MonkeyPatch.context() as mp:
        stream_every_plan(mp)
        return server.execute(sql).rows


def _assert_same_bag(engines, sql):
    reference = Counter(engines["row"].execute(sql).rows)
    assert Counter(engines["columnar"].execute(sql).rows) == reference, sql
    assert Counter(_streamed_rows(engines["columnar"], sql)) == reference, sql


def _assert_same_list(engines, sql):
    reference = engines["row"].execute(sql).rows
    assert engines["columnar"].execute(sql).rows == reference, sql
    assert _streamed_rows(engines["columnar"], sql) == reference, sql


class TestBackendEquivalence:
    @pytest.mark.parametrize("predicate", PREDICATES_R)
    @pytest.mark.parametrize("items", ITEMS)
    def test_scan_queries(self, engines, predicate, items):
        where = f" WHERE {predicate}" if predicate else ""
        _assert_same_bag(engines, f"SELECT {items} FROM r{where}")

    @pytest.mark.parametrize("predicate", PREDICATES_R)
    def test_aggregates(self, engines, predicate):
        where = f" WHERE {predicate}" if predicate else ""
        _assert_same_bag(
            engines,
            f"SELECT r.b, COUNT(*) AS n, SUM(r.c) AS total FROM r{where} GROUP BY r.b",
        )

    @pytest.mark.parametrize("pred_r", PREDICATES_R)
    @pytest.mark.parametrize("pred_join", PREDICATES_JOIN)
    def test_two_way_joins(self, engines, pred_r, pred_join):
        conjuncts = ["r.a = s.x"]
        if pred_r:
            conjuncts.append(pred_r)
        if pred_join:
            conjuncts.append(pred_join)
        _assert_same_bag(
            engines,
            f"SELECT r.a, r.b, s.y FROM r, s WHERE {' AND '.join(conjuncts)}",
        )

    @pytest.mark.parametrize("pred", PREDICATES_R)
    @pytest.mark.parametrize("join2", ["s.x = u.p", "r.b = u.q"])
    def test_three_way_joins(self, engines, pred, join2):
        conjuncts = ["r.a = s.x", join2]
        if pred:
            conjuncts.append(pred)
        _assert_same_bag(
            engines,
            f"SELECT r.a, s.y, u.q FROM r, s, u WHERE {' AND '.join(conjuncts)}",
        )

    @pytest.mark.parametrize("pred", ["", "x.b = 2", "y.b = 3", "x.a < y.a"])
    def test_self_joins(self, engines, pred):
        conjuncts = ["x.b = y.b"]
        if pred:
            conjuncts.append(pred)
        _assert_same_bag(
            engines,
            f"SELECT x.a, y.a FROM r x, r y WHERE {' AND '.join(conjuncts)}",
        )

    @pytest.mark.parametrize("pred", PREDICATES_R)
    @pytest.mark.parametrize("inner", ["s.y = 2", "s.y < 3", "s.x > 20", ""])
    def test_in_subqueries(self, engines, pred, inner):
        inner_where = f" WHERE {inner}" if inner else ""
        conjuncts = [f"r.b IN (SELECT s.y FROM s{inner_where})"]
        if pred:
            conjuncts.append(pred)
        _assert_same_bag(
            engines, f"SELECT r.a, r.b FROM r WHERE {' AND '.join(conjuncts)}"
        )

    @pytest.mark.parametrize("pred", PREDICATES_R)
    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    def test_order_by(self, engines, pred, direction):
        where = f" WHERE {pred}" if pred else ""
        # Unique sort key -> a total order all engines must agree on.
        _assert_same_list(
            engines, f"SELECT r.a FROM r{where} ORDER BY r.a {direction}"
        )

    @pytest.mark.parametrize("pred", PREDICATES_R)
    def test_distinct(self, engines, pred):
        where = f" WHERE {pred}" if pred else ""
        _assert_same_bag(engines, f"SELECT DISTINCT r.b FROM r{where}")

    def test_limit(self, engines):
        _assert_same_list(engines, "SELECT r.a FROM r ORDER BY r.a LIMIT 7")


@pytest.fixture(scope="module")
def paper_envs():
    """One paper environment per engine, same seed, same settle."""
    return {
        engine: build_paper_setup(scale_factor=0.002, paper_scale_stats=True, engine=engine)
        for engine in ENGINES
    }


def _snapshot_replay(cache, sql, reference):
    """Serialize the cached plan, instantiate it back on the same node,
    execute, and require identical rows.  Plans outside the snapshot
    vocabulary (shipped subqueries) are exempt by design."""
    plan = cache._plans.cache.get(sql)
    if plan is None:
        plan = cache.optimize(sql)
    try:
        snapshot = serialize_plan(plan, engine=cache.engine)
    except SnapshotUnsupported:
        return
    replayed = cache._execute_plan(
        instantiate_snapshot(snapshot, cache), sql_text=sql
    )
    assert Counter(replayed.rows) == reference, ("snapshot", sql)


class TestPaperSetupEquivalence:
    @pytest.mark.parametrize("name", ["q1", "q2", "q3", "q4", "q5", "q6", "q7"])
    def test_plan_choice_queries(self, paper_envs, name):
        sql = plan_choice_query(name)  # SF-1.0 selectivities, like the bench
        row = paper_envs["row"].cache.execute(sql)
        reference = Counter(row.rows)
        cache = paper_envs["columnar"].cache
        result = cache.execute(sql)
        assert Counter(result.rows) == reference, name
        assert result.routing == row.routing, name
        assert result.warnings == row.warnings, name
        assert result.plan.summary() == row.plan.summary(), name
        _snapshot_replay(cache, sql, reference)

    @pytest.mark.parametrize("name", ["gq1", "gq2", "gq3"])
    def test_guard_queries(self, paper_envs, name):
        sql = guard_query(name, scale_factor=0.002)
        row = paper_envs["row"].cache.execute(sql)
        reference = Counter(row.rows)
        cache = paper_envs["columnar"].cache
        result = cache.execute(sql)
        assert Counter(result.rows) == reference, name
        assert result.routing == row.routing, name
        assert result.warnings == row.warnings, name
        _snapshot_replay(cache, sql, reference)


def _make_bookstore(engine):
    backend = BackendServer(engine=engine)
    load_bookstore(backend, n_books=30)
    cache = MTCache(backend, engine=engine, fallback_policy="serve_stale")
    cache.create_region("books_r", 3600.0, 1.0, heartbeat_interval=1.0)
    cache.create_matview("books_copy", "books", ["isbn", "title", "price"],
                         region="books_r")
    cache.create_matview("reviews_copy", "reviews",
                         ["review_id", "isbn", "rating"], region="books_r")
    cache.run_for(3601)
    return cache

BOOK_JOIN = "SELECT b.isbn, r.rating FROM books b, reviews r WHERE b.isbn = r.isbn"


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
        sql = BOOK_JOIN + currency
        caches = {}
        for engine in ENGINES:
            caches[engine] = _make_bookstore(engine)
            caches[engine].run_for(1800)
        row = caches["row"].execute(sql)
        result = caches["columnar"].execute(sql)
        assert Counter(result.rows) == Counter(row.rows), currency
        assert result.routing == row.routing, currency
        assert result.warnings == row.warnings, currency

    def test_serve_stale_warnings_fire_identically(self):
        sql = BOOK_JOIN + " CURRENCY BOUND 30 MIN ON (b), 30 MIN ON (r)"
        results = {}
        for engine in ENGINES:
            cache = _make_bookstore(engine)
            cache.run_for(1800)
            results[engine] = cache.execute(sql)
        # Guard equivalence must not be vacuous: this shape fails its
        # guards mid-cycle under every engine.
        assert len(results["row"].warnings) == 2
        assert results["columnar"].warnings == results["row"].warnings


class TestEngineKnobs:
    # The batch_size knob is gone: every value, good or bad, is an
    # unexpected keyword, and "batch" is no engine.
    def test_mtcache_rejects_bad_batch_sizes(self):
        backend = BackendServer()
        for size in (0, -1, 2.5, "256", True, None, 1, 256):
            with pytest.raises(TypeError, match="batch_size"):
                MTCache(backend, batch_size=size)

    def test_backend_rejects_bad_batch_sizes(self):
        from repro.shard.backend import ShardedBackend

        assert ENGINES == ("row", "columnar")
        for size in (0, -3, 1.0, "row", False, 1, 256):
            with pytest.raises(TypeError, match="batch_size"):
                BackendServer(batch_size=size)
            with pytest.raises(TypeError, match="batch_size"):
                ShardedBackend(2, batch_size=size)
            with pytest.raises(TypeError, match="batch_size"):
                build_paper_setup(batch_size=size)

    def test_bad_engine_names_rejected(self):
        backend = BackendServer()
        for bad in ("vectorized", "columns", "batch", 7):
            with pytest.raises(ValueError, match="engine"):
                BackendServer(engine=bad)
            with pytest.raises(ValueError, match="engine"):
                MTCache(backend, engine=bad)

    def test_default_engine_is_columnar(self):
        backend = BackendServer()
        assert backend.engine == "columnar"
        assert MTCache(backend).engine == "columnar"

    def test_knob_is_keyword_only(self):
        backend = BackendServer()
        with pytest.raises(TypeError):
            MTCache(backend, None, "remote", 128, None, 64)  # noqa: PLE (positional)

    def test_row_engine_moves_no_batches(self, engines):
        row = engines["row"]
        assert row.executor.engine == "row"
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        row.executor.set_registry(registry)
        try:
            row.execute("SELECT r.a FROM r")
            assert registry.counter("engine_batches_total").value == 0
        finally:
            row.executor.set_registry(row.metrics)

    def test_batch_engine_counts_batches_and_fused_pipelines(self, engines):
        # The columnar engine is the one that streams batches.
        columnar = engines["columnar"]
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        columnar.executor.set_registry(registry)
        try:
            result = columnar.execute("SELECT r.a FROM r WHERE r.c >= 1.0")
            assert result.context.engine == "columnar"
            assert registry.counter("engine_batches_total").value >= 1
            assert registry.counter("engine_fused_pipelines_total").value >= 1
        finally:
            columnar.executor.set_registry(columnar.metrics)


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
        from repro.shard.backend import ShardedBackend

        backend = ShardedBackend(2)
        cache = MTCache(backend)
        expected = backend.cost_model.fused_pipeline(1.2, 1000)
        assert cache.cost_model.fused_pipeline(1.2, 1000) == expected
        for partition in backend.partitions:
            assert partition.cost_model.fused_pipeline(1.2, 1000) == expected

    def test_engines_price_alike(self):
        assert (MTCache(BackendServer(engine="row"), engine="row").cost_model
                .fused_pipeline(1.2, 1000)
                == MTCache(BackendServer()).cost_model.fused_pipeline(1.2, 1000))


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


class TestRowEngineReusesItsTree:
    """A cached plan runs the same operator tree on every execution, in the
    row engine as in the columnar one."""

    def test_compiled_plan(self):
        cache = _make_bookstore("row")
        roots, (cold, warm) = _roots_run(cache, BOOK_JOIN + " CURRENCY BOUND 2 HOUR ON (b, r)")
        assert roots[0] is roots[1]
        assert warm.rows == cold.rows and cold.rows

    def test_snapshot_instantiated_plan(self):
        from repro.fleet import CacheFleet

        backend = BackendServer(engine="row")
        load_bookstore(backend, n_books=30)
        fleet = CacheFleet(backend, n_nodes=2, engine="row")
        fleet.create_region("books_r", 3600.0, 1.0, heartbeat_interval=1.0)
        fleet.create_matview("books_copy", "books", ["isbn", "title", "price"],
                             region="books_r")
        fleet.run_for(3601)
        sql = "SELECT b.isbn, b.price FROM books b WHERE b.price > 20.0"
        publisher, peer = fleet.nodes
        publisher.execute(sql)
        roots, (cold, warm) = _roots_run(peer, sql)
        assert peer._plans.cache[sql].kind == "snapshot"
        assert roots[0] is roots[1]
        assert warm.rows == cold.rows and cold.rows
