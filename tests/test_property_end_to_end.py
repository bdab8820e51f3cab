"""Property-based end-to-end verification of the paper's central promise.

Hypothesis drives random interleavings of back-end updates, simulated-time
advances and cache queries with random currency bounds; after every query
the semantics checker verifies that the delivered result is equivalent to
evaluating the query on snapshots satisfying the normalized C&C constraint
— currency bounds respected, consistency classes on single snapshots.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from repro.semantics.checker import ResultChecker


def build_cache(interval, delay, heartbeat, ddl=False):
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE kv (id INT NOT NULL, v INT NOT NULL, w INT NOT NULL, "
        "PRIMARY KEY (id))"
    )
    rows = ", ".join(f"({i}, {i * 10}, {i % 3})" for i in range(1, 21))
    backend.execute(f"INSERT INTO kv VALUES {rows}")
    backend.refresh_statistics()
    cache = MTCache(backend)
    regions = [("r1", "kv_a", interval), ("r2", "kv_b", interval * 1.5)]
    for region, view, every in regions:
        if ddl:  # the same cache, declared through the cache-side DDL
            cache.execute(
                f"CREATE CURRENCY REGION {region} INTERVAL {every:g} SEC "
                f"DELAY {delay:g} SEC HEARTBEAT {heartbeat:g} SEC"
            )
            cache.execute(
                f"CREATE MATERIALIZED VIEW {view} IN REGION {region} AS "
                "SELECT id, v, w FROM kv"
            )
        else:
            cache.create_region(region, every, delay, heartbeat_interval=heartbeat)
            cache.create_matview(view, "kv", ["id", "v", "w"], region=region)
    return backend, cache


# One workload step: either an update, a time advance, or a query.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(1, 20), st.integers(0, 999)),
        st.tuples(st.just("insert"), st.integers(21, 60), st.integers(0, 999)),
        st.tuples(st.just("advance"), st.floats(0.5, 12.0), st.just(0)),
        st.tuples(st.just("query"), st.sampled_from([0, 1, 3, 10, 40, 10_000]), st.just(0)),
        st.tuples(st.just("range_query"), st.sampled_from([0, 3, 40, 10_000]), st.integers(1, 61)),
        st.tuples(st.just("join_query"), st.sampled_from([3, 40, 10_000]), st.just(0)),
    ),
    min_size=4,
    max_size=14,
)


class TestEndToEndGuarantees:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        steps=steps,
        interval=st.sampled_from([4.0, 8.0]),
        delay=st.sampled_from([1.0, 2.0]),
        ddl=st.booleans(),
    )
    def test_every_result_satisfies_its_constraint(self, steps, interval, delay, ddl):
        backend, cache = build_cache(interval, delay, heartbeat=1.0, ddl=ddl)
        checker = ResultChecker(cache, deep=True)
        inserted = set()
        routings = set()
        # Every schedule closes with a loose read after the first
        # propagation and a bound-0 read, so it is served both ways.
        closing = [("advance", 1.5 * interval + delay + 1.0, 0),
                   ("query", 10_000, 0), ("query", 0, 0)]
        for kind, a, b in steps + closing:
            if kind == "update":
                backend.execute(f"UPDATE kv SET v = {b} WHERE id = {a}")
            elif kind == "insert":
                if a in inserted:
                    continue
                inserted.add(a)
                backend.execute(f"INSERT INTO kv VALUES ({a}, {b}, {a % 3})")
            elif kind == "advance":
                cache.run_for(a)
            else:
                if kind == "join_query":  # two instances of kv, one class
                    sql = (
                        "SELECT x.id, y.v FROM kv x, kv y WHERE x.id = y.id "
                        f"CURRENCY BOUND {a} SEC ON (x, y)"
                    )
                else:
                    where = f"k.id < {b}" if kind == "range_query" else "k.v >= 0"
                    sql = (
                        f"SELECT k.id, k.v FROM kv k WHERE {where} "
                        f"CURRENCY BOUND {a} SEC ON (k)"
                    )
                result = cache.execute(sql)
                routings.add(result.routing)
                report = checker.check(sql, result)
                assert report.ok, (report.violations, report.sources)
        assert {"local", "remote"} <= routings

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        advances=st.lists(st.floats(0.5, 9.0), min_size=1, max_size=6),
        bound=st.sampled_from([2.0, 5.0, 20.0]),
    )
    def test_guard_never_serves_beyond_bound(self, advances, bound):
        """Whenever the local branch is chosen, the true snapshot age must
        be within the bound."""
        backend, cache = build_cache(interval=6.0, delay=1.5, heartbeat=1.0)
        view = cache.catalog.matview("kv_a")
        for dt in advances:
            cache.run_for(dt)
            sql = f"SELECT k.id FROM kv k CURRENCY BOUND {bound} SEC ON (k)"
            result = cache.execute(sql)
            local = any(index == 0 for _, index in result.context.branches)
            if local:
                staleness = cache.clock.now() - view.snapshot_time
                assert staleness <= bound + 1e-9

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(advances=st.lists(st.floats(0.5, 9.0), min_size=2, max_size=6))
    def test_timeline_watermark_never_regresses(self, advances):
        backend, cache = build_cache(interval=6.0, delay=1.5, heartbeat=1.0)
        cache.execute("BEGIN TIMEORDERED")
        snapshots = []
        for i, dt in enumerate(advances):
            cache.run_for(dt)
            bound = [2.0, 10_000.0][i % 2]
            result = cache.execute(
                f"SELECT k.id FROM kv k CURRENCY BOUND {bound} SEC ON (k)"
            )
            if result.context.snapshots_used:
                snapshots.extend(result.context.snapshots_used)
            elif result.context.remote_queries:
                snapshots.append(cache.clock.now())
        assert snapshots == sorted(snapshots)
        cache.execute("END TIMEORDERED")
