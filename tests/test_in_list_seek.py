"""IN-list index seeks: ``col IN (...)`` on an index key column probes the
index once per distinct item instead of scanning the table.

The access path is built by the one shared builder
(``PlacementProvider.base_table_candidates``), so the same seek appears on
the back-end, on every shard partition and in the cache's guarded local
branch.  The contract under test: a seek answers exactly what a scan
would.  Every generated statement is checked against stdlib ``sqlite3``
over the same rows and the same text (currency clause stripped) on three
paths — the back-end, the cache's guarded local branch and its remote
branch — and a warm plan template must equal a cold optimization.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from repro.engine import operators as ops
from repro.engine.expressions import OutputCol, RowBinding
from repro.shard.backend import ShardedBackend
from repro.sql.parser import parse
from tests.conftest import EXECUTION_PATHS
from tests.sql_reference import SqliteReference

LEDGER_DDL = (
    "CREATE TABLE ledger (tid INT NOT NULL, leg INT NOT NULL, "
    "account INT NOT NULL, delta INT NOT NULL, PRIMARY KEY (tid, leg))"
)
N_TIDS = 100
BOUND = " CURRENCY BOUND 600 SEC ON (l)"
JOIN_BOUND = " CURRENCY BOUND 600 SEC ON (l, m)"


def ledger_rows():
    """Two legs per transfer, three for every fourth one."""
    rows = []
    for tid in range(1, N_TIDS + 1):
        for leg in range(3 if tid % 4 == 0 else 2):
            rows.append((tid, leg, (tid + leg) % 7, (tid * 7 + leg * 13) % 41 - 20))
    return rows


LEDGER_ROWS = ledger_rows()


def make_backend(partitions):
    backend = BackendServer() if partitions == 1 else ShardedBackend(partitions)
    backend.create_table(LEDGER_DDL)
    values = ", ".join(f"({t}, {l}, {a}, {d})" for t, l, a, d in LEDGER_ROWS)
    backend.execute(f"INSERT INTO ledger VALUES {values}")
    backend.refresh_statistics()
    return backend


def make_cache(partitions, stale=False):
    """A cache with a full ledger copy.  ``stale`` moves the clock far past
    the bound without running replication, so every guard fails and the
    guarded plan takes its remote branch."""
    cache = MTCache(make_backend(partitions))
    cache.create_region("r1", 10.0, 2.0, heartbeat_interval=1.0)
    cache.create_matview(
        "ledger_copy", "ledger", ["tid", "leg", "account", "delta"], region="r1"
    )
    cache.run_for(13.0)
    if stale:
        cache.clock.advance(10_000.0)
    return cache


class Env:
    def __init__(self, partitions):
        self.backend = make_backend(partitions)
        self.fresh = make_cache(partitions)
        self.stale = make_cache(partitions, stale=True)
        self.reference = SqliteReference(self.backend)


_ENVS = {}


def shared_env(partitions):
    """One long-lived environment per partition count, shared by both
    execution paths: templates stay warm across hypothesis examples."""
    if partitions not in _ENVS:
        _ENVS[partitions] = Env(partitions)
    return _ENVS[partitions]


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
def render(item):
    if item is None:
        return "NULL"
    return f"{item:.1f}" if isinstance(item, float) else str(item)


def in_items(values, max_size):
    """IN items: keys present and absent, whole-number floats (``1.0`` is
    the key ``1``), NULLs; duplicates arise freely."""
    item = st.one_of(
        values,
        values.map(float),
        st.just(None),
        st.sampled_from([2.5, -1]),
    )
    return st.lists(item, min_size=1, max_size=max_size)


def in_list(items):
    return "(" + ", ".join(render(i) for i in items) + ")"


TIDS = st.integers(min_value=-2, max_value=N_TIDS + 3)
LEGS = st.integers(min_value=0, max_value=3)
SELECT = "SELECT l.tid, l.leg, l.delta FROM ledger l WHERE "


@st.composite
def statements(draw):
    """One ledger statement with an IN-list on an index key column."""
    kind = draw(st.sampled_from([
        "tid_in", "residual", "composite", "order_by", "two_lists", "account_in",
        "join",
    ]))
    tids = in_list(draw(in_items(TIDS, 9)))
    if kind == "join":
        # Both inputs are IN seeks on the join key: a merge join over them
        # would be wrong, because a seek's output is in list order.
        return (
            "SELECT l.tid, l.leg, m.leg FROM ledger l, ledger m "
            f"WHERE l.tid = m.tid AND l.tid IN {tids} "
            f"AND m.tid IN {in_list(draw(in_items(TIDS, 9)))}"
        )
    if kind == "tid_in":
        return SELECT + f"l.tid IN {tids}"
    if kind == "residual":
        return SELECT + f"l.tid IN {tids} AND l.delta > {draw(st.integers(-20, 20))}"
    if kind == "composite":
        # IN on the second key column after an equality on the first.
        legs = in_list(draw(in_items(LEGS, 5)))
        return SELECT + f"l.tid = {draw(TIDS)} AND l.leg IN {legs}"
    if kind == "order_by":
        return SELECT + f"l.tid IN {tids} ORDER BY l.tid DESC, l.leg"
    if kind == "two_lists":
        return SELECT + f"l.tid IN {tids} AND l.tid IN {in_list(draw(in_items(TIDS, 4)))}"
    return SELECT + f"l.tid IN {tids} AND l.account IN (0, 2, 4)"


def assert_warm_equals_cold(cache, sql):
    warm = cache.execute(sql)
    cold_plan = cache.optimize(sql, use_cache=False)
    cold = cache._execute_plan(cold_plan, sql_text=sql)
    assert Counter(warm.rows) == Counter(cold.rows), sql
    assert warm.routing == cold.routing, sql
    assert warm.context.remote_queries == cold.context.remote_queries, sql
    assert warm.plan.summary() == cold_plan.summary(), sql
    assert warm.plan.explain() == cold_plan.explain(), sql
    return warm


@pytest.mark.parametrize("partitions", [1, 2])
@pytest.mark.parametrize("path", EXECUTION_PATHS, indirect=True)
class TestDifferential:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(batch=st.lists(statements(), min_size=1, max_size=5))
    def test_every_path_matches_sqlite(self, path, partitions, batch):
        env = shared_env(partitions)
        for sql in batch:
            env.reference.check(env.backend.execute(sql).rows, sql)
            bounded = sql + (JOIN_BOUND if " ledger m " in sql else BOUND)
            for cache, routing in ((env.fresh, "local"), (env.stale, "remote")):
                result = assert_warm_equals_cold(cache, bounded)
                assert result.routing == routing, sql
                assert "guarded(ledger_copy)" in result.plan.summary(), sql
                env.reference.check(result.rows, sql)

    def test_order_by_keeps_its_sort(self, path, partitions):
        env = shared_env(partitions)
        sql = SELECT + "l.tid IN (40, 3, 17) ORDER BY l.tid, l.leg"
        plan = env.fresh.optimize(sql + BOUND).explain()
        assert "IndexSeek(ledger_copy.pk_ledger_copy IN 3)" in plan
        assert plan.splitlines()[0] == "Sort"
        env.reference.check(env.fresh.execute(sql + BOUND).rows, sql)


# ----------------------------------------------------------------------
# Plans: the seek is chosen on the view and on every shard
# ----------------------------------------------------------------------
class TestPlans:
    def test_fleet_in_list_seeks_on_the_view_and_on_each_shard(self):
        from repro.chaos import build_ledger_fleet

        fleet, workload = build_ledger_fleet(3, partitions=2)
        workload.preload(200)
        fleet.run_for(2.0)
        fleet.backend.refresh_statistics()
        sql = "SELECT l.tid, l.leg FROM ledger l WHERE l.tid IN (1, 2, 3)"
        for node in fleet.nodes:
            plan = node.optimize(sql + BOUND)
            assert plan.summary() == "guarded(ledger_copy)"
            assert "IndexSeek(ledger_copy.pk_ledger_copy IN 3)" in plan.explain()
        for shard in fleet.backend.partitions:
            assert "IndexSeek(ledger.pk_ledger IN 3)" in shard.optimize(parse(sql)).explain()
        result = fleet.execute(sql + BOUND)
        assert sorted(result.rows) == [(t, leg) for t in (1, 2, 3) for leg in (0, 1)]

    def test_an_in_seek_claims_no_sort_order(self):
        # Were the seeks' outputs taken as key-ordered, this join would
        # merge two unsorted inputs and lose rows.
        backend = make_backend(1)
        sql = ("SELECT l.tid, l.leg, m.leg FROM ledger l, ledger m WHERE l.tid = m.tid "
               "AND l.tid IN (40, 3, 17) AND m.tid IN (17, 40, 3)")
        assert "MergeJoin" not in backend.optimize(parse(sql)).explain()
        SqliteReference(backend).check(backend.execute(sql).rows, sql)

    def test_equality_seek_is_described_as_before(self):
        backend = make_backend(1)
        explain = backend.optimize(parse(SELECT + "l.tid = 5")).explain()
        assert "IndexSeek(ledger.pk_ledger)" in explain

    def test_explain_analyze_shows_the_seek_and_its_rows(self):
        cache = make_cache(1)
        sql = SELECT + "l.tid IN (4, 5, 404)" + BOUND
        lines = [row[0] for row in cache.explain(sql, analyze=True).rows]
        (seek,) = [line for line in lines if "IndexSeek(" in line]
        label = "IndexSeek(ledger_copy.pk_ledger_copy IN 3)"
        _, act_rows, *_ = seek.split(label)[1].split()
        assert act_rows == "5"  # 3 legs of tid 4, 2 of tid 5

    def test_one_template_per_shape(self):
        cache = make_cache(1)
        for k in range(1, 9):
            result = cache.execute(SELECT + f"l.tid IN ({k}, {k + 10})" + BOUND)
            assert sorted({row[0] for row in result.rows}) == [k, k + 10]
        events = cache.metrics.counter("plan_cache_events_total", labels={"event": "misses"})
        assert events.value == 1
        assert len(cache._plans.cache.templates) == 1

    def test_scan_still_wins_when_the_list_covers_the_table(self):
        backend = make_backend(1)
        items = ", ".join(str(t) for t in range(1, N_TIDS + 1))
        explain = backend.optimize(parse(SELECT + f"l.tid IN ({items})")).explain()
        assert "SeqScan(ledger)" in explain

    def test_whole_number_float_key_routes_like_the_integer(self):
        backend = ShardedBackend(3)
        backend.create_table(LEDGER_DDL)
        values = ", ".join(f"({t}, {l}, {a}, {d})" for t, l, a, d in LEDGER_ROWS)
        backend.execute(f"INSERT INTO ledger VALUES {values}")
        reference = SqliteReference(backend)
        for tid in range(1, 10):
            for pred in (f"= {tid}.0", f"IN ({tid}.0)", f"IN ({tid}.0, NULL)"):
                sql = f"SELECT l.tid, l.leg FROM ledger l WHERE l.tid {pred}"
                reference.check(backend.execute(sql).rows, sql)


# ----------------------------------------------------------------------
# The operator: probe order, NULLs, duplicates, every protocol
# ----------------------------------------------------------------------
class TestOperator:
    def make_seek(self, items, prefix=()):
        backend = make_backend(1)
        table = backend.catalog.table("ledger").table
        binding = RowBinding([OutputCol(c.name, "l") for c in table.schema.columns])
        seek = ops.IndexSeek(
            table, table.indexes["pk_ledger"],
            [lambda env, v=v: v for v in prefix], binding,
            in_fns=[lambda env, v=v: v for v in items],
        )
        seek.open(None)
        return seek

    def keys(self, rows):
        return [(row[0], row[1]) for row in rows]

    def test_probe_order_nulls_duplicates_and_absent_keys(self):
        # More items than the keys they match: 1.0 folds into 1, NULL and
        # the absent 999 match nothing, 'x' is of another type.
        seek = self.make_seek([7, None, 1, 999, 1.0, 7, "x", 2])
        expected = [(7, 0), (7, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        assert self.keys(seek.all_rows()) == expected
        assert self.keys(seek.rows()) == expected
        for size in (4, 256):
            assert self.keys(
                row for batch in seek.col_batches(size) for row in batch.to_rows()
            ) == expected
        assert seek.describe() == "IndexSeek(ledger.pk_ledger IN 8)"

    def test_in_on_the_second_key_column(self):
        seek = self.make_seek([2, 0, 5, None], prefix=(8,))
        assert self.keys(seek.all_rows()) == [(8, 2), (8, 0)]
        assert self.make_seek([0, 1], prefix=(None,)).all_rows() == []

    def test_reopen_reevaluates_the_items(self):
        params = [3]
        backend = make_backend(1)
        table = backend.catalog.table("ledger").table
        binding = RowBinding([OutputCol(c.name, "l") for c in table.schema.columns])
        seek = ops.IndexSeek(
            table, table.indexes["pk_ledger"], [], binding,
            in_fns=[lambda env: params[0]],
        )
        seek.open(None)
        assert {row[0] for row in seek.all_rows()} == {3}
        params[0] = 9
        seek.open(None)
        assert {row[0] for row in seek.all_rows()} == {9}
