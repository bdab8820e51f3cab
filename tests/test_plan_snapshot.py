"""Tests for repro.plan: snapshot round-trips, the fleet-shared store,
and explicit invalidation on DDL / region / topology changes."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from repro.fleet import CacheFleet
from repro.plan import (
    SNAPSHOT_VERSION,
    PlanSnapshotStore,
    SnapshotUnsupported,
    instantiate_snapshot,
    serialize_plan,
)
from tests.conftest import each_path
from tests.sql_reference import SqliteReference


def make_backend(rows=40):
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, w FLOAT NOT NULL, "
        "PRIMARY KEY (id))"
    )
    values = ", ".join(f"({i}, {i % 7}, {float(i % 5)})" for i in range(1, rows + 1))
    backend.execute(f"INSERT INTO t VALUES {values}")
    backend.refresh_statistics()
    return backend


def make_cache(store=None, **kwargs):
    backend = make_backend()
    cache = MTCache(backend, snapshot_store=store, **kwargs)
    cache.create_region("r", 4.0, 1.0, heartbeat_interval=0.5)
    cache.create_matview("t_copy", "t", ["id", "v", "w"], region="r")
    cache.run_for(6.0)
    return cache


def roundtrip(cache, sql):
    """optimize -> serialize -> json -> instantiate -> execute."""
    plan = cache.optimize(sql, use_cache=False)
    snapshot = json.loads(json.dumps(serialize_plan(plan)))
    replay = instantiate_snapshot(snapshot, cache)
    return (
        cache._execute_plan(plan, sql_text=sql),
        cache._execute_plan(replay, sql_text=sql),
        snapshot,
    )


# ----------------------------------------------------------------------
# Serialization round-trips
# ----------------------------------------------------------------------
class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("sql", [
        "SELECT t.id, t.v FROM t CURRENCY BOUND 600 SEC ON (t)",
        "SELECT t.id FROM t WHERE t.id = 7 CURRENCY BOUND 600 SEC ON (t)",
        "SELECT t.v, t.w FROM t WHERE t.v BETWEEN 2 AND 5 AND t.w > 1.0 "
        "CURRENCY BOUND 600 SEC ON (t)",
        "SELECT t.id FROM t WHERE t.v IN (1, 3, 5) CURRENCY BOUND 600 SEC ON (t)",
        "SELECT t.v, COUNT(*) AS n FROM t GROUP BY t.v CURRENCY BOUND 600 SEC ON (t)",
        "SELECT DISTINCT t.v FROM t CURRENCY BOUND 600 SEC ON (t)",
        "SELECT t.id FROM t ORDER BY t.id DESC LIMIT 5 CURRENCY BOUND 600 SEC ON (t)",
        "SELECT a.id, b.v FROM t a, t b WHERE a.id = b.id AND a.v < 4 "
        "CURRENCY BOUND 600 SEC ON (a, b)",
        # No currency clause: remote plan, still snapshot-able.
        "SELECT t.id, t.v FROM t WHERE t.id < 10",
    ])
    def test_rows_identical(self, sql):
        cache = make_cache()
        reference = SqliteReference(cache.backend)
        for _ in each_path():
            fresh, replay, snapshot = roundtrip(cache, sql)
            reference.check(fresh.rows, sql)
            reference.check(replay.rows, sql)
        assert snapshot["version"] == SNAPSHOT_VERSION
        json.dumps(snapshot)  # stays JSON-compatible

    def test_guarded_plan_roundtrips_with_rebuilt_guard(self):
        cache = make_cache()
        sql = "SELECT t.id, t.v FROM t CURRENCY BOUND 600 SEC ON (t)"
        fresh, replay, snapshot = roundtrip(cache, sql)
        assert replay.routing == fresh.routing == "local"
        ops = []
        def walk(node):
            ops.append(node["op"])
            for key in ("child", "left", "right", "outer", "inner"):
                if key in node:
                    walk(node[key])
            for child in node.get("inputs", ()):
                walk(child)
        walk(snapshot["root"])
        assert "SwitchUnion" in ops  # the guard itself travelled as params

    def test_subquery_plans_ship_whole_and_roundtrip(self):
        # Subqueries ship to the back-end wholesale; the resulting plan is
        # a single RemoteQuery — trivially snapshot-able by SQL text.
        cache = make_cache()
        sql = "SELECT t.id FROM t WHERE t.v IN (SELECT t.v FROM t WHERE t.id < 5)"
        fresh, replay, snapshot = roundtrip(cache, sql)
        assert snapshot["root"]["op"] == "RemoteQuery"
        assert Counter(replay.rows) == Counter(fresh.rows)

    def test_irless_predicate_is_unsupported(self):
        # A closure without IR (anything compile_expr cannot express in
        # the restricted vocabulary, e.g. a correlated subquery) cannot
        # travel; serialize must refuse, not silently drop the predicate.
        from repro.engine import operators as ops
        from repro.engine.expressions import OutputCol, RowBinding

        cache = make_cache()
        table = cache.catalog.matview("t_copy").table
        binding = RowBinding([OutputCol("id", "t")])
        scan = ops.SeqScan(table, binding, predicate=lambda env: True)

        class FakePlan:
            column_names = ["id"]
            cost = 1.0
            est_rows = 1.0

            def root(self):
                return scan

        with pytest.raises(SnapshotUnsupported):
            serialize_plan(FakePlan())

    def test_version_gate(self):
        cache = make_cache()
        plan = cache.optimize("SELECT t.id FROM t", use_cache=False)
        snapshot = serialize_plan(plan)
        snapshot["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(SnapshotUnsupported):
            instantiate_snapshot(snapshot, cache)

    def test_missing_view_rejected_at_instantiation(self):
        publisher = make_cache()
        sql = "SELECT t.id, t.v FROM t CURRENCY BOUND 600 SEC ON (t)"
        snapshot = serialize_plan(publisher.optimize(sql, use_cache=False))
        bare = MTCache(make_backend())  # no region, no view
        with pytest.raises(SnapshotUnsupported):
            instantiate_snapshot(snapshot, bare)

    #: The IndexSeek record of an equality seek, captured before IN seeks
    #: existed: an operator that is not an IN seek serializes as before.
    #: (``est_cost`` is the cost model's price, the same on both tiers.)
    EQ_SEEK_RECORD = (
        '{"op": "IndexSeek", "table": "t_copy", "index": "pk_t_copy", '
        '"keys": [["const", 7]], "binding": [["t", "id"], ["t", "v"], ["t", "w"]], '
        '"predicate": null, "est_rows": 1.0, "est_cost": 8.745}'
    )

    @staticmethod
    def seek_record(snapshot):
        node = snapshot["root"]
        while node["op"] != "IndexSeek":
            node = node["inputs"][0] if node["op"] == "SwitchUnion" else node["child"]
        return node

    def test_equality_seek_record_is_unchanged(self):
        cache = make_cache()
        sql = "SELECT t.id, t.v FROM t WHERE t.id = 7 CURRENCY BOUND 600 SEC ON (t)"
        snapshot = serialize_plan(cache.optimize(sql, use_cache=False))
        assert json.dumps(self.seek_record(snapshot)) == self.EQ_SEEK_RECORD
        assert snapshot["version"] == SNAPSHOT_VERSION == 2

    def test_in_seek_roundtrips_onto_another_node(self):
        fleet = CacheFleet(make_backend(rows=400), n_nodes=2)
        fleet.create_region("r", 4.0, 1.0, heartbeat_interval=0.5)
        fleet.create_matview("t_copy", "t", ["id", "v", "w"], region="r")
        fleet.run_for(6.0)
        publisher, peer = fleet.nodes
        sql = ("SELECT t.id, t.v FROM t WHERE t.id IN (9, 3, 3.0, NULL, 999) "
               "AND t.v > 1 CURRENCY BOUND 600 SEC ON (t)")
        plan = publisher.optimize(sql, use_cache=False)
        snapshot = json.loads(json.dumps(serialize_plan(plan)))
        record = self.seek_record(snapshot)
        assert record["in"] == [["const", 9], ["const", 3], ["const", 3.0],
                                ["const", None], ["const", 999]]
        replay = instantiate_snapshot(snapshot, peer)
        assert replay.explain() == plan.explain()
        assert "IndexSeek(t_copy.pk_t_copy IN 5)" in replay.explain()
        fresh = publisher._execute_plan(plan, sql_text=sql)
        moved = peer._execute_plan(replay, sql_text=sql)
        assert moved.rows == fresh.rows == [(9, 2), (3, 3)]
        assert moved.routing == fresh.routing == "local"

    def test_estimates_restamped(self):
        cache = make_cache()
        plan = cache.optimize("SELECT t.id FROM t WHERE t.v = 3", use_cache=False)
        replay = instantiate_snapshot(serialize_plan(plan), cache)
        assert replay.root().est_rows == plan.root().est_rows
        assert replay.cost == plan.cost
        assert replay.summary() == plan.summary()


PRED_OPS = ["<", "<=", "=", ">", ">=", "<>"]


class TestSnapshotRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n_conjuncts=st.integers(min_value=1, max_value=3),
        currency=st.booleans(),
    )
    def test_random_predicates(self, shared_cache, data, n_conjuncts, currency):
        conjuncts = []
        for _ in range(n_conjuncts):
            column, values = data.draw(st.sampled_from([
                ("t.id", st.integers(min_value=-5, max_value=45)),
                ("t.v", st.integers(min_value=-1, max_value=8)),
                ("t.w", st.floats(min_value=-1.0, max_value=6.0,
                                  allow_nan=False, width=16)),
            ]))
            op = data.draw(st.sampled_from(PRED_OPS))
            value = data.draw(values)
            # Fixed-point rendering: the SQL lexer has no scientific notation.
            literal = f"{value:.3f}" if isinstance(value, float) else str(value)
            conjuncts.append(f"{column} {op} {literal}")
        sql = f"SELECT t.id, t.v, t.w FROM t WHERE {' AND '.join(conjuncts)}"
        if currency:
            sql += " CURRENCY BOUND 600 SEC ON (t)"
        cache, reference = shared_cache
        fresh, replay, _ = roundtrip(cache, sql)
        reference.check(fresh.rows, sql)
        reference.check(replay.rows, sql)

    @pytest.fixture(scope="class")
    def shared_cache(self):
        cache = make_cache()
        return cache, SqliteReference(cache.backend)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class TestPlanSnapshotStore:
    def test_publish_get(self):
        store = PlanSnapshotStore()
        store.publish("q", "fp", {"x": 1}, epoch=3)
        assert store.get("q", "fp", epoch=3) == {"x": 1}
        assert store.get("q", "other-fp", epoch=3) is None
        assert store.stats["hits"] == 1 and store.stats["misses"] == 1

    def test_epoch_mismatch_rejects_and_drops(self):
        store = PlanSnapshotStore()
        store.publish("q", "fp", {"x": 1}, epoch=3)
        assert store.get("q", "fp", epoch=4) is None
        assert store.stats["epoch_rejections"] == 1
        assert len(store) == 0

    def test_ttl_expiry_on_simulated_clock(self):
        backend = make_backend()
        store = PlanSnapshotStore(backend.clock, ttl=10.0)
        store.publish("q", "fp", {"x": 1})
        assert store.get("q", "fp") == {"x": 1}
        backend.run_for(11.0)
        assert store.get("q", "fp") is None
        assert store.stats["expirations"] == 1

    def test_lru_capacity(self):
        store = PlanSnapshotStore(capacity=2)
        store.publish("a", "fp", 1)
        store.publish("b", "fp", 2)
        assert store.get("a", "fp") == 1  # touch: a is now most recent
        store.publish("c", "fp", 3)
        assert store.get("b", "fp") is None  # b evicted, not a
        assert store.get("a", "fp") == 1

    def test_invalidate(self):
        store = PlanSnapshotStore()
        store.publish("q", "fp", 1)
        assert store.invalidate(reason="test") == 1
        assert len(store) == 0
        assert store.last_invalidation == "test"


# ----------------------------------------------------------------------
# MTCache integration: publish on miss, instantiate on probe, invalidate
# ----------------------------------------------------------------------
SQL = "SELECT t.id, t.v FROM t WHERE t.v = 3 CURRENCY BOUND 600 SEC ON (t)"


class TestMTCacheIntegration:
    def test_miss_publishes_then_probe_instantiates(self):
        store = PlanSnapshotStore()
        cache = make_cache(store=store)
        fresh = cache.execute(SQL)
        assert store.stats["publishes"] >= 1
        cache._plans.cache.clear()  # simulate a restart's cold plan cache
        replay = cache.execute(SQL)
        assert cache._plans.cache[SQL].kind == "snapshot"
        assert Counter(replay.rows) == Counter(fresh.rows)
        assert replay.routing == fresh.routing

    def test_backend_ddl_bumps_epoch_and_invalidates(self):
        store = PlanSnapshotStore()
        cache = make_cache(store=store)
        cache.execute(SQL)
        assert SQL in cache._plans.cache
        epoch_before = cache.backend.ddl_epoch
        cache.backend.create_index("CREATE INDEX ix_t_v ON t (v)")
        assert cache.backend.ddl_epoch == epoch_before + 1
        cache.execute(SQL)  # epoch check fires on the hot path
        assert cache._plans_ddl_epoch == cache.backend.ddl_epoch
        # The store was wiped with the plans; published snapshots from the
        # old epoch are gone.
        assert store.last_invalidation == "backend-ddl"

    def test_local_ddl_invalidates_store(self):
        store = PlanSnapshotStore()
        cache = make_cache(store=store)
        cache.execute(SQL)
        assert len(store) >= 1
        cache.create_view_index("t_copy", "ix_copy_v", ["v"])
        assert len(store) == 0

    def test_alter_region_invalidates_and_reprices(self):
        store = PlanSnapshotStore()
        cache = make_cache(store=store)
        cache.execute(SQL)
        fp_before = cache.config_fingerprint()
        region = cache.alter_region("r", update_interval=9.0, update_delay=2.5)
        assert region.update_interval == 9.0
        assert region.update_delay == 2.5
        assert len(store) == 0
        assert cache.config_fingerprint() != fp_before
        for agent in cache.region_agents("r"):
            assert agent._interval == 9.0

    def test_fingerprint_tracks_policy(self):
        cache = make_cache()
        fp = cache.config_fingerprint()
        assert make_cache().config_fingerprint() == fp
        cache.fallback_policy = "serve_stale"
        assert cache.config_fingerprint() != fp


# ----------------------------------------------------------------------
# Fleet sharing
# ----------------------------------------------------------------------
def make_fleet(n_nodes=2, **kwargs):
    backend = make_backend()
    fleet = CacheFleet(backend, n_nodes=n_nodes, **kwargs)
    fleet.create_region("r", 4.0, 1.0, heartbeat_interval=0.5)
    fleet.create_matview("t_copy", "t", ["id", "v", "w"], region="r")
    fleet.run_for(6.0)
    return fleet


class TestFleetSharing:
    def test_peer_instantiates_publishers_snapshot(self):
        fleet = make_fleet(policy="round_robin")
        node0, node1 = fleet.nodes
        assert node0.snapshot_store is node1.snapshot_store is fleet.snapshot_store
        # Node cids differ ("r@node0" vs "r@node1") but the fingerprint
        # normalizes them away: that is what makes sharing possible.
        assert node0.config_fingerprint() == node1.config_fingerprint()
        fresh = node0.execute(SQL)
        assert fleet.snapshot_store.stats["publishes"] >= 1
        replay = node1.execute(SQL)  # cold node: no parse, no optimize
        assert node1._plans.cache[SQL].kind == "snapshot"
        assert Counter(replay.rows) == Counter(fresh.rows)
        assert fleet.snapshot_store.stats["hits"] >= 1

    def test_fleet_ddl_invalidates_shared_store(self):
        fleet = make_fleet()
        fleet.nodes[0].execute(SQL)
        assert len(fleet.snapshot_store) >= 1
        fleet.create_region("r2", 8.0, 2.0)
        assert len(fleet.snapshot_store) == 0

    def test_topology_change_invalidates_shared_store(self):
        fleet = make_fleet()
        fleet.nodes[0].execute(SQL)
        assert len(fleet.snapshot_store) >= 1
        fleet.crash_node(fleet.nodes[1].name)
        assert len(fleet.snapshot_store) == 0
        assert fleet.snapshot_store.last_invalidation == "node-crash"
        # A fresh optimization (cold plan cache) republishes...
        fleet.nodes[0]._plans.cache.clear()
        fleet.nodes[0].execute(SQL)
        assert len(fleet.snapshot_store) >= 1
        # ...and the restart wipes again.
        fleet.restart_node(fleet.nodes[1].name)
        assert fleet.snapshot_store.last_invalidation == "node-restart"

    def test_fleet_alter_region_fans_out(self):
        fleet = make_fleet()
        altered = fleet.alter_region("r", update_interval=7.0)
        assert set(altered) == {n.name for n in fleet.nodes}
        for node in fleet.nodes:
            cid = fleet.regions["r"][node.name]
            assert node.catalog.region(cid).update_interval == 7.0
