"""Tests for the hash-partitioned back-end and partition-scoped C&C.

Covers the :class:`~repro.common.backend.Backend` protocol boundary,
cross-shard equivalence against a single server under an identical
transaction history, the per-shard currency rule (a result is only as
current as its stalest contributing shard; pinned plans only answer to
their own shard), multi-shard reads through the fleet, and a seeded
chaos run with one shard dark.
"""

import pytest

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from repro.chaos import ChaosScheduler
from repro.chaos.env import build_demo_fleet
from repro.common.backend import Backend, stable_shard_hash
from repro.common.errors import ExecutionError
from repro.fleet import CacheFleet, FleetConfig
from repro.shard import ShardedBackend
from repro.sql.parser import parse

DDL = (
    "CREATE TABLE inv (id INT NOT NULL, qty INT NOT NULL, "
    "zone STRING, PRIMARY KEY (id))"
)


def load_history(backend, n=60):
    """One fixed DDL + DML history, replayable on any backend."""
    backend.create_table(DDL)
    values = ", ".join(
        f"({i}, {i * 3 % 17}, 'r{i % 4}')" for i in range(n)
    )
    backend.execute(f"INSERT INTO inv VALUES {values}")
    backend.execute("UPDATE inv SET qty = qty + 100 WHERE id < 10")
    backend.execute("DELETE FROM inv WHERE id >= 55")
    backend.execute("INSERT INTO inv VALUES (200, 7, 'r0'), (201, 8, 'r1')")
    backend.refresh_statistics()
    return backend


QUERIES = [
    "SELECT i.id, i.qty FROM inv i WHERE i.id = 7",
    "SELECT i.id, i.qty FROM inv i WHERE i.id IN (1, 2, 30, 200)",
    "SELECT i.id FROM inv i WHERE i.qty > 8",
    "SELECT i.zone, COUNT(*), SUM(i.qty) FROM inv i GROUP BY i.zone",
    "SELECT i.id FROM inv i ORDER BY i.qty DESC, i.id LIMIT 5",
    "SELECT DISTINCT i.zone FROM inv i",
    "SELECT COUNT(*) FROM inv i",
    "SELECT a.id, b.id FROM inv a, inv b "
    "WHERE a.qty = b.qty AND a.id < b.id ORDER BY a.id, b.id LIMIT 10",
]


class TestStableHash:
    def test_deterministic_and_typed(self):
        assert stable_shard_hash(42) == stable_shard_hash(42)
        assert stable_shard_hash("abc") == stable_shard_hash("abc")
        assert stable_shard_hash(True) == stable_shard_hash(1)
        # Sequential integer keys must not all land on one shard.
        shards = {stable_shard_hash(i) % 4 for i in range(16)}
        assert len(shards) > 1


class TestBackendProtocol:
    def test_concrete_backends_implement_protocol(self):
        for backend in (BackendServer(), ShardedBackend(2)):
            assert isinstance(backend, Backend)
            assert MTCache(backend).backend is backend

    def test_config_rejects_non_protocol_backend(self):
        class Legacy:
            """Pre-protocol duck type: no longer shimmed."""

        with pytest.raises(TypeError, match="Backend"):
            FleetConfig(backend=Legacy()).resolve_backend()

    def test_replication_sources_shape(self):
        single = load_history(BackendServer())
        assert [s.shard_id for s in single.replication_sources()] == [None]
        sharded = load_history(ShardedBackend(3))
        assert [s.shard_id for s in sharded.replication_sources()] == [0, 1, 2]
        assert len({id(s.log) for s in sharded.replication_sources()}) == 3


class TestShardRouting:
    def setup_method(self):
        self.backend = load_history(ShardedBackend(4))

    def route(self, sql):
        return self.backend.route_select(parse(sql))

    def test_point_lookup_is_single_shard(self):
        route = self.route("SELECT i.id FROM inv i WHERE i.id = 7")
        assert route.mode == "single"
        assert route.shards == (self.backend.shard_of("inv", 7),)

    def test_multi_shard_in_scatters(self):
        keys = [1, 2, 30, 200]
        route = self.route(
            "SELECT i.id FROM inv i WHERE i.id IN (1, 2, 30, 200)"
        )
        expected = {self.backend.shard_of("inv", k) for k in keys}
        assert set(route.shards) == expected
        assert route.mode in ("scatter", "single")

    def test_aggregate_needs_final_pass(self):
        route = self.route("SELECT COUNT(*) FROM inv i")
        assert route.mode == "coordinator"
        assert set(route.shards) == set(range(4))

    def test_join_gathers(self):
        # A cross-shard join plans at the coordinator over per-shard legs.
        route = self.route(
            "SELECT a.id FROM inv a, inv b WHERE a.qty = b.qty"
        )
        assert route.mode == "coordinator"

    def test_explain_mentions_route(self):
        plan = self.backend.explain("SELECT i.id FROM inv i WHERE i.id = 7")
        text = "\n".join(row[0] for row in plan.rows)
        assert "shard route: single" in text

    def test_partition_key_update_rejected(self):
        with pytest.raises(ExecutionError):
            self.backend.execute("UPDATE inv SET id = 999 WHERE id = 7")

    def test_execute_remote_honours_pin(self):
        shard = self.backend.shard_of("inv", 7)
        rows = self.backend.execute_remote(
            "SELECT i.id, i.qty FROM inv i WHERE i.id = 7", shards=(shard,)
        ).to_rows()
        assert [r[0] for r in rows] == [7]
        other = tuple(s for s in range(4) if s != shard)
        assert self.backend.execute_remote(
            "SELECT i.id FROM inv i WHERE i.id = 7", shards=other
        ).to_rows() == []


class TestCrossShardEquivalence:
    """M ∈ {1, 2, 4} partitions answer exactly like one server."""

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_queries_match_single_server(self, m):
        reference = load_history(BackendServer())
        sharded = load_history(ShardedBackend(m))
        for sql in QUERIES:
            want = sorted(reference.execute(sql).rows)
            got = sorted(sharded.execute(sql).rows)
            assert got == want, sql

    @pytest.mark.parametrize("m", [2, 4])
    def test_dml_counts_match(self, m):
        reference = load_history(BackendServer())
        sharded = load_history(ShardedBackend(m))
        for sql in (
            "UPDATE inv SET qty = 0 WHERE zone = 'r2'",
            "DELETE FROM inv WHERE qty > 90",
        ):
            assert sharded.execute(sql) == reference.execute(sql)
        for sql in QUERIES:
            assert sorted(sharded.execute(sql).rows) == sorted(
                reference.execute(sql).rows
            ), sql

    def test_rows_spread_over_shards(self):
        sharded = load_history(ShardedBackend(4))
        per_shard = [
            len(p.catalog.table("inv").table) for p in sharded.partitions
        ]
        assert sum(per_shard) == 57
        assert all(n > 0 for n in per_shard)

    def test_bulk_load_routes_like_insert(self):
        a = ShardedBackend(4)
        a.create_table(DDL)
        a.bulk_load("inv", [(i, i, "x") for i in range(40)])
        b = ShardedBackend(4)
        b.create_table(DDL)
        values = ", ".join(f"({i}, {i}, 'x')" for i in range(40))
        b.execute(f"INSERT INTO inv VALUES {values}")
        for pa, pb in zip(a.partitions, b.partitions):
            assert sorted(
                v for _, v in pa.catalog.table("inv").table.scan()
            ) == sorted(v for _, v in pb.catalog.table("inv").table.scan())


class TestPartitionScopedCurrency:
    """The per-shard C&C rule on a cache over a sharded back-end."""

    def make(self, m=2):
        backend = load_history(ShardedBackend(m))
        cache = MTCache(backend)
        cache.create_region("r", 2.0, 0.5, heartbeat_interval=0.5)
        cache.create_matview("inv_c", "inv", ["id", "qty"], region="r")
        cache.run_for(5.0)
        return backend, cache

    def test_one_agent_per_partition(self):
        _, cache = self.make(2)
        assert sorted(cache.agents) == ["r#p0", "r#p1"]
        assert [s for s, _ in cache._region_agent_keys["r"]] == [0, 1]

    def test_view_snapshot_is_min_over_shards(self):
        _, cache = self.make(2)
        view = cache.catalog.matview("inv_c")
        assert set(view.shard_snapshots) == {0, 1}
        assert view.snapshot_time == min(view.shard_snapshots.values())

    def test_view_gathers_every_partition(self):
        backend, cache = self.make(2)
        view = cache.catalog.matview("inv_c")
        assert len(view.table) == sum(
            len(p.catalog.table("inv").table) for p in backend.partitions
        )

    def test_stalled_shard_only_blocks_its_own_keys(self):
        backend, cache = self.make(2)
        # Keys living on each shard.
        key0 = next(
            i for i in range(60) if backend.shard_of("inv", i) == 0
        )
        key1 = next(
            i for i in range(60) if backend.shard_of("inv", i) == 1
        )
        cache.agents["r#p0"].stop()
        cache.run_for(10.0)  # shard 0's replica now ~10 s stale
        sql = (
            "SELECT i.id, i.qty FROM inv i WHERE i.id = {k} "
            "CURRENCY BOUND 3 SEC ON (i)"
        )
        stalled = cache.execute(sql.format(k=key0))
        healthy = cache.execute(sql.format(k=key1))
        # Pinned to the stalled shard: guard must reject the local copy.
        assert stalled.context.branches[0][1] == 1
        # Pinned to the healthy shard: its own agent is fresh, stays local.
        assert healthy.context.branches[0][1] == 0
        assert stalled.rows and healthy.rows

    def test_update_reaches_view_through_owning_partition(self):
        backend, cache = self.make(2)
        backend.execute("UPDATE inv SET qty = 777 WHERE id = 7")
        cache.run_for(5.0)
        result = cache.execute(
            "SELECT i.qty FROM inv i WHERE i.id = 7 "
            "CURRENCY BOUND 60 SEC ON (i)"
        )
        assert result.context.branches[0][1] == 0
        assert result.rows == [(777,)]

    def test_status_reports_shard_snapshot_ages(self):
        _, cache = self.make(2)
        views = cache.status()["r"]["views"]
        ages = views["inv_c"]["shard_snapshot_ages"]
        assert set(ages) == {0, 1}


class TestFleetConfigAndScatter:
    def make_fleet(self, partitions=4, nodes=2):
        config = FleetConfig(nodes=nodes, partitions=partitions)
        fleet = config.build()
        load_history(fleet.backend)
        fleet.create_region("r", 1.0, 0.25, heartbeat_interval=0.5)
        fleet.create_matview("inv_c", "inv", ["id", "qty"], region="r")
        fleet.run_for(3.0)
        return fleet

    def test_config_builds_sharded_backend(self):
        fleet = self.make_fleet()
        assert isinstance(fleet.backend, ShardedBackend)
        assert fleet.backend.partition_count == 4
        assert len(fleet.nodes) == 2
        topology = fleet.status()["backend"]
        assert topology["kind"] == "ShardedBackend"
        assert topology["partitions"] == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(nodes=0)
        with pytest.raises(ValueError):
            FleetConfig(partitions=0)
        with pytest.raises(ValueError):
            FleetConfig(nodes=2, names=["only"])
        backend = ShardedBackend(2)
        with pytest.raises(ValueError):
            FleetConfig(partitions=3, backend=backend).resolve_backend()
        config = FleetConfig(backend=backend)
        assert config.resolve_backend() is backend
        assert config.partitions == 2

    def test_plain_fleet_keeps_legacy_defaults(self):
        backend = load_history(BackendServer())
        fleet = CacheFleet(backend)
        assert len(fleet.nodes) == 3
        assert fleet.router.policy.name == "round_robin"

    MULTI_SHARD = (
        "SELECT i.id, i.qty FROM inv i WHERE i.id IN (1, 2, 30, 200) "
        "CURRENCY BOUND {} SEC ON (i)"
    )

    def test_multi_shard_in_is_one_unsplit_read(self):
        fleet = self.make_fleet()
        keys = [1, 2, 30, 200]
        assert len({fleet.backend.shard_of("inv", k) for k in keys}) > 1
        result = fleet.execute(self.MULTI_SHARD.format(60))
        # One node served it, locally, through the all-shards guard: the
        # rows are the union of what each shard holds for the list.
        assert result.node in {n.name for n in fleet.nodes}
        assert result.routing == "local"
        expected = []
        for partition in fleet.backend.partitions:
            expected += partition.execute(
                "SELECT i.id, i.qty FROM inv i WHERE i.id IN (1, 2, 30, 200)"
            ).rows
        assert sorted(result.rows) == sorted(expected)
        assert sorted(r[0] for r in result.rows) == keys
        assert sum(n.queries_routed for n in fleet.nodes) == 1

    def test_multi_shard_read_carries_stalest_shard_snapshot(self):
        fleet = self.make_fleet()
        result = fleet.execute(self.MULTI_SHARD.format(60))
        node = next(n for n in fleet.nodes if n.name == result.node)
        (view,) = node.catalog.matviews_on("inv")
        assert len(view.shard_snapshots) == 4
        assert result.context.snapshots_used == [
            min(view.shard_snapshots.values())
        ]

    def test_one_shard_past_the_bound_sends_the_whole_read_remote(self):
        fleet = self.make_fleet(partitions=2)
        stale = fleet.backend.shard_of("inv", 1)
        for node in fleet.nodes:
            for key, agent in node.agents.items():
                if key.endswith(f"#p{stale}"):
                    agent.stop()
        fleet.run_for(10.0)  # one shard's replicas are now ~10 s stale
        sql = self.MULTI_SHARD.format(3)
        result = fleet.execute(sql)
        assert result.routing == "remote"
        assert [branch for _, branch in result.context.branches] == [1]
        assert sorted(r[0] for r in result.rows) == [1, 2, 30, 200]
        # A list on the fresh shard alone still reads locally.
        fresh = [k for k in (1, 2, 30, 200)
                 if fleet.backend.shard_of("inv", k) != stale]
        pinned = fleet.execute(
            f"SELECT i.id FROM inv i WHERE i.id IN ({', '.join(map(str, fresh))}) "
            "CURRENCY BOUND 3 SEC ON (i)"
        )
        assert pinned.routing == "local"
        assert sorted(r[0] for r in pinned.rows) == fresh

    def test_no_split_for_single_shard_or_ordered_queries(self):
        fleet = self.make_fleet()
        ordered = fleet.execute(
            "SELECT i.id FROM inv i WHERE i.id IN (30, 2, 1) ORDER BY i.id"
        )
        assert ordered.rows == [(1,), (2,), (30,)]
        counted = fleet.execute(
            "SELECT COUNT(*) FROM inv i WHERE i.id IN (1, 2, 30)"
        )
        assert counted.rows == [(3,)]
        assert fleet.execute("SELECT i.id FROM inv i WHERE i.id = 7").rows == [(7,)]

    def test_unsharded_fleet_never_splits(self):
        backend = load_history(BackendServer())
        fleet = CacheFleet(backend, n_nodes=2)
        result = fleet.execute("SELECT i.id FROM inv i WHERE i.id IN (1, 2, 30)")
        assert sorted(result.rows) == [(1,), (2,), (30,)]
        assert result.node in ("node0", "node1")


class TestShardedChaos:
    def test_seeded_run_with_one_shard_dark(self):
        fleet = build_demo_fleet(n_nodes=2, n_rows=200, partitions=2)
        chaos = ChaosScheduler(fleet, seed=7)
        chaos.crash("node1", at=3.0, restart_after=4.0)
        chaos.shard_outage(0, at=8.0, duration=3.0)
        report = chaos.run(20.0)
        summary = report.summary()
        assert summary["invariant_violations"] == 0
        assert summary["faults_injected"] == 2
        assert any(f["kind"] == "shard_outage" for f in report.faults)
        assert summary["queries"] > 0

    def test_random_schedule_places_shard_outages_only_when_sharded(self):
        sharded = build_demo_fleet(n_nodes=2, n_rows=100, partitions=2)
        chaos = ChaosScheduler(sharded, seed=3)
        chaos.random_schedule(20.0)
        assert any(f["kind"] == "shard_outage" for f in chaos.faults)
        plain = build_demo_fleet(n_nodes=2, n_rows=100)
        chaos2 = ChaosScheduler(plain, seed=3)
        chaos2.random_schedule(20.0)
        assert not any(f["kind"] == "shard_outage" for f in chaos2.faults)

    def test_sharded_run_is_deterministic(self):
        def one_run():
            fleet = build_demo_fleet(n_nodes=2, n_rows=100, partitions=2)
            chaos = ChaosScheduler(fleet, seed=5)
            chaos.random_schedule(15.0)
            report = chaos.run(15.0)
            return report.summary(), report.history_lines()

        assert one_run() == one_run()
