"""Tests for crash recovery, agent failover, and the chaos harness:
node lifecycle (crash / restart / drain / warm-up), lifecycle-aware
routing, partitions, supervisor-driven standby promotion, the C&C
invariant checkers, and the seeded end-to-end determinism acceptance."""

import io

import pytest

from repro.cache import mtcache as mtcache_module
from repro.cache.backend import BackendServer
from repro.chaos import (
    ChaosScheduler,
    InvariantChecker,
    build_demo_fleet,
    default_point_lookup_factory,
)
from repro.cli import Shell
from repro.common.errors import FleetStateError, InvariantViolation
from repro.fleet import CacheFleet, FleetConfig, NodeLifecycle

LOOSE = "SELECT t.id, t.v FROM t CURRENCY BOUND 600 SEC ON (t)"
STRICT = "SELECT t.id, t.v FROM t CURRENCY BOUND 2 SEC ON (t)"


def make_backend(rows=20):
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, PRIMARY KEY (id))"
    )
    values = ", ".join(f"({i}, {i * 10})" for i in range(1, rows + 1))
    backend.execute(f"INSERT INTO t VALUES {values}")
    backend.refresh_statistics()
    return backend


def make_fleet(n_nodes=3, settle=True, **kwargs):
    fleet = CacheFleet(make_backend(), n_nodes=n_nodes, **kwargs)
    fleet.create_region("r", 4.0, 1.0, heartbeat_interval=0.5)
    fleet.create_matview("t_copy", "t", ["id", "v"], region="r")
    if settle:
        fleet.run_for(6.0)
    return fleet


MULTI_SHARD = (
    "SELECT t.id, t.v FROM t WHERE t.id IN (1, 2, 3, 4) "
    "CURRENCY BOUND {} SEC ON (t)"
)


def make_sharded_fleet():
    """Two nodes over two shards; ``MULTI_SHARD`` spans both."""
    fleet = FleetConfig(nodes=2, partitions=2).build()
    backend = fleet.backend
    backend.create_table(
        "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, PRIMARY KEY (id))"
    )
    backend.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
    backend.refresh_statistics()
    assert {backend.shard_of("t", k) for k in (1, 2, 3, 4)} == {0, 1}
    fleet.create_region("r", 1.0, 0.25, heartbeat_interval=0.5)
    fleet.create_matview("t_copy", "t", ["id", "v"], region="r")
    fleet.run_for(3.0)
    return fleet


def stall_shard(fleet, shard):
    """Stop every node's agent for one shard: its replicas go stale."""
    for node in fleet.nodes:
        for key, agent in node.agents.items():
            if key.endswith(f"#p{shard}"):
                agent.stop()


# ----------------------------------------------------------------------
# Node lifecycle
# ----------------------------------------------------------------------
class TestCrash:
    def test_crash_loses_in_memory_state(self):
        fleet = make_fleet()
        node = fleet.node("node0")
        node.execute(LOOSE)  # warm the plan cache and query log
        assert node.catalog.matview("t_copy").table.row_count == 20
        node.crash()
        assert node.lifecycle is NodeLifecycle.CRASHED
        view = node.catalog.matview("t_copy")
        assert view.table.row_count == 0
        assert view.applied_txn == 0
        for heartbeat in node._local_heartbeats.values():
            assert heartbeat.row_count == 0
        assert len(node._plans.cache) == 0
        assert node.query_log.recent(5) == []

    def test_crash_twice_rejected(self):
        fleet = make_fleet()
        fleet.crash_node("node0")
        with pytest.raises(FleetStateError, match="already crashed"):
            fleet.crash_node("node0")

    def test_router_skips_crashed_node(self):
        fleet = make_fleet()
        fleet.crash_node("node0")
        served = {fleet.execute(LOOSE).node for _ in range(6)}
        assert served == {"node1", "node2"}

    def test_all_nodes_down_fails_fast(self):
        fleet = make_fleet()
        for name in ("node0", "node1", "node2"):
            fleet.crash_node(name)
        with pytest.raises(FleetStateError, match="no fleet node accepting"):
            fleet.execute(LOOSE)

    def test_crash_emits_lifecycle_event_and_counter(self):
        fleet = make_fleet()
        fleet.crash_node("node1")
        (event,) = fleet.metrics.events.recent(5, kind="lifecycle")
        assert event.severity == "error"
        assert event.attrs["node"] == "node1"
        assert event.attrs["state"] == "crashed"
        snap = fleet.metrics.snapshot()
        assert snap['fleet_node_lifecycle_total{node="node1",state="crashed"}'] == 1


class TestRestart:
    def test_restart_rebuilds_views_and_warms_up(self):
        fleet = make_fleet(warmup_seconds=2.0)
        node = fleet.node("node0")
        node.crash()
        fleet.backend.execute("INSERT INTO t VALUES (21, 210)")
        assert node.restart() is True
        assert node.lifecycle is NodeLifecycle.WARMING
        # Cold rebuild re-subscribed the view from the current back-end.
        assert node.catalog.matview("t_copy").table.row_count == 21
        # While warming, fully-UP peers take the traffic.
        served = {fleet.execute(LOOSE).node for _ in range(6)}
        assert "node0" not in served
        fleet.run_for(2.5)
        assert node.lifecycle is NodeLifecycle.UP
        served = {fleet.execute(LOOSE).node for _ in range(6)}
        assert "node0" in served

    def test_restarted_node_serves_locally_again(self):
        fleet = make_fleet()
        node = fleet.node("node2")
        node.crash()
        node.restart()
        fleet.run_for(6.0)  # warm-up + heartbeat cadence
        result = node.execute(LOOSE)
        assert result.routing == "local"
        assert len(result.rows) == 20

    def test_restart_requires_crashed(self):
        fleet = make_fleet()
        with pytest.raises(FleetStateError, match="not crashed"):
            fleet.restart_node("node0")

    def test_restart_deferred_during_outage(self):
        fleet = make_fleet(warmup_seconds=1.0)
        node = fleet.node("node0")
        node.crash()
        fleet.network.inject_outage(5.0)
        assert node.restart() is False
        assert node.lifecycle is NodeLifecycle.CRASHED
        # The deferred restart fires just after the outage window ends.
        fleet.run_for(5.1)
        assert node.lifecycle is NodeLifecycle.WARMING
        fleet.run_for(1.5)
        assert node.lifecycle is NodeLifecycle.UP

    def test_restart_deferred_by_partition_of_that_node(self):
        fleet = make_fleet(warmup_seconds=1.0)
        node = fleet.node("node1")
        node.crash()
        fleet.network.partition("node1", 4.0)
        assert node.restart() is False
        fleet.run_for(6.0)
        assert node.lifecycle is NodeLifecycle.UP

    def test_warming_node_serves_when_nothing_else_up(self):
        fleet = make_fleet(n_nodes=1, warmup_seconds=5.0)
        node = fleet.node("node0")
        node.crash()
        node.restart()
        assert node.lifecycle is NodeLifecycle.WARMING
        result = fleet.execute(LOOSE)
        assert result.node == "node0"


class TestDrain:
    def test_drain_removes_from_rotation_and_resume_restores(self):
        fleet = make_fleet()
        fleet.drain_node("node1")
        assert fleet.node("node1").lifecycle is NodeLifecycle.DRAINING
        served = {fleet.execute(LOOSE).node for _ in range(6)}
        assert served == {"node0", "node2"}
        # Drained caches stay warm: the views were not truncated.
        assert fleet.node("node1").catalog.matview("t_copy").table.row_count == 20
        fleet.resume_node("node1")
        served = {fleet.execute(LOOSE).node for _ in range(6)}
        assert "node1" in served

    def test_resume_requires_draining(self):
        fleet = make_fleet()
        with pytest.raises(FleetStateError, match="not draining"):
            fleet.resume_node("node0")

    def test_cannot_drain_crashed_node(self):
        fleet = make_fleet()
        fleet.crash_node("node0")
        with pytest.raises(FleetStateError, match="cannot drain"):
            fleet.drain_node("node0")

    def test_status_reports_lifecycle(self):
        fleet = make_fleet()
        fleet.crash_node("node0")
        fleet.drain_node("node1")
        status = fleet.status()
        assert status["nodes"]["node0"]["lifecycle"] == "crashed"
        assert status["nodes"]["node1"]["lifecycle"] == "draining"
        assert status["nodes"]["node2"]["lifecycle"] == "up"


# ----------------------------------------------------------------------
# Partitions
# ----------------------------------------------------------------------
class TestPartition:
    def test_partition_cuts_only_that_node(self):
        fleet = make_fleet()
        fleet.network.partition("node0", 5.0)
        assert fleet.network.backend_available() is True
        assert fleet.network.backend_available(node="node0") is False
        assert fleet.network.backend_available(node="node1") is True
        assert fleet.network.partitioned_nodes() == ["node0"]
        assert fleet.status()["network"]["partitioned"] == ["node0"]

    def test_partitioned_node_degrades_strict_queries(self):
        fleet = make_fleet()
        fleet.network.stall_agents(30.0, node="node0")
        fleet.network.partition("node0", 30.0)
        fleet.run_for(8.0)  # staleness on node0 grows past the strict bound
        result = fleet.node("node0").execute(STRICT)
        assert result.routing == "local"
        assert any("degraded" in w for w in result.warnings)

    def test_partition_expires(self):
        fleet = make_fleet()
        fleet.network.partition("node2", 2.0)
        fleet.run_for(2.5)
        assert fleet.network.backend_available(node="node2") is True
        assert fleet.network.partitioned_nodes() == []


# ----------------------------------------------------------------------
# Agent failover
# ----------------------------------------------------------------------
class TestFailover:
    def test_supervisor_promotes_standby_over_stalled_agent(self):
        fleet = make_fleet(failover_threshold=6.0)
        node = fleet.node("node0")
        old_agent = node.agents["r@node0"]
        fleet.network.stall_agents(60.0, node="node0")
        fleet.run_for(16.0)  # stall outlasts the threshold -> promotion
        new_agent = node.agents["r@node0"]
        assert new_agent is not old_agent
        assert node.supervisors["r@node0"].promotions >= 1
        snap = fleet.metrics.snapshot()
        assert snap['replication_failovers_total{region="r@node0"}'] >= 1
        events = fleet.metrics.events.recent(10, kind="failover")
        assert events and events[-1].attrs["region"] == "r@node0"

    def test_promoted_agent_catches_the_region_up(self):
        fleet = make_fleet(failover_threshold=6.0)
        node = fleet.node("node1")
        fleet.network.stall_agents(14.0, node="node1")
        fleet.backend.execute("INSERT INTO t VALUES (21, 210)")
        fleet.run_for(20.0)
        # The standby resumed from the checkpoint and replayed the tail.
        assert node.catalog.matview("t_copy").table.row_count == 21

    def test_promotion_does_not_double_apply(self):
        fleet = make_fleet(failover_threshold=6.0)
        node = fleet.node("node0")
        fleet.backend.execute("UPDATE t SET v = 999 WHERE id = 1")
        fleet.run_for(6.0)  # applied by the primary, checkpoint taken
        fleet.network.stall_agents(60.0, node="node0")
        fleet.run_for(16.0)  # promotion; standby replays from checkpoint
        view = node.catalog.matview("t_copy")
        rows = [values for _, values in view.table.scan() if values[0] == 1]
        assert rows == [(1, 999)]
        assert view.table.row_count == 20  # no duplicated rows

    def test_healthy_agent_not_promoted(self):
        fleet = make_fleet(failover_threshold=6.0)
        node = fleet.node("node0")
        agent = node.agents["r@node0"]
        fleet.run_for(30.0)
        assert node.agents["r@node0"] is agent
        assert node.supervisors["r@node0"].promotions == 0


# ----------------------------------------------------------------------
# Invariant checkers
# ----------------------------------------------------------------------
class TestInvariantChecker:
    def test_clean_result_passes(self):
        fleet = make_fleet()
        checker = InvariantChecker(fleet)
        result = fleet.execute(LOOSE)
        assert checker.check_result(result, 600.0) == []
        assert checker.violations == []

    def test_silent_staleness_is_a_violation(self):
        fleet = make_fleet()
        checker = InvariantChecker(fleet)
        result = fleet.execute(LOOSE)
        # Forge a result that silently read a 100 s-old snapshot.
        result.context.snapshots_used[:] = [fleet.clock.now() - 100.0]
        result.context.warnings.clear()
        (violation,) = checker.check_result(result, 2.0)
        assert violation.invariant == "currency_bound"
        assert violation.attrs["staleness"] == pytest.approx(100.0)

    def test_declared_staleness_is_not_a_violation(self):
        fleet = make_fleet()
        checker = InvariantChecker(fleet)
        result = fleet.execute(LOOSE)
        result.context.snapshots_used[:] = [fleet.clock.now() - 100.0]
        result.context.warnings[:] = ["degraded: serving stale"]
        assert checker.check_result(result, 2.0) == []

    def test_mixed_snapshots_are_a_violation(self):
        fleet = make_fleet()
        checker = InvariantChecker(fleet)
        result = fleet.execute(LOOSE)
        now = fleet.clock.now()
        result.context.snapshots_used[:] = [now - 1.0, now - 2.0]
        violations = checker.check_result(result, 600.0)
        assert [v.invariant for v in violations] == ["single_snapshot"]

    def test_raise_on_violation(self):
        fleet = make_fleet()
        checker = InvariantChecker(fleet, raise_on_violation=True)
        result = fleet.execute(LOOSE)
        result.context.snapshots_used[:] = [fleet.clock.now() - 100.0]
        result.context.warnings.clear()
        with pytest.raises(InvariantViolation):
            checker.check_result(result, 2.0)

    def test_violations_land_in_fleet_events_and_metrics(self):
        fleet = make_fleet()
        checker = InvariantChecker(fleet)
        result = fleet.execute(LOOSE)
        result.context.snapshots_used[:] = [fleet.clock.now() - 100.0]
        result.context.warnings.clear()
        checker.check_result(result, 2.0)
        events = fleet.metrics.events.recent(5, kind="invariant")
        assert events and events[-1].severity == "error"
        snap = fleet.metrics.snapshot()
        key = 'chaos_invariant_violations_total{invariant="currency_bound"}'
        assert snap[key] == 1

    def test_unsplit_multi_shard_read_passes(self):
        fleet = make_sharded_fleet()
        checker = InvariantChecker(fleet)
        result = fleet.execute(MULTI_SHARD.format(5))
        assert result.routing == "local"
        assert len(result.context.snapshots_used) == 1
        assert checker.check_result(result, 5.0) == []
        stall_shard(fleet, 0)
        fleet.run_for(10.0)
        result = fleet.execute(MULTI_SHARD.format(5))
        assert result.routing == "remote"  # the stale shard bounces it all
        assert checker.check_result(result, 5.0) == []

    def test_multi_shard_guard_skipping_a_stale_shard_is_a_violation(
        self, monkeypatch
    ):
        fleet = make_sharded_fleet()
        checker = InvariantChecker(fleet)
        # Plant: the all-shards guard consults only the last shard.
        real = mtcache_module.MTCache._guard_heartbeats
        monkeypatch.setattr(
            mtcache_module.MTCache, "_guard_heartbeats",
            lambda self, cid, shard: real(self, cid, shard)[-1:],
        )
        stall_shard(fleet, 0)
        fleet.run_for(10.0)
        result = fleet.execute(MULTI_SHARD.format(5))
        assert result.routing == "local" and not result.warnings
        (violation,) = checker.check_result(result, 5.0)
        assert violation.invariant == "currency_bound"
        assert violation.attrs["staleness"] > 5.0

    def test_convergence_clean_after_settle(self):
        fleet = make_fleet()
        now = fleet.clock.now()
        for node in fleet.nodes:
            for agent in node.agents.values():
                agent.propagate(cutoff=now)
        checker = InvariantChecker(fleet)
        assert checker.check_convergence() == []
        assert checker.views_checked == 3

    def test_convergence_detects_divergence(self):
        fleet = make_fleet()
        now = fleet.clock.now()
        for node in fleet.nodes:
            for agent in node.agents.values():
                agent.propagate(cutoff=now)
        view = fleet.node("node0").catalog.matview("t_copy")
        rid = next(rid for rid, _ in view.table.scan())
        view.table.delete(rid)  # corrupt one local replica
        checker = InvariantChecker(fleet)
        (violation,) = checker.check_convergence()
        assert violation.invariant == "convergence"
        assert violation.attrs["node"] == "node0"

    def test_convergence_skips_crashed_nodes(self):
        fleet = make_fleet()
        now = fleet.clock.now()
        for node in fleet.nodes:
            for agent in node.agents.values():
                agent.propagate(cutoff=now)
        fleet.crash_node("node0")  # empty views must not count as divergence
        checker = InvariantChecker(fleet)
        assert checker.check_convergence() == []
        assert checker.views_checked == 2


# ----------------------------------------------------------------------
# The chaos scheduler, end to end
# ----------------------------------------------------------------------
def run_chaos(seed=11, duration=60.0):
    fleet = build_demo_fleet()
    chaos = ChaosScheduler(fleet, seed=seed)
    chaos.random_schedule(duration)
    return chaos.run(duration)


class TestChaosAcceptance:
    def test_seeded_schedule_is_deterministic_and_invariant_clean(self):
        first = run_chaos(seed=11)
        second = run_chaos(seed=11)
        # Same seed, same everything: identical event histories...
        assert first.history_lines() == second.history_lines()
        assert first.summary() == second.summary()
        # ...the required fault mix actually happened...
        kinds = [fault["kind"] for fault in first.faults]
        assert kinds.count("crash") >= 2
        assert "outage" in kinds and "partition" in kinds
        history = "\n".join(first.history_lines())
        assert "failover: promoted standby" in history
        # ...every crash recovered...
        assert len(first.recoveries()) >= 2
        # ...with zero raised errors and zero invariant violations...
        assert first.report.errors == 0
        assert first.violations == []
        assert first.checker.results_checked > 100
        # ...and ≥95% of in-fault-window queries served fresh-or-degraded.
        assert first.served_fraction() >= 0.95

    def test_different_seeds_differ(self):
        assert (
            run_chaos(seed=11, duration=30.0).history_lines()
            != run_chaos(seed=12, duration=30.0).history_lines()
        )

    def test_explicit_schedule_primitives(self):
        fleet = build_demo_fleet(n_nodes=2, n_rows=50)
        chaos = ChaosScheduler(fleet, seed=3)
        chaos.crash("node0", at=2.0, restart_after=3.0)
        chaos.outage(at=8.0, duration=1.5)
        chaos.partition("node1", at=4.0, duration=2.0)
        report = chaos.run(15.0, think_time=0.25)
        assert len(report.faults) == 3
        assert report.violations == []
        assert len(report.recoveries()) == 1
        assert report.served_fraction() >= 0.95


class TestChaosShell:
    def test_chaos_command_prints_summary(self):
        fleet = build_demo_fleet(n_nodes=2, n_rows=50)
        out = io.StringIO()
        Shell(fleet, out=out).handle("\\chaos 3 12")
        text = out.getvalue()
        assert "chaos: seed=3 duration=12s" in text
        assert "invariants: OK" in text

    def test_chaos_command_without_fleet(self):
        from repro.cache.mtcache import MTCache

        out = io.StringIO()
        Shell(MTCache(make_backend()), out=out).handle("\\chaos")
        assert "no fleet attached" in out.getvalue()

    def test_fleet_command_shows_lifecycle(self):
        fleet = make_fleet()
        fleet.crash_node("node0")
        out = io.StringIO()
        Shell(fleet, out=out).handle("\\fleet")
        text = out.getvalue()
        assert "node0: crashed" in text
        assert "node1: up" in text
        assert "partitioned=none" in text


class TestDefaultFactory:
    def test_reads_key_range_off_the_base_table(self):
        fleet = make_fleet()
        factory = default_point_lookup_factory(fleet)
        import random

        sql = factory(random.Random(0), 600)
        assert "FROM t t" in sql and "CURRENCY BOUND 600" in sql
