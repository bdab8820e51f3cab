"""Tests for repro.fleet: routing policies, the simulated network, fault
injection, circuit breaking, and driving a fleet with the workload driver."""

import gc
import io

import pytest

from repro.cache.backend import BackendServer
from repro.cli import Shell
from repro.common.clock import SimulatedClock
from repro.common.errors import NetworkError
from repro.fleet import (
    POLICIES,
    BreakerState,
    CacheFleet,
    CircuitBreaker,
    SimulatedNetwork,
    bound_from_sql,
    make_policy,
)
from repro.workloads.driver import WorkloadDriver, point_lookup_factory

LOOSE = "SELECT t.id, t.v FROM t CURRENCY BOUND 600 SEC ON (t)"
STRICT = "SELECT t.id, t.v FROM t CURRENCY BOUND 2 SEC ON (t)"
REMOTE_ONLY = "SELECT t.id, t.v FROM t CURRENCY BOUND 0 SEC ON (t)"


def make_backend(rows=20):
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL, PRIMARY KEY (id))"
    )
    values = ", ".join(f"({i}, {i * 10})" for i in range(1, rows + 1))
    backend.execute(f"INSERT INTO t VALUES {values}")
    backend.refresh_statistics()
    return backend


def make_fleet(n_nodes=3, policy="round_robin", settle=True, **kwargs):
    backend = make_backend()
    fleet = CacheFleet(backend, n_nodes=n_nodes, policy=policy, **kwargs)
    fleet.create_region("r", 4.0, 1.0, heartbeat_interval=0.5)
    fleet.create_matview("t_copy", "t", ["id", "v"], region="r")
    if settle:
        fleet.run_for(6.0)
    return fleet


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestBoundFromSql:
    def test_units(self):
        assert bound_from_sql("... CURRENCY BOUND 10 SEC ON (t)") == 10.0
        assert bound_from_sql("... CURRENCY BOUND 2 MIN ON (t)") == 120.0
        assert bound_from_sql("... currency bound 500 ms on (t)") == 0.5

    def test_multiple_bounds_take_tightest(self):
        sql = "... CURRENCY BOUND 10 SEC ON (a), 5 SEC ON (b)"
        # Only the leading spec matches the BOUND keyword; a second full
        # clause would re-match.
        assert bound_from_sql(sql + " CURRENCY BOUND 3 SEC ON (c)") == 3.0

    def test_no_clause(self):
        assert bound_from_sql("SELECT t.id FROM t") is None

    def test_make_policy_rejects_unknown(self):
        with pytest.raises(ValueError, match="round_robin"):
            make_policy("fastest_first")
        assert set(POLICIES) == {"round_robin", "least_loaded", "staleness_aware"}


class TestRouting:
    def test_round_robin_cycles(self):
        fleet = make_fleet(policy="round_robin")
        nodes = [fleet.execute(LOOSE).node for _ in range(6)]
        assert nodes == ["node0", "node1", "node2", "node0", "node1", "node2"]

    def test_least_loaded_balances(self):
        fleet = make_fleet(policy="least_loaded")
        for _ in range(9):
            fleet.execute(LOOSE)
        assert [n.queries_routed for n in fleet.nodes] == [3, 3, 3]

    def test_staleness_aware_avoids_stale_node(self):
        fleet = make_fleet(policy="staleness_aware")
        # Stall node0's agents: its region's heartbeat stops advancing.
        fleet.network.stall_agents(30.0, node="node0")
        fleet.run_for(8.0)
        assert fleet.node("node0").max_staleness() > 2.0
        served = {fleet.execute(STRICT, bound=2.0).node for _ in range(6)}
        assert "node0" not in served
        assert served <= {"node1", "node2"}

    def test_staleness_aware_falls_back_to_least_stale(self):
        fleet = make_fleet(policy="staleness_aware")
        fleet.network.stall_agents(30.0)  # every node's agents stall
        fleet.run_for(8.0)
        result = fleet.execute(STRICT, bound=2.0)
        assert result.node in {"node0", "node1", "node2"}
        assert result.routing in ("remote", "mixed")  # guard sent it back

    def test_routed_counter_labelled_by_node(self):
        fleet = make_fleet()
        for _ in range(3):
            fleet.execute(LOOSE)
        snap = fleet.metrics.snapshot()
        key = 'fleet_routed_total{node="node1",policy="round_robin"}'
        assert snap[key] == 1


# ----------------------------------------------------------------------
# Simulated network
# ----------------------------------------------------------------------
class TestSimulatedNetwork:
    def test_latency_advances_the_clock(self):
        clock = SimulatedClock()
        net = SimulatedNetwork(clock, latency=0.05)
        before = clock.now()
        assert net.call(lambda: "ok") == "ok"
        assert clock.now() == pytest.approx(before + 0.05)

    def test_drop_raises_network_error(self):
        net = SimulatedNetwork(SimulatedClock(), drop_rate=1.0)
        with pytest.raises(NetworkError) as exc:
            net.call(lambda: "ok")
        assert exc.value.reason == "drop"

    def test_timeout(self):
        clock = SimulatedClock()
        net = SimulatedNetwork(clock, latency=0.5, timeout=0.1)
        with pytest.raises(NetworkError) as exc:
            net.call(lambda: "ok")
        assert exc.value.reason == "timeout"
        assert clock.now() == pytest.approx(0.1)  # waited out the timeout

    def test_outage_window(self):
        clock = SimulatedClock()
        net = SimulatedNetwork(clock)
        net.inject_outage(2.0, start=1.0)
        assert net.backend_available()
        clock.advance(1.5)
        assert not net.backend_available()
        assert net.outage_ends_at() == pytest.approx(3.0)
        with pytest.raises(NetworkError) as exc:
            net.call(lambda: "ok")
        assert exc.value.reason == "outage"
        clock.advance(2.0)
        assert net.backend_available()

    def test_stall_windows_are_per_node(self):
        clock = SimulatedClock()
        net = SimulatedNetwork(clock)
        net.stall_agents(5.0, node="node1")
        assert net.agents_stalled(node="node1")
        assert not net.agents_stalled(node="node0")
        assert net.agents_stalled()  # no node filter: any stall counts
        clock.advance(6.0)
        assert not net.agents_stalled(node="node1")

    def test_clear_faults(self):
        net = SimulatedNetwork(SimulatedClock())
        net.inject_outage(10.0)
        net.stall_agents(10.0)
        net.clear_faults()
        assert net.backend_available()
        assert not net.agents_stalled()


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(clock, failure_threshold=3, reset_timeout=5.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.available()

    def test_half_open_probe_then_close(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(clock, failure_threshold=1, reset_timeout=5.0)
        breaker.record_failure()
        assert not breaker.available()
        clock.advance(5.0)
        assert breaker.available()  # transitions to half-open
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(clock, failure_threshold=1, reset_timeout=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.available()
        breaker.record_failure()  # probe failed
        assert breaker.state is BreakerState.OPEN
        assert breaker.retry_at == pytest.approx(10.0)

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(SimulatedClock(), failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_retrip_restarts_the_cooldown(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(clock, failure_threshold=2, reset_timeout=5.0)
        breaker.record_failure()
        breaker.record_failure()  # trips at t=0
        clock.advance(5.0)
        assert breaker.available()
        assert breaker.state is BreakerState.HALF_OPEN
        # A single probe failure re-trips immediately — no second chance,
        # no waiting for the full failure threshold — and the cooldown
        # restarts from the re-trip, not the original open.
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.retry_at == pytest.approx(10.0)
        assert not breaker.available()
        clock.advance(4.9)
        assert not breaker.available()
        clock.advance(0.2)
        assert breaker.available()
        assert breaker.state is BreakerState.HALF_OPEN

    def test_breaker_state_surfaces_in_fleet_status(self):
        fleet = make_fleet(reset_timeout=5.0)
        node = fleet.node("node1")
        for _ in range(node.breaker.failure_threshold):
            node.breaker.record_failure()
        status = fleet.status()
        assert status["nodes"]["node1"]["breaker"] == "open"
        assert status["nodes"]["node0"]["breaker"] == "closed"
        fleet.run_for(5.0)
        node.breaker.available()  # cooldown elapsed: probe admitted
        assert fleet.status()["nodes"]["node1"]["breaker"] == "half_open"


# ----------------------------------------------------------------------
# Fleet topology & DDL
# ----------------------------------------------------------------------
class TestFleetTopology:
    def test_per_node_regions_share_one_backend(self):
        fleet = make_fleet()
        assert fleet.regions["r"] == {
            "node0": "r@node0", "node1": "r@node1", "node2": "r@node2"
        }
        # One heartbeat row per node-region in the back-end table.
        (hb,) = [e.table for e in fleet.backend.catalog.tables()
                 if e.name == "heartbeat"]
        assert {values[0] for _, values in hb.scan()} == {
            "r@node0", "r@node1", "r@node2"
        }

    def test_unknown_region_rejected(self):
        fleet = make_fleet()
        with pytest.raises(KeyError, match="create_region first"):
            fleet.create_matview("x", "t", ["id"], region="nope")

    def test_node_lookup(self):
        fleet = make_fleet()
        assert fleet.node("node2").name == "node2"
        with pytest.raises(KeyError):
            fleet.node("node9")

    def test_every_node_serves_locally_after_settle(self):
        fleet = make_fleet()
        for node in fleet.nodes:
            result = node.execute(LOOSE)
            assert result.routing == "local"
            assert len(result.rows) == 20


# ----------------------------------------------------------------------
# Outage behavior
# ----------------------------------------------------------------------
class TestOutage:
    def test_loose_bounds_keep_serving_locally(self):
        fleet = make_fleet()
        fleet.network.inject_outage(2.0)
        result = fleet.execute(LOOSE)
        assert result.routing == "local"
        assert result.warnings == []  # guard passed; nothing degraded

    def test_strict_bounds_degrade_with_warning(self):
        fleet = make_fleet()
        fleet.network.stall_agents(10.0)
        fleet.network.inject_outage(10.0)
        fleet.run_for(4.0)  # staleness grows past the strict bound
        result = fleet.execute(STRICT)
        assert result.routing == "local"  # served stale, not errored
        assert any("degraded" in w for w in result.warnings)
        snap = fleet.metrics.snapshot()
        degraded = [k for k in snap if k.startswith("fleet_degraded_total")]
        assert degraded and sum(snap[k] for k in degraded) >= 1

    def test_remote_only_query_rides_out_the_outage(self):
        fleet = make_fleet(reset_timeout=0.5)
        fleet.network.inject_outage(2.0)
        start = fleet.clock.now()
        result = fleet.execute(REMOTE_ONLY)
        # The call retried on the simulated clock until the outage passed.
        assert fleet.clock.now() >= start + 2.0
        assert len(result.rows) == 20
        snap = fleet.metrics.snapshot()
        retries = [k for k in snap if k.startswith("fleet_remote_retries_total")]
        assert retries
        transitions = [k for k in snap if k.startswith("fleet_breaker_transitions_total")]
        assert transitions  # the serving node's breaker opened and recovered
        assert fleet.node(result.node).breaker.state is BreakerState.CLOSED

    def test_remote_only_query_fails_past_max_wait(self):
        fleet = make_fleet(max_remote_wait=1.0, reset_timeout=0.25)
        fleet.network.inject_outage(30.0)
        with pytest.raises(NetworkError):
            fleet.execute(REMOTE_ONLY)

    def test_error_policy_node_still_errors(self):
        from repro.common.errors import CurrencyError

        fleet = make_fleet(fallback_policy="error")
        fleet.network.stall_agents(10.0)
        fleet.network.inject_outage(10.0)
        fleet.run_for(4.0)
        with pytest.raises(CurrencyError):
            fleet.execute(STRICT)


# ----------------------------------------------------------------------
# Dropped packets
# ----------------------------------------------------------------------
class TestDrops:
    def test_retries_absorb_moderate_drop_rate(self):
        fleet = make_fleet()
        fleet.network.drop_rate = 0.5
        result = fleet.execute(REMOTE_ONLY)
        assert len(result.rows) == 20
        snap = fleet.metrics.snapshot()
        ok = [k for k in snap if 'outcome="ok"' in k]
        assert ok


# ----------------------------------------------------------------------
# Driving a fleet with the workload driver
# ----------------------------------------------------------------------
class TestFleetDriver:
    def test_by_node_counts_and_labelled_metrics(self):
        fleet = make_fleet()
        factory = point_lookup_factory("t", "id", (1, 20))
        report = WorkloadDriver(fleet, seed=5).run(
            factory, [600], n_queries=9, think_time=0.1
        )
        assert report.queries == 9
        assert sum(report.by_node.values()) == 9
        assert set(report.by_node) == {"node0", "node1", "node2"}
        # Satellite fix: per-node snapshots under node-labelled keys.
        assert set(report.metrics) == {"fleet", "node0", "node1", "node2"}
        for name in ("node0", "node1", "node2"):
            assert any(
                k.startswith("queries_total") for k in report.metrics[name]
            ), name

    def test_outage_run_completes_with_zero_errors(self):
        fleet = make_fleet(reset_timeout=0.5)
        factory = point_lookup_factory("t", "id", (1, 20))
        fleet.network.inject_outage(2.0)
        fleet.network.stall_agents(2.0)
        report = WorkloadDriver(fleet, seed=9).run(
            factory, [2, 600], n_queries=20, think_time=0.3, raise_errors=False
        )
        assert report.errors == 0
        assert report.queries == 20
        assert report.local_fraction_for(600) == 1.0

    def test_outage_plus_stall_degrades_instead_of_erroring(self):
        # Regression for the lifecycle refactor: an outage combined with
        # stalled agents must still end in stale-with-warning serves (the
        # serve_stale fallback), never raised errors.
        fleet = make_fleet(reset_timeout=0.5)
        fleet.network.stall_agents(10.0)
        fleet.network.inject_outage(10.0)
        fleet.run_for(4.0)  # staleness grows past the strict bound
        factory = point_lookup_factory("t", "id", (1, 20))
        report = WorkloadDriver(fleet, seed=3).run(
            factory, [2], n_queries=10, think_time=0.2, raise_errors=False
        )
        assert report.errors == 0
        assert report.queries == 10
        assert report.warnings >= 1  # explicitly-declared degradation
        snap = fleet.metrics.snapshot()
        degraded = sum(v for k, v in snap.items()
                       if k.startswith("fleet_degraded_total"))
        assert degraded >= 1

    def test_single_cache_metrics_snapshot_unchanged(self):
        from repro.cache.mtcache import MTCache

        backend = make_backend()
        cache = MTCache(backend)
        cache.create_region("r", 4.0, 1.0, heartbeat_interval=0.5)
        cache.create_matview("t_copy", "t", ["id", "v"], region="r")
        cache.run_for(6.0)
        factory = point_lookup_factory("t", "id", (1, 20))
        report = WorkloadDriver(cache, seed=5).run(factory, [600], n_queries=3)
        # Flat registry snapshot, exactly as before the fleet existed.
        assert any(k.startswith("queries_total") for k in report.metrics)
        assert report.by_node == {}


# ----------------------------------------------------------------------
# Capacity ledger
# ----------------------------------------------------------------------
class TestCapacityLedger:
    def test_makespan_shrinks_with_more_nodes(self):
        single = make_fleet(n_nodes=1)
        triple = make_fleet(n_nodes=3)
        factory = point_lookup_factory("t", "id", (1, 20))
        # The ledger charges wall-clock service time, and a lookup bound
        # into a shared template runs in ~15 us: take enough of them, with
        # the collector parked, that one pause cannot outweigh the split.
        gc.collect()
        gc.disable()
        try:
            for fleet in (single, triple):
                fleet.reset_load()
                WorkloadDriver(fleet, seed=2).run(factory, [600], n_queries=600,
                                                 think_time=0)
        finally:
            gc.enable()
        assert single.simulated_makespan() > 0
        # Three nodes split the same work; allow generous scheduling slack.
        assert triple.simulated_makespan() < single.simulated_makespan()

    def test_reset_load_clears_the_ledger(self):
        fleet = make_fleet()
        fleet.execute(LOOSE)
        assert fleet.simulated_makespan() > 0
        fleet.reset_load()
        assert fleet.simulated_makespan() == 0.0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestFleetShell:
    def test_fleet_command_renders_status(self):
        fleet = make_fleet()
        fleet.execute(LOOSE)
        out = io.StringIO()
        shell = Shell(fleet, out=out)
        shell.handle("\\fleet")
        text = out.getvalue()
        assert "policy: round_robin" in text
        assert "node0" in text and "node2" in text
        assert "breaker=closed" in text
        assert "network:" in text

    def test_sql_routes_through_the_fleet(self):
        fleet = make_fleet()
        out = io.StringIO()
        shell = Shell(fleet, out=out)
        shell.handle(LOOSE)
        assert "node: node0" in out.getvalue()

    def test_fleet_command_without_fleet(self):
        from repro.cache.mtcache import MTCache

        cache = MTCache(make_backend())
        out = io.StringIO()
        Shell(cache, out=out).handle("\\fleet")
        assert "no fleet attached" in out.getvalue()
