"""Tests for repro.history: the run-history recorder and the offline
consistency certifier (DESIGN.md §13).

Covers the recorder's capture points (commits, queries, DML, timeline
brackets, scatter fan-outs, fleet events), the canonical JSONL round
trip and digest determinism, clean certification of the default seeded
chaos schedules, and the three planted anomalies the certifier must
catch: a broken currency guard, a torn scatter-gather snapshot, and a
skipped session floor — each producing exactly its expected Anomaly
kind and nothing else.
"""

import inspect
import io

from repro import BackendServer, FleetConfig, MTCache, Session
from repro.cache import guard
from repro.cache import mtcache as mtcache_module
from repro.chaos import ChaosScheduler, build_demo_fleet, build_ledger_fleet
from repro.cli import run_script
from repro.common.errors import InvariantViolation
from repro.history import (
    ConsistencyCertifier,
    History,
    HistoryRecorder,
    ascii_timeline,
    render_certificates,
)
from repro.history.certify import CHECKS
from repro.semantics import delta_consistency_bound

LEDGER_DDL = (
    "CREATE TABLE ledger (tid INT NOT NULL, leg INT NOT NULL, "
    "account INT NOT NULL, delta INT NOT NULL, PRIMARY KEY (tid, leg))"
)
READ_TID1 = (
    "SELECT l.tid, l.leg, l.account, l.delta FROM ledger l "
    "WHERE l.tid = 1 CURRENCY BOUND 600 SEC ON (l)"
)
READ_TID2 = (
    "SELECT l.tid, l.leg, l.account, l.delta FROM ledger l "
    "WHERE l.tid = 2 CURRENCY BOUND 600 SEC ON (l)"
)
TRANSFER_TID2 = "INSERT INTO ledger VALUES (2, 0, 3, 10), (2, 1, 4, -10)"


def make_recording_cache():
    backend = BackendServer()
    backend.create_table(LEDGER_DDL)
    backend.execute("INSERT INTO ledger VALUES (1, 0, 1, 50), (1, 1, 2, -50)")
    backend.refresh_statistics()
    cache = MTCache(backend, record_history=True)
    cache.create_region("r", 1.0, 0.25, heartbeat_interval=0.5)
    cache.create_matview("ledger_copy", "ledger",
                         ["tid", "leg", "account", "delta"], region="r")
    cache.declare_table_consistency("ledger", "strict")
    cache.run_for(3.0)
    return cache


def make_join_cache():
    """Two views in one region, so a two-table consistency class reads
    two copies of the same snapshot."""
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE books (isbn INT NOT NULL, price INT NOT NULL, "
        "PRIMARY KEY (isbn))"
    )
    backend.create_table(
        "CREATE TABLE reviews (rid INT NOT NULL, isbn INT NOT NULL, "
        "rating INT NOT NULL, PRIMARY KEY (rid))"
    )
    backend.execute("INSERT INTO books VALUES (1, 10), (2, 20)")
    backend.execute("INSERT INTO reviews VALUES (1, 1, 5), (2, 2, 4)")
    backend.refresh_statistics()
    cache = MTCache(backend, record_history=True)
    cache.create_region("br", 2.0, 0.5, heartbeat_interval=0.5)
    cache.create_matview("books_copy", "books", ["isbn", "price"],
                         region="br")
    cache.create_matview("reviews_copy", "reviews",
                         ["rid", "isbn", "rating"], region="br")
    cache.run_for(4.0)
    return cache


JOIN_ONE_CLASS = (
    "SELECT b.isbn, r.rating FROM books b, reviews r "
    "WHERE b.isbn = r.isbn CURRENCY BOUND 600 SEC ON (b, r)"
)


def certify(cache_or_history):
    history = (
        cache_or_history if isinstance(cache_or_history, History)
        else cache_or_history.history.history
    )
    return ConsistencyCertifier(history).certify()


def anomaly_kinds(report):
    return {a.check for a in report.anomalies}


# ----------------------------------------------------------------------
# Recorder capture points
# ----------------------------------------------------------------------
class TestRecorder:
    def test_commits_recorded_per_source(self):
        cache = make_recording_cache()
        cache.execute(TRANSFER_TID2)
        commits = cache.history.history.commits("backend")
        assert commits, "commits after attachment should be observed"
        assert [c["txn"] for c in commits] == sorted(
            c["txn"] for c in commits
        )
        transfer = [c for c in commits if c["tables"] == ["ledger"]]
        assert transfer, "the transfer commit must name its table"
        assert transfer[0]["n_ops"] == 2

    def test_sharded_backend_yields_shard_precise_sources(self):
        config = FleetConfig(nodes=1, partitions=2, record_history=True)
        fleet = config.build()
        backend = fleet.backend
        backend.create_table(
            "CREATE TABLE item (id INT NOT NULL, v INT NOT NULL, "
            "PRIMARY KEY (id))"
        )
        backend.execute(
            "INSERT INTO item VALUES (1, 1), (2, 2), (3, 3), (4, 4), "
            "(5, 5), (6, 6), (7, 7), (8, 8)"
        )
        sources = {
            c["source"] for c in fleet.history.history.commits()
        }
        assert sources == {"p0", "p1"}

    def test_query_record_carries_reads_and_bound(self):
        cache = make_recording_cache()
        result = cache.execute(READ_TID1)
        qid = result.history_qid
        record = cache.history.history.query(qid)
        assert record["bound"] == 600.0
        assert record["routing"] == result.routing
        assert record["rows"] == len(result.rows)
        assert record["snapshots"]
        assert record["reads"], "local serve must capture its reads"
        read = record["reads"][0]
        assert read["view"] == "ledger_copy"
        assert read["table"] == "ledger"
        assert read["region"] == "r"
        assert read["strict"] is True
        assert set(read["sources"]) == {"backend"}
        assert read["sources"]["backend"] >= 1

    def test_dml_record_carries_commit_floors(self):
        cache = make_recording_cache()
        session = Session("writer")
        cache.execute(TRANSFER_TID2, session=session)
        dmls = cache.history.history.by_kind("dml")
        assert len(dmls) == 1
        record = dmls[0]
        assert record["table"] == "ledger"
        assert record["rowcount"] == 2
        assert record["session"] == "writer"
        assert record["commits"] == [
            ["backend", session.floors["backend"]]
        ]

    def test_timeline_bracket_recorded(self):
        cache = make_recording_cache()
        cache.execute("BEGIN TIMEORDERED")
        cache.execute(READ_TID1)
        cache.execute("END TIMEORDERED")
        events = [
            r["event"] for r in cache.history.history.by_kind("timeline")
        ]
        assert events == ["begin", "end"]

    def test_disabled_recorder_freezes_the_history(self):
        cache = make_recording_cache()
        before = len(cache.history.history)
        cache.history.enabled = False
        cache.execute(READ_TID1)
        assert len(cache.history.history) == before
        cache.history.enabled = True
        cache.execute(READ_TID1)
        assert len(cache.history.history) > before

    def test_recording_off_by_default(self):
        backend = BackendServer()
        backend.create_table(LEDGER_DDL)
        cache = MTCache(backend)
        assert cache.history is None

    def test_scatter_record_references_leg_qids(self):
        fleet, history = _sharded_item_fleet()
        scatters = history.by_kind("scatter")
        assert len(scatters) == 1
        scatter = scatters[0]
        assert len(scatter["legs"]) == len(scatter["shards"]) == 2
        for qid in scatter["legs"]:
            leg = history.query(qid)
            assert leg["reads"]
        assert scatter["rows"] == 8


def _sharded_item_fleet():
    """A 2-shard fleet plus one executed scatter-gather query; returns
    ``(fleet, history)``."""
    fleet = FleetConfig(nodes=2, partitions=2, record_history=True).build()
    backend = fleet.backend
    backend.create_table(
        "CREATE TABLE item (id INT NOT NULL, v INT NOT NULL, "
        "PRIMARY KEY (id))"
    )
    backend.execute(
        "INSERT INTO item VALUES (1, 1), (2, 2), (3, 3), (4, 4), "
        "(5, 5), (6, 6), (7, 7), (8, 8)"
    )
    backend.refresh_statistics()
    fleet.create_region("r", 1.0, 0.25, heartbeat_interval=0.5)
    fleet.create_matview("item_copy", "item", ["id", "v"], region="r")
    fleet.run_for(3.0)
    result = fleet.execute(
        "SELECT i.id, i.v FROM item i "
        "WHERE i.id IN (1, 2, 3, 4, 5, 6, 7, 8) "
        "CURRENCY BOUND 600 SEC ON (i)"
    )
    assert len(result.shard_results) == 2
    return fleet, fleet.history.history


# ----------------------------------------------------------------------
# Serialization: canonical JSONL + digests
# ----------------------------------------------------------------------
class TestSerialization:
    def test_jsonl_round_trip(self):
        cache = make_recording_cache()
        cache.execute(READ_TID1)
        history = cache.history.history
        loaded = History.from_jsonl(history.to_jsonl())
        assert loaded.records == history.records
        assert loaded.digest() == history.digest()

    def test_dump_and_load(self, tmp_path):
        cache = make_recording_cache()
        cache.execute(READ_TID1)
        history = cache.history.history
        path = tmp_path / "history.jsonl"
        digest = history.dump(path)
        assert digest == history.digest()
        assert History.load(path).digest() == digest

    def test_identical_runs_identical_digests(self):
        digests = []
        for _ in range(2):
            cache = make_recording_cache()
            session = Session("writer")
            cache.execute(TRANSFER_TID2, session=session)
            cache.run_for(2.0)
            cache.execute(READ_TID2, session=session)
            digests.append(cache.history.history.digest())
        assert digests[0] == digests[1]

    def test_empty_history_serializes_empty(self):
        history = History()
        assert history.to_jsonl() == ""
        assert History.from_jsonl("").records == []


# ----------------------------------------------------------------------
# Clean certification of the default seeded chaos schedules
# ----------------------------------------------------------------------
class TestCleanCertification:
    def test_sharded_lookup_chaos_certifies_clean(self):
        fleet = build_demo_fleet(partitions=2, record_history=True)
        chaos = ChaosScheduler(fleet, seed=11)
        chaos.random_schedule(20.0)
        report = chaos.run(20.0)
        assert report.certification is not None
        assert report.certification["anomalies"] == 0
        assert set(report.certification["checks"]) == set(CHECKS)
        assert report.certification["checks"]["currency_bound"]["checked"] > 0
        # the verdict lands in the fleet event log (and the run history)
        assert any(
            e.kind == "certify" and e.severity == "info"
            for e in fleet.metrics.events
        )
        assert "certification" in report.summary()

    def test_ledger_chaos_certifies_clean_with_session_coverage(self):
        fleet, workload = build_ledger_fleet(record_history=True)
        chaos = ChaosScheduler(fleet, seed=23)
        chaos.random_schedule(20.0)
        report = chaos.run(20.0, workload=workload)
        assert report.certification["anomalies"] == 0
        checks = report.certification["checks"]
        assert checks["session_ryw"]["checked"] > 0
        assert checks["monotonic_reads"]["checked"] > 0

    def test_unrecorded_run_has_no_certification(self):
        fleet = build_demo_fleet()
        chaos = ChaosScheduler(fleet, seed=11)
        chaos.random_schedule(10.0)
        report = chaos.run(10.0)
        assert report.certification is None
        assert "certification" not in report.summary()


# ----------------------------------------------------------------------
# Planted anomalies: each must fire exactly its own check
# ----------------------------------------------------------------------
def plant(monkeypatch, **overrides):
    """Plant a broken guard: the ``decide`` the selector calls sees each
    named input replaced by ``override(inputs)``."""
    signature = inspect.signature(guard.decide)

    def broken_decide(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        inputs = dict(bound.arguments)
        for name, override in overrides.items():
            bound.arguments[name] = override(inputs)
        return guard.decide(*bound.args, **bound.kwargs)

    monkeypatch.setattr(mtcache_module, "decide", broken_decide)


class TestPlantedAnomalies:
    def test_broken_guard_is_caught_by_currency_bound(self, monkeypatch):
        cache = make_recording_cache()
        # A guard that never probes the heartbeat: it vouches for the
        # local snapshot no matter how stale it is.
        plant(monkeypatch, heartbeat_ts=lambda inputs: inputs["now"])
        cache.clock.advance(1000.0)  # replica is now ~1000s stale
        result = cache.execute(READ_TID1)  # bound: 600s
        assert result.routing == "local"
        assert not result.warnings  # silently wrong — the certifier's case
        report = certify(cache)
        assert anomaly_kinds(report) == {"currency_bound"}
        (anomaly,) = report.anomalies
        assert anomaly.qid == result.history_qid
        assert anomaly.attrs["staleness"] > anomaly.attrs["bound"] == 600.0

    def test_torn_scatter_snapshot_is_caught_by_snapshot_consistency(self):
        fleet, history = _sharded_item_fleet()
        assert certify(history).ok  # clean before the plant
        scatter = history.by_kind("scatter")[0]
        leg = history.query(scatter["legs"][0])
        # Plant the tear: the leg suddenly vouches for a second copy of
        # the same table at a different snapshot (identical sync points,
        # so Δ-consistency stays clean — the *snapshot* is what tore).
        torn = dict(leg["reads"][0])
        torn["snapshot"] = torn["snapshot"] + 5.0
        leg["reads"].append(torn)
        report = certify(history)
        assert anomaly_kinds(report) == {"snapshot_consistency"}
        (anomaly,) = report.anomalies
        assert anomaly.qid == leg["qid"]
        assert anomaly.attrs["spread"] == 5.0

    def test_skipped_session_floor_is_caught_by_session_ryw(self, monkeypatch):
        cache = make_recording_cache()
        # The floor check claims every floor is satisfied, so the guard
        # serves the strict read locally before the agent has applied
        # the session's own write.
        plant(monkeypatch, session_floors=lambda inputs: {})
        session = Session("writer")
        cache.execute(TRANSFER_TID2, session=session)
        result = cache.execute(READ_TID2, session=session)
        assert result.routing == "local"
        report = certify(cache)
        assert anomaly_kinds(report) == {"session_ryw"}
        (anomaly,) = report.anomalies
        assert anomaly.attrs["source"] == "backend"
        assert anomaly.attrs["applied"] < anomaly.attrs["floor"]
        assert anomaly.attrs["session"] == "writer"


# ----------------------------------------------------------------------
# Satellite: repro.cc / repro.semantics properties from recorded history
# ----------------------------------------------------------------------
class TestRecordedHistoryProperties:
    def test_delta_consistency_over_recorded_sync_points(self):
        cache = make_join_cache()
        result = cache.execute(JOIN_ONE_CLASS)
        record = cache.history.history.query(result.history_qid)
        assert record["classes"] == [["books", "reviews"]]
        assert len(record["reads"]) == 2
        # Both copies were read at the same applied-txn sync point, so
        # the appendix's Δ-consistency distance over the recorded points
        # is exactly 0 — and the certifier agrees.
        points = [r["sources"]["backend"] for r in record["reads"]]
        assert delta_consistency_bound(points) == 0
        cert = certify(cache).certificate("delta_consistency")
        assert cert.checked >= 1 and cert.ok

    def test_delta_drift_in_recorded_history_is_flagged(self):
        cache = make_join_cache()
        result = cache.execute(JOIN_ONE_CLASS)
        record = cache.history.history.query(result.history_qid)
        # Drift one copy two transactions behind its sibling: Δ = 2.
        record["reads"][0]["sources"]["backend"] -= 2
        points = [r["sources"]["backend"] for r in record["reads"]]
        assert delta_consistency_bound(points) == 2
        report = certify(cache)
        assert anomaly_kinds(report) == {"delta_consistency"}
        (anomaly,) = report.anomalies
        assert anomaly.attrs["delta"] == 2

    def test_recorded_timeline_bracket_replays_through_cc_session(self):
        from repro.cc.timeline import TimelineSession

        cache = make_recording_cache()
        cache.execute("BEGIN TIMEORDERED")
        cache.execute(READ_TID1)
        cache.run_for(2.0)
        cache.execute(READ_TID1)
        cache.execute("END TIMEORDERED")
        history = cache.history.history
        # Replaying the recorded snapshots through the live TIMEORDERED
        # semantics (repro.cc) accepts every read the bracket served.
        timeline = TimelineSession()
        for record in history:
            if record["kind"] == "timeline":
                timeline.begin() if record["event"] == "begin" \
                    else timeline.end()
                continue
            if record["kind"] != "query" or not timeline.active:
                continue
            for snapshot in record["snapshots"]:
                assert timeline.admits(snapshot)
                timeline.observe(snapshot)
        cert = certify(cache).certificate("timeline")
        assert cert.details["brackets"] == 1
        assert cert.checked >= 2 and cert.ok

    def test_regressing_snapshot_inside_bracket_is_flagged(self):
        history = History()
        history.append({"kind": "timeline", "node": "cache",
                        "event": "begin", "time": 0.0})
        history.append(_query_record(1, time=1.0, snapshots=[10.0]))
        history.append(_query_record(2, time=2.0, snapshots=[5.0]))
        report = ConsistencyCertifier(history).certify()
        assert anomaly_kinds(report) == {"timeline"}
        (anomaly,) = report.anomalies
        assert anomaly.qid == 2
        assert anomaly.attrs["watermark"] == 10.0

    def test_monotonic_reads_reset_on_lifecycle_event(self):
        read = {"view": "v", "table": "t", "region": "r", "shard": None,
                "strict": False, "sources": {"backend": 3}}
        regress = [
            _query_record(1, time=1.0, snapshots=[10.0], session="s",
                          reads=[dict(read, snapshot=10.0)]),
            _query_record(2, time=2.0, snapshots=[5.0], session="s",
                          reads=[dict(read, snapshot=5.0)]),
        ]
        # Bare regression: an anomaly...
        report = ConsistencyCertifier(History(list(regress))).certify()
        assert anomaly_kinds(report) == {"monotonic_reads"}
        # ...but a node rebuild between the reads excuses it (a restarted
        # replica is a new copy; the series restarts).
        rebuilt = History([
            regress[0],
            {"kind": "event", "event": "lifecycle", "severity": "info",
             "message": "node up", "time": 1.5, "attrs": {"node": "cache"}},
            regress[1],
        ])
        report = ConsistencyCertifier(rebuilt).certify()
        assert report.certificate("monotonic_reads").ok
        assert report.certificate("monotonic_reads").details[
            "replica_resets"] == 1


def _query_record(qid, *, time, snapshots, session=None, reads=None):
    return {
        "kind": "query", "qid": qid, "node": "cache", "time": time,
        "sql": "SELECT 1", "bound": None, "classes": [], "routing": "local",
        "snapshots": snapshots, "reads": reads or [], "branches": [],
        "warnings": 0, "remote_queries": 0, "session": session,
        "floors": {"backend": 1} if session else None, "rows": 1,
    }


# ----------------------------------------------------------------------
# Satellite: session guards in slo_report and \events; grouped violations
# ----------------------------------------------------------------------
class TestObservabilitySatellites:
    def test_slo_report_session_guards(self):
        fleet = FleetConfig(nodes=2).build()
        backend = fleet.backend
        backend.create_table(LEDGER_DDL)
        backend.execute(
            "INSERT INTO ledger VALUES (1, 0, 1, 50), (1, 1, 2, -50)"
        )
        backend.refresh_statistics()
        fleet.create_region("r", 1.0, 0.25, heartbeat_interval=0.5)
        fleet.create_matview("ledger_copy", "ledger",
                             ["tid", "leg", "account", "delta"], region="r")
        fleet.declare_table_consistency("ledger", "strict")
        fleet.run_for(3.0)
        session = Session("writer")
        fleet.execute(TRANSFER_TID2, session=session)
        fleet.execute(READ_TID2, session=session)
        fleet.run_for(3.0)
        fleet.execute(READ_TID2, session=session)
        report = fleet.slo_report()
        assert "session_guards" in report
        totals = {}
        for node_counts in report["session_guards"].values():
            for outcome, n in node_counts.items():
                totals[outcome] = totals.get(outcome, 0) + n
        assert sum(totals.values()) >= 2
        assert set(totals) <= {"local", "remote"}

    def test_events_command_summarizes_session_guards(self):
        cache = make_recording_cache()
        session = Session("writer")
        cache.execute(TRANSFER_TID2, session=session)
        cache.execute(READ_TID2, session=session)
        out = io.StringIO()
        run_script(cache, ["\\events"], out=out)
        text = out.getvalue()
        assert "session guards:" in text
        assert "remote=" in text

    def test_events_command_without_session_guards_stays_quiet(self):
        cache = make_recording_cache()
        cache.execute(READ_TID1)
        out = io.StringIO()
        run_script(cache, ["\\events"], out=out)
        assert "session guards:" not in out.getvalue()

    def test_chaos_summary_groups_violations_by_check(self):
        fleet = build_demo_fleet()
        chaos = ChaosScheduler(fleet, seed=11)
        chaos.random_schedule(10.0)
        report = chaos.run(10.0)
        assert report.summary()["invariant_violations_by_check"] == {}
        report.violations.extend([
            InvariantViolation("currency_bound", "planted"),
            InvariantViolation("currency_bound", "planted again"),
            InvariantViolation("convergence", "planted"),
        ])
        summary = report.summary()
        assert summary["invariant_violations"] == 3
        assert summary["invariant_violations_by_check"] == {
            "convergence": 1, "currency_bound": 2,
        }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
class TestRendering:
    def test_render_certificates_marks_verdicts(self):
        cache = make_recording_cache()
        cache.execute(READ_TID1)
        lines = render_certificates(certify(cache))
        text = "\n".join(lines)
        assert "[ok  ] currency_bound" in text
        for check in CHECKS:
            assert check in text

    def test_ascii_timeline_draws_lanes(self):
        cache = make_recording_cache()
        cache.execute(READ_TID1)
        lines = ascii_timeline(cache.history.history)
        text = "\n".join(lines)
        assert "commits backend" in text
        assert "queries" in text
