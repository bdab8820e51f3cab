"""``python -m bench selftest``: checks of the harness itself.  No timing
assertions; under 30 s."""

import hashlib
import json

from bench import compare, harness, spec, trace, workloads


def stream_digest(name, seed, n=400):
    """Digest of the first ``n`` statements and think times of a stream."""
    stmts, thinks = workloads.make(name, seed).take(n)
    digest = hashlib.sha256()
    for i, stmt in enumerate(stmts):
        digest.update(f"{stmt.sql}|{thinks[i] if thinks else 0!r}\n".encode())
    return digest.hexdigest()


def check_streams():
    for name in spec.WORKLOADS:
        assert stream_digest(name, 7) == stream_digest(name, 7), name
        if name != "tpcd_mix":  # fixed order: its stream ignores the seed
            assert stream_digest(name, 7) != stream_digest(name, 8), name


def check_determinism():
    """Two quick runs of one seed: every count and simulated-time metric
    repeats exactly (on the two workloads whose state evolves)."""
    exact = ("local_frac", "backend_rows_per_op", "staleness_p95_sim_s", "failed_frac")
    for name in ("guard_sweep", "fleet_ledger"):
        first = harness.measure(name, 5, spec.SIZING_SECONDS, quick=True)
        second = harness.measure(name, 5, spec.SIZING_SECONDS, quick=True)
        assert first["correct"] and second["correct"], (name, first["failures"])
        for metric in exact:
            a = first["end_to_end"][metric]["value"]
            b = second["end_to_end"][metric]["value"]
            assert a == b, (name, metric, a, b)
        assert set(first["per_layer"]) <= set(spec.DETERMINISTIC_LAYER)
        assert first["per_layer"] == second["per_layer"], name


def check_self_times():
    # root[0..100] { a[10..40] { c[20..30] }  b[50..90] }  and a sibling root.
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 40, 0, 0),
        ("c", 20, 30, 1, 0),
        ("b", 50, 90, 0, 0),
        ("root", 200, 260, -1, -1),
    ]
    assert trace.self_times(spans) == [30, 20, 10, 40, 60]
    agg = trace.totals(spans)
    assert agg["root"] == {"count": 2, "dur_ns": 160, "self_ns": 90, "op_self_ns": 30}
    # Self times inside statements add up to the statement's root span.
    assert sum(a["op_self_ns"] for a in agg.values()) == 100

    recorder = trace.Recorder()
    inner = recorder.wrap("inner", lambda: 1)
    outer = recorder.wrap("outer", lambda: inner() + inner())
    assert outer() == 2 and recorder.spans() == []  # disabled: nothing recorded
    recorder.enabled = True
    recorder.op_id = 3
    outer()
    names = [(name, parent, op_id) for name, _, _, parent, op_id in recorder.spans()]
    assert names == [("outer", -1, 3), ("inner", 0, 3), ("inner", 0, 3)]


def check_tail_rule():
    assert harness.supported_tail(1000, 99.0) == 99.0  # exactly 10 beyond
    assert harness.supported_tail(999, 99.0) < 99.0
    assert harness.supported_tail(180, 90.0) == 90.0
    assert harness.supported_tail(360, 99.0) == 100.0 * (1 - 10 / 360)
    assert harness.supported_tail(12, 99.0) == 50.0
    assert harness.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 90.0) == 9


def check_compare():
    by_name = {m.name: m for m in spec.END_TO_END}
    ops, p50, failed = by_name["ops_per_s"], by_name["lat_p50_us"], by_name["failed_frac"]

    def entry(value, iqr=0.0):
        return {"value": value, "q1": value - iqr / 2, "q3": value + iqr / 2}

    assert compare.verdict(ops, entry(100), entry(95), 0.10)[0] == "same"
    assert compare.verdict(ops, entry(100), entry(85), 0.10)[0] == "regressed"
    assert compare.verdict(ops, entry(100), entry(115), 0.10)[0] == "improved"
    assert compare.verdict(p50, entry(100), entry(115), 0.10)[0] == "regressed"
    assert compare.verdict(p50, entry(100), entry(85), 0.10)[0] == "improved"
    # A spread wider than the bound, or a noisy workload, resolves nothing.
    assert compare.verdict(ops, entry(100, iqr=12), entry(85), 0.10)[0] == "unresolved"
    assert compare.verdict(ops, entry(100), entry(85, iqr=10), 0.10)[0] == "unresolved"
    assert compare.verdict(ops, entry(100), entry(85), 0.10, noisy=True)[0] == "unresolved"
    # Counts are never noisy; failed_frac may not rise at all.
    assert compare.verdict(failed, {"value": 0.0}, {"value": 0.001}, 0.0, True)[0] == "regressed"
    assert compare.verdict(failed, {"value": 0.0}, {"value": 0.0}, 0.0)[0] == "same"


def check_manifest():
    """``BENCHMARK.json`` repeats the spec table, and stays inside the
    driver's limits."""
    manifest = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(spec.WORKLOADS)
    listed = [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]]
    assert listed == [(m.name, m.unit, m.better, m.bound)
                      for m in spec.END_TO_END if m.contract]
    assert all(m.kind == "rel" and m.bound <= 0.25 for m in spec.END_TO_END if m.contract)
    layers = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    assert layers == list(spec.contract_per_layer())
    assert manifest["paths"] == ["bench"] and manifest["run_seconds"] == spec.SIZING_SECONDS
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])


def main():
    for check in (check_manifest, check_tail_rule, check_self_times, check_compare,
                  check_streams, check_determinism):
        check()
        print(f"ok  {check.__name__}")
    print("selftest passed")
    return 0
