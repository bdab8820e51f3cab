"""Benchmark: columnar engine throughput + plan-snapshot instantiation (PR 7).

Three measurements on the 2000-row replicated profile table:

* **scan** — the fused scan+filter+project returning 1600 of 2000 rows,
  streamed as column batches.  The acceptance bar is >= 10x the pre-PR-2
  row engine (207.8 qps).
* **point_lookup latency, quiet** — 32 cached guarded point lookups,
  cycled, with a :class:`~repro.obs.metrics.NullRegistry` and the GC
  disabled.  Latency is sampled in batches of 32 queries per timer read
  (single-query samples on a shared 1-CPU box measure scheduler
  preemption, not the engine); the bar is p95 < 15 us.
* **snapshot instantiation** — rebuilding an executable plan from its
  serialized snapshot vs. a full parse+optimize of the same SQL; the bar
  is a >= 5x speedup (the point of shipping snapshots fleet-wide).

Everything lands in ``benchmarks/BENCH_7.json`` (the scan under its
``"columnar"`` key).

Run:  pytest benchmarks/test_bench_columnar_snapshot.py -s
"""

import gc
import statistics
import time

import pytest

from repro.cache.backend import BackendServer
from repro.cache.mtcache import MTCache
from repro.obs.metrics import NullRegistry
from repro.plan import instantiate_snapshot, serialize_plan

#: Throughput of the original row-at-a-time engine on this scan workload,
#: measured before the columnar engine existed; PR 7's bar is >= 10x it.
PRE_PR2_SCAN_QPS = 207.8
SCAN_SPEEDUP_FLOOR = 10.0

POINT_P95_CEILING_US = 15.0
SNAPSHOT_SPEEDUP_FLOOR = 5.0

N_ROWS = 2000
SCAN_QUERIES = 200
POINT_BATCH = 32  # queries per latency sample
POINT_SAMPLES = 400

POINT_SQLS = [
    f"SELECT p.id, p.score FROM profile p WHERE p.id = {k} "
    "CURRENCY BOUND 100 SEC ON (p)"
    for k in range(32)
]
SCAN_SQL = (
    "SELECT p.id, p.name, p.score FROM profile p WHERE p.score < 80 "
    "CURRENCY BOUND 100 SEC ON (p)"
)


def build_cache():
    backend = BackendServer()
    backend.create_table(
        "CREATE TABLE profile (id INT NOT NULL, name VARCHAR NOT NULL, "
        "score INT NOT NULL, PRIMARY KEY (id))"
    )
    for start in range(0, N_ROWS, 100):
        values = ", ".join(
            f"({i}, 'u{i}', {i % 100})" for i in range(start, start + 100)
        )
        backend.execute(f"INSERT INTO profile VALUES {values}")
    backend.refresh_statistics()
    cache = MTCache(backend)
    cache.create_region("r", 8.0, 2.0)
    cache.create_matview("profile_copy", "profile", ["id", "name", "score"],
                         region="r")
    cache.run_for(30.0)
    return cache


def _percentile(sorted_values, fraction):
    index = min(int(len(sorted_values) * fraction), len(sorted_values) - 1)
    return sorted_values[index]


def run_scan(cache, n_queries=SCAN_QUERIES):
    result = cache.execute(SCAN_SQL)  # warm the plan cache
    assert result.routing == "local"
    timer = time.perf_counter
    t0 = timer()
    for _ in range(n_queries):
        cache.execute(SCAN_SQL)
    elapsed = timer() - t0
    return {"qps": n_queries / elapsed, "queries": n_queries}


def test_scan_throughput_per_engine(benchmark, bench7_recorder):
    cache = build_cache()
    stats = benchmark.pedantic(lambda: run_scan(cache), rounds=1, iterations=1)
    stats["speedup_vs_pre_pr2"] = stats["qps"] / PRE_PR2_SCAN_QPS
    bench7_recorder.setdefault("scan", {})["columnar"] = stats
    print(f"\n=== scan: {stats['qps']:.0f} qps "
          f"({stats['speedup_vs_pre_pr2']:.1f}x pre-PR-2) ===")
    assert stats["speedup_vs_pre_pr2"] >= SCAN_SPEEDUP_FLOOR, (
        f"columnar scan {stats['qps']:.0f} qps is only "
        f"{stats['speedup_vs_pre_pr2']:.1f}x the pre-PR-2 baseline "
        f"of {PRE_PR2_SCAN_QPS} qps"
    )


def measure_point_latency(cache):
    """Quiet per-query latency: NullRegistry, GC off, batched sampling."""
    cache.set_metrics(NullRegistry())
    for sql in POINT_SQLS:
        result = cache.execute(sql)
        assert result.routing == "local"
        assert len(result.rows) == 1
    for i in range(1000):  # warm caches and code paths
        cache.execute(POINT_SQLS[i % len(POINT_SQLS)])
    timer = time.perf_counter
    samples = []
    gc.disable()
    try:
        for _ in range(POINT_SAMPLES):
            t0 = timer()
            for i in range(POINT_BATCH):
                cache.execute(POINT_SQLS[i])
            samples.append((timer() - t0) / POINT_BATCH)
    finally:
        gc.enable()
    samples.sort()
    return {
        "p50_us": _percentile(samples, 0.50) * 1e6,
        "p95_us": _percentile(samples, 0.95) * 1e6,
        "mean_us": statistics.mean(samples) * 1e6,
        "samples": POINT_SAMPLES,
        "queries_per_sample": POINT_BATCH,
    }


def test_point_lookup_latency_quiet(benchmark, bench7_recorder):
    cache = build_cache()  # default engine (columnar; tiny plans take the
    # materializing fast path automatically)
    stats = benchmark.pedantic(lambda: measure_point_latency(cache),
                               rounds=1, iterations=1)
    bench7_recorder.setdefault("point_lookup", {})["columnar"] = stats
    print(f"\n=== point_lookup quiet: p50 {stats['p50_us']:.1f}us, "
          f"p95 {stats['p95_us']:.1f}us, mean {stats['mean_us']:.1f}us ===")
    assert stats["p95_us"] < POINT_P95_CEILING_US, (
        f"point-lookup p95 {stats['p95_us']:.1f}us exceeds the "
        f"{POINT_P95_CEILING_US}us ceiling"
    )


def measure_snapshot_speedup(cache, n=300):
    sql = POINT_SQLS[7]
    cache.execute(sql)
    plan = cache.optimize(sql)
    snapshot = serialize_plan(plan)
    timer = time.perf_counter

    t0 = timer()
    for _ in range(n):
        cache.optimize(sql, use_cache=False)
    t_optimize = (timer() - t0) / n

    t0 = timer()
    for _ in range(n):
        instantiate_snapshot(snapshot, cache)
    t_instantiate = (timer() - t0) / n

    replay = instantiate_snapshot(snapshot, cache)
    rows = cache._execute_plan(replay, sql_text=sql).rows
    assert rows == cache.execute(sql).rows, "snapshot replay must agree"
    return {
        "parse_optimize_us": t_optimize * 1e6,
        "instantiate_us": t_instantiate * 1e6,
        "speedup": t_optimize / t_instantiate,
        "iterations": n,
    }


def test_snapshot_instantiation_speedup(benchmark, bench7_recorder):
    cache = build_cache()
    stats = benchmark.pedantic(lambda: measure_snapshot_speedup(cache),
                               rounds=1, iterations=1)
    bench7_recorder["plan_snapshot"] = stats
    print(f"\n=== snapshot: instantiate {stats['instantiate_us']:.0f}us vs "
          f"parse+optimize {stats['parse_optimize_us']:.0f}us "
          f"({stats['speedup']:.1f}x) ===")
    assert stats["speedup"] >= SNAPSHOT_SPEEDUP_FLOOR, (
        f"snapshot instantiation is only {stats['speedup']:.1f}x faster "
        f"than parse+optimize (floor {SNAPSHOT_SPEEDUP_FLOOR}x)"
    )
