"""The benchmark's fixed vocabulary: workloads, metrics, bounds, sizing.

``BENCHMARK.json`` at the repo root repeats the part of this table the
driver's contract has a place for (the end-to-end metrics every workload
reports, with their relative bounds, and the per-layer names); ``python -m
bench selftest`` checks the two agree.
"""

from collections import namedtuple
from pathlib import Path

#: The checkout: ``bench/`` sits next to ``src/`` and ``BENCHMARK.json``.
ROOT = Path(__file__).resolve().parent.parent
#: Result files and span dumps; ignores everything in it.
RESULTS = Path(__file__).resolve().parent / "results"

#: Timed trials per measured run; every timing metric is the median across
#: them.  Cut ops per trial to fit a budget, never this.
TRIALS = 9
#: Environments built (and warmed) per measured run, each driven for
#: ``TRIALS / SETUPS`` of the trials; ``setup_s`` is the median.
SETUPS = 3
#: ``--seconds`` the per-trial op counts below were sized for on a 2-core
#: container (sizing aid, not a baseline): 9 trials of ~1.1 s.
SIZING_SECONDS = 10
#: Reference-loop drift beyond which a workload's timings are flagged noisy.
NOISY_REF_DRIFT = 0.15
#: Samples a percentile needs beyond it to be reported.
TAIL_MIN_BEYOND = 10

Workload = namedtuple(
    "Workload", "name why ops_per_trial warmup_ops round_size tail_pct local_band"
)

#: ``ops_per_trial``/``warmup_ops`` count statements; an op is ``round_size``
#: statements.  ``local_band`` is the frozen range ``local_frac`` must stay in.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lookup_hot",
            "64 plan-resident guarded point lookups, frozen clock: cache dispatch + "
            "guard + tiny-plan engine path; bypasses parser, optimizer, back-end, replication",
            26000, 2000, 1, 99.0, (1.0, 1.0),
        ),
        Workload(
            "lookup_adhoc",
            "same lookups over ~3000 keys, working set >> 128-entry plan cache: every op "
            "pays parse + optimize + plan-cache evict; bypasses back-end and replication",
            1000, 300, 1, 99.0, (1.0, 1.0),
        ),
        Workload(
            "guard_sweep",
            "16 keys x 6 currency bounds on CR1 with simulated think time: SwitchUnion "
            "flips local/remote along the currency sawtooth; replication runs in background",
            4400, 960, 1, 99.0, (0.60, 0.85),
        ),
        Workload(
            "tpcd_mix",
            "one op = a round of Table 4.3 Q1-Q7 + gq3, plan-resident: engine operators and "
            "row shipping dominate; bypasses parser, optimizer and replication",
            128, 24, 8, 90.0, (0.5, 0.5),
        ),
        Workload(
            "fleet_ledger",
            "3-node fleet over 2 shards x 1 replica, strict ledger + relaxed accounts, 10% "
            "transfers with read-your-writes: writes beside reads through every layer",
            360, 150, 1, 95.0, (0.60, 0.85),
        ),
    )
}

Metric = namedtuple("Metric", "name unit better bound kind timing contract")

#: The ten end-to-end metrics.  ``bound`` is how far a metric may worsen
#: before ``compare`` calls it regressed: a share of the base (``rel``) or an
#: absolute step (``abs``).  ``timing`` metrics are wall-clock and carry a
#: run-to-run spread; the rest are simulated-time or count based and repeat
#: exactly per seed.  ``contract`` metrics apply to every workload and are
#: never 0, so they are the ``end_to_end`` list of ``BENCHMARK.json``; the
#: other four are emitted with the per-layer set (0 where not applicable).
#:
#: The timing bounds are three times the widest spread (inter-quartile, over
#: ten runs on ten seeds) seen on the sizing container: 1.5-4 % for
#: ``ops_per_s`` and ``lat_p50_us`` when the host was quiet and 5-10 % when it
#: was not (and twice as slow for minutes now and then); the tail spread
#: 3-18 % and is capped at the contract's 25 %.  ``local_frac`` repeats
#: exactly on one seed; its bound covers its 0.7 % spread across seeds.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, "rel", True, True),
    Metric("ops_per_s", "1/s", "higher", 0.15, "rel", True, True),
    Metric("lat_p50_us", "us", "lower", 0.15, "rel", True, True),
    Metric("lat_tail_us", "us", "lower", 0.25, "rel", True, True),
    Metric("write_lat_p50_us", "us", "lower", 0.15, "rel", True, False),
    Metric("failed_frac", "ratio", "lower", 0.0, "abs", False, False),
    Metric("local_frac", "ratio", "higher", 0.03, "rel", False, True),
    Metric("backend_rows_per_op", "rows", "lower", 0.01, "rel", False, False),
    Metric("staleness_p95_sim_s", "sim_s", "lower", 0.01, "rel", False, False),
    Metric("peak_rss_mb", "MB", "lower", 0.10, "rel", False, True),
)

TPCD_LABELS = ("q1", "q2", "q3", "q4", "q5", "q6", "q7", "gq3")

#: Per-layer metrics (layer = module under ``src/repro/``): (name, unit, better).
PER_LAYER = (
    ("sql.parse_us", "us", "lower"),
    ("sql.parses_per_op", "count", "lower"),
    ("optimizer.optimize_us", "us", "lower"),
    ("optimizer.candidates_per_optimize", "count", "lower"),
    ("optimizer.guard_p_abs_err", "ratio", "lower"),
    ("plan.snapshot_instantiate_us", "us", "lower"),
    ("plan.snapshot_hit_frac", "ratio", "higher"),
    ("cache.plan_cache_hit_frac", "ratio", "higher"),
    ("cache.plan_cache_evictions_per_op", "count", "lower"),
    ("cache.dispatch_self_us", "us", "lower"),
    ("cache.guard_pass_frac", "ratio", "higher"),
    *((f"cache.stmt_us.{label}", "us", "lower") for label in TPCD_LABELS),
    ("engine.execute_self_us", "us", "lower"),
    ("engine.setup_us", "us", "lower"),
    ("engine.run_us", "us", "lower"),
    ("engine.shutdown_us", "us", "lower"),
    ("engine.rows_per_op", "rows", "lower"),
    ("engine.us_per_row", "us", "lower"),
    ("backend.remote_query_us", "us", "lower"),
    ("backend.remote_calls_per_op", "count", "lower"),
    ("backend.dml_us", "us", "lower"),
    ("txn.commit_us", "us", "lower"),
    ("txn.commits_per_op", "count", "lower"),
    ("replication.propagate_busy_frac", "ratio", "lower"),
    ("replication.us_per_record", "us", "lower"),
    ("replication.refreshes_per_op", "count", "lower"),
    ("common.run_for_busy_frac", "ratio", "lower"),
    ("fleet.route_self_us", "us", "lower"),
    ("fleet.net_call_self_us", "us", "lower"),
    ("fleet.net_calls_per_op", "count", "lower"),
    ("fleet.retries_per_op", "count", "lower"),
    ("fleet.scatter_legs_per_op", "count", "lower"),
    ("shard.route_self_us", "us", "lower"),
    ("shard.single_route_frac", "ratio", "higher"),
    ("shard.replica_tail_busy_frac", "ratio", "lower"),
    ("session.floor_remote_frac", "ratio", "lower"),
    ("obs.overhead_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("bench.layer_sum_frac", "ratio", "higher"),
    ("bench.ref_loop_ns", "ns", "lower"),
)

#: Per-layer metrics that are counts or simulated-time: they must repeat
#: exactly for one (workload, seed).
DETERMINISTIC_LAYER = (
    "sql.parses_per_op",
    "optimizer.candidates_per_optimize",
    "optimizer.guard_p_abs_err",
    "plan.snapshot_hit_frac",
    "cache.plan_cache_hit_frac",
    "cache.plan_cache_evictions_per_op",
    "cache.guard_pass_frac",
    "engine.rows_per_op",
    "backend.remote_calls_per_op",
    "txn.commits_per_op",
    "replication.refreshes_per_op",
    "fleet.net_calls_per_op",
    "fleet.retries_per_op",
    "fleet.scatter_legs_per_op",
    "shard.single_route_frac",
    "session.floor_remote_frac",
)


def contract_per_layer():
    """Names a ``--trace 1`` run emits: the per-layer set plus the
    end-to-end metrics that do not apply to every workload."""
    extra = tuple((m.name, m.unit, m.better) for m in END_TO_END if not m.contract)
    return extra + PER_LAYER
