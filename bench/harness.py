"""The closed loop, its measurements and the result schema.

One process, one thread, one client: a statement is sent only after the
previous one returned.  Latency is the ``execute`` call alone; throughput
is statements over the trial's wall time, simulated think time
(``run_for``, where replication and heartbeats run) included.  The program
runs in the configuration a user gets: ``MetricsRegistry`` on, GC on,
columnar engine, no knobs.
"""

import gc
import math
import os
import platform
import resource
import statistics
import subprocess
from array import array
from time import perf_counter, perf_counter_ns

from repro import NullRegistry, ReproError, guard_probability, parse
from repro.sql import ast

from bench import spec, trace, workloads


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------
def percentile(ordered, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_tail(n, pct):
    """``pct`` if ``n`` samples leave at least ``TAIL_MIN_BEYOND`` beyond
    it, else the highest percentile that does (the median at worst)."""
    if n * (100.0 - pct) / 100.0 >= spec.TAIL_MIN_BEYOND:
        return pct
    return max(50.0, 100.0 * (1.0 - spec.TAIL_MIN_BEYOND / n)) if n else 50.0


def spread(values, per_env=None):
    """Median, quartiles and count of per-trial values.  With ``per_env``
    (trials listed environment by environment) the quartiles are taken
    after removing each trial position's own level, so they measure noise
    and not the drift every environment repeats from its first trial to
    its last."""
    center = statistics.median(values)
    levelled = values
    if per_env and len(values) > per_env:
        levelled = []
        for position in range(per_env):
            group = values[position::per_env]
            level = statistics.median(group)
            levelled += [v - level + center for v in group]
    if len(levelled) >= 2:
        q1, _, q3 = statistics.quantiles(levelled, n=4)
    else:
        q1 = q3 = center
    return {"value": center, "q1": q1, "q3": q3, "n": len(values), "trials": values}


def ref_loop_ns():
    """Machine-speed stamp: ns per step of a fixed pure-Python loop, best
    of 7.  The loop reads one 4 MB buffer at pseudo-random offsets (past the
    private caches, and independent of where the heap put anything), so it
    slows down with a neighbour that contends for cache or memory as well
    as with one that takes the core.  For reading numbers across machines
    and for the noise flag; never a divisor in a gated metric."""
    mask = (1 << 19) - 1
    buffer = array("q", bytes(8 * (mask + 1)))
    steps = 100_000
    best = None
    for _ in range(7):
        start = perf_counter_ns()
        acc = i = 0
        for _ in range(steps):
            acc += buffer[i]
            i = (i * 1103515245 + 12345) & mask
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / steps


def drifted(ref_before, ref_after):
    """Whether the machine changed speed under the workload."""
    return abs(ref_after - ref_before) / ref_before > spec.NOISY_REF_DRIFT


def stamp(seed, seconds, quick):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "gc_enabled": gc.isenabled(),
        "gc_threshold": list(gc.get_threshold()),
        "trials": 1 if quick else spec.TRIALS,
    }


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def counts(wl):
    """Every counter series of the workload's public registries, summed
    across registries, plus the workload's non-registry counters."""
    totals = dict(wl.extra_counts())
    for registry in wl.registries():
        for series, value in registry.snapshot().items():
            if isinstance(value, (int, float)):
                totals[series] = totals.get(series, 0) + value
    return totals


def delta(after, before):
    return {k: v - before.get(k, 0) for k, v in after.items()}


def summed_counters(trials):
    """The trials' counter deltas added up."""
    total = {}
    for trial in trials:
        for key, value in trial["counters"].items():
            total[key] = total.get(key, 0) + value
    return total


def pick(series, family, *fragments):
    """Sum of the family's series whose labels contain every fragment."""
    return sum(
        value for name, value in series.items()
        if (name == family or name.startswith(family + "{"))
        and all(fragment in name for fragment in fragments)
    )


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
def run_trial(wl, n_stmts, recorder, record=False, op_base=0):
    """Run the next ``n_stmts`` statements of the stream; returns the
    trial's record (latencies in ns, wall time, tallies, counter deltas)."""
    stmts, thinks = wl.take(n_stmts)
    wl.begin_trial()
    before = counts(wl)
    failed_before = wl.n_failed
    execute, observe, run_for = wl.execute, wl.observe, wl.run_for
    lat = []
    append = lat.append
    now = perf_counter_ns
    recorder.enabled = record
    start = now()
    for i, stmt in enumerate(stmts):
        recorder.op_id = op_base + i
        t0 = now()
        error = None
        try:
            result = execute(stmt)
        except ReproError as exc:
            error = exc
        t1 = now()
        recorder.op_id = -1
        append(t1 - t0)
        if error is None:
            observe(stmt, result)
        else:
            wl.fail(stmt, f"raised {error!r}")
        if thinks is not None and thinks[i]:
            run_for(thinks[i])
    wall_ns = now() - start
    recorder.enabled = False
    counters = delta(counts(wl), before)
    wl.end_trial()
    return {
        "stmts": stmts,
        "lat_ns": lat,
        "wall_ns": wall_ns,
        "reads": wl.reads,
        "local_reads": wl.local_reads,
        "remote_calls": wl.remote_calls,
        "backend_rows": wl.backend_rows,
        "staleness": wl.staleness,
        "by_bound": wl.by_bound,
        "failed": wl.n_failed - failed_before,
        "counters": counters,
    }


def set_up(name, seed, n_warmup, recorder):
    """Build + load + settle + warm up one environment; returns it with
    the wall seconds that took."""
    start = perf_counter()
    wl = workloads.make(name, seed)
    wl.build()
    run_trial(wl, n_warmup, recorder)
    return wl, perf_counter() - start


def op_latencies(trial, round_size):
    """Per-op latency in ns: a statement, or the sum over a round."""
    lat = trial["lat_ns"]
    if round_size == 1:
        return lat
    return [sum(lat[i:i + round_size]) for i in range(0, len(lat), round_size)]


def sizes(workload, seconds, quick):
    """(statements per trial, warm-up statements) for this run length."""
    scale = seconds / spec.SIZING_SECONDS * (0.1 if quick else 1.0)
    rounds = max(1, round(workload.ops_per_trial * scale / workload.round_size))
    return rounds * workload.round_size, workload.warmup_ops


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(workload, trials, setups, failed, attempted, per_env=None):
    """The end-to-end metrics of one workload from its trial records.
    Timing metrics are medians across trials with their quartiles; the
    rest are counts over all trials."""
    size = workload.round_size
    per_trial_ops = [op_latencies(t, size) for t in trials]
    pooled = sorted(x for ops in per_trial_ops for x in ops)
    n_ops = len(pooled)
    out = {
        "setup_s": spread(setups),
        "ops_per_s": spread(
            [len(ops) / (t["wall_ns"] / 1e9) for ops, t in zip(per_trial_ops, trials)],
            per_env),
        "lat_p50_us": spread(
            [statistics.median(ops) / 1e3 for ops in per_trial_ops], per_env),
    }
    # The tail is a timing metric like the others (median across trials) when
    # every trial has the samples for the workload's percentile; else it is
    # that percentile - or the highest one supported - over the pooled ops.
    pct = workload.tail_pct
    if all(supported_tail(len(ops), pct) == pct for ops in per_trial_ops):
        out["lat_tail_us"] = spread(
            [percentile(sorted(ops), pct) / 1e3 for ops in per_trial_ops], per_env)
    else:
        pct = supported_tail(n_ops, pct)
        out["lat_tail_us"] = {"value": percentile(pooled, pct) / 1e3, "n": n_ops}
    out["lat_tail_us"]["pct"] = pct
    writes = [
        [lat for lat, stmt in zip(t["lat_ns"], t["stmts"]) if stmt.label == "transfer"]
        for t in trials
    ]
    if all(writes):
        out["write_lat_p50_us"] = spread(
            [statistics.median(w) / 1e3 for w in writes], per_env)
    reads = sum(t["reads"] for t in trials)
    out["failed_frac"] = {"value": ratio(failed, attempted), "n": attempted}
    out["local_frac"] = {
        "value": ratio(sum(t["local_reads"] for t in trials), reads), "n": reads,
    }
    out["backend_rows_per_op"] = {
        "value": ratio(sum(t["backend_rows"] for t in trials), n_ops), "n": n_ops,
    }
    if workload.name in ("guard_sweep", "fleet_ledger"):
        staleness = sorted(s for t in trials for s in t["staleness"])
        out["staleness_p95_sim_s"] = {
            "value": percentile(staleness, 95.0), "n": len(staleness),
        }
    out["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "n": 1,
    }
    for metric in spec.END_TO_END:
        if metric.name in out:
            out[metric.name]["unit"] = metric.unit
    return out


def stmt_medians(trials):
    """Median latency (us) per statement label over the trials' pooled statements."""
    by_label = {}
    for trial in trials:
        for lat, stmt in zip(trial["lat_ns"], trial["stmts"]):
            by_label.setdefault(stmt.label, []).append(lat)
    return {label: statistics.median(v) / 1e3 for label, v in sorted(by_label.items())}


def count_metrics(workload, trials):
    """Per-layer metrics that are counter deltas over default-registry
    trials; they repeat exactly per seed."""
    c = summed_counters(trials)
    n_ops = sum(len(t["lat_ns"]) for t in trials) / workload.round_size
    hits = pick(c, "plan_cache_events_total", 'event="hits"')
    misses = pick(c, "plan_cache_events_total", 'event="misses"')
    guard_pass = pick(c, "currency_guard_total", 'outcome="pass"')
    guard_fail = pick(c, "currency_guard_total", 'outcome="fail"')
    floor_remote = pick(c, "session_guard_total", 'outcome="remote"')
    snap_hits = c.get("bench_snapshot_hits", 0)
    return {
        "sql.parses_per_op": ratio(pick(c, "statements_parsed_total"), n_ops),
        "plan.snapshot_hit_frac": ratio(
            snap_hits, snap_hits + c.get("bench_snapshot_misses", 0)),
        "cache.plan_cache_hit_frac": ratio(hits, hits + misses),
        "cache.plan_cache_evictions_per_op": ratio(
            pick(c, "plan_cache_events_total", 'event="evictions"'), n_ops),
        "cache.guard_pass_frac": ratio(guard_pass, guard_pass + guard_fail),
        "engine.rows_per_op": ratio(pick(c, "rows_produced_total"), n_ops),
        "backend.remote_calls_per_op": ratio(sum(t["remote_calls"] for t in trials), n_ops),
        "txn.commits_per_op": ratio(c.get("bench_txn_commits", 0), n_ops),
        "replication.refreshes_per_op": ratio(pick(c, "replication_refreshes_total"), n_ops),
        "fleet.net_calls_per_op": ratio(pick(c, "fleet_network_calls_total"), n_ops),
        "fleet.retries_per_op": ratio(pick(c, "fleet_remote_retries_total"), n_ops),
        "fleet.scatter_legs_per_op": ratio(pick(c, "fleet_scatter_legs_total"), n_ops),
        "shard.single_route_frac": ratio(
            pick(c, "shard_route_total", 'mode="single"'), pick(c, "shard_route_total")),
        "session.floor_remote_frac": ratio(
            floor_remote, floor_remote + pick(c, "session_guard_total", 'outcome="local"')),
    }


def guard_calibration(wl, trials):
    """Cost-model ``p = clamp((B - d) / f)`` against the observed local
    fraction, per bound, on CR1 (``guard_sweep`` only)."""
    region = wl.target.catalog.region("cr1")
    tallies = {}
    for trial in trials:
        for bound, (reads, local) in trial["by_bound"].items():
            tally = tallies.setdefault(bound, [0, 0])
            tally[0] += reads
            tally[1] += local
    per_bound = {}
    for bound, (reads, local) in sorted(tallies.items()):
        model = guard_probability(bound, region.update_delay, region.update_interval)
        observed = ratio(local, reads)
        per_bound[f"{bound:g}"] = {
            "model": model, "observed": observed, "abs_err": abs(model - observed),
        }
    return per_bound


def verdict(workload, result, trials, attempted, failures, failed):
    """Close one run: band check on ``local_frac``, then the verdict."""
    low, high = workload.local_band
    reads = sum(t["reads"] for t in trials)
    local_frac = ratio(sum(t["local_reads"] for t in trials), reads)
    if not low <= local_frac <= high:
        failed += 1
        failures.append(f"local_frac {local_frac:.4f} left its band [{low}, {high}]")
    result.update(correct=failed == 0, attempted=attempted, failed=failed,
                  failures=failures)
    return result


def stream_seed(seed, env):
    """Seed of the ``env``-th environment's stream in a run on ``seed``."""
    return seed * spec.SETUPS + env


def measure(name, seed, seconds, quick=False):
    """The untraced run of one workload: ``SETUPS`` environments, each set
    up (timed), warmed and driven for its share of the ``TRIALS`` timed
    trials on its own stream.  Spreading the trials over fresh
    environments keeps them comparable on the workloads whose state drifts
    (the replication log grows with simulated time, and tailing it gets
    slower), and gives ``setup_s`` its samples for free."""
    workload = spec.WORKLOADS[name]
    n_stmts, n_warmup = sizes(workload, seconds, quick)
    n_envs = 1 if quick else spec.SETUPS
    per_env = 1 if quick else spec.TRIALS // spec.SETUPS
    recorder = trace.Recorder()
    ref_before = ref_loop_ns()
    setups, trials, failures, failed = [], [], [], 0
    for env in range(n_envs):
        gc.collect()  # every environment starts from a heap without the last one
        wl, seconds_taken = set_up(name, stream_seed(seed, env), n_warmup, recorder)
        setups.append(seconds_taken)
        trials += [run_trial(wl, n_stmts, recorder) for _ in range(per_env)]
        wl.finish()
        failures += wl.failures
        failed += wl.n_failed
        del wl
    ref_after = ref_loop_ns()
    attempted = sum(len(t["lat_ns"]) for t in trials)
    result = {
        "end_to_end": end_to_end(workload, trials, setups, failed, attempted, per_env),
        "per_layer": count_metrics(workload, trials),
        "stmt_us": stmt_medians(trials),
        "ref_loop_ns": [ref_before, ref_after],
        "noisy": drifted(ref_before, ref_after),
    }
    return verdict(workload, result, trials, attempted, failures, failed)


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------
def isolated_layer_times(wl, trials):
    """``sql`` and ``optimizer`` timed alone, by calling the layer's public
    function over the workload's own statement sample."""
    sample, seen = [], set()
    for trial in trials:
        for stmt in trial["stmts"]:
            if stmt.sql not in seen:
                seen.add(stmt.sql)
                sample.append(stmt.sql)
        if len(sample) >= 200:
            break
    sample = sample[:200]
    sample *= max(1, 40 // len(sample))  # a few distinct statements: repeat them
    cache = wl.caches[0]
    parse_ns, optimize_ns, n_optimized = [], [], 0
    before = counts(wl)
    for sql in sample:
        t0 = perf_counter_ns()
        stmt = parse(sql)
        t1 = perf_counter_ns()
        parse_ns.append(t1 - t0)
        if isinstance(stmt, ast.Select):
            cache.optimize(stmt)  # a parsed Select bypasses parse and the plan cache
            optimize_ns.append(perf_counter_ns() - t1)
            n_optimized += 1
    considered = pick(
        delta(counts(wl), before), "optimizer_candidates_total", 'outcome="considered"')
    return {
        "sql.parse_us": statistics.median(parse_ns) / 1e3,
        "optimizer.optimize_us": statistics.median(optimize_ns) / 1e3,
        "optimizer.candidates_per_optimize": ratio(considered, n_optimized),
    }


def span_metrics(workload, spans, agg, traced, untraced_mean_op_ns):
    """Per-layer times from the traced trials' spans (``agg`` is their
    ``trace.totals``)."""
    n_ops = sum(len(t["lat_ns"]) for t in traced) / workload.round_size
    wall_ns = sum(t["wall_ns"] for t in traced)
    counters = summed_counters(traced)

    def get(name, field):
        return agg[name][field] if name in agg else 0

    def mean_dur_us(*names):
        return ratio(sum(get(n, "dur_ns") for n in names),
                     sum(get(n, "count") for n in names)) / 1e3

    def op_self_us(*names):
        return ratio(sum(get(n, "op_self_ns") for n in names), n_ops) / 1e3

    engine_self_ns = get("engine.execute", "self_ns")
    # Think-time run_for only: network sleeps nest inside a statement's spans.
    think_ns = sum(end - start for name, start, end, parent, _ in spans
                   if name == "common.run_for" and parent < 0)
    layer_sum_ns = sum(a["op_self_ns"] for a in agg.values())
    return {
        "plan.snapshot_instantiate_us": mean_dur_us("plan.instantiate_snapshot"),
        "cache.dispatch_self_us": op_self_us("cache.execute"),
        "engine.execute_self_us": op_self_us("engine.execute"),
        "engine.us_per_row": ratio(
            engine_self_ns, pick(counters, "rows_produced_total")) / 1e3,
        "backend.remote_query_us": mean_dur_us(
            "backend.execute_remote", "shard.execute_remote"),
        "backend.dml_us": mean_dur_us("backend.execute_dml"),
        "txn.commit_us": mean_dur_us("txn.run"),
        "replication.propagate_busy_frac": ratio(
            get("replication.propagate", "dur_ns"), wall_ns),
        "replication.us_per_record": ratio(
            get("replication.propagate", "dur_ns"),
            pick(counters, "replication_records_applied_total")) / 1e3,
        "common.run_for_busy_frac": ratio(think_ns, wall_ns),
        "fleet.route_self_us": op_self_us("fleet.execute"),
        "fleet.net_call_self_us": op_self_us("fleet.net_call"),
        "shard.route_self_us": op_self_us("shard.execute_remote"),
        "shard.replica_tail_busy_frac": ratio(get("shard.replica_tail", "dur_ns"), wall_ns),
        "bench.layer_sum_frac": ratio(layer_sum_ns / n_ops, untraced_mean_op_ns),
    }


def ab_trials(wl, n_stmts, recorder, quick, record=False):
    """The obs A/B: trials on the default registry and on a ``NullRegistry``
    in the order on, off, off, on, so a drift along the run hits both sides
    alike.  With ``record`` the default-registry trials are traced."""
    originals = [cache.metrics for cache in wl.caches]
    on, off = [], []
    for default in (True, False) if quick else (True, False, False, True):
        if default:
            on.append(run_trial(wl, n_stmts, recorder, record=record,
                                op_base=len(on) * n_stmts))
            continue
        for cache in wl.caches:
            cache.set_metrics(NullRegistry())
        try:
            off.append(run_trial(wl, n_stmts, recorder))
        finally:
            for cache, registry in zip(wl.caches, originals):
                cache.set_metrics(registry)
    return on, off


def traced(name, seed, seconds, quick=False):
    """The traced run of one workload.  First the baseline, on an unwrapped
    environment: the obs A/B trials, then the isolated ``sql`` and
    ``optimizer`` calls.  Then a second environment, built under the
    wrappers, replays the same stream with spans recorded on its
    default-registry trials - so each traced trial and its baseline trial
    ran the same statements from the same state."""
    workload = spec.WORKLOADS[name]
    n_stmts, n_warmup = sizes(workload, seconds, quick)
    recorder = trace.Recorder()
    ref_before = ref_loop_ns()

    base_wl, _ = set_up(name, stream_seed(seed, 0), n_warmup, recorder)
    on, off = ab_trials(base_wl, n_stmts, recorder, quick)
    layer = count_metrics(workload, on)
    layer.update(isolated_layer_times(base_wl, on))
    result = {}
    if name == "guard_sweep":
        per_bound = guard_calibration(base_wl, on + off)
        result["guard_p_by_bound"] = per_bound
        layer["optimizer.guard_p_abs_err"] = statistics.fmean(
            b["abs_err"] for b in per_bound.values())
    base_wl.finish()
    failures, failed = base_wl.failures, base_wl.n_failed
    # Drop the baseline environment before the traced one is built, so the
    # traced trials do not pay for collecting a heap twice the size.
    del base_wl
    gc.collect()

    with trace.installed(recorder):
        wl, _ = set_up(name, stream_seed(seed, 0), n_warmup, recorder)
        wl.timings = array("d")
        spans_trials, unrecorded = ab_trials(wl, n_stmts, recorder, quick, record=True)
        wl.finish()
    ref_after = ref_loop_ns()

    def ops_per_s(trials):
        return statistics.median(len(t["lat_ns"]) / t["wall_ns"] for t in trials)

    spans = recorder.spans()
    by_name = trace.totals(spans)
    layer.update(span_metrics(
        workload, spans, by_name, spans_trials,
        statistics.fmean(x for t in on for x in op_latencies(t, workload.round_size))))
    for i, phase in enumerate(("setup", "run", "shutdown")):
        layer[f"engine.{phase}_us"] = statistics.median(wl.timings[i::3]) * 1e6
    layer["obs.overhead_frac"] = 1.0 - ops_per_s(on) / ops_per_s(off)
    layer["trace.overhead_frac"] = 1.0 - ops_per_s(spans_trials) / ops_per_s(on)
    layer["bench.ref_loop_ns"] = ref_before
    stmt_us = stmt_medians(on)
    if workload.round_size > 1:  # which statement of the round a change came from
        layer.update({f"cache.stmt_us.{label}": us for label, us in stmt_us.items()})
    result.update(per_layer=layer, stmt_us=stmt_us)
    # The end-to-end metrics that do not apply to every workload ride along
    # (from the baseline's default trials), so the driver's record has them.
    attempted = sum(len(t["lat_ns"]) for t in on + off + spans_trials + unrecorded)
    failed += wl.n_failed
    e2e = end_to_end(workload, on, [0.0], failed, attempted)
    for metric in spec.END_TO_END:
        if not metric.contract and metric.name in e2e:
            layer[metric.name] = e2e[metric.name]["value"]

    spec.RESULTS.mkdir(exist_ok=True)
    spans_path = spec.RESULTS / f"{name}.spans.jsonl"
    trace.write_spans(spans, spans_path)
    result.update({
        "spans": {"file": str(spans_path.relative_to(spec.ROOT)), "count": len(spans),
                  "by_name": by_name},
        "ref_loop_ns": [ref_before, ref_after],
        "noisy": drifted(ref_before, ref_after),
    })
    return verdict(workload, result, on, attempted, failures + wl.failures, failed)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def contract_line(result, trace_mode):
    """The driver's last line: every end-to-end metric (untraced run) or
    every per-layer metric (traced run), 0 where a layer does no work."""
    if trace_mode:
        metrics = {
            name: {"value": result["per_layer"].get(name, 0.0), "unit": unit}
            for name, unit, _ in spec.contract_per_layer()
        }
    else:
        metrics = {
            m.name: {"value": result["end_to_end"][m.name]["value"], "unit": m.unit}
            for m in spec.END_TO_END if m.contract
        }
    return {
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }


def render(name, result):
    """Every metric of one workload by name, with its unit."""
    flag = "" if result["correct"] else "  ** INCORRECT **"
    noisy = "  (noisy: reference loop drifted)" if result.get("noisy") else ""
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}"
          f"{flag}{noisy}")
    units = {m.name: m.unit for m in spec.END_TO_END}
    units.update({n: u for n, u, _ in spec.PER_LAYER})
    for metric, entry in result.get("end_to_end", {}).items():
        extra = ""
        if "q1" in entry:
            extra = f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n {entry['n']}]"
        elif "n" in entry:
            extra = f"  [n {entry['n']}]"
        if "pct" in entry:
            extra += f" p{entry['pct']:g}"
        print(f"  {metric:<36}{entry['value']:>14.6g} {units[metric]:<6}{extra}")
    for metric, value in result.get("per_layer", {}).items():
        print(f"  {metric:<36}{value:>14.6g} {units.get(metric, ''):<6}")
    for label, value in result.get("stmt_us", {}).items():
        print(f"  stmt_us.{label:<28}{value:>14.6g} us")
    for bound, entry in result.get("guard_p_by_bound", {}).items():
        print(f"  guard_p[B={bound:>5}] model {entry['model']:.3f} observed "
              f"{entry['observed']:.3f} abs_err {entry['abs_err']:.3f}")
    for failure in result.get("failures", []):
        print(f"  FAILED {failure}")
