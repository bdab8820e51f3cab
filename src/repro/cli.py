"""An interactive shell for exploring C&C queries against MTCache.

Run ``python -m repro.cli`` to get a prompt wired to the paper's §4
environment (TPCD back-end + cust_prj / orders_prj cache).  Type SQL —
including CURRENCY clauses — or meta-commands:

.. code-block:: text

    \\advance N      advance simulated time by N seconds
    \\now            show the simulated clock
    \\regions        per-region staleness and view freshness
    \\views          materialized view definitions
    \\tables         back-end tables and row counts
    \\plan SQL       shorthand for EXPLAIN SQL
    \\explain SQL    EXPLAIN ANALYZE: run and show estimate-vs-actual
    \\trace          ASCII tree of the most recent query trace
    \\events         recent structured events (guards, breakers, faults)
    \\metrics        Prometheus-style dump of the cache metrics registry
    \\fleet          fleet status (when a CacheFleet is attached)
    \\chaos          run a seeded chaos schedule; print the invariant summary
    \\help           this text
    \\quit           leave

The shell is also importable: :class:`Shell` consumes command lines and
writes to any file-like object, which is how the tests drive it.
"""

import argparse
import sys

from repro.common.errors import ReproError

HELP = """Commands:
  SQL statements (SELECT/INSERT/UPDATE/DELETE, EXPLAIN SELECT ...,
  BEGIN TIMEORDERED / END TIMEORDERED) run against the cache.
  \\advance N   advance simulated time by N seconds
  \\now         show the simulated clock
  \\regions     per-region staleness and view freshness
  \\views       materialized view definitions
  \\tables      back-end tables and row counts
  \\plan SQL    shorthand for EXPLAIN SQL
  \\explain SQL EXPLAIN ANALYZE: execute and show estimate-vs-actual,
               loops, batches, per-node wall time and Q-error
  \\trace [json] [ID]  render a recorded query trace (default: latest)
               as an ASCII tree, or as Chrome trace_event JSON
  \\events [N]  last N structured events (guard fallbacks, breaker
               transitions, outages, agent stalls, replication)
  \\log [N]     last N executed queries with their routing
  \\metrics     Prometheus-style dump of the cache metrics registry
  \\fleet       fleet status: router policy, per-node lifecycle + health,
               network faults (outages, stalls, partitions)
  \\chaos [seed] [duration]  run a seeded fault schedule against the
               attached fleet (crashes, outages, partitions, stalls)
               and print the fault history + C&C invariant summary
  \\help        this text
  \\quit        leave
"""


class Shell:
    """Dispatches command lines against an MTCache (or a CacheFleet).

    Handing the shell a :class:`~repro.fleet.fleet.CacheFleet` routes SQL
    through the fleet's front door; catalog-ish meta-commands
    (``\\regions``, ``\\views``, ...) then inspect the fleet's first node,
    and ``\\fleet`` shows the fleet-wide picture.
    """

    def __init__(self, cache, out=None, fleet=None):
        if fleet is None and hasattr(cache, "router") and hasattr(cache, "nodes"):
            fleet = cache
        self.fleet = fleet
        self.cache = fleet.nodes[0] if cache is fleet and fleet is not None else cache
        self.out = out or sys.stdout
        self.done = False

    def write(self, text=""):
        print(text, file=self.out)

    # ------------------------------------------------------------------
    def handle(self, line):
        """Process one input line; returns False when the shell should
        exit."""
        line = line.strip()
        if not line:
            return True
        try:
            if line.startswith("\\"):
                self._meta(line)
            else:
                self._sql(line.rstrip(";"))
        except ReproError as exc:
            self.write(f"error: {exc}")
        except Exception as exc:  # surface, don't crash the shell
            self.write(f"internal error: {type(exc).__name__}: {exc}")
        return not self.done

    # ------------------------------------------------------------------
    def _meta(self, line):
        parts = line.split(None, 1)
        command = parts[0].lower()
        argument = parts[1] if len(parts) > 1 else ""
        if command in ("\\quit", "\\q", "\\exit"):
            self.done = True
        elif command == "\\help":
            self.write(HELP)
        elif command == "\\advance":
            seconds = float(argument)
            fired = self.cache.run_for(seconds)
            self.write(f"advanced {seconds:g}s (events fired: {fired}); "
                       f"now = {self.cache.clock.now():g}")
        elif command == "\\now":
            self.write(f"simulated time: {self.cache.clock.now():g}")
        elif command == "\\regions":
            self._regions()
        elif command == "\\views":
            for view in self.cache.catalog.matviews():
                self.write(f"{view.name} = {view.definition_sql()}  "
                           f"[region {view.region}]")
        elif command == "\\tables":
            for entry in self.cache.backend.catalog.tables():
                self.write(f"{entry.name}: {entry.table.row_count} rows")
        elif command == "\\plan":
            self._sql(f"EXPLAIN {argument.rstrip(';')}")
        elif command == "\\explain":
            result = self.cache.explain(argument.rstrip(";"), analyze=True)
            self._print_result(result)
            if result.trace_id is not None:
                self.write(f"trace: {result.trace_id} (see \\trace)")
        elif command == "\\trace":
            self._trace(argument)
        elif command == "\\events":
            self._events(argument)
        elif command == "\\metrics":
            registry = self.fleet.metrics if self.fleet is not None else self.cache.metrics
            text = registry.render_text()
            self.write(text.rstrip("\n") if text else "(no metrics recorded)")
        elif command == "\\fleet":
            self._fleet()
        elif command == "\\chaos":
            self._chaos(argument)
        elif command == "\\log":
            n = int(argument) if argument else 10
            entries = self.cache.query_log.recent(n)
            if not entries:
                self.write("(no queries logged)")
            for entry in entries:
                where = "local" if entry.served_locally else "remote/mixed"
                self.write(
                    f"t={entry.sim_time:8.2f} {where:12} rows={entry.rows:<6} "
                    f"{entry.summary:35} {entry.sql[:60]}"
                )
            stats = self.cache.query_log.summary()
            self.write(
                f"window: {stats['queries']} queries, "
                f"{stats['local_fraction']:.0%} local, "
                f"{stats['remote_queries']} back-end queries"
            )
        else:
            self.write(f"unknown command {command!r}; try \\help")

    def _regions(self):
        status = self.cache.status()
        if not status:
            self.write("(no currency regions)")
            return
        for cid, info in sorted(status.items()):
            bound = info["staleness_bound"]
            bound_text = f"{bound:.2f}s" if bound is not None else "unknown"
            self.write(
                f"{cid}: interval={info['update_interval']:g} "
                f"delay={info['update_delay']:g} staleness<= {bound_text}"
            )
            for name, view in sorted(info["views"].items()):
                self.write(
                    f"  {name}: {view['rows']} rows, "
                    f"snapshot age {view['snapshot_age']:.2f}s"
                )

    def _fleet(self):
        if self.fleet is None:
            self.write("(no fleet attached; pass a CacheFleet to the shell)")
            return
        status = self.fleet.status()
        self.write(f"policy: {status['policy']}   nodes: {len(status['nodes'])}")
        backend = status["backend"]
        line = f"backend: {backend['kind']} partitions={backend['partitions']}"
        rows = backend.get("rows_per_shard")
        if rows:
            line += " rows=[" + ",".join(str(n) for n in rows) + "]"
        self.write(line)
        for shard in backend.get("shards", []):
            if shard["shard"] is None:
                continue  # unsharded back-ends report one placeholder row
            replicas = ", ".join(
                f"r{r['replica']} applied={r['applied_txn']} lag={r['lag']}"
                for r in shard["replicas"]
            ) or "none"
            self.write(
                f"  p{shard['shard']}: primary={shard['primary'].upper()} "
                f"epoch={shard['epoch']} replicas=[{replicas}]"
            )
        for name, info in sorted(status["nodes"].items()):
            staleness = info["staleness"]
            staleness_text = f"{staleness:.2f}s" if staleness is not None else "unknown"
            self.write(
                f"  {name}: {info['lifecycle']} routed={info['routed']} "
                f"inflight={info['inflight']} "
                f"breaker={info['breaker']} staleness<= {staleness_text} "
                f"local={info['local_fraction']:.0%}"
            )
        net = status["network"]
        partitioned = ",".join(net["partitioned"]) or "none"
        self.write(
            f"network: latency={net['latency']:g}s drop_rate={net['drop_rate']:g} "
            f"outage={'ACTIVE' if net['outage_active'] else 'none'} "
            f"agent_stall={'ACTIVE' if net['agents_stalled'] else 'none'} "
            f"partitioned={partitioned}"
        )

    def _chaos(self, argument):
        """Run one seeded chaos schedule against the attached fleet and
        print its invariant summary (``\\chaos [seed] [duration]``)."""
        if self.fleet is None:
            self.write("(no fleet attached; pass a CacheFleet to the shell)")
            return
        from repro.chaos import ChaosScheduler

        parts = argument.split()
        seed = int(parts[0]) if parts else 11
        duration = float(parts[1]) if len(parts) > 1 else 30.0
        chaos = ChaosScheduler(self.fleet, seed=seed)
        chaos.random_schedule(duration)
        report = chaos.run(duration)
        self.write(f"chaos: seed={seed} duration={duration:g}s "
                   f"faults={len(report.faults)}")
        for line in report.history_lines():
            self.write(f"  {line}")
        summary = report.summary()
        self.write(
            f"queries={summary['queries']} errors={summary['errors']} "
            f"outcomes={summary['outcomes']} "
            f"served_ok={summary['served_ok_fraction_in_fault_windows']:.1%}"
        )
        for recovery in summary["recoveries"]:
            self.write(
                f"recovered {recovery['node']} in {recovery['seconds']:.2f}s "
                f"(crashed t={recovery['crashed_at']:g})"
            )
        for promo in summary["promotions"]:
            self.write(
                f"promoted shard p{promo['shard']} in {promo['seconds']:.2f}s "
                f"(crashed t={promo['crashed_at']:g}, epoch {promo['epoch']})"
            )
        n = summary["invariant_violations"]
        if n:
            self.write(f"INVARIANT VIOLATIONS: {n}")
            for violation in report.violations:
                self.write(f"  [{violation.invariant}] {violation}")
        else:
            self.write(f"invariants: OK "
                       f"({summary['results_checked']} results, "
                       f"{summary['views_checked']} views audited)")

    def _trace_logs(self):
        logs = []
        if self.fleet is not None:
            logs.append(self.fleet.traces)
        if getattr(self.cache, "traces", None) is not None:
            logs.append(self.cache.traces)
        return logs

    def _trace(self, argument):
        from repro.obs.trace import TraceExporter

        as_json = False
        trace_id = None
        for word in argument.split():
            if word.lower() == "json":
                as_json = True
            else:
                trace_id = word
        trace = None
        for log in self._trace_logs():
            trace = log.get(trace_id) if trace_id is not None else log.latest()
            if trace is not None:
                break
        if trace is None:
            self.write("(no trace recorded)" if trace_id is None
                       else f"(no trace {trace_id!r})")
            return
        exporter = TraceExporter()
        if as_json:
            self.write(exporter.chrome_json(trace))
        else:
            self.write(exporter.ascii_tree(trace))

    def _events(self, argument):
        n = int(argument) if argument else 20
        logs = []
        if self.fleet is not None:
            logs.append(self.fleet.metrics.events)
            for node in self.fleet.nodes:
                logs.append(node.metrics.events)
        else:
            logs.append(self.cache.metrics.events)
        events = sorted(
            (event for log in logs for event in log.recent(n)),
            key=lambda e: e.time if e.time is not None else -1.0,
        )[-n:]
        if not events:
            self.write("(no events recorded)")
            return
        for event in events:
            when = f"{event.time:8.2f}" if event.time is not None else "       ?"
            self.write(
                f"t={when} [{event.severity:7}] {event.kind}: {event.message}"
            )
        totals = self._session_guard_totals()
        if any(totals.values()):
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(totals.items()))
            self.write(f"session guards: {rendered}")

    def _session_guard_totals(self):
        """Aggregate ``session_guard_total`` outcomes across every node
        (or the single cache): {outcome: count}."""
        registries = (
            [node.metrics for node in self.fleet.nodes]
            if self.fleet is not None else [self.cache.metrics]
        )
        totals = {}
        for reg in registries:
            for key, counter in reg.family("session_guard_total").items():
                outcome = dict(key).get("outcome", "-")
                totals[outcome] = totals.get(outcome, 0) + counter.value
        return totals

    # ------------------------------------------------------------------
    def _sql(self, sql):
        target = self.fleet if self.fleet is not None else self.cache
        result = target.execute(sql)
        if result is None:  # BEGIN/END TIMEORDERED
            self.write("ok")
            return
        if isinstance(result, int):
            self.write(f"{result} row(s) affected")
            return
        if hasattr(result, "columns"):
            self._print_result(result)
            return
        self.write("ok")

    def _print_result(self, result, max_rows=25):
        if result.columns == ["plan"]:
            for (line,) in result.rows:
                self.write(line)
            return
        widths = [
            max(len(str(col)), *(len(self._fmt(r[i])) for r in result.rows), 1)
            if result.rows
            else len(str(col))
            for i, col in enumerate(result.columns)
        ]
        header = " | ".join(c.ljust(w) for c, w in zip(result.columns, widths))
        self.write(header)
        self.write("-+-".join("-" * w for w in widths))
        for row in result.rows[:max_rows]:
            self.write(" | ".join(self._fmt(v).ljust(w) for v, w in zip(row, widths)))
        if len(result.rows) > max_rows:
            self.write(f"... ({len(result.rows)} rows total)")
        else:
            self.write(f"({len(result.rows)} row(s))")
        if result.plan is not None and hasattr(result.plan, "summary"):
            self.write(f"plan: {result.plan.summary()}")
        node = getattr(result, "node", None)
        if node is not None:
            self.write(f"node: {node}")
        if result.context is not None and result.context.branches:
            branches = ", ".join(
                f"{label}->{'local' if index == 0 else 'remote'}"
                for label, index in result.context.branches
            )
            self.write(f"guards: {branches}")
        for warning in getattr(result, "warnings", []):
            self.write(f"warning: {warning}")

    @staticmethod
    def _fmt(value):
        if isinstance(value, float):
            return f"{value:g}"
        return str(value)


def run_script(cache, lines, out=None):
    """Feed a sequence of command lines to a Shell (testing hook)."""
    shell = Shell(cache, out=out)
    for line in lines:
        if not shell.handle(line):
            break
    return shell


def main(argv=None):
    """Entry point: the paper's environment plus an interactive loop."""
    argparse.ArgumentParser(prog="python -m repro.cli", description=(
        "SQL shell over the paper's section-4 environment; \\help lists commands"
    )).parse_args(argv)
    print("building the paper's SIGMOD'04 environment (TPCD + MTCache)...")
    from repro.workloads.experiment import build_paper_setup

    setup = build_paper_setup(scale_factor=0.002)
    shell = Shell(setup.cache)
    print("ready. \\help for commands; try:")
    print("  SELECT c.c_custkey, c.c_name FROM customer c "
          "WHERE c.c_custkey < 5 CURRENCY BOUND 10 MIN ON (c)")
    while True:
        try:
            line = input("mtcache> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if not shell.handle(line):
            return 0


if __name__ == "__main__":
    sys.exit(main())
