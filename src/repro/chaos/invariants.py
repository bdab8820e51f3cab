"""C&C invariant checking for chaos runs.

The whole point of relaxed currency is that relaxation is *declared*:
a query may see stale data, but never staler than its ``CURRENCY
BOUND`` — unless the system says so out loud (the degraded serve-stale
warning).  :class:`InvariantChecker` audits every delivered
:class:`~repro.engine.executor.QueryResult` against that contract while
faults rain down, and audits the recovered caches against the back-end
once the dust settles:

* **currency_bound** — the delivered staleness (``now − snapshot``) of
  every local view read must be within the declared bound, unless the
  result carries an explicit degraded warning;
* **single_snapshot** — all rows of one result must come from one
  snapshot (the harness drives single-class queries, where Guarantee 2
  of §2.4 collapses to "one snapshot per result");
* **convergence** — after recovery (faults cleared, crashed nodes
  restarted, agents caught up) every live node's views must match the
  back-end's current base-table state exactly;
* **read_your_writes** — a session re-reading a transfer it committed
  must see every leg of it, unless the result is explicitly degraded
  (:meth:`InvariantChecker.check_ryw`, driven by the ledger workload);
* **balance_conservation** — double-entry deltas must sum to zero on
  the back-end, with exactly two legs per committed transfer
  (:meth:`InvariantChecker.check_ledger_conservation`).

Violations become structured
:class:`~repro.common.errors.InvariantViolation` records: collected on
the checker (the default — a chaos run wants the full list, not the
first), mirrored into the fleet's event log and a
``chaos_invariant_violations_total`` counter, and raised immediately
when ``raise_on_violation=True``.
"""

from repro.common.errors import InvariantViolation
from repro.replication.agent import _ViewSubscription

__all__ = ["InvariantChecker"]

#: Tolerance (simulated seconds) on the currency-bound comparison, so a
#: guard decision and the audit taken at the same instant never disagree
#: over float round-off.
_SLACK = 1e-6


class InvariantChecker:
    """Audits query results and recovered state against C&C guarantees."""

    def __init__(self, fleet, *, slack=_SLACK, raise_on_violation=False):
        self.fleet = fleet
        self.slack = slack
        self.raise_on_violation = raise_on_violation
        self.violations = []
        self.results_checked = 0
        self.views_checked = 0
        self.replicas_checked = 0
        #: Read-your-writes audit counters (fed by :meth:`check_ryw`):
        #: 100% satisfaction = checked == satisfied + excused and no
        #: ``read_your_writes`` violations recorded.
        self.ryw_checked = 0
        self.ryw_satisfied = 0
        self.ryw_excused = 0

    # ------------------------------------------------------------------
    # Per-result audit (driven from the workload hooks)
    # ------------------------------------------------------------------
    def check_result(self, result, bound, now=None):
        """Audit one delivered result against its declared bound.

        Returns the violations found for this result (empty = clean).
        A multi-shard read is one result too: its guard vouches for the
        stalest contributing shard's snapshot, so the bound and the
        one-snapshot rule apply to it unchanged.
        """
        self.results_checked += 1
        now = self.fleet.clock.now() if now is None else now
        found = []
        snapshots = result.context.snapshots_used if result.context else []
        node = getattr(result, "node", "-")
        if bound is not None and bound != float("inf") and snapshots:
            worst = min(snapshots)
            staleness = now - worst
            if staleness > bound + self.slack and not result.warnings:
                found.append(self._record(
                    "currency_bound",
                    f"result from {node} is {staleness:g}s stale, beyond its "
                    f"{bound:g}s bound, with no degraded warning",
                    node=node, bound=bound, staleness=staleness,
                    snapshot=worst, time=now,
                ))
        distinct = sorted(set(snapshots))
        if len(distinct) > 1:
            found.append(self._record(
                "single_snapshot",
                f"result from {node} mixes {len(distinct)} snapshots: "
                f"{distinct}",
                node=node, snapshots=distinct, time=now,
            ))
        return found

    def check_ryw(self, result, expected_rows, tid=None, now=None):
        """Read-your-writes audit: a session re-reading a transfer it
        committed must see every leg of it.

        The session's commit floor makes this a *guarantee*, not a
        probability: either the strict-table guard verified the local
        replica had applied the session's own transaction, or it fell
        back to the back-end (which trivially has it).  The one excuse is
        an explicitly degraded result (``result.warnings``) — a node that
        cannot reach the back-end during an outage serves stale *and says
        so*, the same trade the currency audit honors.
        """
        self.ryw_checked += 1
        rows = getattr(result, "rows", None) or []
        if len(rows) >= expected_rows:
            self.ryw_satisfied += 1
            return []
        if result.warnings:
            self.ryw_excused += 1
            return []
        node = getattr(result, "node", "-")
        now = self.fleet.clock.now() if now is None else now
        return [self._record(
            "read_your_writes",
            f"session re-read of transfer {tid} from {node} returned "
            f"{len(rows)} of {expected_rows} legs with no degraded warning",
            node=node, tid=tid, rows=len(rows),
            expected_rows=expected_rows, time=now,
        )]

    # ------------------------------------------------------------------
    # Post-recovery audit
    # ------------------------------------------------------------------
    def check_ledger_conservation(self, table="ledger", delta_column="delta",
                                  expected_rows=None):
        """Balance conservation: the double-entry deltas on the back-end
        must sum to exactly zero, and (when the workload reports how many
        transfers it committed) the table must hold exactly two legs per
        transfer — a transfer is one atomic transaction, so no fault may
        ever persist half of one.  Sums over every replication source, so
        a sharded back-end is audited across all partitions.
        """
        found = []
        total = 0
        count = 0
        for source in self.fleet.backend.replication_sources():
            entry = source.catalog.table(table)
            column = entry.schema.names().index(delta_column)
            for _, values in entry.table.scan():
                total += values[column]
                count += 1
        now = self.fleet.clock.now()
        if total != 0:
            found.append(self._record(
                "balance_conservation",
                f"{table} deltas sum to {total}, not 0 — money was created "
                "or destroyed",
                table=table, total=total, rows=count, time=now,
            ))
        if expected_rows is not None and count != expected_rows:
            found.append(self._record(
                "balance_conservation",
                f"{table} holds {count} legs for {expected_rows} expected — "
                "a transfer was torn or double-applied",
                table=table, rows=count, expected_rows=expected_rows,
                time=now,
            ))
        return found

    def check_convergence(self):
        """After recovery, every live node's views must equal the back-end.

        Call once faults are cleared, crashed nodes restarted, and every
        agent has propagated through "now".  Compares each materialized
        view row-for-row against the projected + filtered base table.
        Returns the violations found.
        """
        found = []
        for node in self.fleet.nodes:
            if not node.accepting:
                continue
            for view in node.catalog.matviews():
                self.views_checked += 1
                # Union the expected rows over every replicated partition:
                # one source on a single server, one per shard on a
                # sharded back-end (each holds a disjoint row subset).
                expected = []
                for source in node.backend.replication_sources():
                    base_entry = source.catalog.table(view.base_table)
                    sub = _ViewSubscription(view, base_entry.table)
                    expected.extend(
                        tuple(sub.project(values))
                        for _, values in base_entry.table.scan()
                        if sub.satisfies(values)
                    )
                expected.sort()
                actual = sorted(
                    tuple(values) for _, values in view.table.scan()
                )
                if expected != actual:
                    missing = len([r for r in expected if r not in set(actual)])
                    extra = len([r for r in actual if r not in set(expected)])
                    found.append(self._record(
                        "convergence",
                        f"{view.name} on {node.name} diverged from "
                        f"{view.base_table}: {len(actual)} local rows vs "
                        f"{len(expected)} expected "
                        f"({missing} missing, {extra} extra/changed)",
                        node=node.name, view=view.name,
                        base_table=view.base_table,
                        local_rows=len(actual), expected_rows=len(expected),
                        time=self.fleet.clock.now(),
                    ))
        found.extend(self.check_replica_convergence())
        return found

    def check_replica_convergence(self):
        """After recovery + catch-up, every surviving standby must hold
        exactly its primary's rows — log shipping is complete, not
        approximate.  No-op over back-ends without shard replicas."""
        backend = self.fleet.backend
        replicas = getattr(backend, "replicas", None)
        if not replicas:
            return []
        found = []
        for shard, standbys in sorted(replicas.items()):
            primary = backend.partitions[shard]
            for replica in standbys:
                self.replicas_checked += 1
                for entry in primary.catalog.tables():
                    expected = sorted(
                        tuple(values) for _, values in entry.table.scan()
                    )
                    mirror = replica.server.catalog.table(entry.name)
                    actual = sorted(
                        tuple(values) for _, values in mirror.table.scan()
                    )
                    if expected != actual:
                        found.append(self._record(
                            "replica_convergence",
                            f"replica p{shard}/r{replica.replica_id} diverged "
                            f"from its primary on {entry.name}: "
                            f"{len(actual)} rows vs {len(expected)} expected",
                            shard=shard, replica=replica.replica_id,
                            table=entry.name, local_rows=len(actual),
                            expected_rows=len(expected),
                            time=self.fleet.clock.now(),
                        ))
        return found

    # ------------------------------------------------------------------
    def _record(self, invariant, message, **attrs):
        violation = InvariantViolation(invariant, message, **attrs)
        self.violations.append(violation)
        self.fleet.metrics.counter(
            "chaos_invariant_violations_total", labels={"invariant": invariant},
            help="C&C invariant violations found by the chaos checker",
        ).inc()
        self.fleet.metrics.event(
            "invariant", message, severity="error",
            time=attrs.get("time", self.fleet.clock.now()),
            invariant=invariant, **{k: v for k, v in attrs.items() if k != "time"},
        )
        if self.raise_on_violation:
            raise violation
        return violation

    def __repr__(self):
        return (
            f"<InvariantChecker results={self.results_checked} "
            f"views={self.views_checked} violations={len(self.violations)}>"
        )
