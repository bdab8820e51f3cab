"""Offline certification of a recorded history against the paper's
formal semantics.

Each check is independent and maps to a definition in the appendix
(executable in :mod:`repro.semantics`); all of them consume only the
recorded history — no live fleet required — so any saved JSONL can be
re-certified later:

* ``currency_bound`` — appendix B.2 / §2.2: for every query with a
  finite bound ``B``, the stalest snapshot it vouched for satisfies
  ``t_query − snapshot <= B`` unless the serve was *explicitly*
  degraded (a recorded warning — the fleet's availability-over-currency
  trade, which is announced, never silent).  Details carry the
  per-region sawtooth reconstruction (sample count, worst age).
* ``snapshot_consistency`` — §2.3: all local reads inside one declared
  consistency class come from one snapshot.  A multi-shard read records
  one read, at the stalest contributing shard's snapshot (per-shard
  C&C), which ``currency_bound`` holds to the bound.
* ``delta_consistency`` — appendix's Δ-consistency distance: the
  transaction-time spread ``max − min`` over the applied-txn sync
  points of the copies one class read (computed with
  :func:`repro.semantics.delta_consistency_bound`); a class that read
  two copies at Δ > 0 is not one consistent snapshot.
* ``session_ryw`` — §2.4 session guarantees: a strict-table read served
  locally under a session must come from a replica that has applied the
  session's commit floor for every contributing source.
* ``monotonic_reads`` — §2.4: within one session, successive local
  reads of the same (node, region, shard) series never step backwards
  in snapshot time.  Node lifecycle/failover events reset the series
  (a rebuilt replica is a new copy in the appendix's sense), and a
  shard ``promotion`` event resets every series pinned to that shard
  (the promoted standby is a different physical copy) — but nothing
  else does.
* ``timeline`` — §2.3 TIMEORDERED: replays the recorded bracket with
  the watermark semantics of :class:`repro.cc.timeline.TimelineSession`
  — later reads use snapshots at or above the watermark, and remote
  reads advance it to query time.

Every check yields a :class:`Certificate`; violations are structured
:class:`Anomaly` records naming the offending query/transaction ids.
"""

from repro.semantics import delta_consistency_bound

__all__ = [
    "Anomaly",
    "Certificate",
    "CertificationReport",
    "ConsistencyCertifier",
    "CHECKS",
]

#: Check names, in report order.
CHECKS = (
    "currency_bound",
    "snapshot_consistency",
    "delta_consistency",
    "session_ryw",
    "monotonic_reads",
    "timeline",
)

#: Float-comparison slack, matching the invariant checker's.
_SLACK = 1e-6

#: Event kinds that invalidate a replica's continuity (the series reset
#: points of the monotonic-reads check).
_RESET_EVENTS = frozenset({"lifecycle", "failover"})


class Anomaly:
    """One concrete violation of one check, with the offending ids."""

    __slots__ = ("check", "message", "qid", "attrs")

    def __init__(self, check, message, qid=None, **attrs):
        self.check = check
        self.message = message
        self.qid = qid
        self.attrs = attrs

    def as_dict(self):
        out = {"check": self.check, "message": self.message}
        if self.qid is not None:
            out["qid"] = self.qid
        out.update(self.attrs)
        return out

    def __repr__(self):
        where = f" qid={self.qid}" if self.qid is not None else ""
        return f"Anomaly({self.check}{where}: {self.message})"


class Certificate:
    """One check's verdict over the whole history."""

    __slots__ = ("check", "checked", "anomalies", "details")

    def __init__(self, check, checked, anomalies, details=None):
        self.check = check
        self.checked = checked
        self.anomalies = anomalies
        self.details = details or {}

    @property
    def ok(self):
        return not self.anomalies

    def __repr__(self):
        verdict = "ok" if self.ok else f"{len(self.anomalies)} anomalies"
        return f"<Certificate {self.check}: checked={self.checked} {verdict}>"


class CertificationReport:
    """All certificates of one certification pass."""

    def __init__(self, certificates, history):
        self.certificates = certificates
        self.history = history

    @property
    def anomalies(self):
        return [a for c in self.certificates for a in c.anomalies]

    @property
    def ok(self):
        return all(c.ok for c in self.certificates)

    def certificate(self, check):
        for cert in self.certificates:
            if cert.check == check:
                return cert
        raise KeyError(f"no certificate for check {check!r}")

    def summary(self):
        """Deterministic scalar summary (safe to print / diff / JSON)."""
        return {
            "records": len(self.history),
            "anomalies": len(self.anomalies),
            "checks": {
                c.check: {"checked": c.checked, "anomalies": len(c.anomalies)}
                for c in self.certificates
            },
        }

    def __repr__(self):
        return (
            f"<CertificationReport {len(self.certificates)} checks, "
            f"{len(self.anomalies)} anomalies>"
        )


class ConsistencyCertifier:
    """Runs the formal checks over one recorded :class:`History`."""

    def __init__(self, history, slack=_SLACK):
        self.history = history
        self.slack = slack
        self._queries = history.queries()

    def certify(self, checks=None):
        """Run ``checks`` (default: all) and return the report."""
        names = CHECKS if checks is None else tuple(checks)
        certificates = []
        for name in names:
            if name not in CHECKS:
                raise KeyError(f"unknown certification check {name!r}")
            certificates.append(getattr(self, f"check_{name}")())
        return CertificationReport(certificates, self.history)

    # ------------------------------------------------------------------
    # Currency bounds (per-region sawtooth reconstruction)
    # ------------------------------------------------------------------
    def check_currency_bound(self):
        anomalies = []
        checked = 0
        regions = {}
        for q in self._queries:
            for read in q["reads"]:
                region = regions.setdefault(
                    read["region"], {"samples": 0, "max_age": 0.0}
                )
                region["samples"] += 1
                age = q["time"] - read["snapshot"]
                if age > region["max_age"]:
                    region["max_age"] = age
            bound = q["bound"]
            if bound is None or not q["snapshots"]:
                continue
            checked += 1
            # Query time is recorded at execution *start*, so intra-query
            # remote waits never inflate the measured staleness.
            staleness = q["time"] - min(q["snapshots"])
            if staleness > bound + self.slack and not q["warnings"]:
                anomalies.append(Anomaly(
                    "currency_bound",
                    f"query {q['qid']} on {q['node']} served a snapshot "
                    f"{staleness:.3f}s old against its {bound:g}s bound "
                    "without declaring degradation",
                    qid=q["qid"], staleness=round(staleness, 6), bound=bound,
                ))
        details = {
            "regions": {
                name: {
                    "samples": r["samples"],
                    "max_age": round(r["max_age"], 6),
                }
                for name, r in sorted(regions.items())
            },
        }
        return Certificate("currency_bound", checked, anomalies, details)

    # ------------------------------------------------------------------
    # Snapshot consistency within declared classes
    # ------------------------------------------------------------------
    def _class_groups(self, q):
        """The query's local reads grouped by declared consistency
        class (reads of undeclared tables form singleton groups)."""
        table_class = {}
        for i, tables in enumerate(q["classes"]):
            for table in tables:
                table_class[table] = i
        groups = {}
        for read in q["reads"]:
            key = table_class.get(read["table"], f"?{read['table']}")
            groups.setdefault(key, []).append(read)
        return groups

    def check_snapshot_consistency(self):
        anomalies = []
        checked = 0
        for q in self._queries:
            if not q["reads"]:
                continue
            checked += 1
            for key, group in sorted(
                self._class_groups(q).items(), key=lambda kv: str(kv[0])
            ):
                snapshots = sorted({r["snapshot"] for r in group})
                if len(snapshots) > 1:
                    views = sorted({r["view"] for r in group})
                    anomalies.append(Anomaly(
                        "snapshot_consistency",
                        f"query {q['qid']} on {q['node']} mixed "
                        f"{len(snapshots)} snapshots inside one consistency "
                        f"class ({', '.join(views)}): torn read",
                        qid=q["qid"],
                        spread=round(snapshots[-1] - snapshots[0], 6),
                        views=", ".join(views),
                    ))
        return Certificate("snapshot_consistency", checked, anomalies)

    # ------------------------------------------------------------------
    # Δ-consistency distance in transaction time
    # ------------------------------------------------------------------
    def check_delta_consistency(self):
        anomalies = []
        checked = 0
        max_delta = 0
        for q in self._queries:
            if len(q["reads"]) < 2:
                continue
            for _, group in sorted(
                self._class_groups(q).items(), key=lambda kv: str(kv[0])
            ):
                if len(group) < 2:
                    continue
                per_source = {}
                for read in group:
                    for source, applied in read["sources"].items():
                        per_source.setdefault(source, []).append(applied)
                for source, points in sorted(per_source.items()):
                    if len(points) < 2:
                        continue
                    checked += 1
                    delta = delta_consistency_bound(points)
                    if delta > max_delta:
                        max_delta = delta
                    if delta > 0:
                        anomalies.append(Anomaly(
                            "delta_consistency",
                            f"query {q['qid']} read copies Δ={delta} "
                            f"transactions apart on source {source} inside "
                            "one consistency class",
                            qid=q["qid"], source=source, delta=delta,
                        ))
        return Certificate(
            "delta_consistency", checked, anomalies,
            {"max_delta": max_delta},
        )

    # ------------------------------------------------------------------
    # Session guarantees: read-your-writes
    # ------------------------------------------------------------------
    def check_session_ryw(self):
        anomalies = []
        checked = 0
        excused = 0
        for q in self._queries:
            floors = q["floors"]
            if not floors:
                continue
            for read in q["reads"]:
                if not read["strict"]:
                    continue
                relevant = [
                    source for source in read["sources"]
                    if floors.get(source, 0) > 0
                ]
                if not relevant:
                    continue
                checked += 1
                if q["warnings"]:
                    excused += 1  # declared-degraded serve
                    continue
                for source in relevant:
                    applied = read["sources"][source]
                    if applied < floors[source]:
                        anomalies.append(Anomaly(
                            "session_ryw",
                            f"query {q['qid']} on {q['node']} read "
                            f"{read['view']} locally although source "
                            f"{source} had applied txn {applied} < the "
                            f"session's commit floor {floors[source]}",
                            qid=q["qid"], view=read["view"], source=source,
                            applied=applied, floor=floors[source],
                            session=q["session"],
                        ))
        return Certificate(
            "session_ryw", checked, anomalies,
            {"excused_degraded": excused},
        )

    # ------------------------------------------------------------------
    # Session guarantees: monotonic reads
    # ------------------------------------------------------------------
    def check_monotonic_reads(self):
        anomalies = []
        checked = 0
        resets = 0
        promotions = 0
        #: (session, node, node epoch, shard epoch, region, shard)
        #: -> (last snapshot, last qid).
        series = {}
        epoch = {}  # node -> replica-continuity epoch
        shard_epochs = {}  # back-end shard -> promotion epoch
        for record in self.history:
            kind = record["kind"]
            if kind == "event" and record["event"] in _RESET_EVENTS:
                node = record["attrs"].get("node")
                if node is None:
                    epoch = {k: v + 1 for k, v in epoch.items()}
                else:
                    epoch[node] = epoch.get(node, 0) + 1
                resets += 1
                continue
            if kind == "event" and record["event"] == "promotion":
                # A promoted shard primary is a different physical copy:
                # its series restart, exactly like a node's lifecycle
                # epoch — and *only* promotions move shard epochs (a
                # backend_crash alone resets nothing).
                shard = record["attrs"].get("shard")
                if shard is not None:
                    shard_epochs[shard] = shard_epochs.get(shard, 0) + 1
                    promotions += 1
                continue
            if kind != "query" or record["session"] is None:
                continue
            node_epoch = epoch.get(record["node"], 0)
            for read in record["reads"]:
                # A pinned read continues across other shards' promotions;
                # an unpinned read touches every shard, so any promotion
                # restarts it (the sum moves with each).
                if read["shard"] is not None:
                    shard_epoch = shard_epochs.get(read["shard"], 0)
                else:
                    shard_epoch = sum(shard_epochs.values())
                key = (record["session"], record["node"], node_epoch,
                       shard_epoch, read["region"], read["shard"])
                last = series.get(key)
                checked += 1
                if last is not None:
                    snapshot, qid = last
                    if read["snapshot"] < snapshot - self.slack:
                        anomalies.append(Anomaly(
                            "monotonic_reads",
                            f"query {record['qid']} read {read['region']} at "
                            f"snapshot {read['snapshot']:g}, behind the "
                            f"{snapshot:g} already observed by query {qid} "
                            "in the same session",
                            qid=record["qid"], region=read["region"],
                            session=record["session"],
                            snapshot=read["snapshot"], previous=snapshot,
                        ))
                if last is None or read["snapshot"] > last[0]:
                    series[key] = (read["snapshot"], record["qid"])
        return Certificate(
            "monotonic_reads", checked, anomalies,
            {"series": len(series), "replica_resets": resets,
             "shard_promotions": promotions},
        )

    # ------------------------------------------------------------------
    # Timeline (TIMEORDERED) brackets
    # ------------------------------------------------------------------
    def check_timeline(self):
        anomalies = []
        checked = 0
        brackets = 0
        watermarks = {}  # node -> current bracket watermark
        for record in self.history:
            kind = record["kind"]
            if kind == "timeline":
                if record["event"] == "begin":
                    watermarks[record["node"]] = 0.0
                    brackets += 1
                else:
                    watermarks.pop(record["node"], None)
                continue
            if kind != "query" or record["node"] not in watermarks:
                continue
            watermark = watermarks[record["node"]]
            checked += 1
            for snapshot in record["snapshots"]:
                if snapshot < watermark - self.slack:
                    anomalies.append(Anomaly(
                        "timeline",
                        f"query {record['qid']} inside a TIMEORDERED bracket "
                        f"read snapshot {snapshot:g}, behind the bracket's "
                        f"watermark {watermark:g}",
                        qid=record["qid"], snapshot=snapshot,
                        watermark=watermark,
                    ))
                if snapshot > watermark:
                    watermark = snapshot
            if record["remote_queries"]:
                # Remote data is current as of query time: the watermark
                # advances to it (TimelineSession.observe semantics).
                if record["time"] > watermark:
                    watermark = record["time"]
            watermarks[record["node"]] = watermark
        return Certificate(
            "timeline", checked, anomalies, {"brackets": brackets}
        )
