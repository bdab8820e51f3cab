"""The history record schema and its JSONL container.

A history is a flat, append-ordered list of plain dicts — one dict per
record, every record carrying a ``kind`` and a simulated timestamp.
Plain dicts (rather than classes) keep the capture hot path at one dict
literal per record and make the JSONL round trip trivial.

Record kinds (see DESIGN.md §13 for the field-by-field schema):

* ``commit`` — one committed update transaction on one replication
  source: ``{source, txn, time, tables, n_ops}``.  The appendix's
  ``H_n``: commits are recorded in commit order per source, so the
  certifier can reconstruct transaction time from them.
* ``query`` — one completed SELECT on one node: the normalized C&C
  constraint (``bound``, ``classes``), run-time ``routing``, the
  snapshot times vouched for (``snapshots``), the per-view local
  ``reads`` (region, pinned shard, snapshot, strictness, and the
  applied-txn progress of the contributing replication sources at guard
  time), SwitchUnion ``branches``, warning/remote counts, and the
  session name + commit floors it ran under.
* ``dml`` — one write through the cache tier: the per-source commit
  floor the back-end reported.
* ``timeline`` — a BEGIN/END TIMEORDERED bracket edge on one node.
* ``event`` — a lifecycle/fault/invariant event mirrored from the
  fleet's event log.

Serialization is canonical — ``json.dumps(..., sort_keys=True)`` with
compact separators, one record per line — so byte-identical histories
have identical SHA-256 digests, which is what the CI certify-smoke job
diffs across two runs of the same seed.
"""

import hashlib
import json

__all__ = ["History", "RECORD_KINDS", "canonical_line"]

#: Every record kind a recorder may append, in no particular order.
RECORD_KINDS = frozenset(
    {"commit", "query", "dml", "timeline", "event"}
)


def canonical_line(record):
    """The canonical JSONL encoding of one record (sorted keys, compact
    separators) — the unit of the history digest."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class History:
    """An append-only sequence of run-history records."""

    def __init__(self, records=None):
        self.records = list(records) if records is not None else []

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def append(self, record):
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def by_kind(self, kind):
        return [r for r in self.records if r["kind"] == kind]

    def commits(self, source=None):
        out = self.by_kind("commit")
        if source is not None:
            out = [r for r in out if r["source"] == source]
        return out

    def queries(self):
        return self.by_kind("query")

    def query(self, qid):
        for record in self.records:
            if record["kind"] == "query" and record["qid"] == qid:
                return record
        raise KeyError(f"no query record with qid {qid}")

    def counts_by_kind(self):
        out = {}
        for record in self.records:
            out[record["kind"]] = out.get(record["kind"], 0) + 1
        return out

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_jsonl(self):
        """The canonical JSON-lines serialization (trailing newline)."""
        if not self.records:
            return ""
        return "\n".join(canonical_line(r) for r in self.records) + "\n"

    def digest(self):
        """SHA-256 over the canonical JSONL — the run's fingerprint.
        Two runs of the same seeded schedule must produce the same
        digest (the repo's determinism contract, extended to histories).
        """
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()

    def dump(self, path):
        """Write the canonical JSONL to ``path``; returns the digest."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @classmethod
    def from_jsonl(cls, text):
        records = [
            json.loads(line) for line in text.splitlines() if line.strip()
        ]
        return cls(records)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_jsonl(fh.read())

    def __repr__(self):
        counts = ", ".join(
            f"{kind}={n}" for kind, n in sorted(self.counts_by_kind().items())
        )
        return f"<History {len(self.records)} records ({counts})>"
