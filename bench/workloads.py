"""The five workloads: environment builders and seeded statement streams.

The program under test receives only SQL text, bounds and a ``Session``;
everything random comes from one ``random.Random(seed)`` owned by the
workload instance, so one (workload, seed) pair is one exact stream.  An
instance is the generator state (made by ``__init__``, no environment
needed) plus, after ``build()``, one environment: set-up makes a new
instance each time.
"""

import random

from repro import FleetConfig, Session
from repro.chaos import InvariantChecker
from repro.workloads import LedgerWorkload
from repro.workloads.experiment import build_paper_setup
from repro.workloads.queries import guard_query, plan_choice_query
from repro.workloads.tpcd import customer_count

from bench import spec

#: Data is part of the benchmark's definition; ``--seed`` varies the stream only.
SCALE_FACTOR = 0.02
DATA_SEED = 42
#: Slack on the staleness-within-bound check (float noise on the simulated clock).
STALENESS_SLACK = 1e-6

POINT_SQL = (
    "SELECT c.c_custkey, c.c_name, c.c_acctbal FROM customer c "
    "WHERE c.c_custkey = {key}"
)
ACCOUNT_SQL = "SELECT a.id, a.grp FROM accounts a WHERE a.id = {key}"
LEDGER_SQL = "SELECT l.tid, l.leg, l.account, l.delta FROM ledger l WHERE l.tid {pred}"


class Stmt:
    """One statement of the stream.  ``base_sql`` is the statement without
    its CURRENCY clause (what the oracle asks the back-end); ``expect`` is
    the exact sorted answer when the generator knows it; ``bound`` is set
    where the oracle checks staleness against it."""

    __slots__ = ("label", "sql", "base_sql", "bound", "expect")

    def __init__(self, label, sql, base_sql=None, bound=None, expect=None):
        self.label = label
        self.sql = sql
        self.base_sql = base_sql
        self.bound = bound
        self.expect = expect


def with_bound(base_sql, bound, alias):
    return f"{base_sql} CURRENCY BOUND {bound:g} SEC ON ({alias})"


def dealt(rng, deck):
    """Endless draws from ``deck``, reshuffled each time it runs out: every
    block holds the exact mix, so shares do not wander with the seed."""
    while True:
        block = list(deck)
        rng.shuffle(block)
        yield from block


class Workload:
    """Base: observation tallies and the result oracle shared by all five."""

    #: Simulated think time (mean, seconds) after each draw; None freezes the clock.
    think_mean = None

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.failures = []
        self.n_failed = 0
        #: distinct static statement -> sorted back-end answer (oracle cache).
        self._oracle = {}
        #: When set (traced runs): a float array taking every read's
        #: ``QueryResult.timings`` as (setup, run, shutdown) seconds.
        self.timings = None
        self.begin_trial()

    # -- environment ---------------------------------------------------
    def build(self):
        """Create the environment; sets ``target``, ``backend``, ``caches``."""
        raise NotImplementedError

    def execute(self, stmt):
        return self.target.execute(stmt.sql)

    def run_for(self, seconds):
        self.target.run_for(seconds)

    def registries(self):
        return [cache.metrics for cache in self.caches]

    def extra_counts(self):
        """Public non-registry counters, as pseudo-series."""
        commits = sum(m.last_txn_id for _, m in self.backend.transaction_managers())
        return {"bench_txn_commits": commits}

    # -- stream --------------------------------------------------------
    def draw(self):
        """The next draw: a list of (statement, think seconds or 0)."""
        raise NotImplementedError

    def take(self, n):
        """The next ``n`` statements and their think times."""
        stmts, thinks = [], []
        while len(stmts) < n:
            for stmt, think in self.draw():
                stmts.append(stmt)
                thinks.append(think)
        return stmts[:n], (thinks[:n] if self.think_mean else None)

    def think(self):
        return self.rng.expovariate(1.0 / self.think_mean)

    # -- observation and oracle -----------------------------------------
    def begin_trial(self):
        self.reads = 0
        self.local_reads = 0
        self.remote_calls = 0
        self.backend_rows = 0
        self.staleness = []
        self.by_bound = {}  # bound -> [reads, local reads]
        #: static statement -> rows of its latest result (checked at trial end).
        self._latest = {}

    def fail(self, stmt, why):
        self.n_failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{stmt.label}: {why} [{stmt.sql[:80]}]")

    def observe(self, stmt, result):
        """Tally one delivered read and check it (outside the latency window)."""
        ctx = result.context
        self.reads += 1
        remote = ctx.remote_queries
        if remote:
            self.remote_calls += len(remote)
            for _, n_rows in remote:
                self.backend_rows += n_rows
        else:
            self.local_reads += 1
        bound = stmt.bound
        if bound is not None:
            tally = self.by_bound.setdefault(bound, [0, 0])
            tally[0] += 1
            if not remote:
                tally[1] += 1
        snapshots = ctx.snapshots_used
        if snapshots:
            staleness = self.backend.clock.now() - min(snapshots)
            self.staleness.append(staleness)
            if (bound is not None and not ctx.warnings
                    and staleness > bound + STALENESS_SLACK):
                self.fail(stmt, f"{staleness:g}s stale beyond its {bound:g}s bound")
        if self.timings is not None:
            timings = result.timings
            self.timings.extend((timings.setup, timings.run, timings.shutdown))
        rows = result.rows
        if stmt.expect is not None:
            if sorted(rows) != stmt.expect:
                self.fail(stmt, f"rows {sorted(rows)[:4]} != expected {stmt.expect[:4]}")
            return
        # Static data: every execution must return as many rows as the last,
        # and the latest rows are compared with the back-end at trial end.
        previous = self._latest.get(stmt)
        if previous is not None and len(previous) != len(rows):
            self.fail(stmt, f"row count changed {len(previous)} -> {len(rows)}")
        self._latest[stmt] = rows

    def end_trial(self):
        """Deferred oracle: each distinct static statement's latest rows
        (sorted) equal the back-end's answer to the same SQL with the
        CURRENCY clause stripped."""
        for stmt, rows in self._latest.items():
            expected = self._oracle.get(stmt.base_sql)
            if expected is None:
                expected = sorted(self.backend.execute(stmt.base_sql).rows)
                self._oracle[stmt.base_sql] = expected
            if sorted(rows) != expected:
                self.fail(stmt, f"{len(rows)} rows differ from the back-end's {len(expected)}")
        self._latest = {}

    def finish(self):
        """End-of-run audit (after the last trial)."""


class PaperWorkload(Workload):
    """A single MTCache over the paper's section-4 set-up at SF 0.02."""

    n_customers = customer_count(SCALE_FACTOR)

    def build(self):
        setup = build_paper_setup(
            scale_factor=SCALE_FACTOR, seed=DATA_SEED, paper_scale_stats=False
        )
        self.target = setup.cache
        self.backend = setup.backend
        self.caches = [setup.cache]

    def point(self, key, bound=600.0):
        base = POINT_SQL.format(key=key)
        return Stmt("gq1", with_bound(base, bound, "c"), base, bound=bound)


class LookupHot(PaperWorkload):
    N_STATEMENTS = 64  # fits the 128-entry plan cache

    def __init__(self, seed):
        super().__init__(seed)
        keys = self.rng.sample(range(1, self.n_customers + 1), self.N_STATEMENTS)
        self.stmts = [self.point(key) for key in keys]

    def draw(self):
        return [(self.rng.choice(self.stmts), 0)]


class LookupAdhoc(PaperWorkload):
    def __init__(self, seed):
        super().__init__(seed)
        self.stmts = {}

    def draw(self):
        key = self.rng.randrange(1, self.n_customers + 1)
        stmt = self.stmts.get(key)
        if stmt is None:
            stmt = self.stmts[key] = self.point(key)
        return [(stmt, 0)]


class GuardSweep(PaperWorkload):
    N_KEYS = 16
    #: Around CR1's interval 15 s / delay 5 s: p = clamp((B - 5) / 15).
    BOUNDS = (8.0, 12.5, 15.0, 20.0, 60.0, 600.0)
    think_mean = 0.5

    def __init__(self, seed):
        super().__init__(seed)
        keys = self.rng.sample(range(1, self.n_customers + 1), self.N_KEYS)
        deck = [self.point(key, bound) for key in keys for bound in self.BOUNDS]
        self.deck = dealt(self.rng, deck)

    def draw(self):
        return [(next(self.deck), self.think())]


class TpcdMix(PaperWorkload):
    """Fixed order, so the seed does not change this stream."""

    def __init__(self, seed):
        super().__init__(seed)
        self.round = []
        for label in spec.TPCD_LABELS:
            sql = (guard_query(label, SCALE_FACTOR) if label.startswith("g")
                   else plan_choice_query(label, SCALE_FACTOR))
            self.round.append((Stmt(label, sql, sql.split(" CURRENCY ")[0]), 0))

    def draw(self):
        return self.round


class FleetLedger(Workload):
    """3 nodes x 2 shards x 1 replica over the ledger schema; one portable
    session writes and reads.  The generator knows every transfer's legs,
    so ledger reads are checked against exact expected rows: 2 legs per
    transfer (read-your-writes, no torn transfer), deltas summing to 0."""

    N_ACCOUNTS = 64
    PRELOAD = 1200
    think_mean = 0.2
    #: Frozen mix, per block of 20 draws: 10 % transfers (+ re-read), 55 %
    #: single-tid ledger reads, 25 % account lookups, 10 % 3-tid IN-lists.
    KINDS = ["transfer"] * 2 + ["ledger"] * 11 + ["account"] * 5 + ["inlist"] * 2
    #: Bounds, per block of 20 reads: 0 s 15 %, 2 s 35 %, 600 s 50 %.
    BOUNDS = [0.0] * 3 + [2.0] * 7 + [600.0] * 10

    def __init__(self, seed):
        super().__init__(seed)
        self.session = Session(name="bench-client")
        self.legs = {}  # tid -> its two legs, sorted
        self.kinds = dealt(self.rng, self.KINDS)
        self.bounds = dealt(self.rng, self.BOUNDS)
        self.preload = [self.transfer() for _ in range(self.PRELOAD)]

    def build(self):
        fleet = FleetConfig(nodes=3, partitions=2, replicas=1).build()
        LedgerWorkload(fleet, n_accounts=self.N_ACCOUNTS).install()
        fleet.run_for(3.0)
        self.target = fleet
        self.backend = fleet.backend
        self.caches = fleet.nodes
        for stmt in self.preload:  # through the front door
            self.execute(stmt)
        fleet.run_for(2.0)

    def execute(self, stmt):
        return self.target.execute(stmt.sql, bound=stmt.bound, session=self.session)

    def registries(self):
        return [self.target.metrics] + super().registries()

    def extra_counts(self):
        counts = super().extra_counts()
        stats = self.target.snapshot_store.stats
        counts["bench_snapshot_hits"] = stats["hits"]
        counts["bench_snapshot_misses"] = stats["misses"]
        return counts

    def transfer(self):
        rng = self.rng
        tid = len(self.legs) + 1
        src = rng.randrange(self.N_ACCOUNTS)
        dst = (src + 1 + rng.randrange(self.N_ACCOUNTS - 1)) % self.N_ACCOUNTS
        amount = rng.randint(1, 99)
        self.legs[tid] = [(tid, 0, src, amount), (tid, 1, dst, -amount)]
        return Stmt(
            "transfer",
            f"INSERT INTO ledger VALUES ({tid}, 0, {src}, {amount}), "
            f"({tid}, 1, {dst}, -{amount})",
        )

    def ledger_read(self, label, tids, bound):
        pred = f"= {tids[0]}" if len(tids) == 1 else f"IN ({', '.join(map(str, tids))})"
        sql = with_bound(LEDGER_SQL.format(pred=pred), bound, "l")
        expect = sorted(leg for tid in tids for leg in self.legs[tid])
        return Stmt(label, sql, bound=bound, expect=expect)

    def draw(self):
        kind = next(self.kinds)
        if kind == "transfer":
            write = self.transfer()
            # Re-read at the loosest bound: the session floor, not currency,
            # decides local versus remote.
            reread = self.ledger_read("ryw", [len(self.legs)], 600.0)
            return [(write, 0), (reread, self.think())]
        bound = next(self.bounds)
        if kind == "account":
            base = ACCOUNT_SQL.format(key=self.rng.randrange(self.N_ACCOUNTS))
            stmt = Stmt("account", with_bound(base, bound, "a"), base, bound=bound)
        else:
            n = 1 if kind == "ledger" else 3
            tids = self.rng.sample(range(1, len(self.legs) + 1), n)
            stmt = self.ledger_read(kind, tids, bound)
        return [(stmt, self.think())]

    def observe(self, stmt, result):
        if stmt.label == "transfer":
            if result != 2:
                self.fail(stmt, f"INSERT reported {result} rows, not 2")
            return
        super().observe(stmt, result)

    def finish(self):
        checker = InvariantChecker(self.target)
        for violation in checker.check_ledger_conservation(
            expected_rows=2 * len(self.legs)
        ):
            self.n_failed += 1
            self.failures.append(f"conservation: {violation}")


CLASSES = {
    "lookup_hot": LookupHot,
    "lookup_adhoc": LookupAdhoc,
    "guard_sweep": GuardSweep,
    "tpcd_mix": TpcdMix,
    "fleet_ledger": FleetLedger,
}


def make(name, seed):
    return CLASSES[name](seed)
