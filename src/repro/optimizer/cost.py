"""The cost model.

Costs are abstract units roughly proportional to row touches; network terms
dominate remote plans the way they do in a real mid-tier deployment, which
is what drives the paper's plan-1-vs-plan-2 choice (ship the join result vs
ship the two sources and join locally) and the Q6/Q7 index-vs-local-scan
choice.

The SwitchUnion formula is the paper's §3.2.4:

    c = p * c_local + (1 - p) * c_remote + c_guard

with ``p`` from formula (1):

    p = 0              if B - d <= 0
    p = (B - d) / f    if 0 < B - d <= f
    p = 1              if B - d > f

``f = 0`` (continuous propagation) degenerates to a step function, which the
formula above handles by the convention 0/0 -> use the B > d test.
"""

import math


def guard_probability(bound, delay, interval):
    """Probability that a currency guard passes (paper formula (1)).

    ``bound`` is the query's currency bound B, ``delay`` the propagation
    delay d, ``interval`` the propagation interval f.  Unbounded B gives 1.
    """
    if bound is None or math.isinf(bound):
        return 1.0
    slack = bound - delay
    if slack <= 0:
        return 0.0
    if interval <= 0:
        return 1.0  # continuous propagation and B > d
    if slack > interval:
        return 1.0
    return slack / interval


class CostModel:
    """Tunable constants plus derived per-operator cost formulas."""

    def __init__(
        self,
        seq_row=1.0,
        index_descent=8.0,
        index_row=1.2,
        filter_row=0.2,
        project_row=0.1,
        hash_build_row=1.6,
        hash_probe_row=1.1,
        merge_row=0.8,
        sort_row_log=0.25,
        agg_row=1.2,
        remote_query_overhead=4000.0,
        net_byte=1.0,
        guard_cost=25.0,
        output_row=0.05,
    ):
        self.seq_row = seq_row
        self.index_descent = index_descent
        self.index_row = index_row
        self.filter_row = filter_row
        self.project_row = project_row
        self.hash_build_row = hash_build_row
        self.hash_probe_row = hash_probe_row
        self.merge_row = merge_row
        self.sort_row_log = sort_row_log
        self.agg_row = agg_row
        #: Fixed cost of issuing one remote query (connection, parse, bind).
        self.remote_query_overhead = remote_query_overhead
        #: Cost per byte shipped from the back-end to the cache.
        self.net_byte = net_byte
        #: Cost of evaluating one currency guard (heartbeat row + filter).
        self.guard_cost = guard_cost
        self.output_row = output_row

    # ------------------------------------------------------------------
    # Fused pipelines
    # ------------------------------------------------------------------
    #: CPU discount of a fused local pipeline (scan + filter + positional
    #: project) relative to the per-row costs: filters run as generated
    #: kernels over column buffers, projections pick columns, rows
    #: materialize once at the boundary.  Kept mild — the guarded
    #: local-vs-remote tradeoff (switch_union) must not flip on it.
    fused_row_factor = 0.55 * 0.75
    #: Fixed cost of handing one batch of up to 256 rows between
    #: operators.
    batch_dispatch = 0.5 * 0.5

    def fused_pipeline(self, per_row_cost, rows):
        """Cost of a fused local pipeline over ``rows`` input rows.

        ``per_row_cost`` is the per-row cost of the fused stages combined
        (e.g. ``seq_row + filter_row``); the pipeline pays it discounted
        per row plus dispatch per 256-row batch.
        """
        return (
            max(1.0, rows) * per_row_cost * self.fused_row_factor
            + math.ceil(max(0.0, rows) / 256) * self.batch_dispatch
        )

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def seq_scan(self, table_rows):
        return max(1.0, table_rows) * self.seq_row

    def index_seek(self, matched_rows):
        return self.index_descent + max(0.0, matched_rows) * self.index_row

    def index_range(self, matched_rows):
        return self.index_descent + max(0.0, matched_rows) * self.index_row

    def filter(self, input_rows):
        return input_rows * self.filter_row

    def project(self, input_rows):
        return input_rows * self.project_row

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def hash_join(self, probe_rows, build_rows, output_rows):
        return (
            build_rows * self.hash_build_row
            + probe_rows * self.hash_probe_row
            + output_rows * self.output_row
        )

    def merge_join(self, left_rows, right_rows, output_rows):
        return (left_rows + right_rows) * self.merge_row + output_rows * self.output_row

    def index_nl_join(self, outer_rows, rows_per_probe, output_rows):
        return (
            outer_rows * (self.index_descent + rows_per_probe * self.index_row)
            + output_rows * self.output_row
        )

    # ------------------------------------------------------------------
    # Other operators
    # ------------------------------------------------------------------
    def sort(self, rows):
        if rows <= 1:
            return 1.0
        return rows * math.log2(rows) * self.sort_row_log

    def aggregate(self, input_rows):
        return input_rows * self.agg_row

    def transfer(self, rows, row_width):
        """Network cost of shipping ``rows`` rows of ``row_width`` bytes."""
        return self.remote_query_overhead + rows * row_width * self.net_byte

    def switch_union(self, p, local_cost, remote_cost):
        """Paper §3.2.4 expected cost of a guarded access."""
        return p * local_cost + (1.0 - p) * remote_cost + self.guard_cost

