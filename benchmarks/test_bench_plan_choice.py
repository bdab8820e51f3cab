"""Benchmark: Tables 4.1–4.3 and Figure 4.1 — optimizer plan choices.

For each query variant Q1–Q7 the benchmark times optimization and asserts
that the chosen plan matches the paper's rightmost column of Table 4.3:

====  =========================================================
Q1    plan 1 — whole query remote (selective join, default C&C)
Q2    plan 2 — local join of two remote base-table fetches
Q3    plan 1 — remote (consistency class spans two regions)
Q4    plan 4 — mixed: remote Customer + guarded orders_prj
Q5    plan 5 — local join of two guarded views
Q6    remote (back-end secondary index beats local scan, 53 rows)
Q7    guarded local view (5975-row range)
====  =========================================================

Run:  pytest benchmarks/test_bench_plan_choice.py --benchmark-only -s
"""

import pytest

from repro.engine import operators as ops
from repro.workloads.queries import plan_choice_query

EXPECTED = {
    "q1": "remote",
    "q2": "hashjoin(remote, remote)",
    "q3": "remote",
    "q4": "hashjoin(guarded(orders_prj), remote)",
    "q5": "hashjoin(guarded(orders_prj), guarded(cust_prj))",
    "q6": "remote",
    "q7": "guarded(cust_prj)",
}

_chosen = {}


@pytest.mark.parametrize("name", list(EXPECTED))
def test_plan_choice(paper_setup, benchmark, name):
    cache = paper_setup.cache
    sql = plan_choice_query(name)

    plan = benchmark(lambda: cache.optimize(sql))

    summary = plan.summary()
    _chosen[name] = summary
    assert summary == EXPECTED[name], f"{name}: expected {EXPECTED[name]}, got {summary}"

    # Figure 4.1's invariant: every local data access sits under a guard
    # (the unbounded case aside, which these queries never use).
    for op in plan.root().walk():
        if isinstance(op, (ops.SeqScan, ops.IndexSeek, ops.IndexRangeScan)):
            assert cache.catalog.has_matview(op.table.name)


def test_report_tables(paper_setup, benchmark):
    """Print Table 4.1 and the reproduced Table 4.3 plan column."""
    benchmark(lambda: None)
    print("\n\n=== Table 4.1: currency region settings ===")
    print(f"{'cid':5} {'interval':>8} {'delay':>6}  views")
    for cid, interval, delay, view in paper_setup.region_table():
        print(f"{cid:5} {interval:8.0f} {delay:6.0f}  {view}")
    print("\n=== Table 4.3 (plan column) — paper vs reproduction ===")
    print(f"{'query':6} {'paper plan':45} {'reproduced':45}")
    paper_names = {
        "q1": "plan 1: remote query",
        "q2": "plan 2: local join of two remote fetches",
        "q3": "plan 1: remote query (consistency)",
        "q4": "plan 4: mixed local/remote",
        "q5": "plan 5: both local, guarded",
        "q6": "remote (cost: back-end index)",
        "q7": "local view (cost: transfer volume)",
    }
    for name in EXPECTED:
        print(f"{name:6} {paper_names[name]:45} {_chosen.get(name, '?'):45}")
