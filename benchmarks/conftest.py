"""Shared fixtures for the paper-reproduction benchmarks.

Besides the environment fixtures, this conftest maintains the per-PR
benchmark summaries: tests that opt in via a ``bench_recorder(n)`` (or
legacy ``bench<n>_recorder``) fixture deposit their headline numbers
(qps, p50/p95 latency, speedups) into a shared dict, and at session end
each non-empty dict is merge-written to its ``benchmarks/BENCH_<n>.json``
so the perf trajectory is recorded per PR (BENCH_3: cache fleet; BENCH_4: tracing overhead; BENCH_5: chaos
recovery; BENCH_6: sharded back-end scaling; BENCH_7: columnar engine +
plan snapshots, keyed per engine mode; BENCH_8: session write path +
ledger workload; BENCH_9: history-recording overhead; BENCH_10: shard
replica failover).
"""

import json
import pathlib

import pytest

from repro.workloads.experiment import build_paper_setup

#: Accumulates {workload/section -> metrics} per summary file.
_BENCH = {f"BENCH_{n}.json": {} for n in range(3, 11)}


def _recorder(n):
    return _BENCH[f"BENCH_{n}.json"]


@pytest.fixture(scope="session")
def paper_setup():
    """The §4 environment with SF 1.0 statistics (plan-choice benches)."""
    return build_paper_setup(scale_factor=0.002, paper_scale_stats=True)


@pytest.fixture(scope="session")
def execution_setup():
    """A larger environment with *real* statistics for execution benches."""
    return build_paper_setup(scale_factor=0.01, paper_scale_stats=False)


@pytest.fixture(scope="session")
def bench_recorder():
    """``bench_recorder(n)`` -> the mutable dict whose contents land in
    ``benchmarks/BENCH_<n>.json`` (merge-written at session end)."""
    return _recorder


@pytest.fixture(scope="session")
def bench3_recorder():
    """Mutable dict whose contents land in benchmarks/BENCH_3.json."""
    return _recorder(3)


@pytest.fixture(scope="session")
def bench4_recorder():
    """Mutable dict whose contents land in benchmarks/BENCH_4.json."""
    return _recorder(4)


@pytest.fixture(scope="session")
def bench5_recorder():
    """Mutable dict whose contents land in benchmarks/BENCH_5.json."""
    return _recorder(5)


@pytest.fixture(scope="session")
def bench6_recorder():
    """Mutable dict whose contents land in benchmarks/BENCH_6.json."""
    return _recorder(6)


@pytest.fixture(scope="session")
def bench7_recorder():
    """Mutable dict whose contents land in benchmarks/BENCH_7.json.

    Convention for PR 7: top-level sections keyed by workload, with
    per-engine-mode sub-dicts (``{"scan": {"columnar": {...}, ...}}``).
    """
    return _recorder(7)


def pytest_sessionfinish(session, exitstatus):
    for filename, recorded in _BENCH.items():
        if not recorded:
            continue
        path = pathlib.Path(__file__).resolve().parent / filename
        data = {}
        if path.exists():  # merge, so partial bench runs keep other sections
            try:
                data = json.loads(path.read_text())
            except ValueError:
                data = {}
        data.update(recorded)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
