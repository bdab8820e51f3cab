"""Shared fixtures: the execution paths the differential suites run."""

import pytest

from repro.engine import executor as executor_module
from repro.engine.executor import ExecutionContext

#: The execution paths the differential suites run
#: (``@pytest.mark.parametrize("path", EXECUTION_PATHS, indirect=True)``):
#: ``"columnar"`` is the executor's own rule — a tiny plan runs
#: ``all_rows()``, every other plan streams ``col_batches()`` — and
#: ``"batch"`` turns the tiny-plan shortcut off, so every plan, point
#: lookups included, streams column batches.  stdlib sqlite3
#: (:mod:`tests.sql_reference`) grades the rows of both.
EXECUTION_PATHS = ("batch", "columnar")


def stream_every_plan(monkeypatch):
    """Turn the executor's tiny-plan shortcut off for one test."""
    monkeypatch.setattr(executor_module, "COLUMNAR_MIN_EST_ROWS", 0)


def each_path():
    """Run a loop body once per execution path, that path in force (for a
    test that checks both paths itself)."""
    for path in EXECUTION_PATHS:
        with pytest.MonkeyPatch.context() as mp:
            if path == "batch":
                stream_every_plan(mp)
            yield path


@pytest.fixture
def path(request, monkeypatch):
    """One execution path: the name, with the shortcut off for "batch"."""
    if request.param == "batch":
        stream_every_plan(monkeypatch)
    return request.param


def drain(tree, protocol, size=None):
    """Open a hand-built operator tree and read it whole through one
    protocol: ``"all_rows"`` (a tiny plan's run, ``ctx.engine = "row"``)
    or ``"col_batches"`` (a streamed run, ``col_batches(size)``)."""
    ctx = ExecutionContext()
    ctx.engine = "row" if protocol == "all_rows" else "columnar"
    tree.open(ctx)
    try:
        if protocol == "all_rows":
            return tree.all_rows()
        batches = tree.col_batches() if size is None else tree.col_batches(size)
        return [row for batch in batches for row in batch.to_rows()]
    finally:
        tree.close()


def run_protocols(build_tree, size=None):
    """Rows of a fresh ``build_tree()`` per protocol; each tree runs twice
    and must repeat itself (a plan-cached tree is reused)."""
    out = {}
    for protocol in ("all_rows", "col_batches"):
        tree = build_tree()
        first = drain(tree, protocol, size)
        assert drain(tree, protocol, size) == first, protocol
        out[protocol] = first
    return out
