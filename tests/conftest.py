"""Shared fixtures: the execution paths the differential suites run."""

import pytest

from repro.engine import executor as executor_module

#: The execution paths the engine-parametrized differential suites run
#: (``@pytest.mark.parametrize("engine", EXECUTION_PATHS, indirect=True)``):
#: the row engine, the columnar engine, and ``"batch"`` — the columnar
#: engine with the executor's tiny-plan shortcut off, so every plan, point
#: lookups included, streams column batches through ``col_batches()``
#: instead of running ``all_rows()``.
EXECUTION_PATHS = ("row", "batch", "columnar")


def stream_every_plan(monkeypatch):
    """Turn the executor's tiny-plan shortcut off for one test."""
    monkeypatch.setattr(executor_module, "COLUMNAR_MIN_EST_ROWS", 0)


@pytest.fixture
def engine(request, monkeypatch):
    """The engine name to build servers with, for one execution path."""
    path = request.param
    if path == "batch":
        stream_every_plan(monkeypatch)
        return "columnar"
    return path
