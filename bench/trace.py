"""Spans recorded from outside the program, at its layer boundaries.

:func:`installed` wraps the layer-boundary callables on their classes
*before* an environment is built — the scheduler captures bound methods
at ``start()``, so a wrapper installed later would miss the agents — and
restores them afterwards.  A span is ``(name, start_ns, end_ns, parent,
op_id)``; ``parent`` is the index of the enclosing span (-1 at the root)
and ``op_id`` the index of the statement the client was executing (-1 for
background work between statements).  Spans stay in memory and are
written out when the run ends.
"""

import contextlib
import functools
import json
from array import array
from time import perf_counter_ns


class Recorder:
    """In-memory span sink.  The trial loop sets ``op_id`` around every
    statement whether or not recording is enabled.  Finished spans go into
    one flat integer array (six per span), so recording leaves no objects
    for the garbage collector to walk."""

    FIELDS = 6  # id, name index, start_ns, end_ns, parent id, op_id

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.names = []
        self._data = array("q")
        self._next_id = 0
        self._stack = []

    def wrap(self, name, fn):
        self.names.append(name)
        name_index = len(self.names) - 1
        data, stack = self._data, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                data.extend((span_id, name_index, start, end, parent, self.op_id))

        return traced

    def spans(self):
        """The finished spans as ``(name, start_ns, end_ns, parent, op_id)``
        tuples, indexed by span id (spans finish children-first)."""
        data, names, n = self._data, self.names, self.FIELDS
        out = [None] * (len(data) // n)
        for i in range(0, len(data), n):
            span_id, name_index, start, end, parent, op_id = data[i:i + n]
            out[span_id] = (names[name_index], start, end, parent, op_id)
        return out


def boundaries():
    """``(owner, attribute, span name)`` for every wrapped callable.  The
    span name's prefix is the layer (module under ``src/repro/``)."""
    from repro.cache import mtcache
    from repro.cache.backend import BackendServer
    from repro.common.backend import Backend
    from repro.common.scheduler import EventScheduler
    from repro.engine.executor import Executor
    from repro.fleet.fleet import CacheFleet
    from repro.fleet.network import SimulatedNetwork
    from repro.replication.agent import DistributionAgent
    from repro.shard.backend import ShardedBackend
    from repro.shard.replica import ShardReplica
    from repro.txn.manager import TransactionManager

    return (
        (mtcache.MTCache, "execute", "cache.execute"),
        # Imported by name into mtcache, so the module global is the hook.
        (mtcache, "instantiate_snapshot", "plan.instantiate_snapshot"),
        (Executor, "execute", "engine.execute"),
        (BackendServer, "execute_remote", "backend.execute_remote"),
        (BackendServer, "execute_select", "backend.execute_select"),
        (Backend, "execute_dml", "backend.execute_dml"),
        (ShardedBackend, "execute_remote", "shard.execute_remote"),
        (ShardReplica, "tail", "shard.replica_tail"),
        (TransactionManager, "run", "txn.run"),
        (DistributionAgent, "propagate", "replication.propagate"),
        (EventScheduler, "run_for", "common.run_for"),
        (CacheFleet, "execute", "fleet.execute"),
        (SimulatedNetwork, "call", "fleet.net_call"),
    )


@contextlib.contextmanager
def installed(recorder):
    """Wrap every boundary for the duration of the block."""
    originals = []
    try:
        for owner, attr, name in boundaries():
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def self_times(spans):
    """Per-span self time: duration minus the time its children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def totals(spans):
    """Aggregate spans by name: ``{name: {"count", "dur_ns", "self_ns",
    "op_self_ns"}}``; ``op_self_ns`` is the self time inside statements
    (``op_id >= 0``), the part that adds up to statement latency."""
    out = {}
    for (name, start, end, _, op_id), own in zip(spans, self_times(spans)):
        agg = out.setdefault(
            name, {"count": 0, "dur_ns": 0, "self_ns": 0, "op_self_ns": 0}
        )
        agg["count"] += 1
        agg["dur_ns"] += end - start
        agg["self_ns"] += own
        if op_id >= 0:
            agg["op_self_ns"] += own
    return out


def write_spans(spans, path):
    keys = ("name", "start_ns", "end_ns", "parent", "op_id")
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(dict(zip(keys, span))) + "\n")
