"""Trace spans and cross-tier trace context.

A query's spans are written as flat *records* and read as :class:`Span`
objects.  A :class:`TraceContext` is an append-only list of
``[name, attrs, parent index, start, end, registry span]`` records plus
the index of the innermost one still open, whose parent chain is the
stack of open records: ``open`` appends a record, ``close`` stamps its
end time — no objects, so tracing stays on for every query.
A record's position is its identity (``span_id`` is ``s<index + 1>``,
its parent the index that was innermost when it opened), and the one
trace is handed down every tier a query crosses — fleet router, a
node's MTCache, the simulated network — so the records form one tree.
Reading (``trace.spans``, :class:`TraceExporter`, the CLI's ``\\trace``)
materialises a :class:`Span` view per record; name, parent, depth,
elapsed and the id strings exist only once somebody looks.

Registry spans (``registry.span("parse")``) are real :class:`Span`
context managers: they nest on their registry's stack, land in its
bounded :class:`SpanLog` ring, feed its ``span_seconds`` histograms and,
when the registry has an ``active_trace``, enrol in it by opening a
record that points back at them.  Finished traces land in a
:class:`TraceLog` ring.
"""

import collections
import contextlib
import itertools
import json
import time

from repro.obs.ring import Ring

__all__ = [
    "Span",
    "SpanLog",
    "TraceContext",
    "TraceLog",
    "TraceExporter",
    "NULL_SPAN",
    "NULL_TRACE",
]


class Span:
    """One timed, possibly nested, section of work.

    Either a registry span, used as a context manager::

        with registry.span("optimize"):
            with registry.span("enumerate_joins"):
                ...

    or the read-side view of one :class:`TraceContext` record.  After
    exit, ``elapsed`` holds the wall time in seconds, ``parent`` the
    enclosing span's name (or None at top level) and ``depth`` the
    nesting level (0 at top level).  A span that belongs to a trace
    additionally carries ``trace_id`` / ``span_id`` / ``parent_id``
    identity and an ``attrs`` dict of caller-provided annotations.
    """

    __slots__ = (
        "name",
        "parent",
        "depth",
        "start",
        "elapsed",
        "attrs",
        "trace_id",
        "span_id",
        "parent_id",
        "_registry",
        "_trace",
        "_index",
    )

    def __init__(self, name, registry=None):
        self.name = name
        self._registry = registry
        self._trace = None
        self._index = None
        self.attrs = None
        self.parent = None
        self.depth = 0
        self.start = None
        self.elapsed = None
        self.trace_id = self.span_id = self.parent_id = None

    def __enter__(self):
        registry = self._registry
        stack = registry.span_log.stack
        if stack:
            self.parent = stack[-1].name
            self.depth = len(stack)
        stack.append(self)
        trace = registry.active_trace
        if trace:
            self._trace = trace
            self._index = trace.open(self.name, owner=self)
            trace._describe(self, self._index)
        else:
            self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._close()
        return False

    def _close(self, end=None):
        """Finish through the trace when enrolled (the record is closed
        and calls back :meth:`_finish`), else directly."""
        if self._trace is not None:
            self._trace.close(self._index, end)
        else:
            self._finish(time.perf_counter() if end is None else end)

    def _finish(self, end):
        """The registry half of finishing, at time ``end``; idempotent.

        The span leaves its registry's stack *wherever it sits*: if an
        exception unwound past nested spans, everything above it is an
        orphan that will never see its own ``__exit__``, so those spans
        are closed here (with this span's end time) to keep parent/depth
        attribution intact for later spans.
        """
        if self.elapsed is not None:
            return
        self.elapsed = end - self.start
        registry = self._registry
        stack = registry.span_log.stack
        if self in stack:
            at = stack.index(self)
            orphans = stack[at + 1 :]
            del stack[at:]
            for orphan in reversed(orphans):
                orphan._close(end)
        registry._finish_span(self)

    def __repr__(self):
        elapsed = f"{self.elapsed * 1e3:.3f}ms" if self.elapsed is not None else "open"
        ident = f" {self.trace_id}/{self.span_id}" if self.trace_id else ""
        return f"Span({self.name!r}, depth={self.depth}, {elapsed}{ident})"


class SpanLog(Ring):
    """Bounded ring of finished spans plus the live nesting stack."""

    def __init__(self, capacity=512):
        super().__init__(capacity)
        self.stack = []  # currently open spans, innermost last

    def clear(self):
        super().clear()
        self.stack.clear()


#: Each executor phase and the one its end starts (see ``stamps``).
_NEXT_PHASE = {"exec.setup": "exec.run", "exec.run": "exec.shutdown", "exec.shutdown": None}


class TraceContext:
    """Identity and span records for one end-to-end query.

    A trace is created by whichever tier first sees the query (the fleet
    router, or MTCache itself for single-cache use) and passed down the
    call chain; every span opened on it — directly with :meth:`open`, or
    by a registry span while it is that registry's ``active_trace`` —
    becomes a record whose parent is the innermost record still open,
    regardless of which registry the span reports to.

    A plan run's spine — ``mtcache.execute`` over ``exec.setup``,
    ``exec.run`` and ``exec.shutdown`` — is kept as the clock reads in
    ``stamps``: a bare time ends the open executor phase, if any, and
    starts the next (``exec.setup`` when none is open); an attrs dict
    then a time opens ``mtcache.execute``; None then a time closes the
    innermost one still open.  Every writer and reader first calls
    :meth:`_write`, which turns them into the records an eager spine
    would have written.
    """

    __slots__ = ("_seq", "_records", "_done", "_top", "stamps")

    _ids = itertools.count(1)

    def __init__(self):
        self._seq = next(TraceContext._ids)
        self._records = None  # the record lists, made by the first _write()
        self.stamps = []  # spine clock reads not yet written as records

    @property
    def trace_id(self):
        return f"t{self._seq:06d}"

    # -- write side ----------------------------------------------------
    def open(self, name, attrs=None, owner=None):
        """Start a span now; returns its index, the handle for
        :meth:`annotate` and :meth:`close`.  ``owner`` is the registry
        :class:`Span` enrolling itself, told when the record closes."""
        self._write()
        return self._push(name, attrs, owner, time.perf_counter())

    def _push(self, name, attrs, owner, start):
        records = self._records
        index = len(records)
        records.append([name, attrs, self._top, start, None, owner])
        self._top = index
        return index

    def _write(self):
        """Write the pending spine stamps as records, oldest first."""
        if self._records is None:
            self._records = []  # [name, attrs, parent, start, end, owner], open order
            self._done = []  # indices of finished records, completion order
            self._top = -1  # the innermost open record; its parents are open too
        stamps = self.stamps
        if not stamps:
            return
        records = self._records
        items = iter(stamps)
        for item in items:
            if item is None:
                index = self._top
                while records[index][0] != "mtcache.execute":
                    index = records[index][2]
                self._close(index, next(items))
            elif type(item) is dict:
                self._push("mtcache.execute", item, None, next(items))
            else:
                top = self._top
                name = records[top][0] if top >= 0 else None
                if name in _NEXT_PHASE:  # the stamp ends that phase
                    self._close(top, item)
                name = _NEXT_PHASE.get(name, "exec.setup")
                if name is not None:
                    self._push(name, None, None, item)
        stamps.clear()

    def annotate(self, index, key, value):
        """Set one attr on a span that is already open."""
        record = self._records[index]
        if record[1] is None:
            record[1] = {}
        record[1][key] = value

    def close(self, index, end=None):
        """Finish span ``index`` (now, unless ``end`` is given); idempotent.

        Spans still open above it are orphans — an exception unwound past
        them — and finish innermost first with the same end time.
        """
        if end is None:
            end = time.perf_counter()
        self._write()
        self._close(index, end)

    def _close(self, index, end):
        records = self._records
        if records[index][4] is not None:
            return
        # Orphans first: the parent chain from the innermost open record.
        top, self._top = self._top, records[index][2]
        while True:
            record = records[top]
            record[4] = end
            self._done.append(top)
            if record[5] is not None:
                record[5]._finish(end)
            if top == index:
                return
            top = record[2]

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """``with trace.span(name, **attrs):`` around :meth:`open`/:meth:`close`."""
        index = self.open(name, attrs or None)
        try:
            yield index
        finally:
            self.close(index)

    # -- read side -----------------------------------------------------
    def _depth(self, index):
        """Nesting depth of record ``index``; a registry span on the
        chain contributes the depth its own stack gave it."""
        depth = 0
        while True:
            _, _, parent, _, _, owner = self._records[index]
            if owner is not None:
                return depth + owner.depth
            if parent < 0:
                return depth
            index = parent
            depth += 1

    def _describe(self, span, index):
        """Give ``span`` the identity and position of record ``index``."""
        parent, span.start = self._records[index][2:4]
        span.trace_id = self.trace_id
        span.span_id = f"s{index + 1}"
        if parent >= 0:
            span.parent_id = f"s{parent + 1}"
            if span.parent is None:
                span.parent = self._records[parent][0]
                span.depth = self._depth(parent) + 1

    def _view(self, index):
        name, attrs, _, start, end, span = self._records[index]
        if span is None:
            span = Span(name)
            span.attrs = attrs
            if end is not None:
                span.elapsed = end - start
            self._describe(span, index)
        return span

    @property
    def spans(self):
        """The finished spans, in completion order (views built per read)."""
        self._write()
        return [self._view(index) for index in self._done]

    @property
    def stack(self):
        """Indices of the open records, innermost last."""
        self._write()
        stack, index = [], self._top
        while index >= 0:
            stack.append(index)
            index = self._records[index][2]
        return stack[::-1]

    @property
    def finished(self):
        self._write()
        return self._top < 0

    def root(self):
        """The first finished span with no parent (None while running)."""
        self._write()
        for index in self._done:
            if self._records[index][2] < 0:
                return self._view(index)
        return None

    def duration(self):
        """Wall seconds from earliest span start to latest span end."""
        self._write()
        done = [self._records[index] for index in self._done]
        if not done:
            return 0.0
        return max(r[4] for r in done) - min(r[3] for r in done)

    def __len__(self):
        self._write()
        return len(self._done)

    def __bool__(self):
        # ``if trace:`` is the tracing fast-path test everywhere; without
        # this, __len__ would make a fresh (0-span) trace falsy.
        return True

    def __repr__(self):
        return f"TraceContext({self.trace_id!r}, spans={len(self)})"


class _NullTrace:
    """Falsy no-op trace returned by ``NullRegistry.new_trace()``.

    Truthiness is the fast-path test (``if trace:``), so code holding a
    NULL_TRACE skips trace work entirely and nothing is recorded.
    """

    __slots__ = ()
    trace_id = None
    spans = ()
    stack = ()
    stamps = collections.deque(maxlen=0)  # the untraced executor's sink
    finished = True

    def __bool__(self):
        return False

    def span(self, name, **attrs):
        return NULL_SPAN

    def root(self):
        return None

    def duration(self):
        return 0.0

    def __len__(self):
        return 0

    def __repr__(self):
        return "<NullTrace>"


class TraceLog(Ring):
    """Bounded ring of finished traces (newest wins)."""

    def __init__(self, capacity=64):
        super().__init__(capacity)

    def record(self, trace):
        # Pending spine stamps make a trace non-empty without writing them.
        if trace.stamps or len(trace):
            self._entries.append(trace)

    def get(self, trace_id):
        for trace in reversed(self._entries):
            if trace.trace_id == trace_id:
                return trace
        return None


class TraceExporter:
    """Render a finished :class:`TraceContext` for humans and tools."""

    @staticmethod
    def _in_start_order(trace):
        if trace is None:
            return []
        return sorted(trace.spans, key=lambda s: (s.start, s.span_id))

    @staticmethod
    def _format_span(span):
        elapsed = span.elapsed if span.elapsed is not None else 0.0
        text = f"{span.name}  {elapsed * 1e3:.3f}ms"
        if span.attrs:
            inner = ", ".join(f"{k}={v}" for k, v in span.attrs.items())
            text += f"  [{inner}]"
        return text

    @classmethod
    def ascii_tree(cls, trace):
        """The trace as an indented ASCII tree, one line per span."""
        spans = cls._in_start_order(trace)
        if not spans:
            return "(empty trace)"
        children = {}  # parent_id (None: roots) -> spans, in start order
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)
        lines = [
            f"trace {trace.trace_id}: {len(spans)} spans, "
            f"{trace.duration() * 1e3:.3f}ms"
        ]

        def walk(kids, prefix):
            for i, span in enumerate(kids):
                is_last = i == len(kids) - 1
                lines.append(prefix + ("└─ " if is_last else "├─ ") + cls._format_span(span))
                walk(children.get(span.span_id, []), prefix + ("   " if is_last else "│  "))

        walk(children.get(None, []), "")
        return "\n".join(lines)

    @classmethod
    def chrome_json(cls, trace):
        """Chrome ``trace_event`` JSON (load via chrome://tracing)."""
        events = []
        spans = cls._in_start_order(trace)
        base = min((s.start for s in spans), default=0.0)
        for span in spans:
            args = {"span_id": span.span_id}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            if span.attrs:
                args.update({k: str(v) for k, v in span.attrs.items()})
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": round((span.start - base) * 1e6, 3),
                    "dur": round((span.elapsed or 0.0) * 1e6, 3),
                    "pid": 0,
                    "tid": 0,
                    "args": args,
                }
            )
        return json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}, indent=2, sort_keys=True
        )


class _NullSpan:
    """Reusable no-op span for :class:`~repro.obs.metrics.NullRegistry`."""

    __slots__ = ()
    name = None
    parent = None
    depth = 0
    elapsed = 0.0
    attrs = None
    trace_id = None
    span_id = None
    parent_id = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = _NullSpan()

#: Shared falsy trace: ``NullRegistry.new_trace()`` hands this out.
NULL_TRACE = _NullTrace()
