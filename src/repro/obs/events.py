"""A bounded structured event log for operator-facing state changes.

Metrics answer "how much / how often"; the event log answers "what
happened and when".  Components record typed events — guard decisions,
circuit-breaker transitions, degraded-mode fallbacks, replication-agent
propagation, injected outages — with a severity and arbitrary key/value
attributes, into a fixed-capacity ring (newest wins), so the CLI's
``\\events`` and :meth:`CacheFleet.slo_report` can reconstruct the
recent timeline of a run without unbounded memory.
"""

from repro.obs.ring import Ring

__all__ = ["Event", "EventLog", "SEVERITIES"]

#: Severity names in ascending order of urgency.
SEVERITIES = {"debug": 0, "info": 1, "warning": 2, "error": 3}


class Event:
    """One typed occurrence: what kind, how bad, when, and details."""

    __slots__ = ("kind", "severity", "message", "time", "attrs")

    def __init__(self, kind, message, severity="info", time=None, attrs=None):
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        self.kind = kind
        self.message = message
        self.severity = severity
        self.time = time
        self.attrs = attrs or {}

    def __repr__(self):
        when = f"t={self.time:g} " if self.time is not None else ""
        return f"Event({when}[{self.severity}] {self.kind}: {self.message})"


class EventLog(Ring):
    """Fixed-capacity ring of :class:`Event` records."""

    def __init__(self, capacity=256):
        super().__init__(capacity)
        #: Optional live tap (``sink(event)`` on every record): the ring
        #: forgets, the sink — e.g. a history recorder — keeps the full
        #: sequence of a run.
        self.sink = None

    def record(self, kind, message, severity="info", time=None, **attrs):
        """Append an event; returns it (or None when capacity is 0)."""
        if not self._entries.maxlen:
            return None
        event = Event(kind, message, severity=severity, time=time, attrs=attrs)
        self._entries.append(event)
        if self.sink is not None:
            self.sink(event)
        return event

    def recent(self, n=20, kind=None, min_severity=None):
        """The last ``n`` events, optionally filtered by kind/severity."""
        entries = list(self._entries)
        if kind is not None:
            entries = [e for e in entries if e.kind == kind]
        if min_severity is not None:
            floor = SEVERITIES[min_severity]
            entries = [e for e in entries if SEVERITIES[e.severity] >= floor]
        return self._last(entries, n)

    def counts_by_kind(self):
        out = {}
        for event in self._entries:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def counts_by_severity(self):
        out = {}
        for event in self._entries:
            out[event.severity] = out.get(event.severity, 0) + 1
        return out
