"""The currency guard's decision, as one pure function (paper §3.3).

A SwitchUnion's selector is the paper's predicate
``EXISTS (SELECT 1 FROM Heartbeat_R WHERE TimeStamp > getdate() - B)``,
whose pass rate the cost model prices as formula (1)
(:func:`repro.optimizer.cost.guard_probability`).  :func:`decide` is that
predicate plus what this system adds around it.  It reads no clock,
metrics, events or execution context: ``MTCache.make_currency_guard``
gathers the inputs and applies the decision.
"""

from typing import NamedTuple


class GuardDecision(NamedTuple):
    """One guard probe's decision.

    ``branch`` is local / remote / stale / degraded / error (local, stale
    and degraded serve the local copy).  ``reason`` is fresh /
    session_floor / heartbeat / timeline.  ``lagging_source`` names the
    first source behind the session's floor.  ``remote_state`` is the
    availability consulted, None when the branch never wanted remote.
    The slack ``B - (now - heartbeat_ts)`` is the caller's metric, not
    part of the decision: every local serve is then the one :data:`LOCAL`,
    and the hottest path allocates nothing.
    """

    branch: str
    reason: str
    lagging_source: str | None
    remote_state: str | None


LOCAL = GuardDecision("local", "fresh", None, None)


def decide(bound, heartbeat_ts, now, snapshot_time, timeline, session_floors,
           applied, policy, remote_state, strict):
    """Decide one probe, checking in this order:

    1. a ``strict`` read's session floors (``{source: floor}``) against
       its sources' ``applied`` transactions — a lagging source forces
       the remote branch ("strict when necessary");
    2. heartbeat freshness (``heartbeat_ts`` is the minimum over the
       contributing sources; None, a silent one, is never fresh), then
       the ``timeline`` watermark (a TimelineSession or None);
    3. the fallback ``policy`` on a miss: ``error`` and ``serve_stale``
       decide without looking at availability;
    4. ``remote_state()`` — ``"up"`` / ``"unreachable"`` / ``"failover"``,
       called only when the branch is remote.  An unavailable back-end
       degrades the read to the local copy ("available when
       unreachable"), except that a strict read rides out a failover on
       the remote branch rather than read below its floor.
    """
    lagging = None
    if strict:
        for source, floor in session_floors.items():
            if (applied.get(source) or 0) < floor:
                lagging = source
                break
    if lagging is None:
        fresh = heartbeat_ts is not None and heartbeat_ts > now - bound
        if fresh and (timeline is None or timeline.admits(snapshot_time)):
            return LOCAL
        reason = "timeline" if fresh else "heartbeat"
        if policy == "error":
            return GuardDecision("error", reason, None, None)
        if policy == "serve_stale":
            return GuardDecision("stale", reason, None, None)
    else:
        reason = "session_floor"
    state = remote_state()
    if state == "up" or (state == "failover" and strict):
        return GuardDecision("remote", reason, lagging, state)
    return GuardDecision("degraded", reason, lagging, state)
