"""Properties of the currency guard's decision, ``repro.cache.guard.decide``.

The paper's contract is that staleness is *declared, never silent*: a
local serve is either current by the heartbeat predicate or flagged.
These properties state that contract, the strict-table session floor,
and formula (1) against the pure function, over generated inputs.
Timestamps are drawn from small integers so boundary ties
(``heartbeat_ts == now - bound``) are common.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.guard import decide
from repro.cc.timeline import TimelineSession
from repro.optimizer.cost import guard_probability

SOURCES = ("backend", "p0", "p1")

times = st.integers(0, 60).map(float)


@st.composite
def timelines(draw):
    if draw(st.booleans()):
        return None
    timeline = TimelineSession()
    timeline.active = draw(st.booleans())
    timeline.watermark = draw(times)
    return timeline


@st.composite
def probes(draw):
    """Keyword arguments for one ``decide`` call (``remote_state`` is the
    answer; :func:`run` wraps it in a call-counting callable)."""
    sources = draw(st.lists(st.sampled_from(SOURCES), min_size=1, unique=True))
    return {
        "bound": draw(times),
        "heartbeat_ts": draw(st.one_of(st.none(), times)),
        "now": draw(times),
        "snapshot_time": draw(times),
        "timeline": draw(timelines()),
        "session_floors": draw(st.dictionaries(
            st.sampled_from(sources), st.integers(1, 5))),
        "applied": {s: draw(st.integers(0, 5)) for s in sources},
        "policy": draw(st.sampled_from(["remote", "error", "serve_stale"])),
        "remote_state": draw(st.sampled_from(["up", "unreachable", "failover"])),
        "strict": draw(st.booleans()),
    }


def run(probe, **overrides):
    """Decide ``probe``; returns (decision, availability probe count)."""
    args = {**probe, **overrides}
    state, calls = args.pop("remote_state"), []
    decision = decide(**args, remote_state=lambda: calls.append(state) or state)
    return decision, len(calls)


def lagging(probe):
    return probe["strict"] and any(
        probe["applied"].get(source, 0) < floor
        for source, floor in probe["session_floors"].items()
    )


@settings(max_examples=400)
@given(probes())
def test_never_silent(probe):
    decision, _ = run(probe)
    if decision.branch == "local":
        assert decision.reason == "fresh"
        assert probe["heartbeat_ts"] is not None
        assert probe["heartbeat_ts"] > probe["now"] - probe["bound"]
        timeline = probe["timeline"]
        assert timeline is None or timeline.admits(probe["snapshot_time"])
        assert not lagging(probe)
    else:
        # Any other decision — the stale and degraded serves of the local
        # copy included — is declared, with the reason it was not fresh.
        assert decision.reason != "fresh"


@settings(max_examples=300)
@given(probes(), st.integers(1, 60).map(float))
def test_local_stays_local_at_a_looser_bound(probe, extra):
    decision, _ = run(probe)
    if decision.branch == "local":
        looser, _ = run(probe, bound=probe["bound"] + extra)
        assert looser.branch == "local"


@given(probes())
def test_silent_shard_is_never_fresh(probe):
    decision, _ = run(probe, heartbeat_ts=None)
    assert decision.branch != "local"
    assert decision.reason in ("heartbeat", "session_floor")


@settings(max_examples=300)
@given(probes())
def test_strict_lagging_floor_is_never_local_nor_degraded_in_failover(probe):
    probe = {**probe, "strict": True}
    if not lagging(probe):
        return
    decision, _ = run(probe)
    assert decision.branch not in ("local", "stale", "error")
    assert decision.reason == "session_floor"
    assert decision.lagging_source in probe["session_floors"]
    failover, _ = run(probe, remote_state="failover")
    assert failover.branch == "remote"


@settings(max_examples=300)
@given(probes())
def test_availability_is_probed_only_for_the_remote_branch(probe):
    decision, probes_made = run(probe)
    assert probes_made == (decision.branch in ("remote", "degraded"))
    if decision.branch == "degraded":
        assert decision.remote_state in ("unreachable", "failover")
        assert not (probe["strict"] and decision.remote_state == "failover")


GRID = 200


@settings(max_examples=150)
@given(
    bound=st.floats(0.0, 40.0),
    delay=st.floats(0.0, 10.0),
    interval=st.floats(0.5, 20.0),
    w=st.floats(0.0, 1000.0),
)
def test_local_fraction_over_one_period_is_formula_1(bound, delay, interval, w):
    """Heartbeat ``w - d`` swept over one propagation period ``[w, w+f)``:
    the fraction of local decisions is ``clamp((B - d) / f, 0, 1)``."""
    local = 0
    for i in range(GRID):
        decision = decide(bound, w - delay, w + interval * i / GRID, w, None, {},
                          {}, "remote", lambda: "up", False)
        local += decision.branch == "local"
    expected = guard_probability(bound, delay, interval)
    assert abs(local / GRID - expected) <= 1 / GRID + 1e-9
