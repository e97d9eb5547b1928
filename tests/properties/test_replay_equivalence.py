"""The change-driven replay against the merge loop it replaced.

``evaluate_policy`` calls the protocol only when the (view, replica
state) pair can have changed: it indexes one shared view timeline, feeds
the tracker the verdict ``synchronize`` / ``recover_stale`` return, and
carries an access that directly follows another access.  The loop it used
to run — a fresh ``Topology.view`` per transition, one ``synchronize`` per
access, an ``is_available`` probe after every event — lives on here, and
only here, as the reference the replay must agree with in every field of
the result.  Two algebraic properties back the shortcuts: the returned
verdict is the one a fresh ``evaluate`` gives, and ``synchronize`` is
idempotent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PAPER_POLICIES,
    DynamicVotingWithWitnesses,
    OptimisticWeightedDynamicVoting,
    TopologicalDynamicVotingWithWitnesses,
    WeightedDynamicVoting,
    WeightedTopologicalDynamicVoting,
    available_policies,
    make_protocol,
)
from repro.errors import QuorumNotReachedError
from repro.experiments.evaluator import (
    EvaluationResult,
    _batch_interval,
    evaluate_policy,
    view_timeline,
)
from repro.failures.trace import FailureTrace, TraceEvent
from repro.net.sites import Site, site_mask
from repro.net.topology import SegmentedTopology
from repro.obs.tracer import MemorySink, Tracer
from repro.replica.state import ReplicaSet
from repro.stats.tracker import AvailabilityTracker


# ----------------------------------------------------------------------
# the reference: the merge loop, one probe after every event
# ----------------------------------------------------------------------
def reference_evaluate_policy(policy, topology, copy_sites, trace, warmup,
                              batches, access_times):
    """Merge the two streams (on a tie the transition goes first);
    synchronise eagerly per transition or optimistically per access; then
    ask ``is_available`` of the same view and state."""
    replicas = ReplicaSet(copy_sites)
    protocol = policy(replicas)
    up = site_mask(trace.site_ids)
    view = topology.view(up)
    tracker = AvailabilityTracker(
        0.0, initially_up=protocol.is_available(view), warmup=warmup,
        keep_periods=True)
    synchronizations = 0
    events = trace.events
    accesses = access_times if not protocol.eager else ()
    i = j = 0
    while i < len(events) or j < len(accesses):
        if j >= len(accesses) or (
                i < len(events) and events[i].time <= accesses[j]):
            event = events[i]
            i += 1
            if event.up:
                up |= 1 << event.site_id
            else:
                up &= ~(1 << event.site_id)
            view = topology.view(up)
            now = event.time
            if protocol.eager:
                protocol.synchronize(view)
                synchronizations += 1
            else:
                protocol.recover_stale(view)
        else:
            now = accesses[j]
            j += 1
            protocol.synchronize(view)
            synchronizations += 1
        tracker.set_state(now, protocol.is_available(view))
    tracker.finish(trace.horizon)
    return EvaluationResult(
        policy=protocol.name,
        unavailability=tracker.unavailability(),
        mean_down_duration=tracker.mean_down_duration(),
        down_periods=tracker.down_period_count,
        observed_time=tracker.observed_time,
        interval=_batch_interval(tracker, warmup, trace.horizon, batches),
        committed_operations=max(
            replicas.state(s).operation for s in copy_sites),
        synchronizations=synchronizations,
        down_durations=tuple(p.duration for p in tracker.periods),
    )


# ----------------------------------------------------------------------
# policies: the registry's, and every extension built by a factory
# ----------------------------------------------------------------------
def _witnessed(cls):
    return lambda replicas: cls(
        replicas, witness_sites={max(replicas.copy_sites)})


def _weighted(cls):
    return lambda replicas: cls(
        replicas, weights={s: 1 + i % 3 for i, s in
                           enumerate(sorted(replicas.copy_sites))})


POLICIES = {
    **{name: (lambda replicas, name=name: make_protocol(name, replicas))
       for name in available_policies()},
    "OWDV": _weighted(OptimisticWeightedDynamicVoting),
    "WDV": _weighted(WeightedDynamicVoting),
    "WTDV": _weighted(WeightedTopologicalDynamicVoting),
    "LDV+W": _witnessed(DynamicVotingWithWitnesses),
    "TDV+W": _witnessed(TopologicalDynamicVotingWithWitnesses),
}


def test_the_policy_table_covers_the_paper_and_the_optimistic_ones():
    assert set(PAPER_POLICIES) <= set(POLICIES)
    optimistic = {name for name, build in POLICIES.items()
                  if not build(ReplicaSet({1, 2, 3})).eager}
    assert optimistic == {"ODV", "OTDV", "OWDV"}


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
@st.composite
def networks(draw):
    """A segmented topology over sites ``1..n`` and a copy placement."""
    ids = list(range(1, draw(st.integers(2, 7)) + 1))
    names = ["a", "b", "c"][:draw(st.integers(1, min(3, len(ids))))]
    home = {site: names[i] if i < len(names) else draw(st.sampled_from(names))
            for i, site in enumerate(ids)}
    segments = {name: [s for s in ids if home[s] == name] for name in names}
    gateways = {}
    if len(names) > 1:
        for site in draw(st.lists(st.sampled_from(ids), unique=True,
                                  max_size=3)):
            others = draw(st.lists(
                st.sampled_from([n for n in names if n != home[site]]),
                min_size=1, max_size=2, unique=True))
            gateways[site] = (home[site], *others)
    topology = SegmentedTopology([Site(s) for s in ids], segments, gateways)
    copies = draw(st.frozensets(st.sampled_from(ids), min_size=2, max_size=5))
    return topology, ids, copies


@st.composite
def replays(draw):
    """``(topology, copies, trace, access times, warmup, batches)``.

    Times sit on a quarter-day grid, so transitions coincide with each
    other and with accesses.  The access stream is put together from free
    epochs, epochs at exactly a transition's timestamp, bursts of
    back-to-back accesses (repeated timestamps included) and one stretch
    with every access removed.
    """
    topology, ids, copies = draw(networks())
    up = set(ids)
    tick = 1
    events = []
    for gap, site in draw(st.lists(
            st.tuples(st.integers(0, 12), st.sampled_from(ids)),
            max_size=30)):
        tick += gap
        events.append(TraceEvent(tick / 4, site, site not in up))
        up ^= {site}
    horizon = tick / 4 + draw(st.integers(1, 8))
    trace = FailureTrace(ids, events, horizon)

    ticks = st.integers(1, int(4 * horizon) - 1)
    accesses = [t / 4 for t in draw(st.lists(ticks, min_size=1, max_size=20))]
    if events:
        accesses += draw(st.lists(
            st.sampled_from([event.time for event in events]), max_size=5))
    for start, count, step in draw(st.lists(
            st.tuples(ticks, st.integers(2, 6), st.sampled_from((0, 1))),
            max_size=3)):
        accesses += [start / 4 + k * step / 64 for k in range(count)]
    quiet_from = draw(ticks) / 4
    quiet_for = draw(st.integers(0, 20)) / 4
    accesses = tuple(sorted(
        t for t in accesses
        if t < horizon and not quiet_from <= t < quiet_from + quiet_for))
    if not accesses:
        accesses = (draw(ticks) / 4,)

    warmup = draw(st.sampled_from((0.0, 0.25, horizon / 2)))
    batches = draw(st.integers(1, 3))
    return topology, copies, trace, accesses, warmup, batches


def drive(protocol, topology, ids, steps):
    """Bring *protocol* to some reachable state: *steps* of
    ``(up set, action, site)`` applied in order."""
    for up, action, site in steps:
        view = topology.view(up)
        if action in ("synchronize", "recover_stale"):
            getattr(protocol, action)(view)
        elif site in up and (action != "recover"
                             or site in protocol.copy_sites):
            try:
                getattr(protocol, action)(view, site)
            except QuorumNotReachedError:
                pass


def steps_over(ids):
    return st.lists(
        st.tuples(st.frozensets(st.sampled_from(ids)),
                  st.sampled_from(("synchronize", "recover_stale", "read",
                                   "write", "recover")),
                  st.sampled_from(ids)),
        max_size=20)


def state_of(protocol):
    """Everything a protocol decides from: the shared ``(o, v, P)``
    triples and the private tables of the integer-state protocols."""
    copies = sorted(protocol.copy_sites)
    private = ()
    if protocol.name == "AC":
        private = protocol.current_copies
    elif protocol.name == "JM-DV":
        private = tuple(protocol.integer_state(s) for s in copies)
    elif protocol.name == "DVR":
        private = tuple(protocol.assignment_at(s) for s in copies)
    return (tuple(protocol.replicas.state(s).snapshot() for s in copies),
            private)


FIELDS = ("granted", "block", "reachable", "current", "newest", "counted",
          "partition_set", "reference", "reason")


def fields_of(verdict):
    return {name: getattr(verdict, name) for name in FIELDS}


# ----------------------------------------------------------------------
# (a) the replay against the reference loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=60, deadline=None)
@given(replay=replays())
def test_replay_matches_the_reference_loop(policy, replay):
    topology, copies, trace, accesses, warmup, batches = replay
    build = POLICIES[policy]
    expected = reference_evaluate_policy(
        build, topology, copies, trace, warmup, batches, accesses)
    assert evaluate_policy(
        build, topology, copies, trace, warmup=warmup, batches=batches,
        access_times=accesses) == expected
    # Given the timeline, and traced (every access runs): the same result.
    assert evaluate_policy(
        build, topology, copies, trace, warmup=warmup, batches=batches,
        access_times=accesses, views=view_timeline(topology, trace),
        tracer=Tracer(MemorySink(capacity=1))) == expected


@settings(max_examples=100, deadline=None)
@given(replay=replays())
def test_view_timeline_is_the_view_after_each_transition(replay):
    topology, _, trace, _, _, _ = replay
    views = view_timeline(topology, trace)
    up = set(trace.site_ids)
    expected = [topology.view(up)]
    for event in trace.events:
        (up.add if event.up else up.discard)(event.site_id)
        expected.append(topology.view(up))
    assert [(v.up_mask, v.block_masks) for v in views] == [
        (v.up_mask, v.block_masks) for v in expected]


# ----------------------------------------------------------------------
# (b) what the replay relies on, for every policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=60, deadline=None)
@given(network=networks(), data=st.data())
def test_returned_verdict_is_a_fresh_evaluate(policy, network, data):
    topology, ids, copies = network
    protocol = POLICIES[policy](ReplicaSet(copies))
    drive(protocol, topology, ids, data.draw(steps_over(ids)))
    view = topology.view(data.draw(st.frozensets(st.sampled_from(ids))))
    for action in data.draw(st.permutations(
            (protocol.synchronize, protocol.recover_stale))):
        returned = action(view)
        assert fields_of(returned) == fields_of(protocol.evaluate(view))


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=60, deadline=None)
@given(network=networks(), data=st.data())
def test_synchronize_is_idempotent(policy, network, data):
    topology, ids, copies = network
    protocol = POLICIES[policy](ReplicaSet(copies))
    drive(protocol, topology, ids, data.draw(steps_over(ids)))
    view = topology.view(data.draw(st.frozensets(st.sampled_from(ids))))
    first = protocol.synchronize(view)
    once = state_of(protocol)
    second = protocol.synchronize(view)
    assert state_of(protocol) == once
    assert fields_of(second) == fields_of(first)
