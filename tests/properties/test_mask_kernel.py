"""The mask kernel against the ``frozenset`` transcription it replaced.

``net``, ``replica`` and ``core`` compute on integer site masks.  The
set-based code they used to run — the union-find partition oracle, the
breadth-first point-to-point oracle and the line-by-line transcription of
Algorithm 1 — lives on here, and only here, as the reference the kernel
must agree with: same blocks, same verdict in every field, same errors.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.broken import GreedyTieBreakVoting
from repro.core import (
    PAPER_POLICIES,
    DynamicVotingWithWitnesses,
    TopologicalDynamicVotingWithWitnesses,
    WeightedDynamicVoting,
    WeightedTopologicalDynamicVoting,
    make_protocol,
)
from repro.errors import ConfigurationError, ProtocolError, QuorumNotReachedError
from repro.experiments import CONFIGURATIONS, evaluate_policy, poisson_times
from repro.experiments.testbed import GATEWAYS, SEGMENTS, testbed_topology
from repro.failures import generate_trace, testbed_profiles
from repro.net.sites import Site, mask_sites
from repro.net.topology import PointToPointTopology, SegmentedTopology
from repro.replica.state import ReplicaSet


# ----------------------------------------------------------------------
# the reference: partition oracles
# ----------------------------------------------------------------------
def reference_segmented_blocks(segments, gateways, up):
    """Union-find over segments: an up gateway merges all its segments."""
    up = frozenset(up)
    names = sorted(segments)
    parent = {name: name for name in names}

    def find(name):
        root = name
        while parent[root] != root:
            root = parent[root]
        while parent[name] != root:  # path compression
            parent[name], name = root, parent[name]
        return root

    for gateway, joined in gateways.items():
        if gateway in up:
            anchor = find(joined[0])
            for other in joined[1:]:
                parent[find(other)] = anchor

    groups = {}
    for name in names:
        members = frozenset(segments[name]) & up
        if members:
            groups.setdefault(find(name), set()).update(members)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=min))


def reference_link_blocks(live_links, up):
    """Breadth-first search over live links between up sites."""
    up = frozenset(up)
    adjacency = {s: [] for s in up}
    for a, b in live_links:
        if a in up and b in up:
            adjacency[a].append(b)
            adjacency[b].append(a)
    seen = set()
    blocks = []
    for start in sorted(up):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbour in adjacency[node]:
                if neighbour not in component:
                    component.add(neighbour)
                    frontier.append(neighbour)
        seen |= component
        blocks.append(frozenset(component))
    return tuple(sorted(blocks, key=min))


# ----------------------------------------------------------------------
# the reference: Algorithm 1 over frozensets
# ----------------------------------------------------------------------
def reference_verdict(rules, states, view, block):
    """Algorithm 1 (+ the ``T`` extension, the lineage guard, weights,
    the witness rule and the greedy tie) over ``{site: (o, v, P)}``.

    *rules* supplies only the switches — the protocol's class flags,
    weight table and witness set — never a decision.  Returns the
    verdict's public fields as a dict.
    """
    copies = frozenset(states)
    block = frozenset(block)
    fields = dict(granted=False, block=block, reachable=frozenset(),
                  current=frozenset(), newest=frozenset(),
                  counted=frozenset(), partition_set=frozenset(),
                  reference=None)
    reachable = copies & block  # R
    if not reachable:
        return dict(fields, reason="no copies reachable in block")

    top = max(states[s][0] for s in reachable)
    current = frozenset(s for s in reachable if states[s][0] == top)  # Q
    top = max(states[s][1] for s in reachable)
    newest = frozenset(s for s in reachable if states[s][1] == top)  # S
    reference = min(current)  # m
    partition_set = states[reference][2]  # P_m
    if len({states[s] for s in current}) != 1:
        raise ProtocolError("divergent state among current sites")
    fields.update(reachable=reachable, current=current, newest=newest,
                  partition_set=partition_set, reference=reference)

    if rules.lineage_guard:
        if states[reference][0] < max(o for o, _, _ in states.values()):
            return dict(fields, reason=(
                "stale generation: a newer commit exists at an "
                "unreachable copy (lineage guard)"))

    counted = current
    if rules.topological:
        active = partition_set & reachable
        counted = frozenset(
            r for r in partition_set
            if any(view.same_segment(r, s) for s in active))
    weights = getattr(rules, "weights", None)

    def measure(sites):
        if weights is None:
            return len(sites)
        return sum(weights.get(s, 0) for s in sites)

    doubled = 2 * measure(counted)
    size = measure(partition_set)
    if doubled > size:
        granted, reason = True, ""
    elif (rules.tie_break and doubled == size
          and view.max_site(partition_set) in current):
        granted, reason = True, ""
    elif doubled == size:
        granted = False
        reason = ("tie: exactly half of the previous partition set, "
                  "without its maximum element") if rules.tie_break else (
                  "tie: exactly half of the previous partition set "
                  "(no tie-breaking rule)")
    else:
        granted = False
        reason = "fewer than half of the previous partition set reachable"
    fields.update(granted=granted, counted=counted, reason=reason)

    witnesses = getattr(rules, "witness_sites", frozenset())
    if granted and not newest & (copies - witnesses):
        fields.update(granted=False, reason=(
            "quorum holds only witnesses; no full copy with current data"))
    if isinstance(rules, GreedyTieBreakVoting) and reason.startswith("tie:"):
        fields.update(granted=True,
                      reason="tie granted greedily (broken tie-break)")
    return fields


def reference_mcv_verdict(rules, states, view, block):
    """Static majority of all copies, lexicographic tie-break."""
    copies = frozenset(states)
    block = frozenset(block)
    reachable = copies & block
    if not reachable:
        return dict(granted=False, block=block, reachable=frozenset(),
                    current=frozenset(), newest=frozenset(),
                    counted=frozenset(), partition_set=frozenset(),
                    reference=None, reason="no copies reachable in block")
    granted = 2 * len(reachable) > len(copies)
    if (not granted and rules.tie_break
            and 2 * len(reachable) == len(copies)
            and view.max_site(copies) in reachable):
        granted = True
    top = max(states[s][1] for s in reachable)
    newest = frozenset(s for s in reachable if states[s][1] == top)
    return dict(
        granted=granted, block=block, reachable=reachable,
        current=reachable, newest=newest, counted=reachable,
        partition_set=copies, reference=min(newest),
        reason="" if granted else (
            f"{len(reachable)} of {len(copies)} copies reachable, "
            f"quorum is {len(copies) // 2 + 1}"),
    )


FIELDS = ("granted", "block", "reachable", "current", "newest", "counted",
          "partition_set", "reference", "reason")


def outcome(call):
    """``("ok", result)`` or ``("error", exception type)``."""
    try:
        return ("ok", call())
    except (ProtocolError, ConfigurationError, QuorumNotReachedError) as exc:
        return ("error", type(exc))


def assert_kernel_matches_reference(protocol, view):
    """Every block of *view*, every public field of the verdict."""
    reference = (reference_mcv_verdict if protocol.name == "MCV"
                 else reference_verdict)
    states = dict(protocol.replicas.as_mapping())
    for block in view.blocks:
        expected = outcome(
            lambda: reference(protocol, states, view, block))
        got = outcome(lambda: protocol.evaluate_block(view, block))
        if got[0] == "ok":
            got = ("ok", {name: getattr(got[1], name) for name in FIELDS})
        assert got == expected, (protocol.name, sorted(block), states)


# ----------------------------------------------------------------------
# (a) the partition oracle
# ----------------------------------------------------------------------
#: Site ids straddling the machine-word boundary a fixed-width mask has.
SITE_POOL = (0, 1, 2, 3, 5, 8, 62, 63, 64, 65, 127, 128, 1000)


@st.composite
def segmented_layouts(draw):
    """``(site ids, segments, gateways)`` of a random segmented network,
    with sparse and large ids, gateways joining two or three segments and
    sometimes a transit segment that no site is homed on."""
    ids = draw(st.lists(st.sampled_from(SITE_POOL), min_size=2, max_size=9,
                        unique=True))
    names = [f"seg{i}" for i in range(draw(st.integers(1, min(4, len(ids)))))]
    home = {site: names[i] if i < len(names) else draw(st.sampled_from(names))
            for i, site in enumerate(ids)}
    segments = {name: [s for s in ids if home[s] == name] for name in names}
    if draw(st.booleans()):
        segments["transit"] = []
    gateways = {}
    if len(segments) > 1:
        for site in draw(st.lists(st.sampled_from(ids), unique=True,
                                  max_size=len(ids) // 2)):
            others = draw(st.lists(
                st.sampled_from([n for n in segments if n != home[site]]),
                min_size=1, max_size=2, unique=True))
            gateways[site] = (home[site], *others)
    return ids, segments, gateways


@st.composite
def link_layouts(draw):
    """``(site ids, links, failed links)`` of a random point-to-point net."""
    ids = draw(st.lists(st.sampled_from(SITE_POOL), min_size=2, max_size=8,
                        unique=True))
    pairs = [(a, b) for a in ids for b in ids if a < b]
    links = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    failed = [link for link in links if draw(st.booleans())]
    return ids, links, failed


class TestPartitionOracle:
    def test_every_up_set_of_the_testbed(self):
        topology = testbed_topology()
        sites = sorted(topology.site_ids)
        for bits in range(1 << len(sites)):
            up = frozenset(s for i, s in enumerate(sites) if bits >> i & 1)
            expected = reference_segmented_blocks(SEGMENTS, GATEWAYS, up)
            view = topology.view(up)
            assert view.blocks == expected
            assert topology.blocks(up) == expected
            assert view.up == up
            for block in expected:
                for site in block:
                    assert view.block_of(site) == block

    @settings(max_examples=200, deadline=None)
    @given(layout=segmented_layouts(), data=st.data())
    def test_random_segmented_topologies(self, layout, data):
        ids, segments, gateways = layout
        topology = SegmentedTopology([Site(s) for s in ids], segments,
                                     gateways)
        up = frozenset(data.draw(st.sets(st.sampled_from(ids))))
        assert topology.view(up).blocks == reference_segmented_blocks(
            segments, gateways, up)

    def test_gateways_meet_on_a_segment_without_sites(self):
        topology = SegmentedTopology(
            [Site(s) for s in (1, 2, 3, 4)],
            {"a": [1, 2], "bb": [], "b": [3, 4]},
            {2: ("a", "bb"), 3: ("b", "bb")},
        )
        assert topology.blocks({1, 2, 3, 4}) == (frozenset({1, 2, 3, 4}),)
        assert topology.blocks({1, 3, 4}) == (
            frozenset({1}), frozenset({3, 4}))
        assert topology.view({2, 3}).can_communicate(2, 3)

    def test_a_negative_mask_is_refused(self):
        with pytest.raises(ConfigurationError):
            testbed_topology().view(-1)
        with pytest.raises(ConfigurationError):
            mask_sites(-2)

    @settings(max_examples=200, deadline=None)
    @given(layout=link_layouts(), data=st.data())
    def test_random_point_to_point_topologies(self, layout, data):
        ids, links, failed = layout
        topology = PointToPointTopology([Site(s) for s in ids], links)
        for a, b in failed:
            topology.fail_link(a, b)
        live = [link for link in links if link not in failed]
        up = frozenset(data.draw(st.sets(st.sampled_from(ids))))
        assert topology.view(up).blocks == reference_link_blocks(live, up)


# ----------------------------------------------------------------------
# (b) Algorithm 1 over random commit histories
# ----------------------------------------------------------------------
def _witnessed(cls):
    return lambda replicas: cls(
        replicas, witness_sites={max(replicas.copy_sites)})


def _weighted(cls):
    return lambda replicas: cls(
        replicas, weights={s: 1 + i % 3 for i, s in
                           enumerate(sorted(replicas.copy_sites))})


PROTOCOLS = {
    **{name: (lambda replicas, name=name: make_protocol(name, replicas))
       for name in PAPER_POLICIES},
    "LDV+W": _witnessed(DynamicVotingWithWitnesses),
    "TDV+W": _witnessed(TopologicalDynamicVotingWithWitnesses),
    "WDV": _weighted(WeightedDynamicVoting),
    "WTDV": _weighted(WeightedTopologicalDynamicVoting),
    "BROKEN-TIE": GreedyTieBreakVoting,
}

ACTIONS = ("synchronize", "recover_stale", "read", "write", "recover")


def drive(protocol, topology, steps):
    """Run *steps* of ``(up set, action, site)``, comparing the kernel
    with the reference in every block before and after each one."""
    for up, action, site in steps:
        view = topology.view(up)
        assert_kernel_matches_reference(protocol, view)
        if action in ("synchronize", "recover_stale"):
            result = outcome(lambda: getattr(protocol, action)(view))
        elif site in up:
            result = outcome(lambda: getattr(protocol, action)(view, site))
        else:
            continue
        if result == ("error", ProtocolError):
            return  # history already forked (BROKEN-TIE); nothing to compare
        assert_kernel_matches_reference(protocol, view)


def steps_over(ids):
    return st.lists(
        st.tuples(st.sets(st.sampled_from(ids)).map(frozenset),
                  st.sampled_from(ACTIONS), st.sampled_from(ids)),
        min_size=1, max_size=25)


class TestAlgorithmOne:
    @pytest.mark.parametrize("policy", sorted(PROTOCOLS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_on_the_testbed(self, policy, data):
        topology = testbed_topology()
        ids = sorted(topology.site_ids)
        copies = data.draw(st.sets(st.sampled_from(ids), min_size=2,
                                   max_size=5))
        protocol = PROTOCOLS[policy](ReplicaSet(copies))
        drive(protocol, topology, data.draw(steps_over(ids)))

    @pytest.mark.parametrize("policy", sorted(PROTOCOLS))
    @settings(max_examples=40, deadline=None)
    @given(layout=segmented_layouts(), data=st.data())
    def test_on_random_topologies_with_sparse_ids(self, policy, layout, data):
        ids, segments, gateways = layout
        ranks = data.draw(st.lists(st.integers(0, 3), min_size=len(ids),
                                   max_size=len(ids)))
        topology = SegmentedTopology(
            [Site(s, rank=float(r)) for s, r in zip(ids, ranks)],
            segments, gateways)
        copies = data.draw(st.sets(st.sampled_from(ids), min_size=2))
        protocol = PROTOCOLS[policy](ReplicaSet(copies))
        drive(protocol, topology, data.draw(steps_over(ids)))


    @pytest.mark.parametrize("policy", ["TDV", "OTDV", "TDV+W", "WTDV"])
    def test_a_stale_segment_mate_claims_no_vote(self, policy):
        """Only members of ``P_m`` carry votes: with ``P_m = {1, 2, 7}``
        and 7 down, its restarted mate 8 (not in ``P_m``) claims nothing."""
        topology = testbed_topology()
        protocol = PROTOCOLS[policy](ReplicaSet({1, 2, 7, 8}))
        drive(protocol, topology, [
            (frozenset({1, 2, 3, 4, 5, 7}), "synchronize", 1),
            (frozenset({1, 2, 3, 4, 5, 8}), "read", 1),
        ])
        protocol = PROTOCOLS[policy](ReplicaSet({1, 2, 7, 8}))
        protocol.synchronize(topology.view({1, 2, 3, 4, 5, 7}))
        verdict = protocol.evaluate(topology.view({1, 2, 3, 4, 5, 8}))
        assert verdict.partition_set == frozenset({1, 2, 7})
        assert verdict.counted == frozenset({1, 2})


# ----------------------------------------------------------------------
# (c) ids beyond one machine word
# ----------------------------------------------------------------------
class TestSparseAndLargeIds:
    IDS = (0, 63, 64, 1000)

    def topology(self):
        return SegmentedTopology(
            [Site(s) for s in self.IDS],
            {"near": [0, 63], "far": [64, 1000]},
            {63: ("near", "far")},
        )

    def test_views_and_state_keep_their_set_forms(self):
        topology = self.topology()
        view = topology.view({0, 64, 1000})
        assert view.up == frozenset({0, 64, 1000})
        assert view.blocks == (frozenset({0}), frozenset({64, 1000}))
        assert not view.can_communicate(0, 1000)
        assert topology.max_site({63, 64, 1000}) == 63
        replicas = ReplicaSet(self.IDS)
        assert replicas.copy_sites == frozenset(self.IDS)
        assert replicas.reachable({64, 1000, 7}) == frozenset({64, 1000})
        assert replicas.state(1000).partition_set == frozenset(self.IDS)

    @pytest.mark.parametrize("policy", PAPER_POLICIES)
    def test_a_partition_and_its_repair(self, policy):
        topology = self.topology()
        protocol = make_protocol(policy, ReplicaSet(self.IDS))
        history = [
            (frozenset(self.IDS), "write", 1000),
            (frozenset({0, 64, 1000}), "synchronize", 0),  # gateway down
            (frozenset({0, 64, 1000}), "write", 64),
            (frozenset({0, 64, 1000}), "write", 0),
            (frozenset({64, 1000}), "read", 1000),
            (frozenset(self.IDS), "recover", 63),
            (frozenset(self.IDS), "synchronize", 0),
            (frozenset(self.IDS), "write", 0),
        ]
        drive(protocol, topology, history)
        verdict = protocol.evaluate(topology.view(self.IDS))
        assert verdict.granted
        assert verdict.block == frozenset(self.IDS)
        assert verdict.newest <= frozenset(self.IDS)


# ----------------------------------------------------------------------
# (d) an untraced replay builds no set
# ----------------------------------------------------------------------
class TestNoSetsOnTheHotPath:
    @pytest.mark.parametrize("policy", PAPER_POLICIES)
    def test_untraced_replay_materialises_no_frozenset(self, policy,
                                                       monkeypatch):
        import repro.core.base
        import repro.net.sites
        import repro.net.views
        import repro.replica.state

        built = []

        def counting(mask):
            built.append(mask)
            return repro.net.sites.mask_sites(mask)

        for module in (repro.core.base, repro.net.views,
                       repro.replica.state):
            monkeypatch.setattr(module, "mask_sites", counting)

        trace = generate_trace(testbed_profiles(), 800.0, seed=7)
        result = evaluate_policy(
            policy, testbed_topology(), CONFIGURATIONS["H"].copy_sites,
            trace, warmup=100.0, batches=4,
            access_times=poisson_times(1.0, trace.horizon, 7))
        assert result.synchronizations > 0
        assert built == []

    def test_a_read_of_a_verdict_set_is_what_builds_it(self, monkeypatch):
        import repro.core.base

        built = []
        real = repro.core.base.mask_sites
        monkeypatch.setattr(repro.core.base, "mask_sites",
                            lambda mask: built.append(mask) or real(mask))
        topology = testbed_topology()
        protocol = make_protocol("LDV", ReplicaSet({1, 2, 7, 8}))
        verdict = protocol.evaluate(topology.view(range(1, 9)))
        assert built == []
        assert verdict.current == frozenset({1, 2, 7, 8})
        assert len(built) == 1


def test_the_reference_itself_sees_a_seeded_history():
    """Guard the guard: on a fixed random history the reference grants
    and denies, breaks ties and claims votes — it is not vacuous."""
    rng = random.Random(1988)
    topology = testbed_topology()
    protocol = make_protocol("TDV", ReplicaSet({1, 2, 7, 8}))
    seen = set()
    for _ in range(400):
        up = frozenset(s for s in range(1, 9) if rng.random() < 0.7)
        view = topology.view(up)
        protocol.synchronize(view)
        states = dict(protocol.replicas.as_mapping())
        for block in view.blocks:
            fields = reference_verdict(protocol, states, view, block)
            seen.add((fields["granted"], fields["reason"][:5]))
            if fields["counted"] - fields["reachable"]:
                seen.add("claimed")
    assert {(True, ""), (False, "fewer"), (False, "tie: "), (False, "stale"),
            "claimed"} <= seen
