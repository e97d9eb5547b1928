"""Unit tests for the live-round quorum bridge."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import PAPER_POLICIES, make_protocol
from repro.errors import (
    ConfigurationError,
    QuorumNotReachedError,
    SiteUnavailableError,
)
from repro.experiments.configs import CONFIGURATIONS
from repro.experiments.testbed import testbed_topology
from repro.replica.state import ReplicaSet
from repro.service.quorum import ClusterView, evaluate_round, \
    one_round_read, plan_commit

ALL = frozenset({1, 2, 3})


def _states(sites, o=1, v=1, members=ALL):
    return {site: (o, v, frozenset(members)) for site in sites}


class TestClusterView:
    def test_blocks_are_responders_plus_singleton_silents(self):
        view = ClusterView({1, 2}, ALL)
        assert view.blocks == (frozenset({1, 2}), frozenset({3}))

    def test_is_up_and_block_of(self):
        view = ClusterView({1, 2}, ALL)
        assert view.is_up(1) and not view.is_up(3)
        assert view.block_of(2) == frozenset({1, 2})
        assert view.block_of(3) == frozenset({3})

    def test_max_site_tie_breaker(self):
        # The repo's order (Site.rank defaults to -id): lowest id wins.
        assert ClusterView({1}, ALL).max_site([2, 5, 3]) == 2

    def test_exact_half_tie_goes_to_site_one(self):
        members = frozenset({1, 2, 3, 4})
        verdict, _, _ = evaluate_round(
            "LDV", _states([1, 2], members=members), members)
        assert verdict.granted
        verdict, _, _ = evaluate_round(
            "LDV", _states([3, 4], members=members), members)
        assert not verdict.granted

    def test_segments_default_to_singletons(self):
        view = ClusterView({1, 2}, ALL)
        assert view.same_segment(1, 1)
        assert not view.same_segment(1, 2)

    def test_configured_segments_colocate(self):
        view = ClusterView({1, 2}, ALL, segments={1: 0, 2: 0, 3: 1})
        assert view.same_segment(1, 2)
        assert not view.same_segment(1, 3)


class TestEvaluateRound:
    def test_majority_of_responders_is_granted(self):
        verdict, replica_set, protocol = evaluate_round(
            "ODV", _states([1, 2]), ALL)
        assert verdict.granted
        assert verdict.newest == frozenset({1, 2})
        assert protocol is not None and protocol.commits_on_read

    def test_minority_is_denied(self):
        verdict, _, _ = evaluate_round("ODV", _states([1]), ALL)
        assert not verdict.granted

    def test_no_responders_is_denied_without_a_protocol(self):
        verdict, _, protocol = evaluate_round("ODV", {}, ALL)
        assert not verdict.granted
        assert protocol is None

    def test_static_mcv_does_not_commit_on_read(self):
        _, _, protocol = evaluate_round("MCV", _states([1, 2]), ALL)
        assert protocol is not None and not protocol.commits_on_read


class TestPlanCommit:
    def _granted(self, states=None, policy="ODV"):
        states = states if states is not None else _states([1, 2])
        verdict, replica_set, _ = evaluate_round(policy, states, ALL)
        assert verdict.granted
        return verdict, replica_set

    def test_write_bumps_operation_and_version(self):
        verdict, replica_set = self._granted()
        plan = plan_commit(verdict, replica_set, "write")
        assert (plan.operation, plan.version) == (2, 2)
        assert plan.partition_set == frozenset({1, 2})
        assert plan.anchor in plan.partition_set

    def test_read_bumps_operation_only(self):
        verdict, replica_set = self._granted()
        plan = plan_commit(verdict, replica_set, "read")
        assert (plan.operation, plan.version) == (2, 1)

    def test_recover_reinserts_the_site(self):
        states = _states([1, 2], o=2, v=2, members={1, 2})
        states[3] = (1, 1, ALL)  # stale returner
        verdict, replica_set = self._granted(states)
        plan = plan_commit(verdict, replica_set, "recover",
                           recovering_site=3)
        assert plan.partition_set == ALL
        assert plan.operation == 3
        assert plan.version == 2

    def test_recover_without_a_site_is_an_error(self):
        verdict, replica_set = self._granted()
        with pytest.raises(ConfigurationError):
            plan_commit(verdict, replica_set, "recover")

    def test_denied_round_cannot_be_planned(self):
        verdict, replica_set, _ = evaluate_round("ODV", _states([1]), ALL)
        with pytest.raises(ConfigurationError):
            plan_commit(verdict, replica_set, "write")

    def test_unknown_kind_is_an_error(self):
        verdict, replica_set = self._granted()
        with pytest.raises(ConfigurationError):
            plan_commit(verdict, replica_set, "compare-and-swap")


def _one_round(states, policy="ODV", lasts=None, copies=ALL):
    verdict, replica_set, protocol = evaluate_round(policy, states, copies)
    if lasts is None:
        lasts = dict.fromkeys(states)
    return one_round_read(verdict, replica_set, protocol, states, lasts)


class TestOneRoundRead:
    LAST = {"operation": 1, "version": 1, "partition_set": [1, 2, 3],
            "kind": "write", "writes_digest": "d"}

    @pytest.mark.parametrize("policy", PAPER_POLICIES)
    def test_every_copy_on_one_triple_and_body(self, policy):
        assert _one_round(_states([1, 2, 3]), policy,
                          dict.fromkeys(ALL, self.LAST))

    @pytest.mark.parametrize("policy", PAPER_POLICIES)
    def test_a_silent_member_falls_back(self, policy):
        assert not _one_round(_states([1, 2]), policy)

    def test_a_member_behind_falls_back(self):
        states = _states([1, 2], o=2, v=2)
        states[3] = (1, 1, ALL)
        assert not _one_round(states)

    def test_a_copy_that_missed_only_reads_falls_back(self):
        # Sites 1 and 2 read without site 3, which still holds the newest
        # version: the leased read's COMMIT folds it back into P.
        states = _states([1, 2], o=2, v=1, members={1, 2})
        states[3] = (1, 1, ALL)
        assert not _one_round(states)

    def test_a_rival_body_falls_back(self):
        lasts = dict.fromkeys(ALL, self.LAST)
        lasts[2] = dict(self.LAST, writes_digest="rival")
        assert not _one_round(_states([1, 2, 3]), lasts=lasts)

    def test_a_malformed_last_falls_back(self):
        lasts = dict.fromkeys(ALL, self.LAST)
        lasts[3] = {"operation": 1}
        assert not _one_round(_states([1, 2, 3]), lasts=lasts)

    def test_a_denied_round_falls_back(self):
        assert not _one_round(_states([1]))
        assert not _one_round({})


TESTBED = testbed_topology()
SEGMENTS = {site: TESTBED.segment_of(site) for site in TESTBED.site_ids}

core_steps = st.lists(
    st.tuples(
        st.sampled_from(["fail", "restart", "read", "write", "recover",
                         "sync"]),
        st.sampled_from(sorted(TESTBED.site_ids)),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1, max_size=30,
)


def _core_protocol(policy, copies):
    """The state-level protocol, with the lineage guard stripped: the
    service has no global view, so it runs the published rule."""
    factory = type(make_protocol(policy, ReplicaSet(copies)))
    rules = type(f"_Published{factory.__name__}", (factory,),
                 {"lineage_guard": False})
    return rules(ReplicaSet(copies))


def _check_round(policy, protocol, view, block):
    """The service's evaluate_round + plan_commit over the block's
    collected triples must match core's verdict and committed triple."""
    copies = protocol.copy_sites
    states = {site: protocol.replicas.state(site).snapshot()
              for site in block & copies}
    verdict, replica_set, service = evaluate_round(
        policy, states, copies, SEGMENTS)
    expected = protocol.evaluate_block(view, block)
    assert (verdict.granted, verdict.reachable, verdict.current,
            verdict.newest, verdict.counted, verdict.partition_set,
            verdict.reference) == (
        expected.granted, expected.reachable, expected.current,
        expected.newest, expected.counted, expected.partition_set,
        expected.reference), (policy, states)
    if not verdict.granted:
        return
    coordinator = min(block & copies)
    kinds = ["write"] + (["read"] if service.commits_on_read else [])
    for kind in kinds:
        plan = plan_commit(verdict, replica_set, kind, protocol=service)
        after = copy.deepcopy(protocol)
        getattr(after, kind)(view, coordinator)
        for site in copies:
            was = protocol.replicas.state(site).snapshot()
            now = after.replicas.state(site).snapshot()
            if site in plan.recipients:
                assert now == (plan.operation, plan.version,
                               plan.partition_set), (policy, kind, site)
            else:
                assert now == was, (policy, kind, site)
    if one_round_read(verdict, replica_set, service, states,
                      dict.fromkeys(states)):
        # Core's read changes o -> o+1 on the members of P_m and nothing
        # else (nothing at all under MCV): skipping it relabels o.
        o, v, members = states[verdict.reference]
        after = copy.deepcopy(protocol)
        after.read(view, coordinator)
        for site in copies:
            was = protocol.replicas.state(site).snapshot()
            now = after.replicas.state(site).snapshot()
            bumped = service.commits_on_read and site in members
            assert now == ((o + 1, v, members) if bumped else was), (
                policy, site)


class TestAgreesWithCore:
    @pytest.mark.parametrize("policy", PAPER_POLICIES)
    @settings(max_examples=80, deadline=None)
    @given(config=st.sampled_from(sorted(CONFIGURATIONS)), steps=core_steps)
    def test_decision_and_commit_match_core(self, policy, config, steps):
        copies = CONFIGURATIONS[config].copy_sites
        protocol = _core_protocol(policy, copies)
        up = set(TESTBED.site_ids)
        for kind, site, pick in steps:
            if kind == "fail":
                up.discard(site)
            elif kind == "restart":
                up.add(site)
            view = TESTBED.view(up)
            try:
                if kind in ("read", "write"):
                    getattr(protocol, kind)(view, site)
                elif kind == "recover" and site in copies:
                    protocol.recover(view, site)
                elif kind == "sync":
                    protocol.synchronize(view)
            except (QuorumNotReachedError, SiteUnavailableError):
                pass
            blocks = [block for block in view.blocks if block & copies]
            if blocks:
                _check_round(policy, protocol, view,
                             blocks[pick % len(blocks)])
