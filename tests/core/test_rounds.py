"""The decision over collected states and the pure orphan rules, without
sockets: :func:`decide`, :func:`rollback_source`, :func:`repair_targets`."""

import pytest

from repro.core.lexicographic import LexicographicDynamicVoting
from repro.core.mcv import MajorityConsensusVoting
from repro.core.rounds import decide, repair_targets, rollback_source
from repro.net.topology import single_segment

ALL = frozenset({1, 2, 3})


def _entry(operation, version=2, members=(1, 2, 3), kind="write",
           digest="d-mine"):
    return {"operation": operation, "version": version,
            "partition_set": list(members), "kind": kind,
            "writes_digest": digest}


def _reply(last):
    return {"kind": "state", "last": last}


MINE = _entry(2)
RIVAL = _entry(2, members=(2, 3), digest="d-rival")


class TestDecide:
    def test_block_defaults_to_the_responders(self):
        view = single_segment(3).view({1, 2, 3})
        states = {1: (2, 2, {1, 2}), 2: (2, 2, {1, 2})}
        rules, verdict = decide(LexicographicDynamicVoting, states, view, ALL)
        assert verdict.granted and verdict.block == frozenset({1, 2})
        commit = rules.commit_for(verdict, "write")
        assert (commit.operation, commit.version) == (3, 3)
        assert commit.recipients == commit.partition_set == {1, 2}

    def test_silent_copies_keep_the_static_denominator(self):
        view = single_segment(3).view({1, 2, 3})
        states = {1: (1, 1, ALL)}
        _, verdict = decide(MajorityConsensusVoting, states, view, ALL)
        assert not verdict.granted
        assert verdict.partition_set == ALL


@pytest.mark.parametrize("replies, source", [
    # a rival held by a majority of its own P: adopt it, from the lowest
    # holder in that P
    ({2: _reply(RIVAL), 3: _reply(RIVAL)}, 2),
    ({3: _reply(RIVAL), 2: _reply(RIVAL), 1: _reply(RIVAL)}, 2),
    # a rival held by a minority of its own P: stay
    ({2: _reply(RIVAL)}, None),
    # an identical body: stay
    ({2: _reply(MINE), 3: _reply(MINE)}, None),
    # a rival under another operation number: not a rival
    ({2: _reply(_entry(3, digest="x")), 3: _reply(_entry(3, digest="x"))},
     None),
    # malformed "last" fields are ignored
    ({2: _reply("garbage"), 3: _reply({"operation": 2})}, None),
    ({2: _reply(RIVAL), 3: _reply({"operation": 2, "version": "x",
                                   "partition_set": [2, 3], "kind": "w"})},
     None),
    ({2: {"kind": "state"}, 3: _reply(RIVAL)}, None),
    # this replica's own reply never counts
    ({1: _reply(RIVAL), 2: _reply(RIVAL)}, None),
])
def test_rollback_source(replies, source):
    assert rollback_source(1, MINE, replies) == source


@pytest.mark.parametrize("operation, members, states, behind", [
    # the max-o holder reaching a majority of its P repairs the lower-o
    # members of P
    (3, {1, 2, 3}, {1: (3, 2, {1, 2, 3}), 2: (2, 2, {1, 2, 3})}, {2}),
    (3, {1, 2, 3}, {1: (3, 2, {1, 2, 3}), 2: (2, 2, {1, 2, 3}),
                    3: (1, 1, {1, 2, 3})}, {2, 3}),
    # a responder with a higher o: not the max-o holder
    (3, {1, 2, 3}, {1: (3, 2, {1, 2, 3}), 2: (4, 3, {1, 2, 3})}, set()),
    # no majority of its own P among the responders
    (3, {1, 2, 3, 4}, {1: (3, 2, {1, 2, 3, 4}), 2: (2, 2, {1, 2})}, set()),
    # lower-o responders outside P are not repaired
    (3, {1, 3}, {1: (3, 2, {1, 3}), 2: (2, 2, {1, 2}), 3: (3, 2, {1, 3})},
     set()),
    # nobody behind
    (3, {1, 2}, {1: (3, 2, {1, 2}), 2: (3, 2, {1, 2})}, set()),
])
def test_repair_targets(operation, members, states, behind):
    assert repair_targets(operation, frozenset(members), states) == behind
