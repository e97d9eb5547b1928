"""Property: the message-passing execution agrees with the state-level
engine — same grants, same denials, same values, same stored ``(o, v, P)``
— under random histories, for all six paper policies.

This is the strongest evidence that the protocols need only
message-visible information: two completely different executions of the
same algorithm stay in lock-step.  The state side runs TDV and OTDV with
the lineage guard stripped — the published rule, which is all a message
exchange can implement (docs/CORRECTNESS.md names the difference).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dynamic import DynamicVoting
from repro.core.lexicographic import LexicographicDynamicVoting
from repro.core.mcv import MajorityConsensusVoting
from repro.core.optimistic import OptimisticDynamicVoting
from repro.core.optimistic_topological import OptimisticTopologicalDynamicVoting
from repro.core.topological import TopologicalDynamicVoting
from repro.engine.actors import MessageCluster
from repro.engine.cluster import Cluster
from repro.engine.file import ReplicatedFile
from repro.errors import (
    ProtocolError, QuorumNotReachedError, SiteUnavailableError,
)
from repro.experiments.testbed import testbed_topology
from repro.replica.state import ReplicaSet

ALL_SITES = list(range(1, 9))

step_strategy = st.one_of(
    st.tuples(st.sampled_from(["fail", "restart"]),
              st.sampled_from(ALL_SITES)),
    st.tuples(st.sampled_from(["write", "read", "recover"]),
              st.sampled_from(ALL_SITES)),
)

copy_sets = st.sampled_from([
    frozenset({1, 2, 4}),
    frozenset({1, 2, 6}),
    frozenset({1, 2, 4, 6}),
    frozenset({1, 2, 7, 8}),
])

PROTOCOLS = {
    "MCV": MajorityConsensusVoting,
    "DV": DynamicVoting,
    "LDV": LexicographicDynamicVoting,
    "ODV": OptimisticDynamicVoting,
    "TDV": TopologicalDynamicVoting,
    "OTDV": OptimisticTopologicalDynamicVoting,
}


def _outcome(operation):
    """Run one operation; name its outcome so two executions compare.

    Without the lineage guard TDV/OTDV can fork (docs/CORRECTNESS.md
    §4); the next round that sees both branches raises
    ``ProtocolError``, and lockstep means both executions raise it
    with the same message.
    """
    try:
        return ("granted", operation())
    except (QuorumNotReachedError, SiteUnavailableError):
        return ("denied", None)
    except ProtocolError as error:
        return ("diverged", str(error))


def _drive_both(protocol_name, copies, steps):
    """Run the same script through both executions; compare outcomes.

    Returns both sides for further comparison.
    """
    protocol_cls = PROTOCOLS[protocol_name]
    message_side = MessageCluster(
        testbed_topology(), copies, protocol=protocol_cls, initial="v0"
    )
    sync_cluster = Cluster(testbed_topology())
    # The synchronous file must mirror message semantics: no automatic
    # eager reaction (the MessageCluster only acts when operated), and
    # no lineage guard (no message exchange can implement it).
    published = type(
        f"_Quiet{protocol_cls.__name__}", (protocol_cls,),
        {"eager": False, "lineage_guard": False},
    )
    sync_file = ReplicatedFile(
        sync_cluster, copies, policy=published(ReplicaSet(copies)),
        initial="v0",
    )

    counter = 0
    for kind, site in steps:
        if kind == "fail":
            message_side.fail_site(site)
            sync_cluster.fail_site(site)
            continue
        if kind == "restart":
            message_side.restart_site(site)
            sync_cluster.restart_site(site)
            continue
        if kind == "recover":
            if site not in copies:
                continue
            up_a = site in message_side.view().up
            if not up_a:
                continue
            assert (_outcome(lambda: message_side.recover(site))
                    == _outcome(lambda: sync_file.recover_site(site)))
            continue
        counter += 1
        value = f"v{counter}"
        if kind == "write":
            outcome_a = _outcome(lambda: message_side.write(site, value))
            outcome_b = _outcome(lambda: sync_file.write(site, value))
        else:
            outcome_a = _outcome(lambda: message_side.read(site))
            outcome_b = _outcome(lambda: sync_file.read(site))
        assert outcome_a == outcome_b, (kind, site)
    return message_side, sync_file


# The unguarded fork of docs/CORRECTNESS.md §4 on the testbed: 1 and 2
# each commit generation 2 alone, and site 1's last write meets both.
FORK = [("fail", 2), ("fail", 4), ("write", 1), ("fail", 1),
        ("restart", 2), ("write", 2), ("restart", 1), ("write", 1)]


class TestMessageStateEquivalence:
    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
    @settings(max_examples=40, deadline=None)
    @given(copies=copy_sets,
           steps=st.lists(step_strategy, min_size=1, max_size=30))
    @example(copies=frozenset({1, 2, 4}), steps=FORK)
    def test_identical_outcomes(self, protocol_name, copies, steps):
        _drive_both(protocol_name, copies, steps)

    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
    @settings(max_examples=40, deadline=None)
    @given(copies=copy_sets,
           steps=st.lists(step_strategy, min_size=1, max_size=30))
    @example(copies=frozenset({1, 2, 4}), steps=FORK)
    def test_replica_states_converge_identically(self, protocol_name,
                                                 copies, steps):
        """Beyond outcomes: the stored (o, v, P) triples match site by
        site after the whole script."""
        message_side, sync_file = _drive_both(protocol_name, copies, steps)
        for sid in copies:
            actor = message_side.actor(sid)
            state = sync_file.protocol.replicas.state(sid)
            assert actor.state.snapshot() == state.snapshot(), sid
