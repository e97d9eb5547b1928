"""Bridging live TCP rounds onto the paper's quorum machinery.

The simulator hands :meth:`~repro.core.base.DynamicVotingFamily.
evaluate_block` a global :class:`~repro.net.views.NetworkView`; a live
coordinator has no such oracle — all it knows is which peers answered
its state-collection round.  :class:`ClusterView` is the duck-typed
view built from exactly that knowledge: the responders form the
coordinator's block, every silent site is assumed unreachable, and
segment co-location comes from static cluster configuration (what the
topological protocols' vote claiming needs).

The decision and the COMMIT are core's: :func:`evaluate_round` is
:func:`repro.core.rounds.decide` over the collected ``(o, v, P)``
triples, and :func:`plan_commit` reads the protocol's
:meth:`~repro.core.base.VotingProtocol.commit_for`.
:func:`one_round_read` says when a read's COMMIT would change nothing
but ``o``, so a lease-free peek may answer it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, AbstractSet, Iterable, Mapping, NamedTuple, \
    Optional, Tuple

from repro.core.base import DynamicVotingFamily, Verdict, VotingProtocol
from repro.core.registry import make_protocol
from repro.core.rounds import commit_body, decide
from repro.errors import ConfigurationError
from repro.net.sites import Site, lowest_site, mask_sites, site_mask
from repro.replica.state import ReplicaSet

__all__ = [
    "ClusterView",
    "CommitPlan",
    "evaluate_round",
    "one_round_read",
    "plan_commit",
]


class ClusterView:
    """A coordinator's partial view of the cluster network.

    Implements the slice of the :class:`~repro.net.views.NetworkView`
    interface the quorum test consults: the block masks, :meth:`max_bit`
    for the tie break and :meth:`segment_mates` for topological vote
    claiming, beside their site-id forms.  The tie-break order is the
    default :class:`~repro.net.sites.Site` rank, as on the simulator's
    topologies: the lowest site id is the lexicographic maximum.
    """

    def __init__(
        self,
        reachable: AbstractSet[int],
        all_sites: AbstractSet[int],
        segments: Optional[Mapping[int, int]] = None,
    ):
        self._reachable = frozenset(reachable)
        self._all = frozenset(all_sites) | self._reachable
        self._segments = dict(segments or {})
        silent = sorted(self._all - self._reachable)
        #: The responder block, then one singleton per silent site.
        self.block_masks = (site_mask(self._reachable),) + tuple(
            1 << site for site in silent
        )
        self._mates: dict[int, int] = {}
        for site, segment in self._segments.items():
            self._mates[segment] = self._mates.get(segment, 0) | 1 << site

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """The responder block plus one singleton per silent site."""
        return tuple(map(mask_sites, self.block_masks))

    def is_up(self, site_id: int) -> bool:
        """Whether *site_id* answered the state round."""
        return site_id in self._reachable

    def block_of(self, site_id: int) -> frozenset[int]:
        """The communicating block of *site_id* under this view."""
        if site_id in self._reachable:
            return self._reachable
        return frozenset({site_id})

    def max_site(self, site_ids: Iterable[int]) -> int:
        """The lexicographic maximum of *site_ids* (the paper's tie-breaker)."""
        return lowest_site(self.max_bit(site_mask(site_ids)))

    def max_bit(self, mask: int) -> int:
        """The bit of the lexicographic maximum of the sites in *mask*."""
        if not mask:
            raise ConfigurationError(
                "lexicographic maximum of an empty site set")
        # Topology's order: highest rank first, equal ranks by lower id.
        return 1 << min(mask_sites(mask),
                        key=lambda site: (-Site(site).rank, site))

    def same_segment(self, a: int, b: int) -> bool:
        """Whether two sites share a configured network segment.

        With no segment map every site is its own segment, which makes
        the topological protocols degenerate to their plain versions —
        the safe default when the deployment topology is unknown.
        """
        if a == b:
            return True
        seg_a = self._segments.get(a)
        seg_b = self._segments.get(b)
        return seg_a is not None and seg_a == seg_b

    def segment_mates(self, mask: int) -> int:
        """Mask of every site sharing a segment with a site of *mask*."""
        mates = mask
        for site in mask_sites(mask):
            mates |= self._mates.get(self._segments.get(site), 0)
        return mates


def evaluate_round(
    policy: str,
    states: Mapping[int, tuple[int, int, AbstractSet[int]]],
    copy_sites: AbstractSet[int],
    segments: Optional[Mapping[int, int]] = None,
) -> Tuple[Verdict, ReplicaSet, Optional[VotingProtocol]]:
    """Run the quorum test over one collected state round.

    Args:
        policy: Protocol abbreviation (``"ODV"``, ``"OTDV"``, ...).
        states: ``{site: (o, v, P)}`` for every responder.
        copy_sites: All sites holding a copy (the static denominator).
        segments: Optional ``{site: segment}`` co-location map.

    Returns:
        The verdict, the rebuilt replica set (whose reference states
        back the verdict's anchor) and the protocol instance (whose
        ``commits_on_read`` flag decides whether a granted read must
        broadcast a COMMIT).
    """
    if not states:
        return (Verdict.denial("no replicas reachable"),
                ReplicaSet(copy_sites), None)
    view = ClusterView(frozenset(states), frozenset(copy_sites), segments)
    protocol, verdict = decide(partial(make_protocol, policy), states, view,
                               copy_sites)
    return verdict, protocol.replicas, protocol


class CommitPlan(NamedTuple):
    """The COMMIT a granted round must broadcast.

    Attributes:
        kind: ``"read"``, ``"write"``, ``"recover"`` or ``"adjust"``.
        operation / version: The new ``(o, v)`` pair.
        partition_set: The new ``P``.
        anchor: A site holding the newest data (where reads and
            recovery copies come from).
        recipients: The sites that install the triple — ``P`` itself
            except under MCV, whose ``P`` is the static copy set.
    """

    kind: str
    operation: int
    version: int
    partition_set: frozenset[int]
    anchor: int
    recipients: frozenset[int]


def plan_commit(
    verdict: Verdict,
    replica_set: ReplicaSet,
    kind: str,
    recovering_site: Optional[int] = None,
    protocol: Optional[VotingProtocol] = None,
) -> CommitPlan:
    """The granted round's COMMIT, as *protocol* states it
    (:meth:`~repro.core.base.VotingProtocol.commit_for`).

    *protocol* is the one :func:`evaluate_round` returned; by default
    the dynamic-voting family's COMMIT over *replica_set*.

    Raises:
        ConfigurationError: if *verdict* was not granted or commits
            nothing, for an unknown *kind*, or for a recover plan
            without its recovering site.
    """
    if not verdict.granted or verdict.reference is None:
        raise ConfigurationError("cannot plan a commit for a denied round")
    if protocol is None:
        protocol = DynamicVotingFamily(replica_set)
    commit = protocol.commit_for(verdict, kind, recovering_site)
    if commit is None:
        raise ConfigurationError(f"a granted {kind} commits nothing here")
    return CommitPlan(
        kind=commit.kind,
        operation=commit.operation,
        version=commit.version,
        partition_set=commit.partition_set,
        anchor=min(verdict.newest),
        recipients=commit.recipients,
    )


def one_round_read(
    verdict: Verdict,
    replica_set: ReplicaSet,
    protocol: Optional[VotingProtocol],
    states: Mapping[int, tuple[int, int, AbstractSet[int]]],
    lasts: Mapping[int, Any],
) -> bool:
    """Whether a read granted over *states* commits nothing but a
    bumped ``o``, on copies that already hold the anchor's state.

    True when *verdict* is granted and every member of the anchor's
    ``P_m`` answered the anchor's exact triple with the same
    :func:`~repro.core.rounds.commit_body` of its last commit (*lasts*:
    ``{site: its "last" entry or None}``), and, for a protocol that
    commits on a read, the read's COMMIT installs that same ``P`` at
    exactly ``P_m``.  Then skipping the COMMIT is an order-preserving
    relabel of ``o`` (docs/CORRECTNESS.md §11), and the newest copy's
    value answers the read.  *verdict*, *replica_set* and *protocol*
    are :func:`evaluate_round`'s.
    """
    if not verdict.granted or protocol is None:
        return False
    anchor = states[verdict.reference]
    members = anchor[2]
    if not all(states.get(site) == anchor for site in members):
        return False
    try:
        bodies = {None if lasts.get(site) is None
                  else commit_body(lasts[site]) for site in members}
    except (KeyError, TypeError, ValueError):
        return False  # a malformed "last" proves nothing
    if len(bodies) != 1:
        return False
    if not protocol.commits_on_read:
        return True
    plan = plan_commit(verdict, replica_set, "read", protocol=protocol)
    return plan.partition_set == members == plan.recipients
