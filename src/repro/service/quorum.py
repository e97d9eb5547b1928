"""Bridging live TCP rounds onto the paper's quorum machinery.

The simulator hands :meth:`~repro.core.base.DynamicVotingFamily.
evaluate_block` a global :class:`~repro.net.views.NetworkView`; a live
coordinator has no such oracle — all it knows is which peers answered
its state-collection round.  :class:`ClusterView` is the duck-typed
view built from exactly that knowledge: the responders form the
coordinator's block, every silent site is assumed unreachable, and
segment co-location comes from static cluster configuration (what the
topological protocols' vote claiming needs).

The protocol objects themselves are the untouched classes from
:mod:`repro.core` — the service re-evaluates Algorithm 1 over a
:class:`~repro.replica.state.ReplicaSet` rebuilt from collected
``(o, v, P)`` triples, the same idiom the chaos monitor's exclusion
probe uses.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Mapping, Optional, Tuple

from repro.core.base import Verdict, VotingProtocol
from repro.core.registry import make_protocol
from repro.errors import ConfigurationError
from repro.net.sites import mask_sites, site_mask
from repro.replica.state import ReplicaSet

__all__ = [
    "ClusterView",
    "CommitPlan",
    "evaluate_round",
    "plan_commit",
]


class ClusterView:
    """A coordinator's partial view of the cluster network.

    Implements the slice of the :class:`~repro.net.views.NetworkView`
    interface the quorum test consults: the block masks, :meth:`max_bit`
    for the tie break and :meth:`segment_mates` for topological vote
    claiming, beside their site-id forms.
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
        """Highest site id among *site_ids* (the paper's tie-breaker)."""
        return max(site_ids)

    def max_bit(self, mask: int) -> int:
        """The bit of the highest site id in *mask*."""
        return 1 << mask.bit_length() - 1

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
    reachable = frozenset(states)
    if not reachable:
        return (Verdict.denial("no replicas reachable"),
                ReplicaSet(copy_sites), None)
    replica_set = ReplicaSet.from_states(dict(states), copy_sites)
    view = ClusterView(reachable, frozenset(copy_sites), segments)
    protocol = make_protocol(policy, replica_set)
    verdict = protocol.evaluate_block(view, reachable)
    return verdict, replica_set, protocol


class CommitPlan:
    """The COMMIT a granted round must broadcast.

    Attributes:
        kind: ``"read"``, ``"write"``, ``"recover"`` or ``"adjust"``.
        operation / version: The new ``(o, v)`` pair.
        partition_set: The new ``P`` — also the recipients.
        anchor: A site holding the newest data (where reads and
            recovery copies come from).
    """

    __slots__ = ("kind", "operation", "version", "partition_set", "anchor")

    def __init__(self, kind: str, operation: int, version: int,
                 partition_set: frozenset[int], anchor: int):
        self.kind = kind
        self.operation = operation
        self.version = version
        self.partition_set = partition_set
        self.anchor = anchor


def plan_commit(
    verdict: Verdict,
    replica_set: ReplicaSet,
    kind: str,
    recovering_site: Optional[int] = None,
) -> CommitPlan:
    """Turn a granted verdict into the paper's COMMIT parameters.

    ``COMMIT(S, o_m + 1, v_m [+1], S)`` for reads and writes (Figures
    1–2), ``COMMIT(S ∪ {l}, o_m + 1, v_m, S ∪ {l})`` for RECOVER
    (Figure 3).  Mirrors the arithmetic of
    :meth:`repro.core.base.DynamicVotingFamily._commit`,
    which cannot be called directly because a live COMMIT is a
    broadcast, not an in-memory mutation.

    Raises:
        ConfigurationError: if *verdict* was not granted, or a recover
            plan lacks its recovering site.
    """
    if not verdict.granted or verdict.reference is None:
        raise ConfigurationError("cannot plan a commit for a denied round")
    anchor_state = replica_set.state(verdict.reference)
    new_operation = anchor_state.operation + 1
    if kind == "write":
        new_version = anchor_state.version + 1
        new_set = verdict.newest
    elif kind in ("read", "adjust"):
        new_version = anchor_state.version
        new_set = verdict.newest
    elif kind == "recover":
        if recovering_site is None:
            raise ConfigurationError(
                "a recover plan needs the recovering site"
            )
        new_version = anchor_state.version
        new_set = verdict.newest | {recovering_site}
    else:
        raise ConfigurationError(f"unknown commit kind {kind!r}")
    return CommitPlan(
        kind=kind,
        operation=new_operation,
        version=new_version,
        partition_set=frozenset(new_set),
        anchor=min(verdict.newest),
    )
