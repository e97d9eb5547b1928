"""The Jajodia–Mutchler integer-storage dynamic voting protocol.

Section 2.1 of the paper compares its partition-set representation with
the protocol "developed independently by Jajodia and Mutchler [JaMu87]":

    "Their protocol used integer values to represent the previous quorum
    instead of the partition sets that are used here.  It requires less
    storage to implement simple Dynamic Voting, but it cannot
    accommodate Lexicographic Dynamic Voting as it does not keep track
    of the identity of the maximum element of the partition set."

Each copy stores a *version number* ``VN`` (count of updates applied)
and an *update-sites cardinality* ``SC`` (how many sites took part in
the last update).  A group grants iff the copies holding the highest
reachable ``VN`` number more than ``SC / 2`` of that generation.  With
only the cardinality stored, a tie (exactly half) cannot name a
distinguished member and must fail — which is precisely why this class
implements *simple* DV semantics.

This module exists to make the paper's comparison executable: the
equivalence tests show :class:`CardinalityDynamicVoting` tracks
:class:`~repro.core.dynamic.DynamicVoting` decision-for-decision while
storing two integers instead of a site set.
"""

from __future__ import annotations

from typing import ClassVar, Iterable

from repro.core.base import OperationKind, Verdict, VotingProtocol
from repro.errors import ConfigurationError, ProtocolError
from repro.net.sites import SiteSet, as_mask, mask_sites
from repro.net.views import NetworkView
from repro.replica.state import ReplicaSet

__all__ = ["CardinalityDynamicVoting"]


class _CardinalityState:
    """Integer state of one copy: update count and last-quorum size."""

    __slots__ = ("site_id", "version", "cardinality")

    def __init__(self, site_id: int):
        self.site_id = site_id
        self.version = 1
        self.cardinality = 0  # set by the protocol's constructor

    def commit(self, version: int, cardinality: int) -> None:
        if version < self.version:
            raise ProtocolError(
                f"version would go backwards at site {self.site_id}"
            )
        if cardinality < 1:
            raise ProtocolError("cardinality must be >= 1")
        self.version = version
        self.cardinality = cardinality


class CardinalityDynamicVoting(VotingProtocol):
    """JM87 dynamic voting: (VN, SC) integers per copy, no tie-break.

    The shared :class:`~repro.replica.state.ReplicaSet` is still held so
    the protocol plugs into the same harness, but all decisions are made
    from the private integer state — the point of the comparison.
    """

    name: ClassVar[str] = "JM-DV"
    eager: ClassVar[bool] = True
    commits_on_read: ClassVar[bool] = True

    def __init__(self, replicas: ReplicaSet):
        super().__init__(replicas)
        self._cards = {
            sid: _CardinalityState(sid) for sid in replicas.copy_sites
        }
        for state in self._cards.values():
            state.cardinality = len(self._cards)

    # ------------------------------------------------------------------
    def integer_state(self, site_id: int) -> tuple[int, int]:
        """The ``(VN, SC)`` pair stored at *site_id* (two integers — the
        storage advantage over partition sets)."""
        try:
            state = self._cards[site_id]
        except KeyError:
            raise ConfigurationError(f"no copy at site {site_id}") from None
        return (state.version, state.cardinality)

    # ------------------------------------------------------------------
    def evaluate_block(self, view: NetworkView, block: SiteSet) -> Verdict:
        block = mask_sites(as_mask(block))
        reachable = frozenset(self._cards) & block
        if not reachable:
            return Verdict.denial("no copies reachable in block", block)
        top = max(self._cards[s].version for s in reachable)
        current = frozenset(
            s for s in reachable if self._cards[s].version == top
        )
        cardinality = self._cards[min(current)].cardinality
        granted = 2 * len(current) > cardinality
        return Verdict(
            granted=granted,
            block=block,
            reachable=reachable,
            current=current,
            newest=current,
            counted=current,
            partition_set=frozenset(),  # not representable: integers only
            reference=min(current),
            reason="" if granted else (
                f"{len(current)} current of last quorum size {cardinality}"
            ),
        )

    # ------------------------------------------------------------------
    def _operate(self, view: NetworkView, site_id: int) -> Verdict:
        block = self._block_for_request(view, site_id)
        verdict = self.evaluate_block(view, block)
        if not verdict.granted:
            return verdict
        top = max(self._cards[s].version for s in verdict.current)
        new_version = top + 1
        members = verdict.current
        for sid in members:
            self._cards[sid].commit(new_version, len(members))
        return verdict

    def read(self, view: NetworkView, site_id: int) -> Verdict:
        """JM87 counts every operation as an update of the state."""
        return self._operate(view, site_id)

    def write(self, view: NetworkView, site_id: int) -> Verdict:
        return self._operate(view, site_id)

    def recover(self, view: NetworkView, site_id: int) -> Verdict:
        self._require_copy(site_id)
        block = self._block_for_request(view, site_id)
        verdict = self.evaluate_block(view, block)
        if not verdict.granted:
            return verdict
        top = max(self._cards[s].version for s in verdict.current)
        members = verdict.current | {site_id}
        for sid in members:
            self._cards[sid].commit(top + 1, len(members))
        return verdict

    def synchronize(self, view: NetworkView) -> Verdict:
        """Eager fixpoint, mirroring the partition-set family."""
        copies = frozenset(self._cards)
        for _ in range(len(copies) + 2):
            verdict = self.evaluate(view)
            if not verdict.granted:
                return verdict
            stale = sorted((copies & verdict.block) - verdict.current)
            if stale:
                self.recover(view, stale[0])
                continue
            cardinality = self._cards[min(verdict.current)].cardinality
            if cardinality != len(verdict.current):
                # Null operation: shrink the recorded quorum size.
                self._operate(view, min(verdict.current))
                return self.evaluate(view)
            return verdict
        raise ProtocolError(  # pragma: no cover - defensive
            "synchronize failed to converge"
        )
