"""Dynamic voting with witness copies (Pâris, ICDCS 1986).

The paper's conclusion flags witnesses as the next study: a *witness* is
a copy that records the full consistency-control state ``(o, v, P)`` but
stores **no data**.  Witnesses vote in quorums at negligible storage
cost, so "two copies plus one witness" approaches the availability of
three full copies for a fraction of the disk.

Implementation: the lexicographic dynamic-voting rules apply unchanged to
the union of full copies and witnesses; an access is additionally granted
only if a *full* copy holding the newest reachable version is present —
a quorum of witnesses alone can prove it is the majority partition but
has no bytes to serve.  Likewise a recovering full copy needs a full
source to clone from, while a witness recovers from anyone's state.

This class is an extension beyond the protocols in Table 2, exercised by
the witness ablation benchmark (DESIGN.md experiment X3).
"""

from __future__ import annotations

from typing import AbstractSet, ClassVar

from repro.core.base import DynamicVotingFamily, Verdict
from repro.errors import ConfigurationError
from repro.net.sites import SiteSet, site_mask
from repro.net.views import NetworkView
from repro.replica.state import ReplicaSet

__all__ = [
    "DynamicVotingWithWitnesses",
    "TopologicalDynamicVotingWithWitnesses",
]


class DynamicVotingWithWitnesses(DynamicVotingFamily):
    """LDV over full copies plus data-less witnesses."""

    name: ClassVar[str] = "LDV+W"
    eager: ClassVar[bool] = True
    tie_break: ClassVar[bool] = True
    topological: ClassVar[bool] = False

    def __init__(self, replicas: ReplicaSet, witness_sites: AbstractSet[int]):
        super().__init__(replicas)
        witnesses = frozenset(witness_sites)
        unknown = witnesses - replicas.copy_sites
        if unknown:
            raise ConfigurationError(
                f"witness sites {sorted(unknown)} hold no replica state"
            )
        if witnesses == replicas.copy_sites:
            raise ConfigurationError("at least one full (data) copy is required")
        self._witnesses = witnesses

    @property
    def witness_sites(self) -> frozenset[int]:
        """Sites holding state-only witnesses."""
        return self._witnesses

    @property
    def full_sites(self) -> frozenset[int]:
        """Sites holding full data copies."""
        return self._replicas.copy_sites - self._witnesses

    @property
    def data_sites(self) -> frozenset[int]:
        """Only full copies hold bytes; witnesses are state-only."""
        return self.full_sites

    # ------------------------------------------------------------------
    def evaluate_block(self, view: NetworkView, block: SiteSet) -> Verdict:
        """The base test, plus: a newest *full* copy must be reachable —
        all that a recovering full copy needs beyond the base RECOVER (a
        witness recovers from anyone), so :meth:`recover` is inherited."""
        verdict = super().evaluate_block(view, block)
        if not verdict.granted:
            return verdict
        if verdict.newest_mask & ~site_mask(self._witnesses):
            return verdict
        # A witness-only quorum: majority proven, but no current data to
        # serve or propagate.  Deny without touching state.
        return verdict.decided(
            False,
            "quorum holds only witnesses; no full copy with current data",
        )

    # ------------------------------------------------------------------
    # witness promotion / demotion (Pari86's conversion operations)
    # ------------------------------------------------------------------
    def promote(self, view: NetworkView, site_id: int) -> Verdict:
        """Turn the witness at *site_id* into a full copy.

        Requires the majority partition (the promotion is an operation:
        the witness must fetch current data from a newest full copy, and
        the change must be serialised against rival quorums).  On grant
        the witness leaves the witness set and is committed into the new
        partition set like a recovering copy.

        Raises:
            ConfigurationError: if *site_id* is not a witness.
        """
        if site_id not in self._witnesses:
            raise ConfigurationError(f"site {site_id} is not a witness")
        block = self._block_for_request(view, site_id)
        verdict = self.evaluate_block(view, block)
        if not verdict.granted:
            return verdict
        # Data is cloned from a newest full copy (the grant guarantees
        # one is reachable); then the site participates as a full copy.
        self._witnesses = self._witnesses - {site_id}
        self._commit(verdict, "promote", site_id)
        return verdict

    def demote(self, view: NetworkView, site_id: int) -> Verdict:
        """Turn the full copy at *site_id* into a witness.

        The site keeps its state but drops its data.  Requires the
        majority partition, and at least one *other* full copy must
        remain — a file of witnesses alone is unreadable forever.

        Raises:
            ConfigurationError: if *site_id* is already a witness or is
                the last full copy.
        """
        if site_id in self._witnesses:
            raise ConfigurationError(f"site {site_id} is already a witness")
        if self.full_sites == {site_id}:
            raise ConfigurationError(
                f"site {site_id} is the last full copy; demotion would "
                "leave no data"
            )
        block = self._block_for_request(view, site_id)
        verdict = self.evaluate_block(view, block)
        if not verdict.granted:
            return verdict
        remaining_full = (verdict.newest & self.full_sites) - {site_id}
        if not remaining_full:
            raise ConfigurationError(
                "no other newest full copy reachable; demotion would "
                "orphan the current data"
            )
        self._witnesses = self._witnesses | {site_id}
        self._commit(verdict, "demote", site_id)
        return verdict


class TopologicalDynamicVotingWithWitnesses(DynamicVotingWithWitnesses):
    """Witnesses combined with topological vote claiming.

    A live segment mate may carry a dead *witness's* vote just like a
    dead copy's — witnesses are ordinary quorum members; only the data
    condition (a newest full copy must be reachable) distinguishes them.
    Runs with the lineage guard, like every topological protocol here.
    """

    name: ClassVar[str] = "TDV+W"
    eager: ClassVar[bool] = True
    topological: ClassVar[bool] = True
    lineage_guard: ClassVar[bool] = True
