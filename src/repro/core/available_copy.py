"""Available Copy (Bernstein & Goodman 1984; Long & Pâris 1987).

The reference protocol for partition-free environments, included because
the paper's Section 3 shows Topological Dynamic Voting *degenerates into
an available copy protocol* when every copy shares one segment.

Semantics (the classic pessimistic model used by the availability
literature): reads use any *current* copy; writes go to all up copies, so
a copy that is down during a write becomes stale; a restarting copy
rejoins instantly by cloning from any up current copy.  After a **total**
failure the file stays unavailable until a copy from the last current set
returns — the well-known "wait for the last to fail" rule.

.. warning::
   Available Copy assumes the network cannot partition.  On a topology
   with partition points two blocks may each hold a current copy and both
   grant — the protocol is only sound on a single segment.  The
   constructor cannot see the topology, so the experiment harness (and
   you) must enforce that restriction.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.base import Verdict, VotingProtocol
from repro.net.sites import SiteSet, as_mask, mask_sites
from repro.net.views import NetworkView
from repro.replica.state import ReplicaSet

__all__ = ["AvailableCopy"]


class AvailableCopy(VotingProtocol):
    """AC — read one / write all-available; no quorums at all."""

    name: ClassVar[str] = "AC"
    eager: ClassVar[bool] = True

    def __init__(self, replicas: ReplicaSet):
        super().__init__(replicas)
        self._current: frozenset[int] = replicas.copy_sites

    @property
    def current_copies(self) -> frozenset[int]:
        """Copies believed to hold the latest data (may be down)."""
        return self._current

    # ------------------------------------------------------------------
    def evaluate_block(self, view: NetworkView, block: SiteSet) -> Verdict:
        block = mask_sites(as_mask(block))
        reachable = self._replicas.reachable(block)
        if not reachable:
            return Verdict.denial("no copies reachable in block", block)
        live_current = reachable & self._current
        granted = bool(live_current)
        return Verdict(
            granted=granted,
            block=block,
            reachable=reachable,
            current=live_current,
            newest=live_current if granted else reachable,
            counted=live_current,
            partition_set=self._current,
            reference=min(live_current) if granted else None,
            reason="" if granted else (
                "no current copy up; waiting for one of "
                f"{sorted(self._current)} to restart"
            ),
        )

    # ------------------------------------------------------------------
    def read(self, view: NetworkView, site_id: int) -> Verdict:
        block = self._block_for_request(view, site_id)
        return self.evaluate_block(view, block)

    def write(self, view: NetworkView, site_id: int) -> Verdict:
        """Write all available: every reachable copy becomes current."""
        block = self._block_for_request(view, site_id)
        verdict = self.evaluate_block(view, block)
        if not verdict.granted:
            return verdict
        assert verdict.reference is not None
        new_version = self._replicas.state(verdict.reference).version + 1
        for sid in verdict.reachable:
            state = self._replicas.state(sid)
            state.commit(new_version, new_version, state.partition_set)
        self._current = verdict.reachable
        return verdict

    def recover(self, view: NetworkView, site_id: int) -> Verdict:
        """Clone from any up current copy, then rejoin the current set."""
        self._require_copy(site_id)
        block = self._block_for_request(view, site_id)
        verdict = self.evaluate_block(view, block)
        if not verdict.granted:
            return verdict
        assert verdict.reference is not None
        source = self._replicas.state(verdict.reference)
        target = self._replicas.state(site_id)
        if target.version < source.version:
            target.commit(source.operation, source.version, target.partition_set)
        self._current = self._current | {site_id}
        return verdict

    def synchronize(self, view: NetworkView) -> Verdict:
        """Pessimistic tracking: while any current copy is up, the current
        set is exactly the up copies (writes are assumed frequent and
        restarts clone instantly); during a total failure it is frozen."""
        up_copies = self._replicas.copy_sites & view.up
        if up_copies & self._current:
            newest = self._replicas.max_version(up_copies & self._current)
            for sid in up_copies:
                state = self._replicas.state(sid)
                if state.version < newest:
                    state.commit(newest, newest, state.partition_set)
            self._current = up_copies
        return self.evaluate(view)
