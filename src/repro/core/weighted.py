"""Weighted static voting (Gifford, SOSP 1979).

The generalisation of MCV the paper's conclusion points at ("more studies
are still needed ... to analyze weight assignments"): each copy carries a
non-negative integer weight, and separate read and write quorums ``r``
and ``w`` satisfy ``r + w > W`` and ``2 w > W`` (``W`` = total weight), so
any read intersects the last write and any two writes intersect.

This is an *extension* module — the paper's Table 2/3 baselines use plain
MCV (all weights 1, ``r = w =`` majority) — exercised by the weight-
assignment ablation benchmark.
"""

from __future__ import annotations

from typing import ClassVar, Mapping, Optional

from repro.core.base import Verdict, VotingProtocol
from repro.errors import ConfigurationError
from repro.net.sites import SiteSet, as_mask, mask_sites
from repro.net.views import NetworkView
from repro.replica.state import ReplicaSet

__all__ = ["WeightedMajorityVoting"]


class WeightedMajorityVoting(VotingProtocol):
    """Static voting with per-copy weights and read/write quorums."""

    name: ClassVar[str] = "WMCV"
    eager: ClassVar[bool] = True

    def __init__(
        self,
        replicas: ReplicaSet,
        weights: Optional[Mapping[int, int]] = None,
        read_quorum: Optional[int] = None,
        write_quorum: Optional[int] = None,
    ):
        super().__init__(replicas)
        if weights is None:
            weights = {sid: 1 for sid in replicas.copy_sites}
        if set(weights) != set(replicas.copy_sites):
            raise ConfigurationError(
                "weights must cover exactly the copy sites; got "
                f"{sorted(weights)} for copies {sorted(replicas.copy_sites)}"
            )
        if any(w < 0 for w in weights.values()):
            raise ConfigurationError("weights must be non-negative")
        total = sum(weights.values())
        if total <= 0:
            raise ConfigurationError("total weight must be positive")
        majority = total // 2 + 1
        read_quorum = majority if read_quorum is None else read_quorum
        write_quorum = majority if write_quorum is None else write_quorum
        if read_quorum + write_quorum <= total:
            raise ConfigurationError(
                f"need r + w > W: {read_quorum} + {write_quorum} <= {total}"
            )
        if 2 * write_quorum <= total:
            raise ConfigurationError(
                f"need 2w > W: 2 * {write_quorum} <= {total}"
            )
        self._weights = dict(weights)
        self._total = total
        self._read_quorum = read_quorum
        self._write_quorum = write_quorum

    # ------------------------------------------------------------------
    @property
    def total_weight(self) -> int:
        return self._total

    @property
    def read_quorum(self) -> int:
        return self._read_quorum

    @property
    def write_quorum(self) -> int:
        return self._write_quorum

    def weight_of(self, sites: frozenset[int]) -> int:
        """Total vote weight carried by *sites*."""
        return sum(self._weights.get(s, 0) for s in sites)

    # ------------------------------------------------------------------
    def can_read(self, view: NetworkView) -> bool:
        """Whether some block assembles the read quorum."""
        return self._best_weight(view) >= self._read_quorum

    def can_write(self, view: NetworkView) -> bool:
        """Whether some block assembles the write quorum."""
        return self._best_weight(view) >= self._write_quorum

    def _best_weight(self, view: NetworkView) -> int:
        copies = self._replicas.copy_sites
        best = 0
        for block in view.blocks:
            reachable = block & copies
            if reachable:
                best = max(best, self.weight_of(frozenset(reachable)))
        return best

    # ------------------------------------------------------------------
    def evaluate_block(self, view: NetworkView, block: SiteSet) -> Verdict:
        """Full availability: the block can both read and write."""
        block = mask_sites(as_mask(block))
        reachable = self._replicas.reachable(block)
        if not reachable:
            return Verdict.denial("no copies reachable in block", block)
        weight = self.weight_of(reachable)
        needed = max(self._read_quorum, self._write_quorum)
        granted = weight >= needed
        newest = self._replicas.newest_sites(reachable)
        return Verdict(
            granted=granted,
            block=block,
            reachable=reachable,
            current=reachable,
            newest=newest,
            counted=reachable,
            partition_set=self._replicas.copy_sites,
            reference=min(newest),
            reason="" if granted else (
                f"block weight {weight} below quorum {needed}"
            ),
        )

    # ------------------------------------------------------------------
    def read(self, view: NetworkView, site_id: int) -> Verdict:
        block = self._block_for_request(view, site_id)
        reachable = mask_sites(block & self._replicas.copy_mask)
        verdict = self.evaluate_block(view, block)
        if not reachable:
            return verdict
        if self.weight_of(reachable) >= self._read_quorum:
            # Read quorum met even if the combined verdict was a denial.
            return Verdict(
                granted=True,
                block=block,
                reachable=reachable,
                current=reachable,
                newest=verdict.newest,
                counted=reachable,
                partition_set=self._replicas.copy_sites,
                reference=verdict.reference,
            )
        return verdict

    def write(self, view: NetworkView, site_id: int) -> Verdict:
        block = self._block_for_request(view, site_id)
        reachable = mask_sites(block & self._replicas.copy_mask)
        if not reachable or self.weight_of(reachable) < self._write_quorum:
            return self.evaluate_block(view, block)
        newest = self._replicas.newest_sites(reachable)
        new_version = self._replicas.max_version(reachable) + 1
        for sid in reachable:
            state = self._replicas.state(sid)
            state.commit(new_version, new_version, state.partition_set)
        return Verdict(
            granted=True,
            block=block,
            reachable=reachable,
            current=reachable,
            newest=newest,
            counted=reachable,
            partition_set=self._replicas.copy_sites,
            reference=min(newest),
        )

    def recover(self, view: NetworkView, site_id: int) -> Verdict:
        """As in MCV: a restarted copy votes immediately; refresh its data."""
        self._require_copy(site_id)
        block = self._block_for_request(view, site_id)
        verdict = self.evaluate_block(view, block)
        newest_version = self._replicas.max_version(verdict.reachable)
        state = self._replicas.state(site_id)
        if state.version < newest_version:
            state.commit(newest_version, newest_version, state.partition_set)
        return verdict

    def synchronize(self, view: NetworkView) -> Verdict:
        """Static quorums: nothing to maintain."""
        return self.evaluate(view)
