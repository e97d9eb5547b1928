"""Dynamic vote reassignment (Barbara, Garcia-Molina & Spauster, 1986).

The paper's introduction cites "Policies for Dynamic Vote Reassignment"
[BGS86] as the other route to adaptive quorums: instead of shrinking the
*set* of voters (dynamic voting), keep the voter set fixed and move the
*weights* — live sites absorb the votes of sites believed dead, so a
static-majority test keeps passing as the group erodes.

This module implements the two classic reassignment policies on top of
the same substrate as the rest of :mod:`repro.core`, so the approaches
can be raced on the paper's testbed (benchmark X6):

* ``ALLIANCE`` — a dead member's votes are split as evenly as possible
  among the surviving members (largest shares to the strongest first);
* ``OVERTHROW`` — a dead member's votes all go to the lexicographically
  greatest survivor.

Safety follows the dynamic-voting argument (docs/CORRECTNESS.md §§2–3)
with cardinalities replaced by weights: every copy stores the
*assignment version* ``a_i`` and the weight table of that assignment;
only copies at the highest reachable assignment version vote; a grant
needs more than half of the assignment's total weight (or exactly half
including the assignment's maximum member); and a new assignment is
COMMITted only by such a quorum of the old one.  Two quorums of one
assignment always intersect, so assignments are totally ordered and at
most one block can ever grant.
"""

from __future__ import annotations

import enum
from typing import ClassVar, Mapping

from repro.core.base import Verdict, VotingProtocol
from repro.errors import ConfigurationError, ProtocolError, QuorumNotReachedError
from repro.net.sites import SiteSet, as_mask, mask_sites
from repro.net.views import NetworkView
from repro.replica.state import ReplicaSet

__all__ = ["ReassignmentPolicy", "VoteReassignmentVoting"]


class ReassignmentPolicy(enum.Enum):
    """How a dead member's votes are redistributed."""

    ALLIANCE = "alliance"
    OVERTHROW = "overthrow"


class _AssignmentState:
    """Per-copy state: assignment version + that assignment's weights,
    plus the data version for newest-copy selection."""

    __slots__ = ("site_id", "assignment", "weights", "version")

    def __init__(self, site_id: int, weights: Mapping[int, int]):
        self.site_id = site_id
        self.assignment = 1
        self.weights = dict(weights)
        self.version = 1

    def commit(self, assignment: int, weights: Mapping[int, int],
               version: int) -> None:
        if assignment < self.assignment:
            raise ProtocolError(
                f"assignment version would go backwards at {self.site_id}"
            )
        if version < self.version:
            raise ProtocolError(
                f"data version would go backwards at {self.site_id}"
            )
        self.assignment = assignment
        self.weights = dict(weights)
        self.version = version


class VoteReassignmentVoting(VotingProtocol):
    """Adaptive weights over a fixed voter set ([BGS86]-style).

    Weights start at one vote per copy.  :meth:`synchronize` (eager —
    reassignment reacts to failure detection) moves unreachable members'
    votes per the chosen policy and restores base weights when everyone
    is back.
    """

    name: ClassVar[str] = "DVR"
    eager: ClassVar[bool] = True
    commits_on_read: ClassVar[bool] = False

    def __init__(
        self,
        replicas: ReplicaSet,
        policy: ReassignmentPolicy = ReassignmentPolicy.ALLIANCE,
    ):
        super().__init__(replicas)
        if not isinstance(policy, ReassignmentPolicy):
            raise ConfigurationError(f"unknown reassignment policy {policy!r}")
        self.policy = policy
        base = {sid: 1 for sid in replicas.copy_sites}
        self._states = {
            sid: _AssignmentState(sid, base) for sid in replicas.copy_sites
        }

    # ------------------------------------------------------------------
    def assignment_at(self, site_id: int) -> tuple[int, dict[int, int]]:
        """The ``(assignment version, weight table)`` stored at a copy."""
        try:
            state = self._states[site_id]
        except KeyError:
            raise ConfigurationError(f"no copy at site {site_id}") from None
        return (state.assignment, dict(state.weights))

    # ------------------------------------------------------------------
    def evaluate_block(self, view: NetworkView, block: SiteSet) -> Verdict:
        block = mask_sites(as_mask(block))
        reachable = frozenset(self._states) & block
        if not reachable:
            return Verdict.denial("no copies reachable in block", block)
        top = max(self._states[s].assignment for s in reachable)
        voters = frozenset(
            s for s in reachable if self._states[s].assignment == top
        )
        anchor = self._states[min(voters)]
        self._check_agreement(voters)
        weights = anchor.weights
        total = sum(weights.values())
        gathered = sum(weights.get(s, 0) for s in voters)
        granted = 2 * gathered > total
        if not granted and 2 * gathered == total:
            # Lexicographic tie-break over the members actually holding
            # votes; two disjoint halves cannot both contain the maximum.
            holders = [s for s, w in weights.items() if w > 0]
            granted = view.max_site(holders) in voters
        newest_version = max(self._states[s].version for s in reachable)
        newest = frozenset(
            s for s in reachable if self._states[s].version == newest_version
        )
        return Verdict(
            granted=granted,
            block=block,
            reachable=reachable,
            current=voters,
            newest=newest,
            counted=voters,
            partition_set=frozenset(weights),
            reference=min(voters),
            reason="" if granted else (
                f"gathered weight {gathered} of total {total}"
            ),
        )

    def _check_agreement(self, voters: frozenset[int]) -> None:
        tables = {
            (self._states[s].assignment, tuple(sorted(self._states[s].weights.items())))
            for s in voters
        }
        if len(tables) != 1:
            raise ProtocolError(
                f"divergent weight tables among voters {sorted(voters)}"
            )

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def read(self, view: NetworkView, site_id: int) -> Verdict:
        block = self._block_for_request(view, site_id)
        return self.evaluate_block(view, block)

    def write(self, view: NetworkView, site_id: int) -> Verdict:
        block = self._block_for_request(view, site_id)
        verdict = self.evaluate_block(view, block)
        if not verdict.granted:
            return verdict
        new_version = max(
            self._states[s].version for s in verdict.reachable
        ) + 1
        for sid in verdict.current:
            state = self._states[sid]
            state.commit(state.assignment, state.weights, new_version)
        return verdict

    def recover(self, view: NetworkView, site_id: int) -> Verdict:
        """A returning copy adopts the quorum's assignment and data."""
        self._require_copy(site_id)
        block = self._block_for_request(view, site_id)
        verdict = self.evaluate_block(view, block)
        if not verdict.granted:
            return verdict
        anchor = self._states[verdict.reference]
        target = self._states[site_id]
        target.commit(
            anchor.assignment,
            anchor.weights,
            max(target.version, anchor.version),
        )
        return verdict

    # ------------------------------------------------------------------
    def synchronize(self, view: NetworkView) -> Verdict:
        """Reassign votes to match the view (failure detection reacts).

        Within the granting block: recover stale members, then commit a
        fresh assignment — base weight 1 per reachable copy plus the
        unreachable members' votes redistributed by policy.  When every
        copy is reachable this restores the uniform base assignment.
        """
        copies = frozenset(self._states)
        for _ in range(len(copies) + 2):
            verdict = self.evaluate(view)
            if not verdict.granted:
                return verdict
            stale = sorted((copies & verdict.block) - verdict.current)
            if stale:
                self.recover(view, stale[0])
                continue
            live = sorted(verdict.current)
            target = self._target_assignment(view, frozenset(live))
            anchor = self._states[verdict.reference]
            if target != anchor.weights:
                new_assignment = anchor.assignment + 1
                for sid in live:
                    state = self._states[sid]
                    state.commit(new_assignment, target, state.version)
                return self.evaluate(view)
            return verdict
        raise ProtocolError(  # pragma: no cover - defensive
            "synchronize failed to converge"
        )

    def _target_assignment(
        self, view: NetworkView, live: frozenset[int]
    ) -> dict[int, int]:
        """The policy's ideal weight table for the given live copies."""
        copies = sorted(self._states)
        dead_votes = len(copies) - len(live)
        weights = {sid: (1 if sid in live else 0) for sid in copies}
        if not live or dead_votes == 0:
            return {sid: 1 for sid in copies} if dead_votes == 0 else weights
        # Strongest-first ordering: the lexicographic maximum absorbs
        # first (and everything, under OVERTHROW).
        ranked = sorted(live, key=lambda s: -view.topology.site(s).rank)
        if self.policy is ReassignmentPolicy.OVERTHROW:
            weights[ranked[0]] += dead_votes
            return weights
        for i in range(dead_votes):  # ALLIANCE: round-robin split
            weights[ranked[i % len(ranked)]] += 1
        return weights
