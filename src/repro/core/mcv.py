"""Static Majority Consensus Voting (Ellis 1977, Gifford 1979).

The baseline every dynamic protocol is measured against.  The quorum is
fixed at a strict majority of *all* physical copies: any partition block
containing more than half of the copies (up or freshly restarted — every
copy always votes) may access the file.  Because any two majorities
intersect and a majority always contains a copy holding the latest
version, consistency holds with no dynamic state at all — but a few
failures can make every block fall below the static quorum, which is
exactly the weakness dynamic voting removes.
"""

from __future__ import annotations

from typing import ClassVar, Optional

from repro.core.base import _COMMIT_KINDS, Commit, Verdict, VotingProtocol
from repro.errors import ConfigurationError
from repro.net.sites import SiteSet, as_mask, lowest_site
from repro.net.views import NetworkView
from repro.replica.state import ReplicaSet

__all__ = ["MajorityConsensusVoting"]


class MajorityConsensusVoting(VotingProtocol):
    """MCV — one vote per copy, static majority quorum.

    State kept per copy is just the version number (operation numbers
    mirror versions so the shared ``ReplicaState`` invariants hold; the
    partition set is never consulted and never changes).

    Ties with an even number of copies are resolved statically with the
    same lexicographic convention as the dynamic protocols: a group
    holding exactly half of the copies wins iff it contains the maximum
    site.  The paper never states this for MCV, but its four-copy Table 2
    rows demand it — e.g. configuration F would otherwise be unavailable
    for site 4's entire two-week repairs (~0.12 unavailability versus the
    published 0.002761); see DESIGN.md §3.  Equivalent to giving the
    maximum site one extra vote in Gifford's weighted scheme.  Pass
    ``tie_break=False`` for the strict textbook quorum.
    """

    name: ClassVar[str] = "MCV"
    eager: ClassVar[bool] = True

    def __init__(self, replicas: ReplicaSet, tie_break: bool = True):
        super().__init__(replicas)
        if len(replicas) < 1:
            raise ConfigurationError("MCV needs at least one copy")
        self._quorum = len(replicas) // 2 + 1
        self._tie_break = tie_break

    @property
    def quorum(self) -> int:
        """Votes required: strict majority of all copies."""
        return self._quorum

    @property
    def tie_break(self) -> bool:
        """Whether an exact half containing the maximum site suffices."""
        return self._tie_break

    # ------------------------------------------------------------------
    def evaluate_block(self, view: NetworkView, block: SiteSet) -> Verdict:
        block = as_mask(block)
        replicas = self._replicas
        copies = replicas.copy_mask
        reachable = block & copies
        if not reachable:
            verdict = Verdict.denial("no copies reachable in block", block)
            if self._tracer is not None:
                self._trace_decision(verdict)
            return verdict
        doubled = 2 * reachable.bit_count()
        granted = doubled > len(replicas)
        tie_break_winner = None
        if (
            self._tie_break
            and doubled == len(replicas)
            and view.max_bit(copies) & reachable
        ):
            granted = True
            tie_break_winner = lowest_site(view.max_bit(copies))
        newest = replicas.quorum_scan(reachable)[1]
        verdict = Verdict(
            granted=granted,
            block=block,
            reachable=reachable,
            current=reachable,  # every copy votes, stale or not
            newest=newest,
            counted=reachable,
            partition_set=copies,  # the static denominator
            reference=lowest_site(newest),
            reason="" if granted else (
                f"{reachable.bit_count()} of {len(replicas)} copies "
                f"reachable, quorum is {self._quorum}"
            ),
        )
        if self._tracer is not None:
            self._trace_decision(verdict, tie_break_winner=tie_break_winner)
        return verdict

    # ------------------------------------------------------------------
    def commit_for(self, verdict: Verdict, kind: str,
                   site: Optional[int] = None) -> Optional[Commit]:
        """MCV's COMMIT.  A granted WRITE installs ``(v + 1, v + 1, P)``
        at every reachable copy, ``v`` the newest reachable version (``o``
        mirrors ``v``; ``P`` stays the static copy set).  READ commits
        nothing.  RECOVER needs no quorum: a copy behind the newest
        reachable version refreshes to it (kind ``"refresh"``)."""
        if (kind, site is not None) not in _COMMIT_KINDS:
            raise ConfigurationError(f"no {kind!r} commit with site={site}")
        if kind not in ("write", "recover") or verdict.reference is None:
            return None
        newest = self._replicas.state(verdict.reference).version
        copies = self._replicas.copy_mask
        if kind == "recover":
            if self._replicas.state(site).version >= newest:
                return None
            return Commit("refresh", newest, newest, copies, 1 << site)
        if not verdict.granted:
            return None
        return Commit(kind, newest + 1, newest + 1, copies,
                      verdict.reachable_mask)

    def read(self, view: NetworkView, site_id: int) -> Verdict:
        """Reads collect a majority and use its newest copy; no state change."""
        return self._operate(view, site_id, "read")

    def write(self, view: NetworkView, site_id: int) -> Verdict:
        """Writes install ``max version + 1`` at every reachable copy."""
        return self._operate(view, site_id, "write")

    def recover(self, view: NetworkView, site_id: int) -> Verdict:
        """A restarted copy votes again immediately; it refreshes its data
        (version) if a newer reachable copy exists, but needs no quorum —
        staleness is caught by version comparison inside later quorums."""
        self._require_copy(site_id)
        return self._operate(view, site_id, "recover", site_id)

    def synchronize(self, view: NetworkView) -> Verdict:
        """MCV keeps no dynamic quorum state; nothing to do."""
        return self.evaluate(view)
