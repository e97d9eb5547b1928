"""A deliberately unsafe protocol, for validating the monitor.

A chaos engine that never fires is indistinguishable from one that
cannot see.  :class:`GreedyTieBreakVoting` exists to prove the monitor
*can* see: it is LDV with the tie-breaking rule broken greedily — when
exactly half of the previous partition set is counted, it grants
*unconditionally* instead of requiring the lexicographic maximum.  Two
halves of an even split then both grant, which is precisely the mutual
exclusion failure the lexicographic rule exists to prevent (paper,
Section 2), and the monitor's ``quorum-exclusion`` probe catches it on
the first even partition of a run.

The regression tests and ``repro chaos sweep --policies BROKEN-TIE``
use this class; it is never registered among the paper policies.
"""

from __future__ import annotations

from repro.core.base import Verdict
from repro.core.lexicographic import LexicographicDynamicVoting
from repro.net.sites import SiteSet
from repro.net.views import NetworkView

__all__ = ["GreedyTieBreakVoting"]


class GreedyTieBreakVoting(LexicographicDynamicVoting):
    """LDV with the tie-break made greedy (UNSAFE — test fixture).

    Every denial whose reason is the tie rule ("exactly half, without
    the maximum element") is flipped into a grant.  Everything else —
    commits, recovery, bookkeeping — is inherited unchanged, so the
    only difference from LDV is the unsafe grant.
    """

    name = "BROKEN-TIE"

    def evaluate_block(self, view: NetworkView, block: SiteSet) -> Verdict:
        # Evaluate with the tracer detached: the flipped verdict below
        # is the decision this protocol actually takes, and the trace
        # must show that one, not the inherited denial.
        tracer, self._tracer = self._tracer, None
        try:
            verdict = super().evaluate_block(view, block)
        finally:
            self._tracer = tracer
        if not verdict.granted and verdict.reason.startswith("tie:"):
            verdict = verdict.decided(
                True, "tie granted greedily (broken tie-break)")
        if self._tracer is not None:
            self._trace_decision(verdict)
        return verdict
