"""Weighted dynamic voting — weight assignments in the dynamic setting.

The paper closes with "More studies are still needed ... to analyze
weight assignments."  :class:`~repro.core.weighted.WeightedMajorityVoting`
covers the static case (Gifford); this class applies per-copy weights to
the *dynamic* quorum test: with ``w(X)`` the weight of a site set,

```
w(Q) > w(P_m) / 2      or      w(Q) = w(P_m) / 2  and  max(P_m) ∈ Q
```

Membership still adapts exactly as in LDV/ODV — COMMITs replace ``P``
with the reachable newest copies — only the counting is weighted, so a
heavyweight survivor can hold a quorum where an unweighted protocol
would see a lost tie.  Safety is §2 of docs/CORRECTNESS.md with
cardinalities replaced by weights: two disjoint subsets of one ``P_m``
cannot both reach half its weight while both containing the maximum.

Combine with the family switches for optimistic or topological variants
(see :class:`OptimisticWeightedDynamicVoting`).
"""

from __future__ import annotations

from typing import ClassVar, Mapping, Optional

from repro.core.base import DynamicVotingFamily
from repro.errors import ConfigurationError
from repro.replica.state import ReplicaSet

__all__ = [
    "OptimisticWeightedDynamicVoting",
    "WeightedDynamicVoting",
    "WeightedTopologicalDynamicVoting",
]


class WeightedDynamicVoting(DynamicVotingFamily):
    """LDV with per-copy vote weights (eager)."""

    name: ClassVar[str] = "WDV"
    eager: ClassVar[bool] = True
    tie_break: ClassVar[bool] = True
    topological: ClassVar[bool] = False

    def __init__(
        self,
        replicas: ReplicaSet,
        weights: Optional[Mapping[int, int]] = None,
    ):
        super().__init__(replicas)
        if weights is None:
            weights = {sid: 1 for sid in replicas.copy_sites}
        if set(weights) != set(replicas.copy_sites):
            raise ConfigurationError(
                "weights must cover exactly the copy sites; got "
                f"{sorted(weights)} for copies {sorted(replicas.copy_sites)}"
            )
        bad = {s: w for s, w in weights.items()
               if not isinstance(w, int) or w < 0}
        if bad:
            raise ConfigurationError(
                f"weights must be non-negative integers, got {bad}"
            )
        if sum(weights.values()) <= 0:
            raise ConfigurationError("total weight must be positive")
        self._weights = dict(weights)
        self._bit_weights = tuple(
            (1 << sid, weight) for sid, weight in weights.items())

    @property
    def weights(self) -> dict[int, int]:
        """The static per-copy vote weights."""
        return dict(self._weights)

    def _measure(self, sites: int) -> int:
        return sum(
            weight for bit, weight in self._bit_weights if bit & sites)


class OptimisticWeightedDynamicVoting(WeightedDynamicVoting):
    """Weighted ODV: weighted counting, access-time state updates."""

    name: ClassVar[str] = "OWDV"
    eager: ClassVar[bool] = False


class WeightedTopologicalDynamicVoting(WeightedDynamicVoting):
    """Weighted TDV: segment mates carry their dead neighbours' *weights*.

    The claimable set ``T`` is computed exactly as in
    :class:`~repro.core.topological.TopologicalDynamicVoting`; only the
    measure changes, so a heavyweight dead neighbour contributes its full
    weight through any live segment mate.  Runs with the lineage guard
    like every topological protocol here.
    """

    name: ClassVar[str] = "WTDV"
    eager: ClassVar[bool] = True
    topological: ClassVar[bool] = True
    lineage_guard: ClassVar[bool] = True
