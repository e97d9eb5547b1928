"""Exact availability of static protocols by state enumeration.

With independent sites, the steady-state probability of any up/down
pattern is the product of per-site availabilities; a *static* protocol's
availability depends only on the current pattern (through the partition
oracle), so summing over all ``2^n`` patterns is exact.  This is
tractable for the paper's eight-site network (256 states) and gives a
ground truth that the discrete-event simulator must approach.

Dynamic protocols are *history-dependent* (their quorums adapt), so no
such closed form exists — the very reason the paper simulates.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping

from repro.core.mcv import MajorityConsensusVoting
from repro.errors import ConfigurationError
from repro.net.topology import Topology
from repro.net.views import NetworkView
from repro.replica.state import ReplicaSet

__all__ = ["static_availability", "mcv_predicate", "single_copy_predicate"]

#: A static predicate: given the instantaneous network view, would an
#: access (from the best block) be granted?
Predicate = Callable[[NetworkView], bool]


def static_availability(
    topology: Topology,
    site_availabilities: Mapping[int, float],
    predicate: Predicate,
) -> float:
    """Exact steady-state availability of *predicate* on *topology*.

    Args:
        topology: The network; all of its sites must appear in
            *site_availabilities*.
        site_availabilities: Steady-state probability that each site is
            up, assumed independent across sites.
        predicate: The static grant test, evaluated on each of the
            ``2^n`` network states.

    Raises:
        ConfigurationError: on missing sites or probabilities outside
            ``[0, 1]``.
    """
    sites = sorted(topology.site_ids)
    missing = set(sites) - set(site_availabilities)
    if missing:
        raise ConfigurationError(
            f"no availability given for sites {sorted(missing)}"
        )
    for site, p in site_availabilities.items():
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(
                f"availability of site {site} must be in [0, 1], got {p}"
            )
    if len(sites) > 20:
        raise ConfigurationError(
            f"enumeration over 2^{len(sites)} states is impractical"
        )

    total = 0.0
    for pattern in itertools.product((False, True), repeat=len(sites)):
        probability = 1.0
        up = set()
        for site, is_up in zip(sites, pattern):
            p = site_availabilities[site]
            probability *= p if is_up else (1.0 - p)
            if is_up:
                up.add(site)
        if probability == 0.0:
            continue
        if predicate(topology.view(frozenset(up))):
            total += probability
    return total


def mcv_predicate(
    copy_sites: frozenset[int],
    tie_break: bool = True,
) -> Predicate:
    """The MCV grant test as a static predicate: whether
    :class:`~repro.core.mcv.MajorityConsensusVoting` grants in some block
    (a strict majority of the copies, or exactly half including the
    maximum site when *tie_break* is on).
    """
    if not copy_sites:
        raise ConfigurationError("at least one copy site is required")
    return MajorityConsensusVoting(ReplicaSet(copy_sites),
                                   tie_break=tie_break).is_available


def single_copy_predicate(copy_sites: frozenset[int]) -> Predicate:
    """"Some copy is up" — the optimistic upper bound on any protocol's
    availability, and the Available-Copy limit on one segment."""
    if not copy_sites:
        raise ConfigurationError("at least one copy site is required")

    def predicate(view: NetworkView) -> bool:
        return bool(view.up & copy_sites)

    return predicate
