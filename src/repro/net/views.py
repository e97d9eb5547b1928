"""Immutable snapshots of the network state.

A :class:`NetworkView` answers, for one instant of simulated time, the only
questions a voting protocol may ask of the network:

* which sites are up,
* which up sites can communicate (the partition *blocks*), and
* which sites share an indivisible segment (for topological voting).

The view is deliberately the *sole* conduit between the environment and
the protocols; protocols hold no live references to topology mutable
state, which keeps the optimistic protocols honest — they see the network
only when an operation runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Iterable

from repro.errors import UnknownSiteError
from repro.net.sites import mask_sites

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.topology import Topology

__all__ = ["NetworkView"]


class NetworkView:
    """The network as seen at one instant.

    Built by :meth:`Topology.view`; not normally constructed directly.
    The view holds masks (see :mod:`repro.net.sites`) — the quorum tests
    read :attr:`up_mask` and :attr:`block_masks` — and :attr:`up` and
    :attr:`blocks` are their ``frozenset`` forms.
    """

    __slots__ = ("_topology", "up_mask", "block_masks")

    def __init__(
        self,
        topology: "Topology",
        up_mask: int,
        block_masks: tuple[int, ...],
    ):
        self._topology = topology
        self.up_mask = up_mask  #: all operational sites
        self.block_masks = block_masks  #: one per block, by smallest member

    # ------------------------------------------------------------------
    @property
    def topology(self) -> "Topology":
        return self._topology

    @property
    def up(self) -> frozenset[int]:
        """Ids of all operational sites."""
        return mask_sites(self.up_mask)

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """Maximal groups of mutually communicating up sites."""
        return tuple(map(mask_sites, self.block_masks))

    def is_up(self, site_id: int) -> bool:
        """Whether *site_id* is operational."""
        self._topology.site(site_id)  # raise UnknownSiteError for bad ids
        return bool(self.up_mask >> site_id & 1)

    def block_mask_of(self, site_id: int) -> int:
        """The communicating block containing *site_id*, as a mask.

        Raises:
            UnknownSiteError: if the site does not exist or is down (a
                down site is in no block).
        """
        if not self.is_up(site_id):
            raise UnknownSiteError(f"site {site_id} is down")
        bit = 1 << site_id
        return next(block for block in self.block_masks if block & bit)

    def block_of(self, site_id: int) -> frozenset[int]:
        """The communicating block containing *site_id* (raises like
        :meth:`block_mask_of`)."""
        return mask_sites(self.block_mask_of(site_id))

    def reachable_from(self, site_id: int, targets: AbstractSet[int]) -> frozenset[int]:
        """Subset of *targets* that an operation at *site_id* can contact."""
        return self.block_of(site_id) & frozenset(targets)

    def can_communicate(self, a: int, b: int) -> bool:
        """Whether up sites *a* and *b* are in the same partition block."""
        if a < 0 or b < 0:
            return False
        pair = 1 << a | 1 << b
        return any(block & pair == pair for block in self.block_masks)

    def same_segment(self, a: int, b: int) -> bool:
        """Whether *a* and *b* are on the same indivisible segment.

        Defined for down sites too — segment membership is static.
        """
        return self._topology.same_segment(a, b)

    def segment_mates(self, mask: int) -> int:
        """Mask of every site sharing a segment with a site of *mask*."""
        return self._topology.segment_mates(mask)

    def max_site(self, site_ids: Iterable[int]) -> int:
        """Maximum element under the lexicographic site ordering."""
        return self._topology.max_site(site_ids)

    def max_bit(self, mask: int) -> int:
        """The bit of the lexicographic maximum of the sites in *mask*."""
        return self._topology.max_bit(mask)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        groups = ", ".join("{" + ",".join(map(str, sorted(b))) + "}" for b in self.blocks)
        return f"<NetworkView up={sorted(self.up)} blocks=[{groups}]>"
