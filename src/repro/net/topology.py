"""Network topologies and the partition oracle.

Two topology families are provided:

* :class:`SegmentedTopology` — the paper's environment: indivisible
  carrier-sense segments (or token rings) joined by gateway hosts.  The
  only partition points are the gateways; a segment's sites can never be
  separated from one another.
* :class:`PointToPointTopology` — an arbitrary graph of sites and
  failure-prone links, for experiments beyond the paper's LAN assumption.
  Every site is its own "segment", so topological vote-claiming never
  applies (as the paper requires for conventional point-to-point
  networks).

Both expose the same oracle: :meth:`Topology.blocks` maps the set of *up*
sites to the partition blocks — maximal groups of mutually communicating
up sites.  The oracle itself works on site masks (see
:mod:`repro.net.sites`): each family implements :meth:`Topology.block_masks`
and the ``frozenset`` forms are built from its answer.
"""

from __future__ import annotations

import abc
import functools
from typing import AbstractSet, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError, TopologyError, UnknownSiteError
from repro.net.sites import (Site, SiteSet, as_mask, lowest_site, mask_sites,
                             site_mask)
from repro.net.views import NetworkView

__all__ = [
    "Topology",
    "SegmentedTopology",
    "PointToPointTopology",
    "single_segment",
]


class Topology(abc.ABC):
    """Abstract network: a set of sites plus a partition oracle."""

    def __init__(self, sites: Sequence[Site]):
        if not sites:
            raise TopologyError("a topology needs at least one site")
        ids = [s.id for s in sites]
        if len(set(ids)) != len(ids):
            raise TopologyError(f"duplicate site ids in {ids}")
        self._sites = {s.id: s for s in sites}
        self._site_ids = frozenset(self._sites)
        self._site_mask = site_mask(self._sites)
        # Bits from the lexicographic maximum down (equal ranks: the
        # smaller id first) for the tie-break.
        self._rank_bits = tuple(
            1 << s.id for s in sorted(sites, key=lambda s: (-s.rank, s.id)))
        # bit -> mask of the sites on that site's segment; families with
        # real segments overwrite their entries.
        self._mates = {1 << sid: 1 << sid for sid in self._sites}

    # ------------------------------------------------------------------
    @property
    def sites(self) -> tuple[Site, ...]:
        """All sites, ordered by id."""
        return tuple(self._sites[i] for i in sorted(self._sites))

    @property
    def site_ids(self) -> frozenset[int]:
        return self._site_ids

    def site(self, site_id: int) -> Site:
        """Look up a site by id.

        Raises:
            UnknownSiteError: if the topology has no such site.
        """
        try:
            return self._sites[site_id]
        except KeyError:
            raise UnknownSiteError(f"no site {site_id} in topology") from None

    def max_site(self, site_ids: Iterable[int]) -> int:
        """Maximum element of *site_ids* under the lexicographic order."""
        mask = self._known_mask(site_mask(site_ids))
        return lowest_site(self.max_bit(mask))

    def max_bit(self, mask: int) -> int:
        """The bit of the lexicographic maximum of the sites in *mask*."""
        for bit in self._rank_bits:
            if bit & mask:
                return bit
        raise ConfigurationError("lexicographic maximum of an empty site set")

    def _known_mask(self, mask: int) -> int:
        """*mask*, after checking that every site in it exists."""
        unknown = mask & ~self._site_mask
        if unknown:
            raise UnknownSiteError(
                f"unknown sites: {sorted(mask_sites(unknown))}")
        return mask

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def block_masks(self, up: int) -> tuple[int, ...]:
        """The partition oracle on masks: :meth:`blocks` for an *up* that
        holds known sites only (:meth:`blocks` and :meth:`view` check)."""

    def blocks(self, up: AbstractSet[int]) -> tuple[frozenset[int], ...]:
        """Partition the *up* sites into communicating blocks.

        Every up site appears in exactly one returned block; down sites
        appear in none.  Blocks are returned sorted by their smallest
        member for determinism.
        """
        up = self._known_mask(site_mask(up))
        return tuple(map(mask_sites, self.block_masks(up)))

    @abc.abstractmethod
    def segment_of(self, site_id: int) -> str:
        """Name of the indivisible segment that *site_id* belongs to.

        Gateways belong to exactly one segment (their *home* segment), per
        the paper's rule for making topological vote-claiming safe.
        """

    def same_segment(self, a: int, b: int) -> bool:
        """Whether two sites can never be separated by a partition."""
        return self.segment_of(a) == self.segment_of(b)

    def segment_mates(self, mask: int) -> int:
        """Mask of every site sharing a segment with a site of *mask*."""
        mates = 0
        while mask:
            low = mask & -mask
            mates |= self._mates[low]
            mask ^= low
        return mates

    def view(self, up: SiteSet) -> NetworkView:
        """Snapshot the network with exactly the sites in *up* (a set of
        ids or its mask) operational."""
        up = self._known_mask(as_mask(up))
        return NetworkView(self, up, self.block_masks(up))


class SegmentedTopology(Topology):
    """Carrier-sense segments joined by gateway hosts.

    Args:
        sites: All hosts.
        segments: Maps each segment name to the ids of the sites homed on
            it.  Every site must appear in exactly one segment.
        gateways: Maps a gateway site id to the segment names it joins
            when it is up.  A gateway's home segment must be among the
            segments it joins.

    Example (the paper's Figure 8 network)::

        SegmentedTopology(
            sites=[Site(i) for i in range(1, 9)],
            segments={"alpha": [1, 2, 3, 4, 5], "beta": [6], "gamma": [7, 8]},
            gateways={4: ("alpha", "beta"), 5: ("alpha", "gamma")},
        )
    """

    def __init__(
        self,
        sites: Sequence[Site],
        segments: Mapping[str, Iterable[int]],
        gateways: Mapping[int, Sequence[str]] | None = None,
    ):
        super().__init__(sites)
        gateways = dict(gateways or {})
        if not segments:
            raise TopologyError("at least one segment is required")

        self._segment_names = tuple(sorted(segments))
        self._home: dict[int, str] = {}
        self._members: dict[str, frozenset[int]] = {}
        for name in self._segment_names:
            members = frozenset(segments[name])
            self._known_mask(site_mask(members))
            for sid in members:
                if sid in self._home:
                    raise TopologyError(
                        f"site {sid} homed on both {self._home[sid]!r} and {name!r}"
                    )
                self._home[sid] = name
            self._members[name] = members
        homeless = self.site_ids - self._home.keys()
        if homeless:
            raise TopologyError(f"sites without a segment: {sorted(homeless)}")

        self._gateways: dict[int, tuple[str, ...]] = {}
        for sid, names in gateways.items():
            if sid not in self._sites:
                raise UnknownSiteError(f"gateway {sid} is not a site")
            joined = tuple(names)
            if len(joined) < 2:
                raise TopologyError(
                    f"gateway {sid} must join >= 2 segments, got {joined}"
                )
            for name in joined:
                if name not in self._members:
                    raise TopologyError(
                        f"gateway {sid} joins unknown segment {name!r}"
                    )
            if self._home[sid] not in joined:
                raise TopologyError(
                    f"gateway {sid}'s home segment {self._home[sid]!r} "
                    f"must be among the segments it joins {joined}"
                )
            self._gateways[sid] = joined

        # The oracle's tables: one mask per segment, and per gateway its
        # bit with the union of the segments it joins.  A segment without
        # sites gets a tag bit above every site id, so that it still links
        # the gateways on it; ``& up`` drops the tags from every answer.
        masks = {name: site_mask(self._members[name])
                 for name in self._segment_names}
        for sid, name in self._home.items():
            self._mates[1 << sid] = masks[name]
        tag = 1 << self._site_mask.bit_length()
        for name in self._segment_names:
            if not masks[name]:
                masks[name], tag = tag, tag << 1
        self._segment_masks = tuple(masks.values())
        self._gateway_masks = tuple(
            (1 << sid, functools.reduce(int.__or__, map(masks.get, joined)))
            for sid, joined in self._gateways.items()
        )

    # ------------------------------------------------------------------
    @property
    def segment_names(self) -> tuple[str, ...]:
        return self._segment_names

    @property
    def gateway_ids(self) -> frozenset[int]:
        """Sites whose failure can partition the network."""
        return frozenset(self._gateways)

    def segment_members(self, name: str) -> frozenset[int]:
        """Site ids homed on segment *name*."""
        try:
            return self._members[name]
        except KeyError:
            raise TopologyError(f"no segment {name!r}") from None

    def segment_of(self, site_id: int) -> str:
        self.site(site_id)  # raise UnknownSiteError for bad ids
        return self._home[site_id]

    def block_masks(self, up: int) -> tuple[int, ...]:
        # Segments never split; an up gateway fuses every group that
        # holds one of the segments it joins.
        groups = self._segment_masks
        for gateway, joined in self._gateway_masks:
            if gateway & up:
                fused = joined
                apart = []
                for group in groups:
                    if group & joined:
                        fused |= group
                    else:
                        apart.append(group)
                apart.append(fused)
                groups = apart
        blocks = [group & up for group in groups if group & up]
        if len(blocks) > 1:
            blocks.sort(key=lowest_site)
        return tuple(blocks)


class PointToPointTopology(Topology):
    """A general graph of sites connected by failure-prone links.

    Links are undirected pairs of site ids.  The set of *failed* links is
    mutable state on the topology (:meth:`fail_link` / :meth:`repair_link`),
    so the same ``blocks(up)`` oracle interface works for both families.

    Every site is its own segment; topological vote-claiming therefore
    never fires, matching the paper's "conventional point-to-point
    networks" where any two sites may be separated.
    """

    def __init__(
        self,
        sites: Sequence[Site],
        links: Iterable[tuple[int, int]],
    ):
        super().__init__(sites)
        self._links: set[frozenset[int]] = set()
        for a, b in links:
            if a == b:
                raise TopologyError(f"self-link at site {a}")
            self._known_mask(site_mask((a, b)))
            self._links.add(frozenset((a, b)))
        self._failed: set[frozenset[int]] = set()

    # ------------------------------------------------------------------
    @property
    def links(self) -> frozenset[frozenset[int]]:
        return frozenset(self._links)

    @property
    def failed_links(self) -> frozenset[frozenset[int]]:
        return frozenset(self._failed)

    def _edge(self, a: int, b: int) -> frozenset[int]:
        edge = frozenset((a, b))
        if edge not in self._links:
            raise TopologyError(f"no link between {a} and {b}")
        return edge

    def fail_link(self, a: int, b: int) -> None:
        """Mark the link between *a* and *b* as down."""
        self._failed.add(self._edge(a, b))

    def repair_link(self, a: int, b: int) -> None:
        """Bring the link between *a* and *b* back up."""
        self._failed.discard(self._edge(a, b))

    def segment_of(self, site_id: int) -> str:
        self.site(site_id)
        return f"pt-{site_id}"

    def block_masks(self, up: int) -> tuple[int, ...]:
        # Flood fill over live links between up sites, lowest site first.
        neighbours: dict[int, int] = {}
        for a, b in self._links - self._failed:
            bit_a, bit_b = 1 << a, 1 << b
            neighbours[bit_a] = neighbours.get(bit_a, 0) | bit_b
            neighbours[bit_b] = neighbours.get(bit_b, 0) | bit_a
        blocks = []
        while up:
            component = frontier = up & -up
            while frontier:
                low = frontier & -frontier
                found = neighbours.get(low, 0) & up & ~component
                component |= found
                frontier = (frontier ^ low) | found
            blocks.append(component)
            up &= ~component
        return tuple(blocks)


def single_segment(count: int, segment: str = "lan") -> SegmentedTopology:
    """A topology of *count* sites (ids 1..count) on one shared segment.

    This is the environment in which Topological Dynamic Voting
    degenerates into an Available-Copy protocol.
    """
    if count < 1:
        raise ConfigurationError(f"need >= 1 site, got {count}")
    sites = [Site(i) for i in range(1, count + 1)]
    return SegmentedTopology(sites, {segment: [s.id for s in sites]})
