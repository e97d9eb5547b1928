"""Site objects, the lexicographic site ordering and site-set masks.

Inside :mod:`repro.net`, :mod:`repro.replica` and :mod:`repro.core` a set
of sites is an ``int`` *mask*: site ``i`` is bit ``1 << i`` (ids are
``>= 0``, and Python integers make ids of 64 and beyond work unchanged).
Union, intersection and cardinality of site sets are then ``|``, ``&``
and :meth:`int.bit_count`; ``frozenset`` values are built only where a
caller asks for them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Union

from repro.errors import ConfigurationError

__all__ = ["Site", "SiteSet", "as_mask", "lowest_site", "mask_sites",
           "site_mask"]

#: Site ids (a set, or any iterable), or the mask that stands for them.
SiteSet = Union[Iterable[int], int]


@dataclass(frozen=True, order=False)
class Site:
    """A host that may hold a physical copy of a replicated file.

    Attributes:
        id: Unique integer identifier (Table 1 numbers sites 1..8).
        name: Human-readable host name (``csvax``, ``beowulf``, ...).
        rank: Position in the total order used by the lexicographic
            tie-break.  *Higher rank wins.*  The paper's example orders
            A > B > C, i.e. the first-listed site is the greatest, so the
            default rank is ``-id`` (site 1 is the maximum element).
    """

    id: int
    name: str = ""
    rank: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ConfigurationError(f"site id must be >= 0, got {self.id}")
        if self.rank is None:
            object.__setattr__(self, "rank", float(-self.id))
        if not self.name:
            object.__setattr__(self, "name", f"site{self.id}")

    def __repr__(self) -> str:
        return f"Site({self.id}, {self.name!r})"


def site_mask(site_ids: Iterable[int]) -> int:
    """The mask with bit ``1 << i`` set for every ``i`` in *site_ids*
    (:class:`ConfigurationError` for a negative id)."""
    mask = 0
    try:
        for site_id in site_ids:
            mask |= 1 << site_id
    except ValueError:
        raise ConfigurationError(
            f"site ids must be >= 0, got {site_id}") from None
    return mask


def as_mask(sites: SiteSet) -> int:
    """*sites* as a mask, whichever of the two forms it came in."""
    return sites if sites.__class__ is int else site_mask(sites)


@functools.lru_cache(maxsize=4096)
def mask_sites(mask: int) -> frozenset[int]:
    """The site ids whose bits are set in *mask* (which is ``>= 0``).

    Memoised (the values are immutable): a run sees few distinct masks,
    and the traced and message-level paths read the same ones repeatedly.
    """
    if mask < 0:
        raise ConfigurationError(f"a site mask is >= 0, got {mask}")
    sites = []
    while mask:
        low = mask & -mask
        sites.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(sites)


def lowest_site(mask: int) -> int:
    """The smallest site id in the non-empty *mask* (for a single bit:
    the site it stands for)."""
    return (mask & -mask).bit_length() - 1
