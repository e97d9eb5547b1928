"""Per-copy protocol state: operation number, version number, partition set."""

from __future__ import annotations

from operator import attrgetter
from typing import AbstractSet, Iterable, Iterator, Mapping, Optional

from repro.errors import ConfigurationError, ProtocolError
from repro.net.sites import SiteSet, as_mask, lowest_site, mask_sites, site_mask

__all__ = ["ReplicaState", "ReplicaSet"]


class ReplicaState:
    """The consistency-control state of one physical copy.

    Invariants (enforced on every :meth:`commit`):

    * ``operation`` and ``version`` are positive and never decrease;
    * ``version <= operation`` — a write is also an operation;
    * the partition set is never empty and always contains at least the
      sites that committed (the caller supplies it; emptiness is rejected
      here, membership soundness is checked by the engine tests).

    ``P`` is held as a mask (:attr:`partition_mask`, what the quorum test
    reads); :attr:`partition_set` is its ``frozenset`` form.
    """

    __slots__ = ("site_id", "_operation", "_version", "_partition_mask")

    def __init__(
        self,
        site_id: int,
        operation: int = 1,
        version: int = 1,
        partition_set: SiteSet = frozenset(),
    ):
        if operation < 1 or version < 1:
            raise ConfigurationError(
                f"operation and version numbers start at 1, got o={operation} v={version}"
            )
        if version > operation:
            raise ConfigurationError(
                f"version ({version}) cannot exceed operation number ({operation})"
            )
        if not partition_set:
            raise ConfigurationError("initial partition set must be non-empty")
        self.site_id = site_id
        self._operation = operation
        self._version = version
        self._partition_mask = as_mask(partition_set)

    # ------------------------------------------------------------------
    operation = property(
        attrgetter("_operation"),
        doc="Operation number ``o_i`` — counts all successful operations.")
    version = property(
        attrgetter("_version"),
        doc="Version number ``v_i`` — identifies the last successful write.")
    partition_mask = property(
        attrgetter("_partition_mask"), doc="``P_i`` as a mask.")

    @property
    def partition_set(self) -> frozenset[int]:
        """``P_i`` — copies that took part in the last successful operation."""
        return mask_sites(self._partition_mask)

    # ------------------------------------------------------------------
    def commit(
        self,
        operation: int,
        version: int,
        partition_set: SiteSet,
    ) -> None:
        """Apply a COMMIT: install the new ``(o, v, P)`` triple (``P`` a
        set of ids or its mask).

        Raises:
            ProtocolError: if the new numbers would violate monotonicity.
        """
        if operation < self._operation:
            raise ProtocolError(
                f"operation number would go backwards at site {self.site_id}: "
                f"{self._operation} -> {operation}"
            )
        if version < self._version:
            raise ProtocolError(
                f"version number would go backwards at site {self.site_id}: "
                f"{self._version} -> {version}"
            )
        if version > operation:
            raise ProtocolError(
                f"version ({version}) cannot exceed operation number ({operation})"
            )
        if not partition_set:
            raise ProtocolError("committed partition set must be non-empty")
        self._operation = operation
        self._version = version
        self._partition_mask = as_mask(partition_set)

    def adopt(self, other: "ReplicaState") -> None:
        """Copy another replica's state triple (used during RECOVER)."""
        self.commit(other.operation, other.version, other.partition_mask)

    def snapshot(self) -> tuple[int, int, frozenset[int]]:
        """The ``(o, v, P)`` triple as an immutable value."""
        return (self._operation, self._version, self.partition_set)

    def to_dict(self) -> dict:
        """A JSON-serialisable ``(o, v, P)`` document.

        The partition set is emitted sorted so identical states always
        serialise to identical bytes — the replicated service's
        recovery tests compare snapshots byte-for-byte.
        """
        return {
            "site": self.site_id,
            "operation": self._operation,
            "version": self._version,
            "partition_set": sorted(self.partition_set),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReplicaState":
        """Rebuild a state from :meth:`to_dict` output.

        Raises:
            ConfigurationError: on missing fields or invariant-breaking
                values (checked by the constructor).
        """
        try:
            return cls(
                site_id=int(data["site"]),
                operation=int(data["operation"]),
                version=int(data["version"]),
                partition_set=frozenset(
                    int(s) for s in data["partition_set"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed replica-state document: {exc}"
            ) from exc

    def __repr__(self) -> str:
        members = ",".join(map(str, sorted(self.partition_set)))
        return (
            f"ReplicaState(site={self.site_id}, o={self._operation}, "
            f"v={self._version}, P={{{members}}})"
        )


class ReplicaSet:
    """All physical copies of one replicated file.

    Construction initialises every copy exactly as the paper's worked
    example does: ``o = v = 1`` and ``P`` equal to the full copy set.

    :meth:`quorum_scan` answers ``Q``, ``S`` and the anchor in one pass
    over masks (see :mod:`repro.net.sites`); the ``frozenset`` queries
    are built on it.
    """

    def __init__(self, copy_sites: Iterable[int]):
        self._fill(copy_sites, {})

    def _fill(self, copy_sites: Iterable[int],
              states: Mapping[int, tuple[int, int, AbstractSet[int]]]) -> None:
        sites = sorted(set(copy_sites) | set(states))
        if not sites:
            raise ConfigurationError("a replicated file needs >= 1 copy")
        self._copy_sites = frozenset(sites)
        self.copy_mask = site_mask(sites)  #: every site holding a copy
        self._states = {
            sid: ReplicaState(sid, *states[sid]) if sid in states
            else ReplicaState(sid, partition_set=self.copy_mask)
            for sid in sites}
        # What the scans walk: (bit, state) in site order.
        self._by_bit = tuple(
            (1 << sid, state) for sid, state in self._states.items())

    @classmethod
    def from_states(
        cls,
        states: Mapping[int, tuple[int, int, AbstractSet[int]]],
        copy_sites: Iterable[int] = (),
    ) -> "ReplicaSet":
        """Build a set holding the given ``{site: (o, v, P)}`` triples.

        Sites in *copy_sites* missing from *states* keep the paper's
        initial state (``o = v = 1``, ``P`` = the full copy set).  The
        replicated service uses this to evaluate a quorum round over
        the states its coordinator actually collected: unreachable
        copies stay at the initial placeholder, which the algorithms
        never read (they only consult states inside the requesting
        block) but which keeps static denominators like MCV's "all
        copies" correct.
        """
        replica_set = cls.__new__(cls)
        replica_set._fill(copy_sites, states)
        return replica_set

    # ------------------------------------------------------------------
    @property
    def copy_sites(self) -> frozenset[int]:
        """Ids of every site holding a physical copy."""
        return self._copy_sites

    def state(self, site_id: int) -> ReplicaState:
        """The state of the copy at *site_id*.

        Raises:
            ConfigurationError: if that site holds no copy.
        """
        try:
            return self._states[site_id]
        except KeyError:
            raise ConfigurationError(f"no copy at site {site_id}") from None

    def __contains__(self, site_id: int) -> bool:
        return site_id in self._states

    def __iter__(self) -> Iterator[ReplicaState]:
        return iter(self._states.values())

    def __len__(self) -> int:
        return len(self._states)

    # ------------------------------------------------------------------
    # queries used by the voting algorithms
    # ------------------------------------------------------------------
    def quorum_scan(self, among: int) -> tuple[int, int, ReplicaState]:
        """``(Q, S, anchor)`` for the copies in the mask *among*: the masks
        of the copies with the highest operation number and with the
        highest version number, and the state of ``m = min(Q)``.

        Raises:
            ProtocolError: if *among* holds no copy.
        """
        top_operation = top_version = current = newest = 0
        anchor = None
        for bit, state in self._by_bit:
            if bit & among:
                operation = state._operation
                if operation > top_operation:
                    top_operation = operation
                    current = bit
                    anchor = state
                elif operation == top_operation:
                    current |= bit
                version = state._version
                if version > top_version:
                    top_version = version
                    newest = bit
                elif version == top_version:
                    newest |= bit
        if anchor is None:
            raise ProtocolError(
                f"no copies among sites {sorted(mask_sites(among))}")
        return current, newest, anchor

    def states_in(self, sites: int) -> list[ReplicaState]:
        """The states of the copies in the mask *sites*, in site order."""
        return [state for bit, state in self._by_bit if bit & sites]

    def commit(self, operation: int, version: int, members: int,
               recipients: Optional[int] = None) -> None:
        """COMMIT ``(operation, version, members)`` at every copy in the
        mask *recipients* — by default *members* itself (see
        :meth:`ReplicaState.commit`).

        Raises:
            ConfigurationError: if a recipient holds no copy.
        """
        if recipients is None:
            recipients = members
        strangers = recipients & ~self.copy_mask
        if strangers:
            raise ConfigurationError(
                f"no copy at site {min(mask_sites(strangers))}")
        for bit, state in self._by_bit:
            if bit & recipients:
                state.commit(operation, version, members)

    def reachable(self, block: AbstractSet[int]) -> frozenset[int]:
        """``R`` — copy sites inside the communicating *block*."""
        return self._copy_sites & frozenset(block)

    def max_operation(self, among: AbstractSet[int]) -> int:
        """Highest operation number among the given copy sites."""
        return self.quorum_scan(site_mask(among))[2].operation

    def max_version(self, among: AbstractSet[int]) -> int:
        """Highest version number among the given copy sites."""
        newest = self.quorum_scan(site_mask(among))[1]
        return self._states[lowest_site(newest)].version

    def current_sites(self, among: AbstractSet[int]) -> frozenset[int]:
        """``Q`` — sites whose operation number equals the block maximum."""
        return mask_sites(self.quorum_scan(site_mask(among))[0])

    def newest_sites(self, among: AbstractSet[int]) -> frozenset[int]:
        """``S`` — sites whose version number equals the block maximum."""
        return mask_sites(self.quorum_scan(site_mask(among))[1])

    def as_mapping(self) -> Mapping[int, tuple[int, int, frozenset[int]]]:
        """Snapshot of every copy's ``(o, v, P)`` triple, keyed by site id."""
        return {sid: st.snapshot() for sid, st in self._states.items()}
