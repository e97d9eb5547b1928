"""The public replicated-file API.

A :class:`ReplicatedFile` pairs a voting protocol (consistency state)
with a :class:`~repro.replica.store.VersionedStore` (actual payloads) and
keeps the two in lock-step: every state commit that advances a copy's
version is accompanied by the corresponding data movement, so the
end-to-end guarantee — *a granted read returns the value of the most
recent granted write* — is directly observable and is what the property
tests assert.

Message accounting follows the paper's operation structure (see
:mod:`repro.engine.counters`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.tracer import Tracer

from repro.core.base import DynamicVotingFamily, Verdict, VotingProtocol
from repro.core.registry import make_protocol
from repro.engine.cluster import Cluster
from repro.engine.counters import MessageCounters
from repro.errors import (
    ConfigurationError,
    EngineError,
    QuorumNotReachedError,
    SiteUnavailableError,
)
from repro.net.views import NetworkView
from repro.replica.state import ReplicaSet
from repro.replica.store import VersionedStore

__all__ = ["ReplicatedFile"]


class ReplicatedFile:
    """One replicated value managed by a voting protocol on a cluster.

    Args:
        cluster: The environment holding site health.
        copy_sites: Sites storing physical copies.
        policy: Either a policy abbreviation (``"MCV"``, ``"ODV"``, ...)
            or a ready :class:`~repro.core.base.VotingProtocol` whose
            replica set covers exactly *copy_sites*.
        initial: Initial payload installed at every copy as version 1.
        name: Label used in error messages.

    Files register with the cluster: *eager* protocols are re-synchronised
    (recoveries + quorum adjustment, with message costs) after every
    environment change; *optimistic* ones only when an operation or an
    explicit :meth:`synchronize` runs.
    """

    def __init__(
        self,
        cluster: Cluster,
        copy_sites: frozenset[int] | set[int],
        policy: Union[str, VotingProtocol] = "ODV",
        initial: Any = None,
        name: str = "file",
    ):
        copy_sites = frozenset(copy_sites)
        unknown = copy_sites - cluster.topology.site_ids
        if unknown:
            raise ConfigurationError(
                f"copy sites {sorted(unknown)} are not in the cluster"
            )
        self._cluster = cluster
        self.name = name
        if isinstance(policy, str):
            self._protocol = make_protocol(policy, ReplicaSet(copy_sites))
        else:
            if policy.copy_sites != copy_sites:
                raise ConfigurationError(
                    f"protocol covers copies {sorted(policy.copy_sites)}, "
                    f"file expects {sorted(copy_sites)}"
                )
            self._protocol = policy
        # Witness-style protocols keep payloads only at full data copies.
        self._store = VersionedStore(self._protocol.data_sites, initial)
        self._counters = MessageCounters()
        self._tracer: Optional["Tracer"] = None
        cluster.register(self)

    def attach_tracer(self, tracer: Optional["Tracer"]) -> "ReplicatedFile":
        """Trace this file's operations and its protocol's quorum decisions.

        The tracer is forwarded to the protocol (``quorum.*`` records)
        and the file itself emits ``op.read`` / ``op.write`` /
        ``op.recover`` records.  Pass ``None`` to detach.  Returns
        ``self`` for chaining.
        """
        self._tracer = tracer
        self._protocol.attach_tracer(tracer)
        return self

    def _trace_op(self, kind: str, site_id: int, verdict: Verdict) -> None:
        if self._tracer is not None:
            self._tracer.record(
                kind,
                file=self.name,
                site=site_id,
                granted=verdict.granted,
                reason=verdict.reason,
            )

    # ------------------------------------------------------------------
    @property
    def protocol(self) -> VotingProtocol:
        return self._protocol

    @property
    def copy_sites(self) -> frozenset[int]:
        return self._protocol.copy_sites

    @property
    def counters(self) -> MessageCounters:
        """Cumulative message accounting for this file."""
        return self._counters

    def value_at(self, site_id: int) -> Any:
        """The payload stored at one copy (no quorum check; diagnostic)."""
        return self._store.get(site_id)

    def version_at(self, site_id: int) -> int:
        """The data version stored at one copy (diagnostic)."""
        return self._store.version_at(site_id)

    # ------------------------------------------------------------------
    # availability probes (pure)
    # ------------------------------------------------------------------
    def is_available(self) -> bool:
        """Whether an access from *some* site would be granted now."""
        return self._protocol.is_available(self._cluster.view())

    def available_from(self, site_id: int) -> bool:
        """Whether an access initiated at *site_id* would be granted now."""
        view = self._cluster.view()
        if not view.is_up(site_id):
            return False
        return self._protocol.evaluate_block(view, view.block_of(site_id)).granted

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def read(self, at_site: int) -> Any:
        """Read the file from *at_site* (Figure 1 / Figure 5).

        Returns the current payload.

        Raises:
            SiteUnavailableError: if *at_site* is down.
            QuorumNotReachedError: if the majority test fails.
        """
        view = self._view_for(at_site)
        verdict = self._protocol.read(view, at_site)
        self._account_operation(verdict, at_site)
        self._trace_op("op.read", at_site, verdict)
        if not verdict.granted:
            raise QuorumNotReachedError(
                f"read of {self.name!r} denied at site {at_site}: {verdict.reason}"
            )
        sources = verdict.newest & self._protocol.data_sites
        if not sources:  # pragma: no cover - protocols deny this case
            raise EngineError("granted read with no data-holding source")
        source = min(sources)
        if at_site not in verdict.newest:
            self._counters.data_transfers += 1
        if self._protocol.commits_on_read:
            self._counters.commits += len(verdict.newest)
        return self._store.get(source)

    def write(self, at_site: int, value: Any) -> None:
        """Write *value* from *at_site* (Figure 2 / Figure 6).

        Raises:
            SiteUnavailableError: if *at_site* is down.
            QuorumNotReachedError: if the majority test fails.
        """
        view = self._view_for(at_site)
        verdict = self._protocol.write(view, at_site)
        self._account_operation(verdict, at_site)
        self._trace_op("op.write", at_site, verdict)
        if not verdict.granted:
            raise QuorumNotReachedError(
                f"write of {self.name!r} denied at site {at_site}: {verdict.reason}"
            )
        # The payload goes to every reachable data copy whose state the
        # protocol just advanced: the dynamic family commits to S
        # (verdict.newest), while the static protocols bring *all*
        # reachable copies to the new version.
        replicas = self._protocol.replicas
        new_version = max(
            replicas.state(s).version for s in verdict.reachable
        )
        targets = frozenset(
            s for s in verdict.reachable & self._protocol.data_sites
            if replicas.state(s).version == new_version
        )
        for site_id in targets:
            self._store.put(site_id, new_version, value)
        self._counters.commits += len(targets)
        self._counters.data_transfers += len(targets - {at_site})

    def recover_site(self, site_id: int) -> bool:
        """One attempt of the RECOVER loop for the copy at *site_id*.

        Returns ``True`` when the copy rejoined the partition set (the
        paper's RECOVER retries "until successful"; callers loop).
        """
        view = self._view_for(site_id)
        verdict = self._protocol.recover(view, site_id)
        self._account_operation(verdict, site_id)
        self._trace_op("op.recover", site_id, verdict)
        if not verdict.granted:
            # MCV refreshes a stale copy's version even without a quorum;
            # the payload must follow, or the copy would later serve old
            # data under the new version.
            state = self._protocol.replicas.state(site_id)
            if self._store.version_at(site_id) < state.version:
                self._clone_payload(site_id, verdict)
            return False
        self._clone_payload(site_id, verdict)
        new_set = verdict.newest | {site_id}
        self._counters.commits += len(new_set)
        return True

    def synchronize(self) -> bool:
        """Recover every reachable stale copy and adjust the quorum.

        For optimistic protocols this is the state maintenance that rides
        on an access; for eager ones the cluster triggers it after every
        environment change.  Returns ``True`` if the file was reachable
        from its majority partition.
        """
        return self._synchronize(self._cluster.view())

    # ------------------------------------------------------------------
    # cluster callback
    # ------------------------------------------------------------------
    def on_network_change(self, view: NetworkView) -> None:
        """Called by the cluster after every site/link transition."""
        if not self._protocol.eager:
            return
        if isinstance(self._protocol, DynamicVotingFamily):
            self._synchronize(view)
        else:
            # Static protocols (MCV) have nothing to maintain; Available
            # Copy tracks its current set and clones data on reintegration.
            self._protocol.synchronize(view)
            self._mirror_store(view)

    # ------------------------------------------------------------------
    def _synchronize(self, view: NetworkView) -> bool:
        copies = self._protocol.copy_sites
        for _ in range(len(copies) + 2):
            verdict = self._protocol.evaluate(view)
            self._account_probe(verdict)
            if not verdict.granted:
                return False
            stale = sorted((copies & verdict.block) - verdict.current)
            if stale:
                target = stale[0]
                recover_verdict = self._protocol.recover(view, target)
                if not recover_verdict.granted:  # pragma: no cover - defensive
                    raise EngineError(
                        f"recovery of site {target} denied inside the "
                        "majority partition"
                    )
                self._clone_payload(target, recover_verdict)
                self._counters.commits += len(recover_verdict.newest | {target})
                continue
            if verdict.partition_set != verdict.newest:
                anchor = min(verdict.current)
                null_op = self._protocol.read(view, anchor)
                self._counters.commits += len(null_op.newest)
            return True
        raise EngineError("synchronize failed to converge")  # pragma: no cover

    def _mirror_store(self, view: NetworkView) -> None:
        """Bring store payloads in line with state versions after a
        protocol-internal synchronisation (used by Available Copy)."""
        replicas = self._protocol.replicas
        for block in view.blocks:
            copies = sorted(self._protocol.data_sites & block)
            for target in copies:
                need = replicas.state(target).version
                if self._store.version_at(target) >= need:
                    continue
                source = next(
                    (s for s in copies if self._store.version_at(s) >= need),
                    None,
                )
                if source is None:  # pragma: no cover - defensive
                    raise EngineError(
                        f"no reachable payload source for site {target} "
                        f"at version {need}"
                    )
                self._store.clone(source, target)
                self._counters.data_transfers += 1

    def _clone_payload(self, site_id: int, verdict: Verdict) -> None:
        """Mirror RECOVER's "copy the file from site m" in the store.

        Witnesses neither hold nor need payloads; data sources are the
        newest *full* copies (the protocol guarantees one is reachable
        whenever it grants).
        """
        data_sites = self._protocol.data_sites
        if site_id not in data_sites:
            return
        sources = verdict.newest & data_sites
        if not sources:  # pragma: no cover - protocols deny this case
            raise EngineError("granted recovery with no data-holding source")
        source = min(sources)
        if self._store.version_at(site_id) < self._store.version_at(source):
            self._store.clone(source, site_id)
            self._counters.data_transfers += 1

    # ------------------------------------------------------------------
    def _view_for(self, at_site: int) -> NetworkView:
        view = self._cluster.view()
        if at_site not in view.topology.site_ids:
            raise ConfigurationError(f"no site {at_site} in cluster")
        if not view.is_up(at_site):
            raise SiteUnavailableError(
                f"site {at_site} is down; cannot originate an operation"
            )
        return view

    def _account_operation(self, verdict: Verdict, at_site: int) -> None:
        participants = len(self._protocol.copy_sites)
        self._counters.operations += 1
        self._counters.state_requests += max(0, participants - 1)
        replies = len(verdict.reachable - {at_site})
        self._counters.state_replies += replies
        if not verdict.granted:
            self._counters.denials += 1

    def _account_probe(self, verdict: Verdict) -> None:
        participants = len(self._protocol.copy_sites)
        self._counters.operations += 1
        self._counters.state_requests += max(0, participants - 1)
        self._counters.state_replies += max(0, len(verdict.reachable) - 1)
        if not verdict.granted:
            self._counters.denials += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReplicatedFile {self.name!r} policy={self._protocol.name} "
            f"copies={sorted(self.copy_sites)}>"
        )
