"""A genuinely message-passing execution of the voting protocols.

:class:`MessageCluster` runs the paper's algorithms the way a deployment
would: each copy is a :class:`SiteActor` owning its stable storage (the
``(o, v, P)`` triple plus the payload) and a mailbox; a coordinator at
the requesting site broadcasts START, *decides from the replies it
actually received*, and sends COMMITs.  Nothing reads another site's
state directly, so this layer demonstrates that the protocols need only
message-visible information.

The coordinator decides with :func:`repro.core.rounds.decide` and
broadcasts the protocol's :meth:`~repro.core.base.VotingProtocol.
commit_for`, so any core protocol class runs here unchanged.

Two deliberate consequences:

* the optimistic protocols' efficiency is visible as plain message
  counts (the :class:`~repro.engine.transport.Network` tallies);
* the **lineage guard is not implementable here** — it needs knowledge a
  message exchange cannot provide (the globally newest generation).  The
  topological protocols therefore run with the *published* rule, and the
  sequential fork hazard of DESIGN.md §3 can be reproduced over real
  messages (see ``tests/engine/test_actors.py``).

For availability studies use the state-level evaluator; this layer is
for protocol demonstration and validation.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Type

from repro.core.base import Commit, Verdict, VotingProtocol
from repro.core.lexicographic import LexicographicDynamicVoting
from repro.core.rounds import decide
from repro.engine.transport import (
    CommitMessage,
    DataReply,
    DataRequest,
    FaultStage,
    Mailbox,
    Message,
    Network,
    StateReply,
    StateRequest,
)
from repro.errors import (
    ConfigurationError,
    EngineError,
    ProtocolError,
    QuorumNotReachedError,
    SiteUnavailableError,
)
from repro.net.topology import Topology
from repro.net.views import NetworkView
from repro.obs.tracer import Tracer
from repro.replica.state import ReplicaState

__all__ = ["SiteActor", "MessageCluster"]


class SiteActor:
    """One copy: stable state, payload, and message handling.

    With a *tracer* attached, every applied COMMIT emits a
    ``site.commit`` record (the invariant monitor's per-replica feed).
    ``tolerate_stale=True`` makes the actor *ignore* a COMMIT that would
    move its ``(o, v)`` backwards — the signature of a message a fault
    pipeline delayed past later commits — recording a
    ``site.stale_commit`` instead of raising; the default remains the
    strict fail-fast behaviour.
    """

    def __init__(self, site_id: int, copy_sites: frozenset[int],
                 initial: Any, tracer: Optional[Tracer] = None,
                 tolerate_stale: bool = False):
        self.site_id = site_id
        self.state = ReplicaState(site_id, partition_set=copy_sites)
        self.payload = initial
        self.payload_version = 1
        self.mailbox = Mailbox(site_id)
        self.tracer = tracer
        self.tolerate_stale = tolerate_stale
        self.stale_commits = 0

    def step(self, view: NetworkView, network: Network) -> None:
        """Process every queued message, sending any replies."""
        for message in self.mailbox.drain():
            self._handle(message, view, network)

    def _handle(self, message: Message, view: NetworkView,
                network: Network) -> None:
        if isinstance(message, StateRequest):
            network.send(view, StateReply(
                sender=self.site_id,
                receiver=message.sender,
                round_id=message.round_id,
                operation=self.state.operation,
                version=self.state.version,
                partition_set=self.state.partition_set,
            ))
        elif isinstance(message, CommitMessage):
            self._apply_commit(message)
        elif isinstance(message, DataRequest):
            network.send(view, DataReply(
                sender=self.site_id,
                receiver=message.sender,
                round_id=message.round_id,
                version=self.payload_version,
                payload=self.payload,
            ))
        elif isinstance(message, (StateReply, DataReply)):
            # A reply that reached this actor's queue instead of being
            # drained by a coordinating operation is a delayed answer to
            # a coordination round that has already ended; discard it.
            pass
        else:  # pragma: no cover - defensive
            raise EngineError(f"unhandled message {message!r}")

    def _apply_commit(self, message: CommitMessage) -> None:
        try:
            self.state.commit(
                message.operation, message.version, message.partition_set
            )
        except ProtocolError:
            if not self.tolerate_stale:
                raise
            self.stale_commits += 1
            if self.tracer is not None:
                self.tracer.record(
                    "site.stale_commit",
                    site=self.site_id,
                    operation=message.operation,
                    version=message.version,
                    stored_operation=self.state.operation,
                    stored_version=self.state.version,
                )
            return
        if message.carries_payload:
            self.payload = message.payload
            self.payload_version = message.version
        if self.tracer is not None:
            self.tracer.record(
                "site.commit",
                site=self.site_id,
                operation=message.operation,
                version=message.version,
                partition_set=message.partition_set,
                sender=message.sender,
            )


class MessageCluster:
    """Copies as actors; operations as explicit message exchanges.

    Args:
        topology: The network.
        copy_sites: Sites holding copies (each becomes an actor).
        protocol: A core :class:`~repro.core.base.VotingProtocol`
            subclass supplying the decision rules and the COMMIT.  The
            coordinator evaluates them over the replies it collected;
            the lineage guard is forced off (see module docstring).
        initial: Initial payload.
        tracer: Structured-event tracer; quorum decisions and per-site
            commits are recorded through it (chaos monitoring).
        pipeline: Fault stages installed into the :class:`Network`.
        tolerate_stale: Forwarded to every :class:`SiteActor`.
    """

    def __init__(
        self,
        topology: Topology,
        copy_sites: frozenset[int] | set[int],
        protocol: Type[VotingProtocol] = LexicographicDynamicVoting,
        initial: Any = None,
        tracer: Optional[Tracer] = None,
        pipeline: Sequence[FaultStage] = (),
        tolerate_stale: bool = False,
    ):
        copy_sites = frozenset(copy_sites)
        unknown = copy_sites - topology.site_ids
        if unknown:
            raise ConfigurationError(f"copy sites {sorted(unknown)} unknown")
        if not (isinstance(protocol, type)
                and issubclass(protocol, VotingProtocol)):
            raise ConfigurationError(
                f"MessageCluster runs a core protocol class; got {protocol!r}"
            )
        self._topology = topology
        self._copy_sites = copy_sites
        self._tracer = tracer
        # The published rule: decisions use only message-visible state.
        self._rules: Type[VotingProtocol] = type(
            f"_MessageLevel{protocol.__name__}",
            (protocol,),
            {"lineage_guard": False},
        )
        self._actors = {
            sid: SiteActor(sid, copy_sites, initial, tracer=tracer,
                           tolerate_stale=tolerate_stale)
            for sid in copy_sites
        }
        mailboxes = {a.site_id: a.mailbox for a in self._actors.values()}
        # Non-copy sites get a mailbox too: any site may coordinate.
        for sid in topology.site_ids - copy_sites:
            mailboxes[sid] = Mailbox(sid)
        self._mailboxes = mailboxes
        self.network = Network(mailboxes, pipeline=pipeline)
        self._up: set[int] = set(topology.site_ids)
        self._round = 0
        self._profiler = None

    def attach_profiler(self, profiler) -> None:
        """Attach (or, with ``None``, detach) a
        :class:`~repro.obs.prof.phases.PhaseProfiler`.

        Attached, every read/write/recover operation is counted and the
        network tallies sends by message type; detached (the default)
        each operation pays one ``None`` check.
        """
        self._profiler = profiler
        self.network.attach_profiler(profiler)

    # ------------------------------------------------------------------
    @property
    def copy_sites(self) -> frozenset[int]:
        return self._copy_sites

    def actor(self, site_id: int) -> SiteActor:
        """The actor holding the copy at *site_id* (diagnostics)."""
        try:
            return self._actors[site_id]
        except KeyError:
            raise ConfigurationError(f"no copy at site {site_id}") from None

    def fail_site(self, site_id: int) -> None:
        """Take *site_id* down; it stops answering messages."""
        self._up.discard(site_id)

    def restart_site(self, site_id: int) -> None:
        """Bring *site_id* back up with whatever state it last stored."""
        self._up.add(site_id)

    def view(self) -> NetworkView:
        """A snapshot of the current network state."""
        return self._topology.view(self._up)

    # ------------------------------------------------------------------
    # operations (each is a full message exchange)
    # ------------------------------------------------------------------
    def read(self, at_site: int) -> Any:
        """READ from *at_site*, purely by messages (Figure 1/5)."""
        if self._profiler is not None:
            self._profiler.count("engine.op.read")
        rules, verdict, view = self._granted(at_site)
        value = self._exchange_data(at_site, min(verdict.newest),
                                    view).payload
        commit = rules.commit_for(verdict, "read")
        if commit is not None:
            self._commit(at_site, view, commit)
        return value

    def write(self, at_site: int, value: Any) -> None:
        """WRITE from *at_site* (Figure 2/6): payload rides the COMMIT."""
        if self._profiler is not None:
            self._profiler.count("engine.op.write")
        rules, verdict, view = self._granted(at_site)
        self._commit(at_site, view, rules.commit_for(verdict, "write"),
                     payload=value, carries_payload=True)

    def recover(self, at_site: int) -> bool:
        """One RECOVER attempt by the copy at *at_site* (Figure 3/7).

        Returns whether the majority test granted it.  A static
        protocol's RECOVER (a ``"refresh"`` commit) needs no quorum: the
        copy fetches the newest payload and installs the refresh
        locally, with no COMMIT message.
        """
        if at_site not in self._copy_sites:
            raise ConfigurationError(f"no copy at site {at_site}")
        if self._profiler is not None:
            self._profiler.count("engine.op.recover")
        rules, verdict, view = self._decide(at_site)
        commit = rules.commit_for(verdict, "recover", at_site)
        if commit is None:
            return verdict.granted
        me = self._actors[at_site]
        if me.state.version < commit.version:
            source = min(verdict.newest)
            payload_reply = self._exchange_data(at_site, source, view)
            me.payload = payload_reply.payload
            me.payload_version = payload_reply.version
        if commit.kind == "refresh":
            me.state.commit(commit.operation, commit.version,
                            commit.partition_mask)
        else:
            self._commit(at_site, view, commit)
        return verdict.granted

    def is_available_from(self, at_site: int) -> bool:
        """Probe by actually running the START round (messages count)."""
        try:
            return self._decide(at_site)[1].granted
        except (QuorumNotReachedError, SiteUnavailableError):
            return False

    # ------------------------------------------------------------------
    def _start(self, at_site: int
               ) -> tuple[dict[int, tuple[int, int, frozenset[int]]],
                          NetworkView]:
        """The START round: ``{site: (o, v, P)}`` of every copy that
        answered, and the view it ran under."""
        view = self.view()
        if at_site not in self._topology.site_ids:
            raise ConfigurationError(f"no site {at_site}")
        if not view.is_up(at_site):
            raise SiteUnavailableError(f"site {at_site} is down")
        self._round += 1
        round_id = self._round
        # Broadcast START to the *other* copies; the coordinator reads
        # its own stable storage directly (no message to itself).
        peers = self._copy_sites - {at_site}
        self.network.broadcast(
            view, at_site, peers,
            lambda src, dst: StateRequest(sender=src, receiver=dst,
                                          round_id=round_id),
        )
        for sid in sorted(peers & frozenset(self._actors)):
            if sid in view.up:
                self._actors[sid].step(view, self.network)
        states: dict[int, tuple[int, int, frozenset[int]]] = {}
        for message in self._mailboxes[at_site].drain():
            # Replies delayed past their operation (round) are stale
            # protocol state and must not enter this decision.
            if isinstance(message, StateReply) and \
                    message.round_id == round_id:
                states[message.sender] = (message.operation,
                                          message.version,
                                          message.partition_set)
        if at_site in self._actors:
            states[at_site] = self._actors[at_site].state.snapshot()
        return states, view

    def _decide(self, at_site: int
                ) -> tuple[VotingProtocol, Verdict, NetworkView]:
        """START, then the core decision over the copies that answered."""
        states, view = self._start(at_site)
        if not states:
            raise QuorumNotReachedError(
                f"no copies answered the START from site {at_site}"
            )
        rules, verdict = decide(self._rules, states, view,
                                self._copy_sites, tracer=self._tracer)
        return rules, verdict, view

    def _granted(self, at_site: int
                 ) -> tuple[VotingProtocol, Verdict, NetworkView]:
        """:meth:`_decide`, raising unless the majority test granted."""
        rules, verdict, view = self._decide(at_site)
        if not verdict.granted:
            raise QuorumNotReachedError(
                f"majority test failed at site {at_site}: {verdict.reason}"
            )
        return rules, verdict, view

    def _exchange_data(self, at_site: int, source: int,
                       view: NetworkView) -> DataReply:
        if source == at_site:
            me = self._actors[at_site]
            return DataReply(sender=at_site, receiver=at_site,
                             version=me.payload_version, payload=me.payload)
        self.network.send(view, DataRequest(sender=at_site, receiver=source,
                                            round_id=self._round))
        self._actors[source].step(view, self.network)
        reply: Optional[DataReply] = None
        for message in self._mailboxes[at_site].drain():
            if isinstance(message, DataReply) and \
                    message.round_id == self._round:
                reply = message
        if reply is not None:
            return reply
        # Reachable under fault injection: the DataRequest or DataReply
        # was dropped or delayed, so the read aborts before its COMMIT.
        raise EngineError(f"no data reply from site {source}")

    def _commit(self, at_site: int, view: NetworkView, commit: Commit,
                payload: Any = None, carries_payload: bool = False) -> None:
        """Broadcast *commit* to its recipients and let them apply it."""
        recipients = commit.recipients
        partition_set = commit.partition_set
        self.network.broadcast(
            view, at_site, recipients,
            lambda src, dst: CommitMessage(
                sender=src, receiver=dst, round_id=self._round,
                operation=commit.operation, version=commit.version,
                partition_set=partition_set,
                payload=payload, carries_payload=carries_payload,
            ),
        )
        for sid in sorted(recipients):
            if sid in view.up and sid in self._actors:
                self._actors[sid].step(view, self.network)
