"""Protocol interface and the shared dynamic-voting machinery.

The quorum logic here is a direct transcription of the paper's Algorithm 1
and the READ / WRITE / RECOVER procedures of Figures 1–3 (and, with the
``topological`` switch, Figures 5–7):

1. ``R``  — copies reachable from the requesting site's partition block;
2. ``Q``  — reachable copies with the highest operation number (*current*);
3. ``S``  — reachable copies with the highest version number (*newest*);
4. ``P_m`` — the partition set of any member of ``Q`` (they all agree);
5. the grant test — strict majority of ``P_m``, or exactly half plus the
   lexicographic maximum of ``P_m``; topological protocols count the
   claimable set ``T`` instead of ``Q``;
6. COMMIT — install ``(o_m + 1, v', S')`` at every site of the new
   partition set ``S'``.
   Each protocol states it once, as :meth:`VotingProtocol.commit_for`.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, ClassVar, NamedTuple, Optional

from repro.errors import ConfigurationError, ProtocolError, QuorumNotReachedError
from repro.net.sites import SiteSet, as_mask, lowest_site, mask_sites
from repro.net.views import NetworkView
from repro.replica.state import ReplicaSet, ReplicaState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.tracer import Tracer

__all__ = [
    "Commit",
    "CommitRecord",
    "DynamicVotingFamily",
    "OperationKind",
    "Verdict",
    "VotingProtocol",
]


class OperationKind(enum.Enum):
    """The three operations of the paper's protocol figures."""

    READ = "read"
    WRITE = "write"
    RECOVER = "recover"


@dataclass(frozen=True)
class CommitRecord:
    """One committed state change, for audit trails (see
    :meth:`VotingProtocol.enable_history`).

    Attributes:
        kind: ``"read"``, ``"write"``, ``"recover"`` or ``"adjust"``
            (the eager null operation).
        operation: The committed operation number.
        version: The committed version number.
        members: The new partition set (the COMMIT's recipients).
    """

    kind: str
    operation: int
    version: int
    members: frozenset[int]


class Commit(NamedTuple):
    """One COMMIT (see :meth:`VotingProtocol.commit_for`): the new
    ``(o, v, P)`` and the sites that install it, as masks.

    ``kind`` is ``"read"``, ``"write"``, ``"recover"``, ``"adjust"`` (the
    eager null operation), ``"promote"`` / ``"demote"`` (witness
    conversions) or ``"refresh"``: a static protocol's RECOVER, which
    copies the newest version with no quorum and no COMMIT message.
    """

    kind: str
    operation: int
    version: int
    partition_mask: int
    recipient_mask: int  #: ``P`` itself for the dynamic protocols

    partition_set = property(lambda self: mask_sites(self.partition_mask))
    recipients = property(lambda self: mask_sites(self.recipient_mask))


#: ``(kind, whether a joining site l is given)`` of every COMMIT kind:
#: RECOVER and the witness conversions add ``l`` to ``S``.
_COMMIT_KINDS = frozenset({("read", False), ("write", False),
                          ("adjust", False), ("recover", True),
                          ("promote", True), ("demote", True)})


def _set_field(slot: str, doc: str) -> tuple[property, property]:
    """The read-only ``*_mask`` accessor of *slot* and its ``frozenset`` twin."""
    mask = attrgetter(slot)
    return (property(mask, doc=f"{doc}, as a mask."),
            property(lambda self: mask_sites(mask(self)), doc=f"{doc}."))


class Verdict:
    """The outcome of evaluating the majority-partition test in one block.

    An immutable value.  The site sets are held as masks (``*_mask``,
    see :mod:`repro.net.sites`) and their ``frozenset`` form below is
    built when read, so a test that needs only the outcome allocates no
    set.  The constructor takes each set in either form.

    Attributes:
        granted: Whether an access from this block would be allowed.
        block: The communicating block that was evaluated (empty for the
            "no copies reachable anywhere" denial).
        reachable: ``R`` — copy sites inside the block.
        current: ``Q`` — reachable copies with the maximum operation number.
        newest: ``S`` — reachable copies with the maximum version number.
        counted: The set compared against ``|P_m| / 2``: ``Q`` for the
            plain protocols, the claimable set ``T`` for topological ones.
        partition_set: ``P_m`` — the previous quorum (denominator).
        reference: ``m`` — the current copy whose state anchored the test,
            or ``None`` when the block holds no copies.
        reason: Short human-readable explanation of a denial (not part
            of equality).
    """

    __slots__ = ("_granted", "_block", "_reachable", "_current", "_newest",
                 "_counted", "_partition", "_reference", "_reason")

    def __init__(self, granted: bool, block: SiteSet = 0,
                 reachable: SiteSet = 0, current: SiteSet = 0,
                 newest: SiteSet = 0, counted: SiteSet = 0,
                 partition_set: SiteSet = 0, reference: Optional[int] = None,
                 reason: str = ""):
        self._granted = granted
        self._block = as_mask(block)
        self._reachable = as_mask(reachable)
        self._current = as_mask(current)
        self._newest = as_mask(newest)
        self._counted = as_mask(counted)
        self._partition = as_mask(partition_set)
        self._reference = reference
        self._reason = reason

    granted = property(attrgetter("_granted"), doc="Whether access is allowed.")
    reference = property(attrgetter("_reference"), doc="``m``, or ``None``.")
    reason = property(attrgetter("_reason"), doc="Why access was denied.")
    block_mask, block = _set_field("_block", "The evaluated block")
    reachable_mask, reachable = _set_field("_reachable", "``R``")
    current_mask, current = _set_field("_current", "``Q``")
    newest_mask, newest = _set_field("_newest", "``S``")
    counted_mask, counted = _set_field("_counted", "``Q`` or ``T``")
    partition_mask, partition_set = _set_field("_partition", "``P_m``")

    @staticmethod
    def denial(reason: str, block: SiteSet = 0) -> "Verdict":
        """A denial verdict carrying only an explanation."""
        return Verdict(granted=False, block=block, reason=reason)

    def decided(self, granted: bool, reason: str) -> "Verdict":
        """This verdict's sets under another outcome — for a protocol that
        wraps :meth:`VotingProtocol.evaluate_block` and overrules it."""
        return Verdict(granted, self._block, self._reachable, self._current,
                       self._newest, self._counted, self._partition,
                       self._reference, reason)

    def _key(self) -> tuple:
        return (self._granted, self._block, self._reachable, self._current,
                self._newest, self._counted, self._partition, self._reference)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Verdict:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        granted, *masks, reference = self._key()
        sets = [sorted(mask_sites(mask)) for mask in masks]
        return (f"Verdict(granted={granted}, block/R/Q/S/counted/P_m={sets}, "
                f"reference={reference}, reason={self._reason!r})")


class VotingProtocol(abc.ABC):
    """A consistency protocol for one replicated file.

    Subclasses provide :meth:`evaluate_block` (the pure majority test) and
    the state-changing operations.  The environment drives protocols in
    two ways:

    * *probing* — :meth:`is_available` / :meth:`evaluate` ask whether an
      access arriving now would be granted, without touching state;
    * *operating* — :meth:`read`, :meth:`write`, :meth:`recover` and
      :meth:`synchronize` run the actual algorithms and mutate the
      replicas' ``(o, v, P)`` state.

    Class attributes:
        name: Canonical abbreviation (``"MCV"``, ``"ODV"``, ...).
        eager: ``True`` when the protocol assumes instantaneous state
            information, i.e. the harness must call :meth:`synchronize`
            after every network change; ``False`` for optimistic protocols
            synchronised only at access time.
    """

    name: ClassVar[str] = "abstract"
    eager: ClassVar[bool] = True
    #: Whether a granted read COMMITs new state (dynamic protocols bump
    #: the operation number and partition set; static ones do not).  The
    #: engine uses this for message accounting.
    commits_on_read: ClassVar[bool] = False

    def __init__(self, replicas: ReplicaSet):
        self._replicas = replicas
        self._history: Optional[list["CommitRecord"]] = None
        self._tracer: Optional["Tracer"] = None
        self._profiler = None

    # ------------------------------------------------------------------
    # structured tracing
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer: Optional["Tracer"]) -> "VotingProtocol":
        """Attach (or, with ``None``, detach) a structured-event tracer.

        With a tracer attached, every quorum test emits a
        ``quorum.granted`` / ``quorum.denied`` decision record carrying
        the ``(o, v, P)`` context of Algorithm 1, plus
        ``tiebreak.lexicographic`` and ``votes.carried`` records when
        those rules fire.  Detached (the default) the hot path pays one
        ``None`` check.  Returns ``self`` for chaining.
        """
        self._tracer = tracer
        return self

    def attach_profiler(self, profiler) -> "VotingProtocol":
        """Attach (or, with ``None``, detach) a
        :class:`~repro.obs.prof.phases.PhaseProfiler`.

        Attached, every quorum evaluation and block test is tallied per
        policy (``quorum.evaluate.<name>`` / ``quorum.block.<name>``
        hot-path counters); detached (the default) the availability
        probe pays one ``None`` check.  Returns ``self`` for chaining.
        """
        self._profiler = profiler
        return self

    def _trace_decision(
        self,
        verdict: Verdict,
        tie_break_winner: Optional[int] = None,
        carried: int = 0,
    ) -> None:
        """Emit the decision records for one quorum test (tracer attached).

        *tie_break_winner* is the lexicographic maximum that let an
        exact half proceed (when that rule fired); *carried* the mask of
        votes a topological protocol claimed for unreachable mates.
        """
        tracer = self._tracer
        assert tracer is not None
        operation = version = None
        if verdict.reference is not None:
            anchor = self._replicas.state(verdict.reference)
            operation, version = anchor.operation, anchor.version
        tracer.record(
            "quorum.granted" if verdict.granted else "quorum.denied",
            policy=self.name,
            block=verdict.block,
            reachable=verdict.reachable,
            counted=verdict.counted,
            partition_set=verdict.partition_set,
            reference=verdict.reference,
            operation=operation,
            version=version,
            reason=verdict.reason,
        )
        if tie_break_winner is not None:
            tracer.record(
                "tiebreak.lexicographic",
                policy=self.name,
                partition_set=verdict.partition_set,
                winner=tie_break_winner,
                granted=verdict.granted,
            )
        if carried:
            tracer.record(
                "votes.carried",
                policy=self.name,
                carried=mask_sites(carried),
                claimants=mask_sites(
                    verdict.partition_mask & verdict.reachable_mask),
                granted=verdict.granted,
            )

    # ------------------------------------------------------------------
    @property
    def replicas(self) -> ReplicaSet:
        """The per-copy consistency-control state this protocol manages."""
        return self._replicas

    # ------------------------------------------------------------------
    # commit audit trail
    # ------------------------------------------------------------------
    def enable_history(self) -> "VotingProtocol":
        """Start recording every commit (returns ``self`` for chaining).

        Off by default — the availability study performs millions of
        commits and must not accumulate them.
        """
        if self._history is None:
            self._history = []
        return self

    @property
    def history(self) -> tuple["CommitRecord", ...]:
        """All commits recorded since :meth:`enable_history`.

        Raises:
            ConfigurationError: if history recording was never enabled.
        """
        if self._history is None:
            raise ConfigurationError(
                "commit history is off; call enable_history() first"
            )
        return tuple(self._history)

    @property
    def copy_sites(self) -> frozenset[int]:
        return self._replicas.copy_sites

    @property
    def data_sites(self) -> frozenset[int]:
        """Sites whose copies hold actual file data.

        Equal to :attr:`copy_sites` for every protocol except
        witness-augmented ones, where witnesses carry state but no bytes.
        The engine stores payloads only at these sites.
        """
        return self._replicas.copy_sites

    # ------------------------------------------------------------------
    # pure evaluation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def evaluate_block(self, view: NetworkView, block: SiteSet) -> Verdict:
        """Run the majority-partition test for an access from *block*
        (a set of site ids or its mask).

        Pure: never mutates replica state.
        """

    def evaluate(self, view: NetworkView) -> Verdict:
        """The verdict for the best block — the paper's single user "can
        access any of the sites", so the file is available if *any* block
        grants.  Returns the granting verdict, or the last denial."""
        profiler = self._profiler
        if profiler is not None:
            profiler.count(f"quorum.evaluate.{self.name}")
        denial: Optional[Verdict] = None
        copies = self._replicas.copy_mask
        for block in view.block_masks:
            if not (block & copies):
                continue
            if profiler is not None:
                profiler.count(f"quorum.block.{self.name}")
            verdict = self.evaluate_block(view, block)
            if verdict.granted:
                return verdict
            denial = verdict
        if denial is None:
            denial = Verdict.denial("no partition block contains a copy")
        return denial

    def is_available(self, view: NetworkView) -> bool:
        """Whether an access arriving now, at any site, would be granted."""
        return self.evaluate(view).granted

    def granting_blocks(self, view: NetworkView) -> tuple[frozenset[int], ...]:
        """All blocks whose access would be granted.

        The mutual-exclusion invariant says this tuple never holds more
        than one element; the property-based tests assert exactly that.
        """
        copies = self._replicas.copy_mask
        return tuple(
            mask_sites(block)
            for block in view.block_masks
            if block & copies and self.evaluate_block(view, block).granted
        )

    # ------------------------------------------------------------------
    # COMMIT
    # ------------------------------------------------------------------
    def commit_for(self, verdict: Verdict, kind: str,
                   site: Optional[int] = None) -> Optional[Commit]:
        """The COMMIT a *kind* operation performs after *verdict*, or
        ``None`` when it commits nothing (here: a denial).

        Figures 1–3: ``COMMIT(S, o_m + 1, v_m [+1], S)`` for READ, WRITE
        (the ``+1``) and the null ``"adjust"``; ``COMMIT(S ∪ {l}, o_m + 1,
        v_m, S ∪ {l})`` for RECOVER and the witness conversions, *site*
        being ``l``.  Static protocols override it.

        Raises:
            ConfigurationError: for an unknown *kind*, or *site* given
                without a joining kind or missing from one.
        """
        if (kind, site is not None) not in _COMMIT_KINDS:
            raise ConfigurationError(f"no {kind!r} commit with site={site}")
        if not verdict.granted:
            return None
        anchor = self._replicas.state(verdict.reference)
        members = verdict.newest_mask
        if site is not None:
            members |= 1 << site
        return Commit(kind, anchor.operation + 1,
                      anchor.version + (kind == "write"), members, members)

    def _operate(self, view: NetworkView, site_id: int, kind: str,
                 joining: Optional[int] = None) -> Verdict:
        """The majority test for an access from *site_id*, then its COMMIT."""
        verdict = self.evaluate_block(
            view, self._block_for_request(view, site_id))
        self._commit(verdict, kind, joining)
        return verdict

    def _commit(self, verdict: Verdict, kind: str,
                site: Optional[int] = None) -> None:
        """Apply :meth:`commit_for`'s COMMIT, if there is one."""
        commit = self.commit_for(verdict, kind, site)
        if commit is not None:
            self._apply(commit)

    def _apply(self, commit: Commit) -> None:
        """Install *commit* in memory.  With history on it is recorded;
        with a tracer attached it is emitted as ``commit.applied``, the
        invariant monitor's state-level feed."""
        self._replicas.commit(commit.operation, commit.version,
                              commit.partition_mask, commit.recipient_mask)
        if self._history is not None:
            self._history.append(CommitRecord(
                commit.kind, commit.operation, commit.version,
                commit.partition_set))
        if self._tracer is not None:
            self._tracer.record(
                "commit.applied", policy=self.name, commit_kind=commit.kind,
                operation=commit.operation, version=commit.version,
                members=commit.partition_set)

    # ------------------------------------------------------------------
    # state-changing operations
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def read(self, view: NetworkView, site_id: int) -> Verdict:
        """Attempt a read from *site_id*; mutates state iff granted."""

    @abc.abstractmethod
    def write(self, view: NetworkView, site_id: int) -> Verdict:
        """Attempt a write from *site_id*; mutates state iff granted."""

    @abc.abstractmethod
    def recover(self, view: NetworkView, site_id: int) -> Verdict:
        """One round of the RECOVER loop at copy site *site_id*."""

    @abc.abstractmethod
    def synchronize(self, view: NetworkView) -> Verdict:
        """Bring protocol state up to date with the network view.

        For eager protocols the harness calls this after every network
        event (modelling the connection vector); for optimistic ones,
        only at access epochs.  Runs recoveries of reachable stale copies
        and the quorum adjustment, to fixpoint — a second call under the
        same view changes nothing.

        Returns the verdict that stands when it finishes, equal to an
        :meth:`evaluate` taken immediately after: its last evaluation if
        no commit followed it, a fresh one otherwise.  It holds until
        the view or the replica state changes.
        """

    def recover_stale(self, view: NetworkView) -> Verdict:
        """Run pending RECOVER loops without touching the quorum.

        The paper's RECOVER is initiated by the restarting site itself
        and "repeat[s] until successful" — it does not wait for anyone to
        access the file.  Optimistic protocols therefore reintegrate
        copies eagerly while still deferring quorum *adjustment* to
        access time; the trace evaluator calls this after every network
        event for the optimistic policies.  Default: nothing to do
        (static protocols need no reintegration step).

        Returns the standing verdict, as :meth:`synchronize` does.
        """
        return self.evaluate(view)

    # ------------------------------------------------------------------
    def _require_copy(self, site_id: int) -> None:
        if site_id not in self._replicas:
            raise ConfigurationError(f"site {site_id} holds no copy")

    def _block_for_request(self, view: NetworkView, site_id: int) -> int:
        """The requesting site's block, as a mask; a down requester can
        do nothing."""
        if not view.is_up(site_id):
            raise QuorumNotReachedError(f"requesting site {site_id} is down")
        return view.block_mask_of(site_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        copies = ",".join(map(str, sorted(self._replicas.copy_sites)))
        return f"<{type(self).__name__} copies={{{copies}}}>"


class DynamicVotingFamily(VotingProtocol):
    """Shared implementation of the dynamic-voting rule family.

    The three orthogonal switches below produce DV, LDV, ODV, TDV and
    OTDV as five tiny subclasses:

    * ``tie_break`` — apply the lexicographic rule when exactly half of
      the previous partition set is counted (LDV and all newer variants);
    * ``topological`` — count the claimable set ``T`` (votes of same-
      segment unavailable members of ``P_m``) instead of ``Q``;
    * ``eager`` — whether :meth:`synchronize` is meant to run at every
      network change (protocol classes only *declare* this; the driver
      enforces it).
    """

    tie_break: ClassVar[bool] = True
    topological: ClassVar[bool] = False
    commits_on_read: ClassVar[bool] = True
    #: Deny grants anchored on a stale generation (see evaluate_block).
    lineage_guard: ClassVar[bool] = False

    def __init__(self, replicas: ReplicaSet):
        super().__init__(replicas)
        # Number of grants that relied on claimed votes of unreachable
        # sites (always 0 for non-topological protocols).  Exposed so the
        # property tests can correlate any stale read with a topological
        # vote claim, the one documented consistency caveat (DESIGN.md §3).
        self.claimed_vote_grants = 0

    # ------------------------------------------------------------------
    # Algorithm 1 (+ the T extension of Section 3)
    # ------------------------------------------------------------------
    def evaluate_block(self, view: NetworkView, block: SiteSet) -> Verdict:
        block = as_mask(block)
        replicas = self._replicas
        reachable = block & replicas.copy_mask  # R
        if not reachable:
            verdict = Verdict.denial("no copies reachable in block", block)
            if self._tracer is not None:
                self._trace_decision(verdict)
            return verdict

        # Q, S and the state of m = min(Q): all of Q share one triple.
        current, newest, anchor = replicas.quorum_scan(reachable)
        partition_set = anchor.partition_mask  # P_m
        self._check_generation(current, anchor)

        counted = 0
        granted = False
        tie_break_winner: Optional[int] = None
        if self.lineage_guard and anchor.operation < replicas.quorum_scan(
                replicas.copy_mask)[2].operation:
            # Topological vote-claiming is unsafe across *sequential*
            # total failures of a segment: each of two segment mates can,
            # in turn, claim the other's vote over the same generation and
            # fork the commit history (DESIGN.md §3).  The paper's
            # availability study implicitly follows a single global
            # lineage — the Available-Copy "wait for the last to fail"
            # rule a segment falls back to — so the topological protocols
            # refuse any grant whose anchor is not at the globally newest
            # committed generation.
            reason = ("stale generation: a newer commit exists at an "
                      "unreachable copy (lineage guard)")
        else:
            counted = self._counted(view, reachable, partition_set, current)
            doubled = 2 * self._measure(counted)
            size = self._measure(partition_set)
            if doubled > size:
                granted, reason = True, ""
            elif doubled < size:
                reason = ("fewer than half of the previous partition set "
                          "reachable")
            elif not self.tie_break:
                reason = ("tie: exactly half of the previous partition set "
                          "(no tie-breaking rule)")
            elif view.max_bit(partition_set) & current:
                granted, reason = True, ""
                tie_break_winner = lowest_site(view.max_bit(partition_set))
            else:
                reason = ("tie: exactly half of the previous partition set, "
                          "without its maximum element")

        verdict = Verdict(granted, block, reachable, current, newest, counted,
                          partition_set, anchor.site_id, reason)
        if self._tracer is not None:
            self._trace_decision(
                verdict,
                tie_break_winner=tie_break_winner,
                carried=counted & ~reachable,
            )
        return verdict

    def _measure(self, sites: int) -> int:
        """How much voting power the sites of the mask *sites* carry.

        The paper's protocols count copies (one site, one vote); the
        weighted extension overrides this with a weight sum.  Must be a
        non-negative integer-valued measure so the half-of-``P_m``
        comparisons stay exact.
        """
        return sites.bit_count()

    def _counted(self, view: NetworkView, reachable: int, partition_set: int,
                 current: int) -> int:
        """The vote set (a mask, like the arguments) compared against
        ``|P_m| / 2``.

        Plain protocols count ``Q``.  Topological protocols count
        ``T = {r in P_m : exists s in P_m ∩ R on r's segment}`` — a live
        member of the previous quorum carries the votes of its segment
        mates, which cannot be partitioned away and hence must be down.
        """
        if not self.topological:
            return current
        # P_m ∩ R are the claimants.
        return partition_set & view.segment_mates(partition_set & reachable)

    def _check_generation(self, current: int, anchor: ReplicaState) -> None:
        """All of ``Q`` must carry the anchor's state triple.

        Commits are totally ordered by mutual exclusion, so equal
        operation numbers imply the same originating commit.  A mismatch
        means the invariant was already broken; fail loudly.
        """
        version, partition_set = anchor.version, anchor.partition_mask
        states = self._replicas.states_in(current)
        for state in states:
            if (state.version != version
                    or state.partition_mask != partition_set):
                raise ProtocolError(
                    "divergent state among current sites "
                    f"{sorted(mask_sites(current))}: "
                    f"{ {s.snapshot() for s in states} }")

    # ------------------------------------------------------------------
    # Figures 1/2 (5/6): READ and WRITE
    # ------------------------------------------------------------------
    def read(self, view: NetworkView, site_id: int) -> Verdict:
        return self._operate(view, site_id, "read")

    def write(self, view: NetworkView, site_id: int) -> Verdict:
        return self._operate(view, site_id, "write")

    def _commit(self, verdict: Verdict, kind: str,
                site: Optional[int] = None) -> None:
        commit = self.commit_for(verdict, kind, site)
        if commit is not None:
            if (self.topological
                    and verdict.counted_mask & ~verdict.reachable_mask):
                self.claimed_vote_grants += 1
            self._apply(commit)

    # ------------------------------------------------------------------
    # Figure 3 (7): RECOVER
    # ------------------------------------------------------------------
    def recover(self, view: NetworkView, site_id: int) -> Verdict:
        """One attempt of the RECOVER loop for the copy at *site_id*.

        On success the recovering site is reinserted:
        ``COMMIT(S ∪ {l}, o_m + 1, v_m, S ∪ {l})`` — the version bump to
        ``v_m`` models "copy the file from site m".
        """
        self._require_copy(site_id)
        return self._recover(view, self._block_for_request(view, site_id),
                             site_id)

    def _recover(self, view: NetworkView, block: int, site_id: int) -> Verdict:
        verdict = self.evaluate_block(view, block)
        self._commit(verdict, "recover", site_id)
        return verdict

    # ------------------------------------------------------------------
    def synchronize(self, view: NetworkView) -> Verdict:
        """Recover every reachable stale copy, then adjust the quorum.

        Equivalent to: each stale reachable copy runs its RECOVER loop,
        then a null operation shrinks the partition set to the reachable
        current copies.  Converges in at most ``|copies| + 1`` rounds.
        """
        for _ in range(len(self._replicas) + 2):
            verdict = self._recover_one(view)
            if verdict is None:
                continue
            if verdict.granted and verdict.partition_mask != verdict.newest_mask:
                # Null operation: quorum adjustment without data movement.
                self._commit(verdict, "adjust")
                return self.evaluate(view)
            return verdict
        raise ProtocolError("synchronize failed to converge")  # pragma: no cover

    def recover_stale(self, view: NetworkView) -> Verdict:
        """Recoveries only — the restarting sites' own RECOVER loops.

        Note that RECOVER's commit ``(S ∪ {l}, o_m + 1, v_m, S ∪ {l})``
        *does* replace the partition set with the reachable current
        copies plus the recoverer, so recovery can shrink a quorum as a
        side effect when some previous members are unreachable; what it
        never does is run the gratuitous null-operation adjustment that
        eager protocols perform on every network event.
        """
        for _ in range(len(self._replicas) + 1):
            verdict = self._recover_one(view)
            if verdict is not None:
                return verdict
        raise ProtocolError("recover_stale failed to converge")  # pragma: no cover

    def _recover_one(self, view: NetworkView) -> Optional[Verdict]:
        """Evaluate; if the granting block holds a stale copy, run the
        lowest-numbered one's RECOVER and return ``None`` (more may be
        pending), otherwise return the verdict."""
        verdict = self.evaluate(view)
        if verdict.granted:
            stale = (self._replicas.copy_mask & verdict.block_mask
                     & ~verdict.current_mask)
            if stale:
                self._recover(view, verdict.block_mask, lowest_site(stale))
                return None
        return verdict
