"""The coordinator lease of one replica, as a pure wait-die table.

A coordinator's ``state?`` request takes this replica's lease for the
rest of its round, so two coordinators' rounds never interleave their
commits here.  :class:`LeaseTable` holds the rules and nothing else:
no asyncio, no clock reads (``now`` is passed in), no I/O.  The replica
keeps one future per waiting request and resolves it with what
:meth:`LeaseTable.release` returns.

*Grant* — the lease is free, or already held by the requester, or
expired.  Mutual exclusion rests on this rule alone.

*Wait or refuse* — wait-die on a ticket, the pair ``(start time of the
operation's first round, coordinator site)``, fixed for all of one
operation's rounds (smaller is older):

* an older requester waits behind a younger holder, and anyone with a
  ticket waits behind a ticketless holder (the RECOVER loop of a
  running site, which never waits itself);
* a requester that holds no lease anywhere (``empty_handed``, the
  ``queue`` flag on the wire) waits whatever its age;
* everyone else — younger requesters, ticketless ones — is refused at
  once.

Every wait-for edge therefore goes from older to younger, or starts at
a coordinator nobody can wait for, so no cycle of waits exists.  When a
release hands the lease to the oldest waiter, the waiters that hold
leases elsewhere are now all younger than the new holder, so they are
refused too (they "die", release and queue again, empty-handed).

*Wake* — only a release (a commit, a stale commit, a ``release``
frame) hands the lease on.  Expiry frees it for a fresh request but
wakes nobody: a holder whose lease ran out may still be mid-commit, and
a waiter woken then would commit over it.  The replica bounds every
wait and withdraws a waiter that outlives the bound, so the rare wait
that outlasts an expiry ends too.  The bound (an eighth of the peer
time-out) is far longer than a fault-free round and never costs the
requester its kept link; it is short because no wait below the time-out
can outlast a holder stuck on a silent site or an orphaned lease, so a
longer one only adds to every round under faults.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

__all__ = ["GRANT", "LeaseTable", "REFUSE", "Released", "Ticket", "WAIT",
           "as_ticket"]

GRANT, WAIT, REFUSE = "grant", "wait", "refuse"

#: ``(start time of the operation's first round, coordinator site)``.
Ticket = Tuple[float, int]


def as_ticket(raw: Optional[Sequence[object]]) -> Optional[Ticket]:
    """A ticket from its wire form ``[start, site]``; ``None`` when
    absent or malformed (a malformed ticket is treated as no ticket)."""
    try:
        start, site = raw  # type: ignore[misc]
        return float(start), int(site)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True)
class Released:
    """What one :meth:`LeaseTable.release` did.

    Attributes:
        freed: The releaser held the lease.
        granted: The waiter the lease passed to (oldest ticket first).
        refused: Waiters that held leases elsewhere and are now younger
            than the new holder: they must be told ``busy``.
    """

    freed: bool
    granted: Optional[int] = None
    refused: Tuple[int, ...] = ()


class LeaseTable:
    """One replica's coordinator lease and the requests waiting for it."""

    def __init__(self, duration: float):
        self.duration = duration
        self.holder: Optional[int] = None
        self.ticket: Optional[Ticket] = None
        self.expires = 0.0
        #: ``(ticket, holder, empty_handed)``, oldest ticket first.
        self._queue: list[tuple[Ticket, int, bool]] = []

    @property
    def waiting(self) -> Tuple[int, ...]:
        """The waiting holders, oldest ticket first."""
        return tuple(holder for _, holder, _ in self._queue)

    def request(self, holder: int, ticket: Optional[Ticket], now: float,
                empty_handed: bool = False) -> str:
        """:data:`GRANT`, :data:`WAIT` (queued) or :data:`REFUSE`.

        A new request from a holder that is still queued supersedes its
        queued one (the requester gave up on it).
        """
        self.withdraw(holder)
        if (self.holder is None or self.holder == holder
                or now >= self.expires):
            self._grant(holder, ticket, now)
            return GRANT
        if ticket is not None and (
                empty_handed or self.ticket is None or ticket < self.ticket):
            bisect.insort(self._queue, (ticket, holder, empty_handed))
            return WAIT
        return REFUSE

    def release(self, holder: int, now: float) -> Released:
        """Free the lease if *holder* has it, handing it to the oldest
        waiter; a no-op (``freed=False``) for anyone else."""
        if self.holder != holder:
            return Released(False)
        self.holder, self.ticket, self.expires = None, None, 0.0
        if not self._queue:
            return Released(True)
        ticket, granted, _ = self._queue.pop(0)
        self._grant(granted, ticket, now)
        refused = tuple(waiter for _, waiter, empty in self._queue
                        if not empty)
        self._queue = [entry for entry in self._queue if entry[2]]
        return Released(True, granted, refused)

    def withdraw(self, holder: int) -> None:
        """Drop *holder*'s queued request (it stopped waiting)."""
        self._queue = [entry for entry in self._queue if entry[1] != holder]

    def _grant(self, holder: int, ticket: Optional[Ticket],
               now: float) -> None:
        self.holder, self.ticket = holder, ticket
        self.expires = now + self.duration
