"""The pure wait-die lease table, driven without sockets or clocks."""

import pytest

from repro.service.lease import (
    GRANT,
    REFUSE,
    WAIT,
    LeaseTable,
    Released,
    as_ticket,
)

DURATION = 1.0
OLD, MID, YOUNG = (10.0, 1), (20.0, 2), (30.0, 3)

# Each row: steps run in order on a fresh table, then the holder and
# the queue it must end with.  A step is ``("request", holder, ticket,
# now, empty_handed, expected)`` or ``("release", holder, now,
# expected Released)``.
CASES = {
    "grant when free": (
        [("request", 2, MID, 0.0, False, GRANT)],
        2, ()),
    "re-grant to the same holder": (
        [("request", 2, MID, 0.0, False, GRANT),
         ("request", 2, MID, 0.5, False, GRANT)],
        2, ()),
    "an older requester waits": (
        [("request", 2, MID, 0.0, False, GRANT),
         ("request", 1, OLD, 0.1, False, WAIT)],
        2, (1,)),
    "a younger requester is refused": (
        [("request", 2, MID, 0.0, False, GRANT),
         ("request", 3, YOUNG, 0.1, False, REFUSE)],
        2, ()),
    "an empty-handed requester waits whatever its age": (
        [("request", 2, MID, 0.0, False, GRANT),
         ("request", 3, YOUNG, 0.1, True, WAIT)],
        2, (3,)),
    "a ticketless requester never waits": (
        [("request", 2, MID, 0.0, False, GRANT),
         ("request", 1, None, 0.1, True, REFUSE)],
        2, ()),
    "a ticketed requester waits behind a ticketless holder": (
        [("request", 2, None, 0.0, False, GRANT),
         ("request", 3, YOUNG, 0.1, False, WAIT)],
        2, (3,)),
    "release wakes the oldest waiter": (
        [("request", 3, YOUNG, 0.0, False, GRANT),
         ("request", 2, MID, 0.1, True, WAIT),
         ("request", 1, OLD, 0.2, True, WAIT),
         ("release", 3, 0.3, Released(True, 1))],
        1, (2,)),
    "waiters holding leases die behind an older new holder": (
        [("request", 3, YOUNG, 0.0, False, GRANT),
         ("request", 2, MID, 0.1, False, WAIT),
         ("request", 1, OLD, 0.2, True, WAIT),
         ("release", 3, 0.3, Released(True, 1, (2,)))],
        1, ()),
    "a release by anyone else changes nothing": (
        [("request", 2, MID, 0.0, False, GRANT),
         ("request", 1, OLD, 0.1, False, WAIT),
         ("release", 3, 0.2, Released(False))],
        2, (1,)),
    "expiry frees the lease for a fresh request but wakes no waiter": (
        [("request", 2, MID, 0.0, False, GRANT),
         ("request", 1, OLD, 0.1, True, WAIT),
         ("request", 3, YOUNG, DURATION + 0.5, False, GRANT),
         ("release", 2, DURATION + 0.6, Released(False))],
        3, (1,)),
    "the handed-on lease expires from the hand-over": (
        [("request", 2, MID, 0.0, False, GRANT),
         ("request", 1, OLD, 0.1, False, WAIT),
         ("release", 2, 0.9, Released(True, 1)),
         ("request", 3, YOUNG, DURATION + 0.5, False, REFUSE)],
        1, ()),
    "a new request supersedes the same holder's queued one": (
        [("request", 2, MID, 0.0, False, GRANT),
         ("request", 1, OLD, 0.1, False, WAIT),
         ("request", 1, OLD, 0.2, True, WAIT)],
        2, (1,)),
}


@pytest.mark.parametrize("steps, holder, waiting", CASES.values(),
                         ids=list(CASES))
def test_lease_table(steps, holder, waiting):
    table = LeaseTable(DURATION)
    for step in steps:
        if step[0] == "request":
            _, who, ticket, now, empty, expected = step
            assert table.request(who, ticket, now, empty) == expected, step
        else:
            _, who, now, expected = step
            assert table.release(who, now) == expected, step
    assert table.holder == holder
    assert table.waiting == waiting


def test_withdrawn_waiter_is_not_woken():
    table = LeaseTable(DURATION)
    table.request(2, MID, 0.0)
    assert table.request(1, OLD, 0.1) == WAIT
    table.withdraw(1)
    assert table.release(2, 0.2) == Released(True)
    assert table.holder is None


@pytest.mark.parametrize("raw, ticket", [
    ([12.5, 3], (12.5, 3)),
    (None, None),
    ([1.0], None),
    ("ab", None),
    (["x", 1], None),
])
def test_wire_ticket(raw, ticket):
    assert as_ticket(raw) == ticket
