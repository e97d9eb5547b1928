"""Deciding from collected states: the quorum decision and the orphan rules.

A coordinator that runs the protocols over messages knows only the
``(o, v, P)`` triples its state round collected.  :func:`decide` turns
such a round into a verdict; the message-level engine, the chaos
monitor's exclusion probe and the live service all call it, and follow a
grant with the protocol's own :meth:`~repro.core.base.VotingProtocol.
commit_for`.  The live replica's two orphan rules are pure functions of
a state round too.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Callable, Mapping, Optional, Tuple

from repro.core.base import Verdict, VotingProtocol
from repro.net.sites import SiteSet, as_mask
from repro.replica.state import ReplicaSet

__all__ = ["commit_body", "decide", "repair_targets", "rollback_source"]

#: ``{site: (o, v, P)}`` — what one state round collected.
States = Mapping[int, Tuple[int, int, AbstractSet[int]]]


def decide(
    protocol: Callable[[ReplicaSet], VotingProtocol],
    states: States,
    view: Any,
    copy_sites: AbstractSet[int] = frozenset(),
    block: Optional[SiteSet] = None,
    tracer: Any = None,
) -> Tuple[VotingProtocol, Verdict]:
    """Run *protocol*'s quorum test over one collected state round.

    *protocol* builds the protocol over a replica set rebuilt from
    *states*; copies in *copy_sites* that did not answer keep the
    paper's initial state, which the test never reads inside the block
    but which keeps static denominators (MCV's "all copies") right.
    *block* defaults to the sites that answered; *view* supplies the
    tie-break order and the segments.  Returns the protocol (with
    *tracer* attached) and its verdict.
    """
    rules = protocol(ReplicaSet.from_states(states, copy_sites))
    if tracer is not None:
        rules.attach_tracer(tracer)
    if block is None:
        block = frozenset(states)
    return rules, rules.evaluate_block(view, as_mask(block))


def commit_body(entry: Mapping[str, Any]) -> tuple:
    """The comparable body of one history entry: two replicas that
    committed the same operation number must agree on this tuple."""
    return (
        int(entry["version"]),
        tuple(sorted(int(s) for s in entry["partition_set"])),
        str(entry["kind"]),
        entry.get("writes_digest"),
    )


def rollback_source(site: int, mine: Mapping[str, Any],
                    replies: Mapping[int, Mapping[str, Any]]) -> Optional[int]:
    """The site to replace *site*'s orphaned last commit *mine* from.

    A rival body under *mine*'s operation number, held (the ``"last"``
    field of the state *replies*) by a majority of its own partition
    set, was majority-committed, so *mine* is the orphan of a crashed
    coordinator.  Returns the lowest such holder in that set, or
    ``None``.  Malformed ``"last"`` fields are ignored.
    """
    my_body = commit_body(mine)
    holders: dict[tuple, set[int]] = {}
    for responder, reply in replies.items():
        last = reply.get("last")
        if responder == site or not isinstance(last, dict):
            continue
        try:
            rival = (int(last["operation"]) == int(mine["operation"])
                     and commit_body(last))
        except (KeyError, TypeError, ValueError):
            continue
        if rival and rival != my_body:
            holders.setdefault(rival, set()).add(responder)
    for body, sites in holders.items():
        members = frozenset(body[1])
        if 2 * len(sites & members) > len(members):
            return min(sites & members)
    return None


def repair_targets(operation: int, partition_set: AbstractSet[int],
                   states: States) -> frozenset[int]:
    """The lower-``o`` responders in ``P`` that a replica at *operation*
    must re-deliver its last commit to: only when no responder is ahead
    of it and the responders hold a majority of its ``P``."""
    if any(o > operation for o, _, _ in states.values()) \
            or 2 * len(partition_set & states.keys()) <= len(partition_set):
        return frozenset()
    return frozenset(site for site, (o, _, _) in states.items()
                     if o < operation and site in partition_set)
