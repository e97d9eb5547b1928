"""A Wing–Gong linearizability checker for a map of read/write registers.

Linearizability is compositional, so a key-value history is checked one
key at a time: each key is a register whose ``put`` writes a value and
whose ``get`` returns the last value written (``None`` before any).  The
search is Wing and Gong's: repeatedly pick an operation no remaining
operation precedes in real time (none was answered at or before its
start: the simulated driver starts a client's next operation at the
instant its last one is answered), apply it
to the register, and backtrack when a ``get`` disagrees.  No
``(linearized operations, register value)`` state is explored twice.

A put answered ``unavailable``, ``error`` or not at all (timed out, or
its coordinator died) may or may not have happened: it has no end, and
the search may linearize it after its start or never.  So may a put
answered by a probe (``op: "probe"``: its forward failed), whatever the
probe decided, because the coordinator it was forwarded to may have run
it; a probe's ``denied`` claims more than that (the strict xfail
``test_a_denied_probe_never_hides_an_applied_put``).  Any other put
answered ``denied`` or ``contended`` committed nothing and is left out,
as is a get that returned no value.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from typing import Any, Iterable, NamedTuple, Optional

__all__ = ["Op", "UNKNOWN", "check_registers", "linearizable", "record"]

#: Put outcomes that leave it unknown whether the write happened.
UNKNOWN = frozenset({"unavailable", "error", None})


class Op(NamedTuple):
    """One client operation on *key*: a ``put`` of *value*, or a ``get``
    that returned *value*; invoked at *start*, answered at *end*
    (``math.inf``: a put that may or may not have happened)."""

    kind: str
    key: str
    value: Any
    start: float
    end: float


def record(kind: str, key: str, value: Any, start: float, end: float,
           reply: Optional[dict]) -> Optional[Op]:
    """The :class:`Op` a client's *reply* (``None``: none came) puts in
    the history, or ``None`` when it says nothing about the register."""
    if reply is not None and reply.get("ok"):
        return Op(kind, key, reply.get("value") if kind == "get" else value,
                  start, end)
    outcome = None if reply is None else reply.get(
        "outcome", reply.get("kind"))
    if kind == "put" and (outcome in UNKNOWN or reply.get("op") == "probe"):
        return Op(kind, key, value, start, math.inf)
    return None


def linearizable(ops: Iterable[Op], initial: Any = None) -> bool:
    """Whether one register's history *ops* is linearizable."""
    ops = sorted(ops, key=lambda op: op.start)
    required = 0
    for index, op in enumerate(ops):
        if op.end != math.inf:
            required |= 1 << index
    seen: set[tuple[int, Any]] = set()
    stack = [(0, initial)]
    while stack:
        done, value = stack.pop()
        if done & required == required:
            return True
        if (done, value) in seen:
            continue
        seen.add((done, value))
        remaining = [index for index in range(len(ops))
                     if not done >> index & 1]
        ends = heapq.nsmallest(2, ((ops[index].end, index)
                                   for index in remaining))
        for index in remaining:
            op = ops[index]
            others = [end for end, other in ends if other != index]
            if others and others[0] <= op.start:
                continue  # another was answered before this one started
            if op.kind == "put":
                stack.append((done | 1 << index, op.value))
            elif op.value == value:
                stack.append((done | 1 << index, value))
    return False


def check_registers(ops: Iterable[Op]) -> list[str]:
    """The keys whose histories are not linearizable (empty: all are)."""
    by_key: dict[str, list[Op]] = defaultdict(list)
    for op in ops:
        by_key[op.key].append(op)
    return sorted(key for key, history in by_key.items()
                  if not linearizable(history))
