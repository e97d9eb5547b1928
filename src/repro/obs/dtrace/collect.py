"""The trace collector: merge span logs into causal trace trees.

Each process in a traced cluster wrote its own append-only span log
(``spans.jsonl`` next to every replica's WAL, ``proxy.spans.jsonl``
under the cluster root, in-memory records from the load workers).
This module merges them back together:

* group spans by trace id across all logs;
* rebuild the tree through the parent ids the frames' ``ctx`` field
  carried; spans whose parent was lost (a SIGKILLed replica never
  flushed it) surface as extra roots rather than vanishing;
* order siblings by their Lamport start — **never** by wall clock,
  which no two replica processes share;
* validate happens-before: a span must not precede its parent's send
  (``child.lc_start > lc`` of some ``send`` event on the parent, or
  simply the parent's own start when both live on one process).

Reading is lenient: a SIGKILL can tear a log's final line, so any
unparsable line is skipped and counted instead of raising.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable, Iterator, Mapping, Optional, Union

__all__ = [
    "Trace",
    "build_traces",
    "causal_violations",
    "fault_windows",
    "load_span_logs",
    "read_span_log",
    "sample_exemplars",
    "summarize_trace",
]


def read_span_log(
    path: Union[str, pathlib.Path],
) -> tuple[list[dict[str, Any]], int]:
    """All parseable span records in *path*, plus the skipped count."""
    records: list[dict[str, Any]] = []
    skipped = 0
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    skipped += 1
                    continue
                if isinstance(record, dict) and record.get("trace") \
                        and record.get("span"):
                    records.append(record)
                else:
                    skipped += 1
    except OSError:
        return [], 0
    return records, skipped


def iter_span_log_paths(
    root: Union[str, pathlib.Path],
) -> Iterator[pathlib.Path]:
    """Every span log under *root* (``*spans.jsonl``, recursively)."""
    yield from sorted(pathlib.Path(root).rglob("*spans.jsonl"))


def load_span_logs(
    root: Union[str, pathlib.Path],
) -> list[dict[str, Any]]:
    """Merge every span log under *root* into one record list."""
    merged: list[dict[str, Any]] = []
    for path in iter_span_log_paths(root):
        records, _ = read_span_log(path)
        merged.extend(records)
    return merged


class Trace:
    """One trace: all spans sharing a trace id, tree-linked.

    Attributes:
        trace_id: The shared id.
        spans: ``{span_id: record}`` for every span seen.
        children: ``{span_id: [child records]}``, Lamport-ordered.
        roots: Spans with no (recorded) parent, Lamport-ordered — the
            client op span plus any span orphaned by a lost log.
    """

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: dict[str, dict[str, Any]] = {}
        self.children: dict[str, list[dict[str, Any]]] = {}
        self.roots: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    def add(self, record: dict[str, Any]) -> None:
        """Index *record* by span id (call :meth:`link` after adding)."""
        self.spans[str(record["span"])] = record

    def link(self) -> None:
        """(Re)build child lists and roots from the current spans."""
        self.children = {}
        self.roots = []
        for record in self.spans.values():
            parent = record.get("parent")
            if parent and str(parent) in self.spans:
                self.children.setdefault(str(parent), []).append(record)
            else:
                self.roots.append(record)
        for siblings in self.children.values():
            siblings.sort(key=_lamport_key)
        self.roots.sort(key=_lamport_key)

    def root(self) -> Optional[dict[str, Any]]:
        """The best root: the client span when present, else the first."""
        for record in self.roots:
            if str(record.get("name", "")).startswith("client."):
                return record
        return self.roots[0] if self.roots else None

    def walk(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Depth-first ``(depth, span)`` pairs, causally ordered."""
        stack = [(0, record) for record in reversed(self.roots)]
        while stack:
            depth, record = stack.pop()
            yield depth, record
            kids = self.children.get(str(record["span"]), [])
            for child in reversed(kids):
                stack.append((depth + 1, child))

    # ------------------------------------------------------------------
    def duration(self) -> float:
        """Root duration in seconds (longest span if no root has one)."""
        root = self.root()
        if root is not None and root.get("dur"):
            return float(root["dur"])
        return max((float(s.get("dur", 0.0)) for s in
                    self.spans.values()), default=0.0)

    def outcome(self) -> str:
        """The root span's status, or ``unknown`` for an empty trace."""
        root = self.root()
        return str(root.get("status", "unknown")) if root else "unknown"

    def procs(self) -> list[str]:
        """Sorted process labels that contributed spans to this trace."""
        return sorted({str(s.get("proc", "?")) for s in
                       self.spans.values()})


def _lamport_key(record: Mapping[str, Any]) -> tuple:
    lc = record.get("lc") or [0, 0]
    start = lc[0] if isinstance(lc, list) and lc else 0
    return (start, record.get("start", 0.0), str(record.get("span")))


def build_traces(
    spans: Iterable[Mapping[str, Any]],
) -> dict[str, Trace]:
    """Group *spans* by trace id and link each group into a tree."""
    traces: dict[str, Trace] = {}
    for record in spans:
        trace_id = str(record.get("trace", ""))
        span_id = record.get("span")
        if not trace_id or not span_id:
            continue
        traces.setdefault(trace_id, Trace(trace_id)).add(dict(record))
    for trace in traces.values():
        trace.link()
    return traces


# ----------------------------------------------------------------------
# causal validation
# ----------------------------------------------------------------------
def causal_violations(trace: Trace) -> list[str]:
    """Happens-before violations in *trace* (empty = causally sound).

    Checks, per span: the Lamport pair is ordered (``start <= end``);
    a child starts strictly after its parent's start; and a child on a
    *different* process starts strictly after some ``send`` event on
    its parent — the send that carried its context over the wire.
    """
    problems: list[str] = []
    for record in trace.spans.values():
        lc = record.get("lc") or [0, 0]
        if lc[0] > lc[1]:
            problems.append(
                f"span {record['span']} ({record.get('name')}) has a "
                f"backwards Lamport pair {lc}")
    for parent_id, kids in trace.children.items():
        parent = trace.spans[parent_id]
        parent_lc = (parent.get("lc") or [0, 0])[0]
        sends = [event.get("lc", 0)
                 for event in parent.get("events", [])
                 if event.get("name") == "send"]
        for child in kids:
            child_lc = (child.get("lc") or [0, 0])[0]
            if child_lc <= parent_lc:
                problems.append(
                    f"span {child['span']} ({child.get('name')}) "
                    f"starts at lc={child_lc}, not after its parent "
                    f"{parent.get('name')} (lc={parent_lc})")
                continue
            if child.get("proc") != parent.get("proc") and sends \
                    and not any(send < child_lc for send in sends):
                problems.append(
                    f"span {child['span']} ({child.get('name')}) on "
                    f"{child.get('proc')} precedes every send of its "
                    f"parent {parent.get('name')}")
    return problems


def fault_windows(trace: Trace) -> list[int]:
    """Every chaos fault window number annotated on *trace*'s spans."""
    windows: set[int] = set()
    for record in trace.spans.values():
        attrs = record.get("attrs") or {}
        window = attrs.get("window")
        if isinstance(window, int):
            windows.add(window)
        for event in record.get("events", []):
            window = event.get("window")
            if isinstance(window, int):
                windows.add(window)
    return sorted(windows)


def summarize_trace(trace: Trace) -> dict[str, Any]:
    """The one-line summary surfaces show per exemplar trace."""
    root = trace.root() or {}
    attrs = root.get("attrs") or {}
    return {
        "trace": trace.trace_id,
        "name": root.get("name", "?"),
        "key": attrs.get("key"),
        "outcome": trace.outcome(),
        "duration": round(trace.duration(), 6),
        "spans": len(trace.spans),
        "procs": trace.procs(),
        "fault_windows": fault_windows(trace),
        "violations": causal_violations(trace),
    }


# ----------------------------------------------------------------------
# exemplar sampling
# ----------------------------------------------------------------------
#: Root outcomes that make a trace an exemplar regardless of latency.
_INTERESTING = ("denied", "unavailable", "contended", "error")


def sample_exemplars(
    traces: Mapping[str, Trace],
    limit: int = 8,
    always: Iterable[str] = (),
) -> list[Trace]:
    """Pick up to *limit* exemplar traces, worst first.

    Keeps, in priority order: every trace in *always* (the load
    workers' violation traces — never dropped, even over *limit*),
    denied/unavailable/contended roots, traces a chaos fault window
    touched, then the slowest of the rest (the tail).  Within each
    band slower traces win.
    """
    pool = sorted(traces.values(), key=Trace.duration, reverse=True)
    always = {str(trace_id) for trace_id in always}
    chosen: list[Trace] = []
    seen: set[str] = set()

    def take(trace: Trace, force: bool = False) -> None:
        if trace.trace_id in seen:
            return
        if not force and len(chosen) >= limit:
            return
        seen.add(trace.trace_id)
        chosen.append(trace)

    for trace in pool:
        if trace.trace_id in always:
            take(trace, force=True)
    for trace in pool:
        if trace.outcome() in _INTERESTING:
            take(trace)
    for trace in pool:
        if fault_windows(trace):
            take(trace)
    for trace in pool:
        take(trace)
    return chosen
