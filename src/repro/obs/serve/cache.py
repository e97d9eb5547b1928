"""Summary pregeneration over the run-registry index.

The datacube-explorer shape (``cubedash-gen``): listing runs must not
re-read every run's ``record.json``, so a derived *summary card* per
run — id, kind, recording time, the small-scalar summary and a one-line
caption — is pregenerated under ``<root>/.cache/summaries.json`` and
served from there.

Invalidation keys on the **index position**: ``index.jsonl`` is
append-only between ``gc`` compactions, so the cache stores the byte
offset it has summarised up to (plus a checksum of the file head to
catch rewrites).  A fresh recording only appends — the next read parses
just the new tail and extends the cards in place; ``gc`` deletes the
cache outright, forcing a full rebuild.  A torn final line written by a
concurrent recorder is simply left for the next pass (the JSON-lines
contract of :mod:`repro.durable`).

``repro runs list`` and every ``repro serve`` listing (HTML index and
``/api/runs``) go through :meth:`SummaryCache.cards` +
:func:`query_cards` — one code path, both consumers.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Optional, Sequence

from repro.durable import atomic_write
from repro.errors import ConfigurationError
from repro.obs.registry.store import RunRegistry

__all__ = [
    "SORT_KEYS",
    "SummaryCache",
    "caption",
    "query_cards",
    "summary_card",
]

_FORMAT = "repro-serve-summaries"
_VERSION = 1

#: Bytes of the index head checksummed to detect a rewritten file whose
#: size happens to match the cached position.
_HEAD_BYTES = 256

#: Accepted ``sort`` values for :func:`query_cards`.
SORT_KEYS = ("time", "kind", "id")

#: Summary keys tried, in order, for a card's one-line caption.
_CAPTION_KEYS = (
    "configurations", "policies", "cells", "seed", "horizon",
    "scenario", "policy", "decisions", "denied", "ok", "violation",
    "benchmarks", "source", "target", "engine",
    "replicas", "operations", "kills", "partitions", "violations",
)


def caption(summary: Mapping[str, Any], limit: int = 4) -> str:
    """A compact ``key=value`` line for one run's summary mapping."""
    parts: list[str] = []
    for key in _CAPTION_KEYS:
        value = summary.get(key)
        if value is None or value == []:
            continue
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        parts.append(f"{key}={value}")
        if len(parts) >= limit:
            break
    return " ".join(parts)


def summary_card(line: Mapping[str, Any]) -> dict[str, Any]:
    """One index line reduced to the card the listings serve."""
    summary = dict(line.get("summary") or {})
    lineage = line.get("lineage") or {}
    return {
        "run_id": str(line.get("run_id", "")),
        "kind": str(line.get("kind", "?")),
        "command": str(line.get("command", "")),
        "created_at": str(line.get("created_at", "")),
        "summary": summary,
        "seed": lineage.get("seed", lineage.get("chaos_seed")),
        "git_sha": lineage.get("git_sha"),
        "caption": caption(summary),
    }


def query_cards(
    cards: Sequence[Mapping[str, Any]],
    kind: Optional[str] = None,
    sort: str = "time",
    descending: bool = False,
    limit: Optional[int] = None,
    offset: int = 0,
) -> tuple[int, list[Mapping[str, Any]]]:
    """Filter, sort and paginate summary cards.

    Returns ``(total_after_filter, page)``.  ``sort="time"`` is the
    index (recording) order; ``"kind"`` groups by kind keeping the time
    order inside each group; ``"id"`` is lexicographic on the run id.

    Raises:
        ConfigurationError: unknown *sort*, or negative *limit*/*offset*.
    """
    if sort not in SORT_KEYS:
        raise ConfigurationError(
            f"unknown sort {sort!r}; choose from {', '.join(SORT_KEYS)}"
        )
    if offset < 0 or (limit is not None and limit < 0):
        raise ConfigurationError(
            f"limit/offset must be >= 0, got limit={limit} offset={offset}"
        )
    selected = [
        card for card in cards
        if kind is None or card.get("kind") == kind
    ]
    if sort == "kind":
        selected.sort(key=lambda card: str(card.get("kind", "")))
    elif sort == "id":
        selected.sort(key=lambda card: str(card.get("run_id", "")))
    if descending:
        selected.reverse()
    total = len(selected)
    if limit is None:
        page = selected[offset:]
    else:
        page = selected[offset:offset + limit]
    return total, page


class SummaryCache:
    """The pregenerated summary cards of one registry.

    When *metrics* is given, every read is tallied into the
    ``serve.cache.hits`` / ``serve.cache.misses`` counters and the
    ``serve.cache.hit_ratio`` gauge — the numbers the acceptance check
    and ``/metricsz`` read.
    """

    def __init__(
        self,
        registry: RunRegistry,
        metrics: Optional[Any] = None,
    ):
        self.registry = registry
        self.metrics = metrics
        self._hits = 0
        self._misses = 0

    @property
    def path(self):
        """The cache file under the registry's ``.cache/``."""
        return self.registry.cache_dir / "summaries.json"

    # ------------------------------------------------------------------
    # invalidation signals
    # ------------------------------------------------------------------
    def _head_checksum(self) -> str:
        try:
            with self.registry.index_path.open("rb") as handle:
                return hashlib.sha256(handle.read(_HEAD_BYTES)).hexdigest()
        except OSError:
            return ""

    def fingerprint(self) -> str:
        """A token that changes whenever the listing could change.

        The serve layer uses it as the collection ETag: position plus
        head checksum — content-addressed like everything else here.
        """
        return f"{self.registry.index_position()}:{self._head_checksum()}"

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _load(self) -> Optional[dict[str, Any]]:
        try:
            document = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(document, dict)
            or document.get("format") != _FORMAT
            or document.get("version") != _VERSION
        ):
            return None
        return document

    def _save(self, document: dict[str, Any]) -> None:
        try:
            self.registry.cache_dir.mkdir(parents=True, exist_ok=True)
            atomic_write(self.path, (json.dumps(
                document, sort_keys=True) + "\n").encode())
        except OSError:
            # A read-only registry still serves — every listing just
            # rebuilds from the index instead of hitting the cache.
            pass

    # ------------------------------------------------------------------
    # the one read path
    # ------------------------------------------------------------------
    def cards(self) -> list[dict[str, Any]]:
        """Every run's summary card, oldest first.

        Cache hit (the index has not grown): zero per-run I/O — one
        ``stat`` of the index plus one read of the cache file.  Index
        grew: parse only the appended tail.  Anything else (``gc``
        compaction, head mismatch, corrupt cache): full rebuild from
        the index — still never touching per-run ``record.json``.
        """
        position = self.registry.index_position()
        head = self._head_checksum()
        cached = self._load()
        if (
            cached is not None
            and cached.get("position") == position
            and cached.get("head") == head
        ):
            self._tally(hit=True)
            return list(cached.get("cards") or [])
        self._tally(hit=False)
        cards: list[dict[str, Any]]
        seen: set[str]
        if (
            cached is not None
            and isinstance(cached.get("position"), int)
            and 0 < cached["position"] <= position
            and cached.get("head") == head
        ):
            cards = list(cached.get("cards") or [])
            seen = {card["run_id"] for card in cards}
            start = cached["position"]
        else:
            cards, seen, start = [], set(), 0
        lines, new_position = self.registry.read_index_from(start)
        for line in lines:
            run_id = line.get("run_id")
            if not run_id or run_id in seen:
                continue
            seen.add(str(run_id))
            cards.append(summary_card(line))
        self._save({
            "format": _FORMAT,
            "version": _VERSION,
            "position": new_position,
            "head": self._head_checksum(),
            "cards": cards,
        })
        return cards

    def warm(self) -> tuple[int, bool]:
        """Pregenerate the cache (``repro serve warm``).

        Returns ``(card_count, was_already_fresh)``.
        """
        position = self.registry.index_position()
        head = self._head_checksum()
        cached = self._load()
        fresh = (
            cached is not None
            and cached.get("position") == position
            and cached.get("head") == head
        )
        return len(self.cards()), fresh

    # ------------------------------------------------------------------
    def _tally(self, hit: bool) -> None:
        if hit:
            self._hits += 1
        else:
            self._misses += 1
        if self.metrics is None:
            return
        name = "serve.cache.hits" if hit else "serve.cache.misses"
        self.metrics.counter(name).inc()
        total = self._hits + self._misses
        self.metrics.gauge("serve.cache.hit_ratio").set(
            self._hits / total if total else 0.0
        )
