"""Content-addressed run storage under ``.repro/runs/``.

Layout::

    .repro/runs/
        index.jsonl            # append-only, one line per recorded run
        <run-id>/
            record.json        # identity, lineage, artifact listing
            manifest.json      # run provenance (study runs)
            study.json         # canonical study cells (study runs)
            metrics.json       # metrics dump (when collected)
            timelines.json     # per-cell availability timelines
            trace.jsonl        # decision trace (scenario/chaos runs)
            chaos.json / bench.json / profile.json
        <live-id>/
            live.json          # live-session descriptor (in-flight runs)
            live.jsonl         # tailable telemetry event stream

A run id is the truncated SHA-256 of the run's *canonical result
bytes* (:func:`repro.experiments.study_io.canonical_study_bytes` for
studies, canonical JSON for everything else), never of wall-clock or
machine state — so re-running the identical seed produces the identical
id and recording it again is a no-op.  The index is append-only during
recording; only :meth:`RunRegistry.gc` compacts it.

Crash order: artifacts, ``record.json`` by atomic replace (the commit
point), then the index line; recording the same content again indexes
a run that a kill left out of the index.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import pathlib
import shutil
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from repro.durable import (
    CorruptLineError,
    JsonLinesWriter,
    atomic_write,
    json_line,
    read_json_lines,
)
from repro.errors import ConfigurationError

__all__ = [
    "CACHE_DIR_NAME",
    "DEFAULT_ROOT",
    "RUNS_DIR_ENV",
    "SAMPLES_DIR_NAME",
    "TRACES_DIR_NAME",
    "TSDB_DIR_NAME",
    "RunRecord",
    "RunRegistry",
    "TimelineSink",
    "canonical_bytes",
]

_FORMAT = "repro-run"
_VERSION = 1

#: Environment variable overriding the default registry root.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Where runs land when no directory is named.
DEFAULT_ROOT = os.path.join(".repro", "runs")

#: Hex digits of SHA-256 kept as the run id (collision odds at 16 hex
#: chars stay negligible for any plausible registry size).
_ID_LENGTH = 16

#: Shortest accepted id prefix for :meth:`RunRegistry.resolve`.
_MIN_PREFIX = 4

#: Directory under the registry root holding derived data (the serve
#: summary cache).  Never scanned for runs — run ids are hex only.
CACHE_DIR_NAME = ".cache"

#: Directory under the registry root holding large per-operation sample
#: files (``<run_id>.jsonl``) recorded next to service bench runs.
#: Sidecars, not artifacts: they are too big to hash into the run
#: identity, and :meth:`RunRegistry.gc` prunes any whose run is gone.
SAMPLES_DIR_NAME = ".samples"

#: Directory under the registry root holding exemplar trace span files
#: (``<run_id>.jsonl``) recorded next to traced service bench runs.
#: Same contract as :data:`SAMPLES_DIR_NAME`: sidecar, not artifact.
TRACES_DIR_NAME = ".traces"

#: Directory under the registry root holding scraped time-series
#: databases (``<run_id>/chunk-*.tsdb`` — whole directories, one per
#: monitored service bench run).  Same contract as
#: :data:`SAMPLES_DIR_NAME`: sidecar, not artifact, pruned by
#: :meth:`RunRegistry.gc` when the run is gone.
TSDB_DIR_NAME = ".tsdb"


def canonical_bytes(payload: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, pinned separators."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class TimelineSink:
    """A tracer sink folding quorum verdicts into availability spans.

    One :class:`~repro.obs.analysis.timeline.PolicyTimeline` is built
    per policy seen, streaming — O(1) work per decision and memory
    bounded by span count, so a registry-recorded study pays a dict
    lookup per quorum test, not a stored trace.  The runner attaches
    one per cell (next to the metrics sink) when a registry is wired
    in; :meth:`documents` yields the JSON the registry stores as
    ``timelines.json``.
    """

    def __init__(self) -> None:
        self._timelines: dict[str, Any] = {}
        self._seq = 0

    def emit(self, record: Any) -> None:
        """Fold one trace record (only quorum verdicts matter)."""
        kind = record.kind
        self._seq += 1
        if kind != "quorum.granted" and kind != "quorum.denied":
            return
        from repro.obs.analysis.timeline import PolicyTimeline

        fields = record.fields
        policy = str(fields.get("policy", "?"))
        time = getattr(record, "time", None)
        if time is not None:
            position, unit = float(time), "time"
        else:
            position, unit = float(self._seq), "seq"
        timeline = self._timelines.get(policy)
        if timeline is None:
            timeline = self._timelines[policy] = PolicyTimeline(policy, unit)
        timeline.observe(position, kind == "quorum.granted")

    def close(self) -> None:
        """Nothing to release; spans stay readable."""

    def documents(self) -> dict[str, dict[str, Any]]:
        """Finished ``policy -> timeline`` JSON documents."""
        return {
            policy: timeline.finish().to_dict()
            for policy, timeline in sorted(self._timelines.items())
        }


@dataclass(frozen=True)
class RunRecord:
    """One recorded run: identity, lineage and artifact listing.

    Attributes:
        run_id: Content-addressed identifier (hex).
        kind: ``"study"``, ``"scenario"``, ``"chaos"``, ``"bench"`` or
            ``"profile"``.
        command: The CLI/API entry point that produced the run.
        created_at: ISO-8601 UTC recording time (provenance only —
            never part of the id).
        lineage: Where the run came from: ``baseline`` run id it was
            diffed against, ``chaos_seed``/``config`` of a schedule,
            ``bench_index``/``source`` of a trajectory point, git
            sha/dirty of the code.
        artifacts: Logical name -> file name inside the run directory.
        summary: Small scalars for listings (cells, violations, ...).
        path: The run directory (set when loaded; not serialised).
    """

    run_id: str
    kind: str
    command: str
    created_at: str
    lineage: Mapping[str, Any] = field(default_factory=dict)
    artifacts: Mapping[str, str] = field(default_factory=dict)
    summary: Mapping[str, Any] = field(default_factory=dict)
    path: Optional[pathlib.Path] = field(default=None, compare=False)

    def to_dict(self) -> dict[str, Any]:
        """The JSON stored as ``record.json`` (and the index line)."""
        return {
            "format": _FORMAT,
            "version": _VERSION,
            "run_id": self.run_id,
            "kind": self.kind,
            "command": self.command,
            "created_at": self.created_at,
            "lineage": dict(self.lineage),
            "artifacts": dict(self.artifacts),
            "summary": dict(self.summary),
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any],
                  path: Optional[pathlib.Path] = None) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        if not isinstance(data, Mapping) or data.get("format") != _FORMAT:
            raise ConfigurationError("not a repro run record")
        if data.get("version") != _VERSION:
            raise ConfigurationError(
                f"unsupported run record version {data.get('version')!r}"
            )
        try:
            return RunRecord(
                run_id=str(data["run_id"]),
                kind=str(data["kind"]),
                command=str(data["command"]),
                created_at=str(data["created_at"]),
                lineage=dict(data.get("lineage", {})),
                artifacts=dict(data.get("artifacts", {})),
                summary=dict(data.get("summary", {})),
                path=path,
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"malformed run record: missing {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # artifact access
    # ------------------------------------------------------------------
    def artifact_path(self, name: str) -> pathlib.Path:
        """The on-disk path of artifact *name*.

        Raises:
            ConfigurationError: unknown artifact, or a record that was
                never loaded from (or stored to) a directory.
        """
        if self.path is None:
            raise ConfigurationError(
                f"run {self.run_id} is not backed by a directory"
            )
        file_name = self.artifacts.get(name)
        if file_name is None:
            raise ConfigurationError(
                f"run {self.run_id} records no {name!r} artifact "
                f"(has: {sorted(self.artifacts) or 'none'})"
            )
        return pathlib.Path(self.path) / file_name

    def load_json(self, name: str) -> Any:
        """Parse artifact *name* as JSON."""
        path = self.artifact_path(name)
        try:
            return json.loads(path.read_text())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read artifact {name!r} of run {self.run_id}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"artifact {name!r} of run {self.run_id} is not JSON: {exc}"
            ) from exc

    def load_study_cells(self) -> dict:
        """The study cells recorded by this run.

        Raises:
            ConfigurationError: the run records no study table.
        """
        from repro.experiments.study_io import study_from_dict

        return study_from_dict(self.load_json("study"))


class RunRegistry:
    """Content-addressed run storage rooted at one directory.

    The root (default ``.repro/runs``, or the ``REPRO_RUNS_DIR``
    environment variable) is created lazily on the first record.
    Recording is idempotent: a run whose content hash is already stored
    returns the existing record untouched.
    """

    def __init__(self, root: Union[str, pathlib.Path, None] = None):
        if root is None:
            root = os.environ.get(RUNS_DIR_ENV) or DEFAULT_ROOT
        self.root = pathlib.Path(root)

    @property
    def index_path(self) -> pathlib.Path:
        """The append-only ``index.jsonl``."""
        return self.root / "index.jsonl"

    @property
    def cache_dir(self) -> pathlib.Path:
        """Derived-data directory (``.cache/``) under the root."""
        return self.root / CACHE_DIR_NAME

    def index_position(self) -> int:
        """The current byte size of ``index.jsonl`` (0 when absent).

        Because the index is append-only between :meth:`gc` compactions,
        this is a monotone cursor: a consumer that remembers the
        position it summarised up to needs to parse only the bytes past
        it — the invalidation signal the serve summary cache keys on.
        """
        try:
            return self.index_path.stat().st_size
        except OSError:
            return 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _run_id(self, kind: str, identity: bytes) -> str:
        digest = hashlib.sha256(kind.encode() + b"\x00" + identity)
        return digest.hexdigest()[:_ID_LENGTH]

    def _store(
        self,
        kind: str,
        command: str,
        identity: bytes,
        files: Mapping[str, tuple[str, bytes]],
        lineage: Mapping[str, Any],
        summary: Mapping[str, Any],
    ) -> RunRecord:
        """Write one run: artifacts, ``record.json``, the index line.

        *files* maps logical artifact names to ``(file_name, content)``.
        """
        run_id = self._run_id(kind, identity)
        run_dir = self.root / run_id
        if (run_dir / "record.json").exists():
            return self._indexed(self.get(run_id))  # already stored
        record = RunRecord(
            run_id=run_id,
            kind=kind,
            command=command,
            created_at=_utcnow(),
            lineage=dict(lineage),
            artifacts={name: file_name
                       for name, (file_name, _) in sorted(files.items())},
            summary=dict(summary),
            path=run_dir,
        )
        try:
            run_dir.mkdir(parents=True, exist_ok=True)
            for name, (file_name, content) in sorted(files.items()):
                (run_dir / file_name).write_bytes(content)
            atomic_write(run_dir / "record.json", (json.dumps(
                record.to_dict(), indent=2, sort_keys=True) + "\n").encode())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot record run under {self.root}: {exc}"
            ) from exc
        self._append_index(record)
        return record

    def _append_index(self, record: RunRecord) -> None:
        try:
            with JsonLinesWriter(self.index_path) as index:
                index.append(record.to_dict())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot index run {record.run_id} under {self.root}: {exc}"
            ) from exc

    def _indexed(self, record: RunRecord) -> RunRecord:
        """*record*, after appending its index line if a kill left it
        out (a byte search: a corrupt line elsewhere does not matter)."""
        try:
            index = self.index_path.read_bytes()
        except OSError:
            index = b""
        if b"\n" + json_line(record.to_dict()) not in b"\n" + index:
            self._append_index(record)
        return record

    def _code_lineage(self) -> dict[str, Any]:
        from repro.obs.manifest import git_revision

        sha, dirty = git_revision()
        return {"git_sha": sha, "git_dirty": dirty}

    def record_study(
        self,
        cells: Mapping[tuple[str, str], Any],
        params: Any,
        policies: Sequence[str],
        configurations: Sequence[str],
        command: str = "study",
        metrics: Optional[Any] = None,
        timelines: Optional[Mapping[str, Mapping[str, Any]]] = None,
        baseline: Optional[str] = None,
        extra: Optional[Mapping[str, Any]] = None,
    ) -> RunRecord:
        """Record one availability study.

        The run id hashes the canonical study cells plus the parameters
        that produced them — never timings — so the identical seed
        re-run stores nothing new.  *timelines* is the per-configuration
        ``{config: {policy: timeline_doc}}`` mapping the runner captures
        with :class:`TimelineSink`.
        """
        from repro.experiments.study_io import canonical_study_bytes
        from repro.obs.manifest import build_manifest

        study_bytes = canonical_study_bytes(cells)
        identity = study_bytes + b"\x00" + canonical_bytes({
            "seed": params.seed,
            "horizon": params.horizon,
            "warmup": params.warmup,
            "batches": params.batches,
            "access_rate_per_day": params.access_rate_per_day,
            "policies": list(policies),
            "configurations": list(configurations),
        })
        manifest = build_manifest(
            command, params, policies, configurations, **dict(extra or {})
        )
        files: dict[str, tuple[str, bytes]] = {
            "study": ("study.json", study_bytes + b"\n"),
            "manifest": (
                "manifest.json",
                (json.dumps(manifest.to_dict(), indent=2) + "\n").encode(),
            ),
        }
        if metrics is not None:
            files["metrics"] = (
                "metrics.json",
                (json.dumps(metrics.to_dict(), indent=2) + "\n").encode(),
            )
        if timelines:
            files["timelines"] = (
                "timelines.json",
                (json.dumps(
                    {
                        "format": "repro-run-timelines",
                        "version": 1,
                        "configurations": {
                            config: dict(by_policy)
                            for config, by_policy in sorted(timelines.items())
                        },
                    },
                    indent=2, sort_keys=True,
                ) + "\n").encode(),
            )
        lineage = self._code_lineage()
        lineage["seed"] = params.seed
        if baseline:
            lineage["baseline"] = baseline
        failed = getattr(cells, "failed_cells", ())
        return self._store(
            kind="study",
            command=command,
            identity=identity,
            files=files,
            lineage=lineage,
            summary={
                "cells": len(cells),
                "failed_cells": len(failed),
                "policies": sorted({policy for _, policy in cells}),
                "configurations": sorted({config for config, _ in cells}),
                "horizon": params.horizon,
                "seed": params.seed,
            },
        )

    def record_scenario(
        self,
        name: str,
        policy: str,
        records: Sequence[Mapping[str, Any]],
        command: str = "trace",
        baseline: Optional[str] = None,
    ) -> RunRecord:
        """Record one scenario replay with its full decision trace."""
        trace_bytes = b"".join(
            canonical_bytes(record) + b"\n" for record in records
        )
        lineage = self._code_lineage()
        lineage["scenario"] = name
        lineage["policy"] = policy
        if baseline:
            lineage["baseline"] = baseline
        decisions = [
            r for r in records
            if r.get("kind") in ("quorum.granted", "quorum.denied")
        ]
        denied = sum(
            1 for r in decisions if r.get("kind") == "quorum.denied"
        )
        return self._store(
            kind="scenario",
            command=command,
            identity=trace_bytes,
            files={"trace": ("trace.jsonl", trace_bytes)},
            lineage=lineage,
            summary={
                "scenario": name,
                "policy": policy,
                "records": len(records),
                "decisions": len(decisions),
                "denied": denied,
            },
        )

    def record_chaos(
        self,
        result: Any,
        command: str = "chaos",
        baseline: Optional[str] = None,
    ) -> RunRecord:
        """Record one chaos schedule run (trace, schedule, verdict).

        Lineage keeps the schedule seed — the one number that rebuilds
        the whole perturbation sequence deterministically.
        """
        summary_doc = result.to_dict()
        schedule_doc = result.schedule.to_dict()
        schedule_doc["protocol"] = result.policy
        trace_bytes = b"".join(
            canonical_bytes(record) + b"\n"
            for record in result.record_dicts()
        )
        identity = canonical_bytes(summary_doc) + b"\x00" + trace_bytes
        lineage = self._code_lineage()
        lineage["chaos_seed"] = result.schedule.seed
        lineage["config"] = result.schedule.config
        lineage["policy"] = result.policy
        if baseline:
            lineage["baseline"] = baseline
        return self._store(
            kind="chaos",
            command=command,
            identity=identity,
            files={
                "chaos": (
                    "chaos.json",
                    (json.dumps(summary_doc, indent=2) + "\n").encode(),
                ),
                "schedule": (
                    "schedule.json",
                    (json.dumps(schedule_doc, indent=2) + "\n").encode(),
                ),
                "trace": ("trace.jsonl", trace_bytes),
            },
            lineage=lineage,
            summary={
                "policy": result.policy,
                "seed": result.schedule.seed,
                "operations": result.operations,
                "granted": result.granted,
                "denied": result.denied,
                "ok": result.ok,
                "violation": (
                    None if result.violation is None
                    else getattr(result.violation, "invariant", str(result.violation))
                ),
            },
        )

    def record_bench(
        self,
        point: Mapping[str, Any],
        command: str = "bench",
        baseline: Optional[str] = None,
    ) -> RunRecord:
        """Record one benchmark trajectory point.

        Lineage keeps the point's provenance: trajectory index, source
        (quick subset vs pytest-benchmark) and the git revision stamped
        into the point itself.
        """
        from repro.obs.prof.bench import validate_point

        validate_point(point)
        identity = canonical_bytes(point)
        lineage = {
            "git_sha": point.get("git_sha"),
            "git_dirty": point.get("git_dirty"),
            "bench_index": point.get("index"),
            "source": point.get("source"),
        }
        if baseline:
            lineage["baseline"] = baseline
        medians = {
            entry["name"]: entry["median"] for entry in point["benchmarks"]
        }
        return self._store(
            kind="bench",
            command=command,
            identity=identity,
            files={
                "bench": (
                    "bench.json",
                    (json.dumps(dict(point), indent=2) + "\n").encode(),
                ),
            },
            lineage=lineage,
            summary={
                "benchmarks": len(medians),
                "source": point.get("source"),
                "index": point.get("index"),
            },
        )

    def record_profile(
        self,
        report: Mapping[str, Any],
        command: str = "profile",
        label: str = "",
    ) -> RunRecord:
        """Record one profiling report (``repro profile --record``)."""
        identity = canonical_bytes(report)
        lineage = self._code_lineage()
        if label:
            lineage["target"] = label
        hot = report.get("hot") or []
        return self._store(
            kind="profile",
            command=command,
            identity=identity,
            files={
                "profile": (
                    "profile.json",
                    (json.dumps(dict(report), indent=2) + "\n").encode(),
                ),
            },
            lineage=lineage,
            summary={
                "target": label or report.get("target"),
                "engine": report.get("engine"),
                "hottest": (hot[0].get("name") if hot else None),
            },
        )

    def record_service(
        self,
        result: Mapping[str, Any],
        command: str = "service bench",
        samples: Optional[bytes] = None,
        traces: Optional[bytes] = None,
        tsdb: Union[str, pathlib.Path, None] = None,
    ) -> RunRecord:
        """Record one replicated-service bench run.

        *result* is the ``repro-service-bench`` document; *samples* is
        the optional per-operation JSON-lines blob, stored as a sidecar
        under :data:`SAMPLES_DIR_NAME` (outside the run's identity —
        see :meth:`samples_path`); *traces* is the optional exemplar
        trace span blob, stored under :data:`TRACES_DIR_NAME` (see
        :meth:`traces_path`); *tsdb* is the optional directory of a
        scraped :class:`~repro.obs.tsdb.TimeSeriesStore`, copied whole
        under :data:`TSDB_DIR_NAME` (see :meth:`tsdb_path`).
        """
        if result.get("format") != "repro-service-bench":
            raise ConfigurationError(
                "record_service expects a repro-service-bench document, "
                f"got format={result.get('format')!r}"
            )
        identity = canonical_bytes(result)
        lineage = self._code_lineage()
        lineage["seed"] = result.get("seed")
        lineage["policies"] = sorted(result.get("policies", {}))
        totals = result.get("totals", {})
        record = self._store(
            kind="service",
            command=command,
            identity=identity,
            files={
                "service": (
                    "service.json",
                    (json.dumps(dict(result), indent=2,
                                sort_keys=True) + "\n").encode(),
                ),
            },
            lineage=lineage,
            summary={
                "policies": ",".join(sorted(result.get("policies", {}))),
                "seed": result.get("seed"),
                "replicas": result.get("replicas"),
                "operations": totals.get("operations"),
                "kills": totals.get("kills"),
                "partitions": totals.get("partitions"),
                "violations": totals.get("violations"),
                "ok": result.get("ok"),
            },
        )
        for blob, path_of, what in (
                (samples, self.samples_path, "samples"),
                (traces, self.traces_path, "traces")):
            if not blob:
                continue
            path = path_of(record.run_id)
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(blob)
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot write {what} sidecar {path}: {exc}"
                ) from exc
        if tsdb is not None:
            source = pathlib.Path(tsdb)
            destination = self.tsdb_path(record.run_id)
            try:
                if destination.exists():
                    shutil.rmtree(destination)
                destination.parent.mkdir(parents=True, exist_ok=True)
                shutil.copytree(source, destination)
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot copy tsdb sidecar {source} -> "
                    f"{destination}: {exc}"
                ) from exc
        return record

    def samples_path(self, run_id: str) -> pathlib.Path:
        """Where *run_id*'s per-operation samples sidecar lives (the
        file may not exist — not every run records samples)."""
        return self.root / SAMPLES_DIR_NAME / f"{run_id}.jsonl"

    def traces_path(self, run_id: str) -> pathlib.Path:
        """Where *run_id*'s exemplar trace span sidecar lives (the
        file may not exist — only traced service runs record one)."""
        return self.root / TRACES_DIR_NAME / f"{run_id}.jsonl"

    def tsdb_path(self, run_id: str) -> pathlib.Path:
        """Where *run_id*'s time-series store directory lives (it may
        not exist — only scraped service runs record one)."""
        return self.root / TSDB_DIR_NAME / run_id

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, run_id: str) -> RunRecord:
        """Load the record of *run_id* (exact id only).

        Raises:
            ConfigurationError: no such run under this root.
        """
        run_dir = self.root / run_id
        path = run_dir / "record.json"
        try:
            data = json.loads(path.read_text())
        except OSError:
            raise ConfigurationError(
                f"no run {run_id!r} under {self.root}"
            ) from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"run {run_id!r} has a corrupt record: {exc}"
            ) from exc
        return RunRecord.from_dict(data, path=run_dir)

    def read_index_from(
        self, offset: int = 0
    ) -> tuple[list[dict[str, Any]], int]:
        """Parse complete index lines starting at byte *offset*.

        Returns ``(records, new_offset)``, the cursor of
        :func:`repro.durable.read_json_lines`: a line still being
        appended is left for the next call.

        Raises:
            ConfigurationError: *offset* is negative or past the file,
                or a newline-terminated line fails to parse.
        """
        if offset < 0:
            raise ConfigurationError(
                f"index offset must be >= 0, got {offset}"
            )
        try:
            with self.index_path.open("rb") as handle:
                return read_json_lines(handle, offset)
        except CorruptLineError as exc:
            raise ConfigurationError(
                f"corrupt index line at byte {exc.offset} under "
                f"{self.root}: {exc}"
            ) from exc
        except OSError:
            if offset == 0:
                return [], 0
            raise ConfigurationError(
                f"no index to read at offset {offset} under {self.root}"
            ) from None

    def adopt(self, run_dir: Union[str, pathlib.Path]) -> RunRecord:
        """Copy an external run directory into this registry.

        *run_dir* is a directory holding a ``record.json`` (for example
        the committed ``results/baseline_run``).  Its artifacts are
        copied under ``<root>/<run_id>/`` and the record appended to the
        index; adopting a run that is already stored is a no-op, like
        any other recording.

        Raises:
            ConfigurationError: *run_dir* holds no readable run record,
                or an artifact it lists is missing.
        """
        source = pathlib.Path(run_dir)
        if source.name == "record.json":
            source = source.parent
        record_path = source / "record.json"
        try:
            data = json.loads(record_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"cannot adopt {run_dir}: {exc}"
            ) from exc
        record = RunRecord.from_dict(data, path=source)
        destination = self.root / record.run_id
        if (destination / "record.json").exists():
            return self._indexed(self.get(record.run_id))
        try:
            destination.mkdir(parents=True, exist_ok=True)
            for file_name in record.artifacts.values():
                shutil.copyfile(source / file_name,
                                destination / file_name)
            atomic_write(destination / "record.json",
                         record_path.read_bytes())
        except OSError as exc:
            shutil.rmtree(destination, ignore_errors=True)
            raise ConfigurationError(
                f"cannot adopt {run_dir} into {self.root}: {exc}"
            ) from exc
        self._append_index(record)
        return self.get(record.run_id)

    def list_runs(self, kind: Optional[str] = None) -> list[RunRecord]:
        """Every recorded run, oldest first (the index order).

        Runs whose directory has been deleted out from under the index
        are skipped.
        """
        runs = []
        seen: set[str] = set()
        for line in self.read_index_from(0)[0]:
            run_id = line.get("run_id")
            if not run_id or run_id in seen:
                continue
            seen.add(run_id)
            run_dir = self.root / str(run_id)
            if not (run_dir / "record.json").exists():
                continue
            try:
                record = RunRecord.from_dict(line, path=run_dir)
            except ConfigurationError:
                continue
            if kind is None or record.kind == kind:
                runs.append(record)
        return runs

    def latest(self, kind: Optional[str] = None) -> Optional[RunRecord]:
        """The most recently recorded run (of *kind*), or ``None``."""
        runs = self.list_runs(kind=kind)
        return runs[-1] if runs else None

    # ------------------------------------------------------------------
    # live sessions
    # ------------------------------------------------------------------
    def live_sessions(self) -> list[Any]:
        """Every live-telemetry session under this root, oldest first.

        A live session (:class:`~repro.obs.live.stream.LiveSession`) is
        a directory holding a ``live.json`` descriptor and a tailable
        ``live.jsonl`` event stream.  It has no ``record.json``, so the
        index-driven run listing never sees it; this scan is the one
        place live directories are discovered.
        """
        from repro.obs.live.stream import LIVE_DESCRIPTOR_NAME, LiveSession

        sessions = []
        try:
            children = sorted(self.root.iterdir())
        except OSError:
            return []
        for child in children:
            if child.name == CACHE_DIR_NAME:
                continue
            if not (child / LIVE_DESCRIPTOR_NAME).is_file():
                continue
            try:
                sessions.append(LiveSession.load(child))
            except ConfigurationError:
                continue
        sessions.sort(
            key=lambda session: str(session.descriptor.get("started_at", ""))
        )
        return sessions

    def latest_live(self) -> Optional[Any]:
        """The most recently started live session, preferring one that
        is still running; ``None`` when there are none."""
        sessions = self.live_sessions()
        if not sessions:
            return None
        running = [s for s in sessions if s.status == "running"]
        return (running or sessions)[-1]

    def resolve_live(self, token: str) -> Any:
        """Resolve *token* to one live session.

        Accepted forms: the literal ``latest`` (running sessions win);
        an exact live id; a unique id prefix of at least 4 characters;
        or the ``run_id`` a finished session was recorded as.

        Raises:
            ConfigurationError: nothing (or more than one) matches.
        """
        if token == "latest":
            session = self.latest_live()
            if session is None:
                raise ConfigurationError(
                    f"no live sessions under {self.root}"
                )
            return session
        wanted = token.lower()
        sessions = self.live_sessions()
        matches = [
            session for session in sessions
            if session.live_id == wanted
            or str(session.descriptor.get("run_id", "")) == wanted
        ]
        if not matches and len(wanted) >= _MIN_PREFIX:
            matches = [
                session for session in sessions
                if session.live_id.startswith(wanted)
            ]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            ids = ", ".join(session.live_id for session in matches)
            raise ConfigurationError(
                f"live session prefix {token!r} is ambiguous: {ids}"
            )
        raise ConfigurationError(
            f"no live session matches {token!r} under {self.root}"
        )

    def resolve(self, token: str) -> RunRecord:
        """Resolve *token* to one run.

        Accepted forms, in order: the literal ``latest``; a path to a
        run directory (or its ``record.json``) — which is how CI diffs
        against a baseline run committed outside the registry; an exact
        run id; a unique id prefix of at least 4 characters.

        Raises:
            ConfigurationError: nothing (or more than one run) matches.
        """
        if token == "latest":
            record = self.latest()
            if record is None:
                raise ConfigurationError(
                    f"no runs recorded under {self.root}"
                )
            return record
        as_path = pathlib.Path(token)
        if as_path.name == "record.json" and as_path.is_file():
            as_path = as_path.parent
        if (as_path / "record.json").is_file():
            try:
                data = json.loads((as_path / "record.json").read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigurationError(
                    f"cannot read run record at {as_path}: {exc}"
                ) from exc
            return RunRecord.from_dict(data, path=as_path)
        if (self.root / token / "record.json").is_file():
            return self.get(token)
        if len(token) >= _MIN_PREFIX:
            matches = [
                record for record in self.list_runs()
                if record.run_id.startswith(token)
            ]
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                ids = ", ".join(record.run_id for record in matches)
                raise ConfigurationError(
                    f"run prefix {token!r} is ambiguous: {ids}"
                )
        raise ConfigurationError(
            f"no run matches {token!r} under {self.root} "
            "(give a run id, a unique prefix, a run directory path, "
            "or 'latest')"
        )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def gc(
        self,
        keep_last: Optional[int] = None,
        kinds: Optional[Iterable[str]] = None,
        dry_run: bool = False,
    ) -> list[RunRecord]:
        """Prune old runs; returns the records that were (or would be)
        deleted.

        *keep_last* keeps the N most recently recorded runs (per the
        index order); *kinds* restricts deletion to those run kinds.
        ``gc`` is the one operation that compacts the append-only index
        — survivors are rewritten in their original order.
        """
        if keep_last is not None and keep_last < 0:
            raise ConfigurationError(
                f"keep-last must be >= 0, got {keep_last}"
            )
        runs = self.list_runs()
        kind_set = set(kinds) if kinds is not None else None
        candidates = [
            record for record in runs
            if kind_set is None or record.kind in kind_set
        ]
        keep = keep_last if keep_last is not None else 0
        doomed = candidates[: max(0, len(candidates) - keep)]
        if dry_run:
            return doomed
        if doomed:
            doomed_ids = {record.run_id for record in doomed}
            for record in doomed:
                shutil.rmtree(self.root / record.run_id,
                              ignore_errors=True)
            survivors = [r for r in runs if r.run_id not in doomed_ids]
            try:
                atomic_write(self.index_path, b"".join(
                    json_line(record.to_dict()) for record in survivors))
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot rewrite index under {self.root}: {exc}"
                ) from exc
            # Compaction is the one move that breaks the append-only
            # cursor contract, so derived summaries must be rebuilt
            # from scratch.
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        # Finished live sessions are derived data too: their streams
        # were either recorded (run_id stamped) or abandoned.  Running
        # ones are left alone — another process may still be writing.
        for session in self.live_sessions():
            if session.status != "running":
                shutil.rmtree(session.path, ignore_errors=True)
        # Sidecars follow their run the same way: once the run is gone
        # from the index, the (large) per-operation sample and trace
        # files are orphans and go with it.
        alive: Optional[set[str]] = None
        for dir_name in (SAMPLES_DIR_NAME, TRACES_DIR_NAME):
            sidecar_dir = self.root / dir_name
            if not sidecar_dir.is_dir():
                continue
            if alive is None:
                alive = {record.run_id for record in self.list_runs()}
            for sidecar in sidecar_dir.glob("*.jsonl"):
                if sidecar.stem not in alive:
                    try:
                        sidecar.unlink()
                    except OSError:
                        pass
        # Time-series sidecars are whole directories, one per run id.
        tsdb_dir = self.root / TSDB_DIR_NAME
        if tsdb_dir.is_dir():
            if alive is None:
                alive = {record.run_id for record in self.list_runs()}
            for child in tsdb_dir.iterdir():
                if child.is_dir() and child.name not in alive:
                    shutil.rmtree(child, ignore_errors=True)
        return doomed
