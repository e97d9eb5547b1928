"""Unit tests for the content-addressed run registry and run diffing."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.configs import CONFIGURATIONS
from repro.experiments.runner import StudyParameters, run_study
from repro.obs.registry import (
    RunRegistry,
    diff_runs,
    format_diff,
)


@pytest.fixture(scope="module")
def params():
    return StudyParameters(horizon=2000.0, warmup=360.0, batches=2, seed=11)


@pytest.fixture(scope="module")
def cells(params):
    return run_study(
        params,
        configurations=[CONFIGURATIONS["A"]],
        policies=("MCV", "LDV"),
        capture_timelines=True,
    )


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(tmp_path / "runs")


def _record(registry, cells, params, **kwargs):
    return registry.record_study(
        cells, params, ("MCV", "LDV"), ("A",), command="study", **kwargs
    )


class TestRecording:
    def test_record_study_persists_everything(self, registry, cells, params):
        record = _record(registry, cells, params, timelines=cells.timelines)
        assert record.kind == "study"
        assert len(record.run_id) == 16
        assert record.path.is_dir()
        assert (record.path / "record.json").is_file()
        study = record.load_json("study")
        assert study["format"] == "repro-study"
        timelines = record.load_json("timelines")
        assert "A" in timelines["configurations"]
        manifest = record.load_json("manifest")
        assert manifest["seed"] == 11

    def test_identical_study_is_idempotent(self, registry, cells, params):
        first = _record(registry, cells, params)
        second = _record(registry, cells, params)
        assert first.run_id == second.run_id
        assert len(registry.list_runs()) == 1
        index_lines = [
            line
            for line in (registry.root / "index.jsonl").read_text().splitlines()
            if line.strip()
        ]
        assert len(index_lines) == 1

    def test_different_seed_changes_the_id(self, registry, cells, params):
        first = _record(registry, cells, params)
        other_params = StudyParameters(
            horizon=2000.0, warmup=360.0, batches=2, seed=12
        )
        second = _record(registry, cells, other_params)
        assert first.run_id != second.run_id
        assert len(registry.list_runs()) == 2

    def test_load_study_cells_round_trips(self, registry, cells, params):
        record = _record(registry, cells, params)
        loaded = record.load_study_cells()
        assert set(loaded) == set(cells)
        for key in cells:
            assert loaded[key].unavailability == cells[key].unavailability


class TestResolve:
    def test_by_exact_id_prefix_and_latest(self, registry, cells, params):
        record = _record(registry, cells, params)
        assert registry.resolve(record.run_id).run_id == record.run_id
        assert registry.resolve(record.run_id[:6]).run_id == record.run_id
        assert registry.resolve("latest").run_id == record.run_id

    def test_by_run_directory_path(self, registry, cells, params):
        record = _record(registry, cells, params)
        assert registry.resolve(str(record.path)).run_id == record.run_id
        assert (registry.resolve(str(record.path / "record.json")).run_id
                == record.run_id)

    def test_unknown_token_raises(self, registry):
        with pytest.raises(ConfigurationError):
            registry.resolve("doesnotexist")
        with pytest.raises(ConfigurationError):
            registry.resolve("latest")

    def test_short_prefix_raises(self, registry, cells, params):
        record = _record(registry, cells, params)
        with pytest.raises(ConfigurationError):
            registry.resolve(record.run_id[:2])


class TestGc:
    def test_keeps_the_newest_runs(self, registry, cells, params):
        ids = []
        for seed in (1, 2, 3):
            p = StudyParameters(
                horizon=2000.0, warmup=360.0, batches=2, seed=seed
            )
            ids.append(_record(registry, cells, p).run_id)
        doomed = registry.gc(keep_last=2)
        assert [record.run_id for record in doomed] == [ids[0]]
        remaining = {record.run_id for record in registry.list_runs()}
        assert remaining == set(ids[1:])
        assert not (registry.root / ids[0]).exists()

    def test_dry_run_deletes_nothing(self, registry, cells, params):
        _record(registry, cells, params)
        doomed = registry.gc(keep_last=0, dry_run=True)
        assert len(doomed) == 1
        assert len(registry.list_runs()) == 1


class TestDiff:
    def test_identical_runs_have_no_regressions(self, registry, cells, params):
        record = _record(registry, cells, params)
        diff = diff_runs(record, record)
        assert diff.ok
        assert not diff.regressions
        assert len(diff.cells) == 2
        assert all(cell.verdict == "within-noise" for cell in diff.cells)

    def test_injected_regression_is_flagged(self, registry, cells, params):
        record = _record(registry, cells, params)
        degraded_dir = registry.root / "degraded"
        degraded_dir.mkdir()
        for name in ("record.json", "study.json", "manifest.json"):
            source = record.path / name
            if source.exists():
                degraded_dir.joinpath(name).write_bytes(source.read_bytes())
        study = json.loads((degraded_dir / "study.json").read_text())
        for cell in study["cells"]:
            cell["unavailability"] = cell["unavailability"] * 10 + 0.2
        (degraded_dir / "study.json").write_text(json.dumps(study))
        degraded = registry.resolve(str(degraded_dir))
        diff = diff_runs(record, degraded)
        assert not diff.ok
        assert diff.regressions
        text = format_diff(diff)
        assert "!" in text

    def test_thresholds_are_validated(self, registry, cells, params):
        record = _record(registry, cells, params)
        with pytest.raises(ConfigurationError):
            diff_runs(record, record, max_regression=-0.1)
        with pytest.raises(ConfigurationError):
            diff_runs(record, record, noise_factor=-1.0)

    def test_to_dict_is_json_serialisable(self, registry, cells, params):
        record = _record(registry, cells, params)
        document = diff_runs(record, record).to_dict()
        json.dumps(document)
        assert document["format"] == "repro-run-diff"


class TestIndexCursor:
    def test_position_tracks_index_bytes(self, registry, cells, params):
        assert registry.index_position() == 0
        _record(registry, cells, params)
        position = registry.index_position()
        assert position == registry.index_path.stat().st_size
        assert position > 0

    def test_read_from_offset_returns_only_the_tail(
        self, registry, cells, params
    ):
        first = _record(registry, cells, params)
        cursor = registry.index_position()
        other = StudyParameters(
            horizon=2000.0, warmup=360.0, batches=2, seed=12
        )
        second = _record(registry, cells, other)
        entries, new_cursor = registry.read_index_from(cursor)
        assert [entry["run_id"] for entry in entries] == [second.run_id]
        assert first.run_id not in {e["run_id"] for e in entries}
        assert new_cursor == registry.index_position()
        # fully caught up: nothing more to read
        assert registry.read_index_from(new_cursor) == ([], new_cursor)

    def test_torn_final_line_is_left_unconsumed(
        self, registry, cells, params
    ):
        _record(registry, cells, params)
        cursor = registry.index_position()
        with registry.index_path.open("a") as handle:
            handle.write('{"run_id": "feedc0de00000000", "kind": "stu')
        entries, new_cursor = registry.read_index_from(cursor)
        assert entries == []
        assert new_cursor == cursor
        with registry.index_path.open("a") as handle:
            handle.write('dy", "summary": {}}\n')
        entries, _ = registry.read_index_from(cursor)
        assert [e["run_id"] for e in entries] == ["feedc0de00000000"]

    def test_complete_corrupt_line_raises(self, registry, cells, params):
        _record(registry, cells, params)
        with registry.index_path.open("a") as handle:
            handle.write("not json at all\n")
        with pytest.raises(ConfigurationError, match="corrupt index"):
            registry.read_index_from(0)

    def test_recording_after_a_torn_index_line_lists_every_run(
        self, registry, cells, params
    ):
        """Regression: the next append completed the torn fragment into
        a corrupt line, which hid the run and, once another line
        followed, made every listing raise."""
        first = _record(registry, cells, params)
        with registry.index_path.open("a") as handle:
            handle.write('{"run_id": "feedc0de00000000", "ki')  # killed
        later = [
            _record(registry, cells, StudyParameters(
                horizon=2000.0, warmup=360.0, batches=2, seed=seed))
            for seed in (12, 13)
        ]
        assert [r.run_id for r in registry.list_runs()] == \
            [first.run_id] + [r.run_id for r in later]
        entries, _ = registry.read_index_from(0)
        assert len(entries) == 3

    def test_kill_between_record_and_index_is_repaired(
        self, registry, cells, params
    ):
        """Regression: a run whose ``record.json`` landed but whose
        index line did not was never listed, and recording it again
        was a no-op."""
        record = _record(registry, cells, params)
        registry.index_path.write_text("")  # the index append never ran
        assert registry.list_runs() == []
        assert _record(registry, cells, params).run_id == record.run_id
        assert [r.run_id for r in registry.list_runs()] == [record.run_id]
        _record(registry, cells, params)  # and only once
        assert len(registry.read_index_from(0)[0]) == 1

    def test_re_recording_ignores_a_corrupt_index_line(
        self, registry, cells, params
    ):
        record = _record(registry, cells, params)
        with registry.index_path.open("a") as handle:
            handle.write("not json\n")
        before = registry.index_path.read_bytes()
        assert _record(registry, cells, params).run_id == record.run_id
        assert registry.index_path.read_bytes() == before

    def test_offset_validation(self, registry):
        with pytest.raises(ConfigurationError):
            registry.read_index_from(-1)
        # offset past a missing index is an error; zero is fine
        assert registry.read_index_from(0) == ([], 0)
        with pytest.raises(ConfigurationError):
            registry.read_index_from(10)


class TestAdopt:
    def test_adopt_copies_record_and_artifacts(
        self, registry, cells, params, tmp_path
    ):
        origin = RunRegistry(tmp_path / "origin")
        record = origin.record_study(
            cells, params, ("MCV", "LDV"), ("A",), command="study"
        )
        adopted = registry.adopt(record.path)
        assert adopted.run_id == record.run_id
        assert adopted.path == registry.root / record.run_id
        assert (adopted.path / "record.json").is_file()
        for file_name in record.artifacts.values():
            assert (adopted.path / file_name).is_file()
        listed = {r.run_id for r in registry.list_runs()}
        assert record.run_id in listed

    def test_adopt_is_idempotent(self, registry, cells, params, tmp_path):
        origin = RunRegistry(tmp_path / "origin")
        record = origin.record_study(
            cells, params, ("MCV", "LDV"), ("A",), command="study"
        )
        registry.adopt(record.path)
        cursor = registry.index_position()
        registry.adopt(record.path)
        assert registry.index_position() == cursor

    def test_adopt_rejects_non_run_directories(self, registry, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot adopt"):
            registry.adopt(tmp_path / "nowhere")


class TestGcCacheInvalidation:
    def test_gc_drops_the_summary_cache(self, registry, cells, params):
        _record(registry, cells, params)
        registry.cache_dir.mkdir(parents=True, exist_ok=True)
        stale = registry.cache_dir / "summaries.json"
        stale.write_text("{}")
        registry.gc(keep_last=0)
        assert not stale.exists()

    def test_dry_run_keeps_the_summary_cache(self, registry, cells, params):
        _record(registry, cells, params)
        registry.cache_dir.mkdir(parents=True, exist_ok=True)
        stale = registry.cache_dir / "summaries.json"
        stale.write_text("{}")
        registry.gc(keep_last=0, dry_run=True)
        assert stale.exists()


def _service_document(seed=1988, ok=True):
    return {
        "format": "repro-service-bench",
        "version": 1,
        "seed": seed,
        "duration": 2.0,
        "replicas": 3,
        "workers": 2,
        "write_ratio": 0.5,
        "fsync": "never",
        "policies": {"ODV": {"policy": "ODV", "ok": ok,
                             "violations": [], "recovered": True}},
        "ok": ok,
        "totals": {"operations": 42, "violations": 0,
                   "kills": 2, "partitions": 1},
    }


class TestServiceRuns:
    def test_record_service_round_trips(self, registry):
        record = registry.record_service(_service_document(),
                                         samples=b'{"op": "get"}\n')
        assert record.kind == "service"
        stored = record.load_json("service")
        assert stored["format"] == "repro-service-bench"
        assert stored["totals"]["operations"] == 42
        summary = record.summary
        assert summary["policies"] == "ODV"
        assert summary["seed"] == 1988
        assert summary["replicas"] == 3
        assert summary["kills"] == 2
        assert summary["partitions"] == 1
        assert summary["violations"] == 0
        assert summary["ok"] is True

    def test_wrong_format_rejected(self, registry):
        with pytest.raises(ConfigurationError):
            registry.record_service({"format": "repro-study"})

    def test_samples_sidecar_sits_outside_the_run_identity(self, registry):
        with_samples = registry.record_service(
            _service_document(), samples=b'{"op": "get"}\n')
        sidecar = registry.samples_path(with_samples.run_id)
        assert sidecar.parent == registry.root / ".samples"
        assert sidecar.read_bytes() == b'{"op": "get"}\n'
        # Identity hashes the document only: recording the same
        # document without samples resolves to the same run.
        again = registry.record_service(_service_document())
        assert again.run_id == with_samples.run_id

    def test_traces_sidecar_round_trips(self, registry):
        span = b'{"trace": "a" * 16, "span": "b", "proc": "site-1"}\n'
        record = registry.record_service(_service_document(),
                                         samples=b'{"op": "get"}\n',
                                         traces=span)
        sidecar = registry.traces_path(record.run_id)
        assert sidecar.parent == registry.root / ".traces"
        assert sidecar.read_bytes() == span
        # Like samples, traces sit outside the run identity.
        again = registry.record_service(_service_document())
        assert again.run_id == record.run_id

    def test_tsdb_sidecar_is_copied_into_the_registry(
            self, registry, tmp_path):
        from repro.obs.tsdb import TimeSeriesStore

        source = tmp_path / "bench-tsdb"
        with TimeSeriesStore(source) as store:
            store.append({"format": "repro-tsdb-batch", "version": 1,
                          "at": 1.0, "target": "site-1", "labels": {},
                          "series": [{"name": "scrape.up", "labels": {},
                                      "type": "gauge", "value": 1.0}]})
        record = registry.record_service(_service_document(),
                                         samples=b'{"op": "get"}\n',
                                         tsdb=source)
        sidecar = registry.tsdb_path(record.run_id)
        assert sidecar.parent == registry.root / ".tsdb"
        copied = TimeSeriesStore(sidecar)
        [sample] = list(copied.samples())
        assert sample.name == "scrape.up"
        assert sample.labels["target"] == "site-1"
        # Like samples/traces, the tsdb sits outside the run identity.
        again = registry.record_service(_service_document())
        assert again.run_id == record.run_id

    def test_missing_tsdb_source_is_rejected(self, registry, tmp_path):
        with pytest.raises(ConfigurationError):
            registry.record_service(_service_document(),
                                    tsdb=tmp_path / "nope")

    def test_gc_prunes_orphaned_tsdb_directories(self, registry, tmp_path):
        from repro.obs.tsdb import TimeSeriesStore

        source = tmp_path / "bench-tsdb"
        with TimeSeriesStore(source) as store:
            store.append({"format": "repro-tsdb-batch", "version": 1,
                          "at": 1.0, "target": "site-1", "labels": {},
                          "series": []})
        doomed = registry.record_service(_service_document(seed=1),
                                         tsdb=source)
        kept = registry.record_service(_service_document(seed=2),
                                       tsdb=source)
        registry.gc(keep_last=1)
        assert not registry.tsdb_path(doomed.run_id).exists()
        assert registry.tsdb_path(kept.run_id).is_dir()

    def test_gc_prunes_orphaned_sidecars_and_keeps_live_ones(self, registry):
        doomed = registry.record_service(_service_document(seed=1),
                                         samples=b"old\n",
                                         traces=b"old-trace\n")
        kept = registry.record_service(_service_document(seed=2),
                                       samples=b"new\n",
                                       traces=b"new-trace\n")
        registry.gc(keep_last=1)
        assert not registry.samples_path(doomed.run_id).exists()
        assert not registry.traces_path(doomed.run_id).exists()
        assert registry.samples_path(kept.run_id).read_bytes() == b"new\n"
        assert registry.traces_path(kept.run_id).read_bytes() \
            == b"new-trace\n"

    def test_gc_dry_run_leaves_sidecars_alone(self, registry):
        record = registry.record_service(_service_document(),
                                         samples=b"keep\n")
        registry.gc(keep_last=0, dry_run=True)
        assert registry.samples_path(record.run_id).exists()

    def test_report_renders_a_service_section(self, registry):
        from repro.obs.report import render_report

        record = registry.record_service(_service_document())
        html = render_report([record])
        assert "service survived" in html
        assert "ODV" in html
