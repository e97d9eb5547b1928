"""Integration tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

FAST = ["--horizon", "1500", "--warmup", "100", "--batches", "2"]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_testbed(self, capsys):
        assert main(["testbed"]) == 0
        out = capsys.readouterr().out
        assert "csvax" in out and "Table 1" in out

    def test_demo_replays_the_paper_example(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "o=8" in out          # after seven writes
        assert "P={A}" in out        # A alone is the majority
        assert "available: True" in out

    def test_demo_epilogue_shows_the_denied_read(self, capsys):
        """Section 2's cautionary half: B restarting alone is refused."""
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "read at B -> DENIED" in out
        assert "fewer than half of the previous partition set" in out

    def test_trace(self, capsys):
        assert main(["trace", "--horizon", "2000"]) == 0
        out = capsys.readouterr().out
        assert "beowulf" in out

    def test_table2_comparison(self, capsys):
        assert main(["table2", *FAST]) == 0
        out = capsys.readouterr().out
        assert "(paper)" in out and "(ours)" in out
        assert "A: 1, 2, 4" in out

    def test_table3_plain(self, capsys):
        assert main(["table3", *FAST, "--no-compare"]) == 0
        out = capsys.readouterr().out
        assert "Mean Duration" in out

    def test_study_prints_both_tables(self, capsys):
        assert main(["study", *FAST, "--no-compare"]) == 0
        out = capsys.readouterr().out
        assert "Unavailabilities" in out and "Mean Duration" in out

    def test_sweep(self, capsys):
        assert main(["sweep", *FAST, "--config", "A",
                     "--rates", "0.5,2"]) == 0
        out = capsys.readouterr().out
        assert "ODV" in out and "OTDV" in out

    def test_placement(self, capsys):
        assert main(["placement", *FAST, "--copies", "2",
                     "--policy", "MCV", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Best placements" in out

    def test_overhead(self, capsys):
        assert main(["overhead", "--days", "60", "--config", "A"]) == 0
        out = capsys.readouterr().out
        assert "msgs/day" in out and "OTDV" in out

    def test_trace_save(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["trace", "--horizon", "500", "--save", str(path)]) == 0
        from repro.failures import load_trace

        assert load_trace(path).horizon == 500.0

    def test_scenario_command(self, capsys):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        path = root / "examples" / "scenarios" / "configuration_h_split.json"
        assert main(["scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "DENIED" in out             # the minority-side read
        assert "'after the split'" in out  # the reunited read

    def test_validate(self, capsys):
        assert main(["validate", "--horizon", "8000"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "enumeration" in out

    def test_table2_intervals_flag(self, capsys):
        assert main(["table2", *FAST, "--no-compare", "--intervals"]) == 0
        out = capsys.readouterr().out
        assert "confidence intervals" in out and "±" in out


class TestObservability:
    def _scenario_path(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        return root / "examples" / "scenarios" / "configuration_h_split.json"

    def test_trace_scenario_to_file(self, tmp_path):
        from repro.obs.tracer import read_jsonl

        out_path = tmp_path / "trace.jsonl"
        assert main(["trace", str(self._scenario_path()),
                     "--out", str(out_path)]) == 0
        records = read_jsonl(out_path)
        assert records, "trace file must not be empty"
        kinds = {r["kind"] for r in records}
        assert "scenario.step" in kinds
        assert "quorum.granted" in kinds
        assert "op.write" in kinds
        # Sequence numbers are the emission order.
        assert [r["seq"] for r in records] == list(range(len(records)))
        # Every scenario record carries the scenario name as bound context.
        assert all(
            r["scenario"] == "configuration H: gateway 5 splits the pairs"
            for r in records
        )

    def test_trace_scenario_to_stdout(self, capsys):
        import json

        assert main(["trace", str(self._scenario_path())]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert all("kind" in json.loads(line) for line in lines)

    def test_trace_scenario_missing_file_fails(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "nope.json")]) != 0

    def test_study_metrics_out(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert main(["study", *FAST, "--no-compare",
                     "--metrics-out", str(path)]) == 0
        dump = json.loads(path.read_text())
        manifest = dump["manifest"]
        assert manifest["format"] == "repro-manifest"
        assert manifest["command"] == "study"
        assert manifest["horizon"] == 1500.0
        assert manifest["wall_clock_seconds"] > 0.0
        assert len(manifest["cell_seconds"]) == 8 * 6  # configs × policies
        metrics = dump["metrics"]
        assert metrics["format"] == "repro-metrics"
        names = {entry["name"] for entry in metrics["series"]}
        assert "cell.seconds" in names
        assert "quorum.granted" in names

    def test_validate_metrics_out(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert main(["validate", "--horizon", "8000",
                     "--metrics-out", str(path)]) == 0
        dump = json.loads(path.read_text())
        assert dump["manifest"]["command"] == "validate"
        assert dump["manifest"]["extra"]["failures"] == 0

    def test_study_progress_flag(self, capsys):
        assert main(["study", *FAST, "--no-compare", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "progress: 48/48 cells (100%)" in err

    def test_log_level_flag(self, capsys):
        import logging

        logger = logging.getLogger("repro")
        saved_level, saved_handlers = logger.level, list(logger.handlers)
        try:
            assert main(["--log-level", "info", "testbed"]) == 0
            assert logger.level == logging.INFO
        finally:
            logger.level = saved_level
            logger.handlers = saved_handlers

    def test_bad_log_level_rejected(self):
        with pytest.raises(SystemExit):
            main(["--log-level", "loud", "testbed"])


class TestAnalyze:
    """The ``repro analyze`` family over real scenario traces."""

    def _scenario(self, name):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        return root / "examples" / "scenarios" / name

    @pytest.fixture()
    def h_split_trace(self, tmp_path, capsys):
        path = tmp_path / "h_split.jsonl"
        assert main(["trace", str(self._scenario("configuration_h_split.json")),
                     "--out", str(path)]) == 0
        capsys.readouterr()  # swallow the trace command's own output
        return path

    def test_summary(self, h_split_trace, capsys):
        assert main(["analyze", "summary", str(h_split_trace)]) == 0
        out = capsys.readouterr().out
        assert "35 records" in out
        assert "quorum.granted" in out
        assert "denial rate" in out

    def test_summary_json_out(self, h_split_trace, capsys, tmp_path):
        import json

        dest = tmp_path / "summary.json"
        assert main(["analyze", "summary", str(h_split_trace),
                     "--json-out", str(dest)]) == 0
        payload = json.loads(dest.read_text())
        assert payload["format"] == "repro-trace-summary"
        assert payload["quorum"]["denied"] == 1

    def test_timeline(self, h_split_trace, capsys):
        assert main(["analyze", "timeline", str(h_split_trace)]) == 0
        out = capsys.readouterr().out
        assert "LDV" in out and "unavailability" in out
        assert "unavailable spans" in out

    def test_timeline_unknown_policy_fails(self, h_split_trace, capsys):
        assert main(["analyze", "timeline", str(h_split_trace),
                     "--policy", "MCV"]) == 2
        assert "no decisions by 'MCV'" in capsys.readouterr().err

    def test_audit_explains_the_lost_tiebreak(self, h_split_trace, capsys):
        assert main(["analyze", "audit", str(h_split_trace)]) == 0
        out = capsys.readouterr().out
        assert "lost-tiebreak" in out
        assert "Jajodia" in out

    def test_audit_json_out(self, h_split_trace, capsys, tmp_path):
        import json

        dest = tmp_path / "audit.json"
        assert main(["analyze", "audit", str(h_split_trace),
                     "--json-out", str(dest)]) == 0
        payload = json.loads(dest.read_text())
        assert payload["denials"] == 1
        assert payload["by_rule"] == {"lost-tiebreak": 1}
        assert payload["explanations"][0]["explanation"]

    def test_diff_scenario_mode_finds_the_divergence(self, capsys):
        assert main([
            "analyze", "diff",
            "--scenario",
            str(self._scenario("configuration_h_double_fault.json")),
            "--policies", "ODV,OTDV",
        ]) == 0
        out = capsys.readouterr().out
        assert "ODV vs OTDV" in out
        assert "first divergence at position 3" in out
        assert "DENIED" in out and "GRANTED" in out
        assert "carried topologically" in out

    def test_diff_two_trace_files(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        scenario = str(self._scenario("configuration_h_split.json"))
        assert main(["trace", scenario, "--out", str(a)]) == 0
        assert main(["trace", scenario, "--out", str(b)]) == 0
        capsys.readouterr()
        assert main(["analyze", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "agree" in out
        assert "the protocols agree on every aligned decision" in out

    def test_diff_needs_two_traces_or_a_scenario(self, capsys):
        assert main(["analyze", "diff"]) == 2
        assert "two JSONL traces" in capsys.readouterr().err

    def test_diff_json_out(self, tmp_path, capsys):
        import json

        dest = tmp_path / "diff.json"
        assert main([
            "analyze", "diff",
            "--scenario",
            str(self._scenario("configuration_h_double_fault.json")),
            "--json-out", str(dest),
        ]) == 0
        payload = json.loads(dest.read_text())
        assert payload["format"] == "repro-trace-diff"
        assert payload["policies"] == ["ODV", "OTDV"]
        assert payload["first_divergence"]["position"] == 3.0
        assert payload["first_divergence"]["b"]["votes_carried"] == [2]

    def test_analyze_missing_trace_fails(self, tmp_path, capsys):
        assert main(["analyze", "summary",
                     str(tmp_path / "nope.jsonl")]) == 2
        assert "no trace file" in capsys.readouterr().err

    def test_diff_unknown_policy_fails_before_replay(self, capsys):
        assert main([
            "analyze", "diff",
            "--scenario",
            str(self._scenario("configuration_h_split.json")),
            "--policies", "LDV,NOPE",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown policy 'NOPE'" in err
        assert "replaying" not in err  # rejected before any work

    def test_unwritable_json_out_fails_fast(self, h_split_trace, capsys):
        assert main(["analyze", "summary", str(h_split_trace),
                     "--json-out", "/no/such/dir/out.json"]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestChaos:
    """The ``repro chaos`` family: fuzzing with the monitor on."""

    def test_run_correct_protocol_is_clean(self, capsys):
        assert main(["chaos", "run", "--policy", "LDV", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "chaos run: policy LDV, seed 0" in out
        assert "every safety invariant held" in out

    def test_run_broken_protocol_reports_the_violation(self, capsys):
        assert main(["chaos", "run", "--policy", "BROKEN-TIE",
                     "--seed", "3"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        assert "first divergence from the LDV" in out
        assert "GRANTED" in out and "DENIED" in out

    def test_run_writes_trace_and_schedule(self, tmp_path, capsys):
        import json

        trace = tmp_path / "chaos.jsonl"
        schedule = tmp_path / "schedule.json"
        summary = tmp_path / "run.json"
        assert main(["chaos", "run", "--policy", "TDV", "--seed", "1",
                     "--out", str(trace),
                     "--save-schedule", str(schedule),
                     "--json-out", str(summary)]) == 0
        records = [json.loads(line) for line in
                   trace.read_text().splitlines()]
        assert any(r["kind"] == "chaos.fault" for r in records)
        assert json.loads(schedule.read_text())["format"] == \
            "repro-chaos-schedule"
        payload = json.loads(summary.read_text())
        assert payload["ok"] is True
        assert payload["policy"] == "TDV"

    def test_replay_from_schedule_file_reproduces(self, tmp_path, capsys):
        import json

        schedule = tmp_path / "schedule.json"
        assert main(["chaos", "run", "--policy", "BROKEN-TIE",
                     "--seed", "3",
                     "--save-schedule", str(schedule)]) == 1
        first = capsys.readouterr().out
        # The file records the protocol under test, so replay needs no
        # --policy to reproduce the violation.
        assert json.loads(schedule.read_text())["protocol"] == "BROKEN-TIE"
        assert main(["chaos", "replay", "--schedule", str(schedule)]) == 1
        second = capsys.readouterr().out
        # Same violation line, deterministically.
        line = next(l for l in first.splitlines() if "VIOLATION" in l)
        assert line in second
        # An explicit --policy overrides the recorded one.
        assert main(["chaos", "replay", "--schedule", str(schedule),
                     "--policy", "LDV"]) == 0
        assert "no invariant violation reproduced" in \
            capsys.readouterr().out

    def test_replay_from_seed(self, capsys):
        assert main(["chaos", "replay", "--seed", "3",
                     "--policy", "BROKEN-TIE"]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_replay_needs_schedule_or_seed(self, capsys):
        assert main(["chaos", "replay"]) == 2
        assert "--schedule FILE or --seed N" in capsys.readouterr().err

    def test_unknown_chaos_policy_fails(self, capsys):
        assert main(["chaos", "run", "--policy", "NOPE"]) == 2
        assert "unknown chaos policy" in capsys.readouterr().err

    def test_sweep_small_clean(self, capsys, tmp_path):
        import json

        dest = tmp_path / "sweep.json"
        assert main(["chaos", "sweep", "--seeds", "2",
                     "--policies", "LDV,TDV",
                     "--json-out", str(dest)]) == 0
        out = capsys.readouterr().out
        assert "0 invariant violations" in out
        payload = json.loads(dest.read_text())
        assert payload["total_runs"] == 4
        assert payload["total_violations"] == 0

    def test_sweep_flags_the_broken_protocol(self, capsys):
        assert main(["chaos", "sweep", "--seeds", "1",
                     "--policies", "LDV,BROKEN-TIE"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out


class TestProfile:
    def _scenario_path(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        return root / "examples" / "scenarios" / "configuration_h_split.json"

    def test_profile_scenario_with_exports(self, capsys, tmp_path):
        import json
        import re

        collapsed = tmp_path / "stacks.folded"
        report = tmp_path / "profile.json"
        assert main(["profile", "scenario", str(self._scenario_path()),
                     "--collapsed", str(collapsed),
                     "--json-out", str(report), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "profiled scenario:" in out
        assert "phase breakdown" in out
        # Every collapsed line must render in flamegraph tooling.
        line_re = re.compile(r"^[^ ;]+(;[^ ;]+)* \d+$")
        lines = collapsed.read_text().splitlines()
        assert lines
        for line in lines:
            assert line_re.match(line), line
        payload = json.loads(report.read_text())
        assert payload["format"] == "repro-profile"
        assert payload["engine"] == "cprofile"
        assert payload["phases"]["phases"]

    def test_profile_scenario_policy_override(self, capsys):
        assert main(["profile", "scenario", str(self._scenario_path()),
                     "--policy", "TDV", "--top", "3"]) == 0
        assert "(TDV)" in capsys.readouterr().out

    def test_profile_study_small(self, capsys):
        assert main(["profile", "study", "--horizon", "1200",
                     "--configs", "A", "--policies", "MCV",
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "study/cell/replay" in out
        assert "events/s" not in out or "kernel" in out

    def test_profile_study_unknown_policy_fails(self, capsys):
        assert main(["profile", "study", "--policies", "NOPE"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_profile_chaos(self, capsys):
        assert main(["profile", "chaos", "--seed", "1",
                     "--policy", "LDV", "--steps", "30",
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "profiled chaos:" in out
        # Engine hot-path counters flow through the attached profiler.
        assert "engine." in out

    def test_profile_report_to_file(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        assert main(["profile", "chaos", "--steps", "20",
                     "--out", str(report)]) == 0
        assert "profiled chaos:" in report.read_text()
        assert "profiled chaos:" not in capsys.readouterr().out

    def test_profile_bad_interval_fails(self, capsys):
        assert main(["profile", "chaos", "--steps", "10",
                     "--interval", "0"]) == 2
        assert "--interval" in capsys.readouterr().err

    def test_profile_collapsed_unwritable_fails_fast(self, capsys,
                                                     tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "stacks.folded"
        assert main(["profile", "chaos", "--steps", "10",
                     "--collapsed", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestBench:
    def _record_quick(self, tmp_path, *extra):
        return main(["bench", "record", "--quick", "--rounds", "2",
                     "--dir", str(tmp_path), *extra])

    def test_record_appends_numbered_points(self, capsys, tmp_path):
        import json

        assert self._record_quick(tmp_path) == 0
        assert self._record_quick(tmp_path) == 0
        out = capsys.readouterr().out
        assert "point #0" in out and "point #1" in out
        point = json.loads((tmp_path / "BENCH_0.json").read_text())
        assert point["format"] == "repro-bench"
        assert point["index"] == 0
        assert {b["name"] for b in point["benchmarks"]} >= {
            "micro/kernel_event_throughput",
        }

    def test_record_explicit_out_and_note(self, tmp_path):
        import json

        dest = tmp_path / "custom.json"
        assert self._record_quick(tmp_path, "--out", str(dest),
                                  "--note", "seed point") == 0
        point = json.loads(dest.read_text())
        assert point["note"] == "seed point"
        assert point["index"] is None

    def test_record_from_pytest_benchmark_json(self, tmp_path):
        import json

        source = tmp_path / "pytest.json"
        source.write_text(json.dumps({
            "benchmarks": [{
                "fullname": "benchmarks/test_a.py::test_b",
                "stats": {"rounds": 5, "median": 0.1, "iqr": 0.01,
                          "mean": 0.1, "min": 0.09, "max": 0.12},
            }],
        }))
        assert main(["bench", "record", "--from-json", str(source),
                     "--dir", str(tmp_path)]) == 0
        point = json.loads((tmp_path / "BENCH_0.json").read_text())
        assert point["source"] == "pytest-benchmark"

    def test_record_quick_and_from_json_conflict(self, capsys, tmp_path):
        assert main(["bench", "record", "--quick",
                     "--from-json", "x.json",
                     "--dir", str(tmp_path)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_compare_within_noise_exits_zero(self, capsys, tmp_path):
        assert self._record_quick(tmp_path) == 0
        baseline = tmp_path / "BENCH_0.json"
        # Same point on both sides: guaranteed within noise.
        assert main(["bench", "compare", str(baseline),
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "within-noise" in out
        assert "ok: no regression" in out

    def test_compare_synthetic_slowdown_exits_one(self, capsys,
                                                  tmp_path):
        import json

        assert self._record_quick(tmp_path) == 0
        baseline = tmp_path / "BENCH_0.json"
        slow = json.loads(baseline.read_text())
        for bench in slow["benchmarks"]:
            for key in ("median", "mean", "min", "max"):
                bench[key] *= 2.0
        slow_path = tmp_path / "BENCH_1.json"
        slow_path.write_text(json.dumps(slow))
        # Default current: the latest point in --dir (BENCH_1).
        assert main(["bench", "compare", "--baseline", str(baseline),
                     "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "2.00x" in out

    def test_compare_mismatched_fingerprint(self, capsys, tmp_path):
        import json

        assert self._record_quick(tmp_path) == 0
        baseline = tmp_path / "BENCH_0.json"
        alien = json.loads(baseline.read_text())
        alien["fingerprint"]["machine"] = "vax11"
        alien_path = tmp_path / "alien.json"
        alien_path.write_text(json.dumps(alien))
        assert main(["bench", "compare", str(alien_path),
                     "--baseline", str(baseline)]) == 1
        assert "incomparable" in capsys.readouterr().out
        # --ignore-fingerprint compares anyway; same numbers: ok.
        assert main(["bench", "compare", str(alien_path),
                     "--baseline", str(baseline),
                     "--ignore-fingerprint"]) == 0

    def test_compare_missing_baseline_exits_two(self, capsys, tmp_path):
        assert main(["bench", "compare",
                     "--baseline", str(tmp_path / "nope.json"),
                     "--dir", str(tmp_path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_compare_no_current_point_exits_two(self, capsys, tmp_path):
        assert self._record_quick(tmp_path, "--out",
                                  str(tmp_path / "only.json")) == 0
        assert main(["bench", "compare",
                     "--baseline", str(tmp_path / "only.json"),
                     "--dir", str(tmp_path)]) == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_compare_json_export(self, tmp_path):
        import json

        assert self._record_quick(tmp_path) == 0
        baseline = tmp_path / "BENCH_0.json"
        dest = tmp_path / "comparison.json"
        assert main(["bench", "compare", str(baseline),
                     "--baseline", str(baseline),
                     "--json-out", str(dest)]) == 0
        payload = json.loads(dest.read_text())
        assert payload["format"] == "repro-bench-comparison"
        assert payload["status"] == "ok"


class TestRunRegistryCommands:
    """End-to-end coverage for ``--record``, ``runs`` and ``report``."""

    def _scenario_path(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        return root / "examples" / "scenarios" / "configuration_h_split.json"

    def _record_study(self, runs_dir, seed="7", capsys=None):
        code = main(["study", *FAST, "--seed", seed,
                     "--record", "--runs-dir", str(runs_dir)])
        if capsys is not None:
            capsys.readouterr()
        return code

    def test_record_then_list_and_show(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert self._record_study(runs_dir, capsys=capsys) == 0
        assert main(["runs", "list", "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "study" in out
        assert "1 run(s)" in out
        assert main(["runs", "show", "latest",
                     "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "manifest" in out
        assert "timelines" in out

    def test_identical_seed_rerun_is_idempotent_and_diffs_clean(
        self, tmp_path, capsys,
    ):
        runs_dir = tmp_path / "runs"
        assert self._record_study(runs_dir, capsys=capsys) == 0
        assert self._record_study(runs_dir, capsys=capsys) == 0
        assert main(["runs", "list", "--runs-dir", str(runs_dir)]) == 0
        assert "1 run(s)" in capsys.readouterr().out
        assert main(["runs", "diff", "latest",
                     "--runs-dir", str(runs_dir)]) == 0
        assert "no availability regression" in capsys.readouterr().out

    def test_diff_exits_one_on_injected_regression(self, tmp_path, capsys):
        import json
        import pathlib

        runs_dir = tmp_path / "runs"
        assert self._record_study(runs_dir, capsys=capsys) == 0
        run_dir = next(
            child for child in pathlib.Path(runs_dir).iterdir()
            if child.is_dir()
        )
        degraded = tmp_path / "degraded"
        degraded.mkdir()
        for name in ("record.json", "study.json", "manifest.json"):
            source = run_dir / name
            if source.exists():
                (degraded / name).write_bytes(source.read_bytes())
        study = json.loads((degraded / "study.json").read_text())
        for cell in study["cells"]:
            cell["unavailability"] = cell["unavailability"] * 10 + 0.2
        (degraded / "study.json").write_text(json.dumps(study))
        assert main(["runs", "diff", "latest", str(degraded),
                     "--runs-dir", str(runs_dir)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_json_out(self, tmp_path, capsys):
        import json

        runs_dir = tmp_path / "runs"
        dest = tmp_path / "diff.json"
        assert self._record_study(runs_dir, capsys=capsys) == 0
        assert main(["runs", "diff", "latest", "--runs-dir", str(runs_dir),
                     "--json-out", str(dest)]) == 0
        payload = json.loads(dest.read_text())
        assert payload["format"] == "repro-run-diff"

    def test_unknown_run_exits_two(self, tmp_path, capsys):
        assert main(["runs", "show", "feedbeef",
                     "--runs-dir", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err

    def test_gc_keeps_the_newest(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert self._record_study(runs_dir, seed="1", capsys=capsys) == 0
        assert self._record_study(runs_dir, seed="2", capsys=capsys) == 0
        assert main(["runs", "gc", "--keep-last", "1",
                     "--runs-dir", str(runs_dir)]) == 0
        assert "deleted 1 run(s)" in capsys.readouterr().out
        assert main(["runs", "list", "--runs-dir", str(runs_dir)]) == 0
        assert "1 run(s)" in capsys.readouterr().out

    def test_report_is_self_contained(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        dest = tmp_path / "report.html"
        assert self._record_study(runs_dir, capsys=capsys) == 0
        assert main(["report", "latest", "--out", str(dest),
                     "--runs-dir", str(runs_dir)]) == 0
        html = dest.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "Table 2" in html
        assert "http" not in html

    def test_report_unwritable_out_exits_two(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert self._record_study(runs_dir, capsys=capsys) == 0
        assert main(["report", "latest",
                     "--out", str(tmp_path / "no" / "such" / "dir" / "r.html"),
                     "--runs-dir", str(runs_dir)]) == 2
        assert capsys.readouterr().err

    def test_record_unwritable_runs_dir_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert main(["study", *FAST, "--record",
                     "--runs-dir", str(blocker)]) == 2
        assert "directory" in capsys.readouterr().err

    def test_adhoc_trace_record_rejected(self, capsys):
        assert main(["trace", "--record"]) == 2
        assert "scenario" in capsys.readouterr().err

    def test_scenario_trace_records(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert main(["trace", str(self._scenario_path()), "--record",
                     "--runs-dir", str(runs_dir),
                     "--out", str(tmp_path / "trace.jsonl")]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--runs-dir", str(runs_dir)]) == 0
        assert "scenario" in capsys.readouterr().out

    def test_chaos_run_records(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert main(["chaos", "run", "--policy", "DV", "--seed", "3",
                     "--steps", "200", "--record",
                     "--runs-dir", str(runs_dir)]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--runs-dir", str(runs_dir)]) == 0
        assert "chaos" in capsys.readouterr().out


class TestLiveTelemetry:
    """End-to-end coverage for ``--live``, ``watch`` and
    ``runs list --watch``."""

    def test_study_live_records_a_gap_free_stream(self, tmp_path, capsys):
        import json

        runs_dir = tmp_path / "runs"
        assert main(["study", *FAST, "--seed", "7", "--live", "--record",
                     "--runs-dir", str(runs_dir)]) == 0
        err = capsys.readouterr().err
        assert "live session" in err
        streams = list(runs_dir.glob("*/live.jsonl"))
        assert len(streams) == 1
        events = [json.loads(line)
                  for line in streams[0].read_text().splitlines()]
        assert [event["seq"] for event in events] == \
            list(range(len(events)))
        kinds = [event["kind"] for event in events]
        assert "study.start" in kinds and kinds[-1] == "study.done"
        descriptor = json.loads(
            (streams[0].parent / "live.json").read_text()
        )
        assert descriptor["status"] == "finished"
        assert descriptor["run_id"]  # stamped from --record

    def test_watch_replays_a_finished_session(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert main(["study", *FAST, "--seed", "7", "--live",
                     "--runs-dir", str(runs_dir)]) == 0
        capsys.readouterr()
        assert main(["watch", "latest", "--from-start",
                     "--runs-dir", str(runs_dir)]) == 0
        captured = capsys.readouterr()
        assert "study.start" in captured.out
        assert "study.done" in captured.out
        assert "session finished" in captured.err

    def test_watch_without_sessions_fails_with_guidance(
            self, tmp_path, capsys):
        assert main(["watch", "latest",
                     "--runs-dir", str(tmp_path / "runs")]) == 2
        assert "no live session" in capsys.readouterr().err

    def test_chaos_sweep_live(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert main(["chaos", "sweep", "--quick", "--steps", "20",
                     "--policies", "LDV", "--live",
                     "--runs-dir", str(runs_dir)]) == 0
        capsys.readouterr()
        assert main(["watch", "latest", "--from-start",
                     "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "chaos.phase" in out
        assert "chaos.run" in out

    def test_runs_list_watch_repaints(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        code = main(["study", *FAST, "--seed", "7",
                     "--record", "--runs-dir", str(runs_dir)])
        assert code == 0
        capsys.readouterr()
        assert main(["runs", "list", "--runs-dir", str(runs_dir),
                     "--watch", "0.05", "--watch-count", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("1 run(s)") == 3

    def test_runs_list_watch_rejects_nonpositive_period(
            self, tmp_path, capsys):
        assert main(["runs", "list", "--runs-dir", str(tmp_path),
                     "--watch", "0"]) == 2
        assert "--watch" in capsys.readouterr().err


def _command_paths(parser, path=(), chain=()):
    """Every runnable command path as ``(argv prefix, parser chain)``:
    parsers without a subcommand, or whose subcommand is optional."""
    import argparse

    chain = chain + (parser,)
    subs = [action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)]
    if not subs or not subs[0].required:
        yield list(path), chain
    for action in subs:
        for name, child in action.choices.items():
            yield from _command_paths(child, path + (name,), chain)


def _required_args(parser):
    """Placeholder values for a parser's required positionals/options."""
    import argparse

    argv = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            continue
        if not action.option_strings and action.nargs in (None, "+"):
            argv.append("1")
        elif action.option_strings and action.required:
            argv += [action.option_strings[0], "1"]
    return argv


def _output_flags(parser):
    """The option strings of the output paths a command declares, which
    must be exactly its ``PATH`` flags (inputs are FILE or DIR)."""
    dests = parser.get_default("output_paths") or ()
    flags = [action.option_strings[0] for action in parser._actions
             if action.dest in dests]
    assert flags == [action.option_strings[0]
                     for action in parser._actions
                     if action.metavar == "PATH"]
    return flags


COMMAND_PATHS = [" ".join(path) for path, _ in _command_paths(build_parser())]


class TestCommandTable:
    """Derived from the parser itself, so a new command or output flag
    is covered without editing these tests."""

    def test_every_command_path_is_walked(self):
        assert len(COMMAND_PATHS) == len(set(COMMAND_PATHS)) >= 38
        assert "service replica" in COMMAND_PATHS
        assert "serve" in COMMAND_PATHS and "serve warm" in COMMAND_PATHS

    @pytest.mark.parametrize("command", COMMAND_PATHS)
    def test_resolves_to_exactly_one_handler(self, command):
        parser = build_parser()
        [(path, chain)] = [(p, c) for p, c in _command_paths(parser)
                           if " ".join(p) == command]
        declared = [p.get_default("handler") for p in chain
                    if p.get_default("handler") is not None]
        assert len(declared) == 1, declared
        args = parser.parse_args(path + _required_args(chain[-1]))
        assert args.handler is declared[0] and callable(args.handler)

    @pytest.mark.parametrize("command", COMMAND_PATHS)
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command.split() + ["--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: repro")

    @pytest.mark.parametrize("command", COMMAND_PATHS)
    def test_unwritable_outputs_fail_before_any_work(
            self, command, tmp_path, capsys, monkeypatch):
        import repro.cli

        parser = build_parser()
        ran = []
        for _, chain in _command_paths(parser):
            for p in chain:
                if p.get_default("handler") is not None:
                    p.set_defaults(handler=ran.append)
        monkeypatch.setattr(repro.cli, "build_parser", lambda: parser)
        [(path, chain)] = [(p, c) for p, c in _command_paths(parser)
                           if " ".join(p) == command]
        missing = tmp_path / "no" / "such" / "dir" / "out"
        for flag in _output_flags(chain[-1]):
            argv = path + _required_args(chain[-1]) + [flag, str(missing)]
            assert main(argv) == 2, argv
            assert "cannot write" in capsys.readouterr().err, argv
        assert ran == []


class TestRejectedCombinations:
    def test_replay_rejects_schedule_and_seed_together(
            self, tmp_path, capsys):
        schedule = tmp_path / "schedule.json"
        assert main(["chaos", "run", "--policy", "LDV", "--seed", "3",
                     "--steps", "20",
                     "--save-schedule", str(schedule)]) == 0
        capsys.readouterr()
        assert main(["chaos", "replay", "--schedule", str(schedule),
                     "--seed", "99"]) == 2
        captured = capsys.readouterr()
        assert "give --schedule or --seed, not both" in captured.err
        assert "chaos run:" not in captured.out  # nothing was replayed

    def test_trace_out_needs_a_scenario(self, tmp_path, capsys):
        dest = tmp_path / "trace.jsonl"
        assert main(["trace", "--horizon", "200", "--out", str(dest)]) == 2
        captured = capsys.readouterr()
        assert "trace --out requires a scenario file" in captured.err
        assert captured.out == ""
        assert not dest.exists()
