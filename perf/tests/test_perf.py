"""Tests of the benchmark itself; run with ``python -m pytest perf/tests``.

Tier-1's ``testpaths`` is ``tests/``, so these run only when asked for.
Every workload runs once untraced and once traced at a few seconds' scale.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import agree, measure, run, service, simulator  # noqa: E402
from repro.service import DurableReplica  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Test-only scale: the sims run one lap, the fault plan needs room to play.
SECONDS = {"service_faulted": 5.0, "service_serial": 2.0,
           "service_contended": 2.0}


# ----------------------------------------------------------------------
# the declaration
# ----------------------------------------------------------------------
def test_declaration_meets_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["perf"]
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= DECLARED["run_seconds"] <= 60
    names = []
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    runs = 4 + 22 * len(DECLARED["workloads"])
    assert runs * (DECLARED["run_seconds"] + 10) <= 3420


# ----------------------------------------------------------------------
# every workload, both modes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in DECLARED["workloads"]])
def test_workload_runs_with_all_gates_green(name, trace, capsys):
    result = run.run_once(name, 1988, SECONDS.get(name, 0.5), trace)
    assert result["problems"] == []
    assert result["correct"] and result["attempted"] >= 1
    wanted = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0, metric["name"]
    if trace:
        assert result["metrics"]["trace.spans"]["value"] > 0
        assert (ROOT / result["span_file"]).exists()
    run.show(result)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_traced_runs_separate_the_layers():
    paper = run.run_once("study_paper", 2024, 0.5, True)["metrics"]
    dense = run.run_once("study_dense_access", 2024, 0.5, True)["metrics"]
    assert paper["net.view_share"]["value"] > 0.05
    assert dense["net.view_share"]["value"] < 0.02
    assert dense["core.sync_us.MCV"]["value"] == 0.0  # never entered


def test_a_changed_simulated_statistic_fails_the_gate(monkeypatch):
    pinned = simulator.load_expected()
    pinned["chaos_sweep"]["1988"] = "0" * 64
    monkeypatch.setattr(simulator, "load_expected", lambda: pinned)
    problems = []
    simulator.run("chaos_sweep", 1988, 0.1, None, problems)
    assert any("differs from the pinned" in p for p in problems)


def test_canary_is_caught():
    assert simulator.canary_caught(1988)


def test_nothing_runs_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "study_paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ----------------------------------------------------------------------
# gates of the service workloads
# ----------------------------------------------------------------------
def _commit(root, site, version):
    store = DurableReplica.open(root / f"site-{site}", site, [1, 2])
    store.commit(store.make_entry("write", 5, version, [1, 2],
                                  writes={"k": f"v{version}"}, coordinator=1))
    store.close()


def test_doctored_wal_fails_the_safety_gate(tmp_path):
    _commit(tmp_path, 1, 5)
    _commit(tmp_path, 2, 5)
    assert service.safety_violations(tmp_path, [1, 2]) == []
    shutil.rmtree(tmp_path / "site-2")
    _commit(tmp_path, 2, 4)  # same operation, another body
    violations = service.safety_violations(tmp_path, [1, 2])
    assert [v["invariant"] for v in violations] == ["divergent-commit"]


def test_stale_read_window():
    client = service.Client(0, [("127.0.0.1", 1)], 7)
    client.issued["k"] = ["v1", "v2", "v3"]
    client._check("put", "k", None)           # v3 acknowledged
    client._check("get", "k", "v3")
    assert client.stale == []
    client._check("get", "k", "v2")           # older than the acked write
    client._check("get", "k", "elsewhere")    # never issued by this client
    assert len(client.stale) == 2


def test_generated_inputs_depend_on_the_seed_only():
    ops = service.op_stream(5, 0)
    first = [next(ops) for _ in range(50)]
    again = service.op_stream(5, 0)
    assert first == [next(again) for _ in range(50)]
    other = service.op_stream(6, 0)
    assert first != [next(other) for _ in range(50)]
    assert service.open_schedule(5, 3.0, 2) == service.open_schedule(5, 3.0, 2)
    due = sorted(t for sender in service.open_schedule(5, 3.0, 2)
                 for t in sender)
    assert len(due) == 60 and all(0 <= t < 3.0 + 0.05 for t in due)
    assert [e.verb for e in service.fault_plan(10.0)] == [
        "partition", "heal", "crash", "restart"]


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
def test_due_time_latency_counts_the_generators_stall():
    # Due at t=1.0, a stalled generator sent it at 1.4, reply at 1.5: the
    # user waited 0.5 s, not 0.1 s.
    assert measure.due_latency(1.0, 1.5) == pytest.approx(0.5)


def test_percentiles():
    values = list(range(1, 101))
    assert measure.percentile(values, 50.0) == pytest.approx(50.5)
    assert measure.percentile(values, 100.0) == 100
    assert measure.percentile([3.0], 90.0) == 3.0
    with pytest.raises(ValueError):
        measure.percentile([], 50.0)
    # The highest percentile with at least ten samples beyond it.
    assert measure.highest_percentile(19) == 50.0
    assert measure.highest_percentile(100) == 90.0
    assert measure.highest_percentile(999) == 90.0
    assert measure.highest_percentile(1000) == 99.0
    assert measure.highest_percentile(10000) == 99.9


def test_span_self_time_subtracts_merged_children():
    spans = [
        {"id": 1, "parent": None, "name": "op", "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "name": "rpc", "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "name": "rpc", "start": 3.0, "end": 6.0},
        {"id": 4, "parent": 2, "name": "disk", "start": 2.0, "end": 3.0},
    ]
    own = measure.self_times(spans)
    assert own["op"] == pytest.approx(5.0)    # 10 - [1, 6] merged
    assert own["rpc"] == pytest.approx(5.0)   # (3 - 1) + 3
    assert own["disk"] == pytest.approx(1.0)


def test_span_log_nests_and_writes(tmp_path):
    log = measure.SpanLog()
    with log.span("outer", policy="ODV") as outer:
        with log.phase("inner"):
            log.count("calls")
    log.event("fault", 1.5, verb="heal")
    inner, = log.named("inner")
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    log.write(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == 4
    assert json.loads(lines[-1]) == {"counts": {"calls": 1.0}}


def test_spread_and_agreement(capsys):
    values = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    assert 0 < measure.spread(values) < 0.05
    assert measure.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert measure.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    first = {("study_paper", "ops_per_s"): values}
    same = {("study_paper", "ops_per_s"): [v * 1.01 for v in values]}
    slower = {("study_paper", "ops_per_s"): [v * 0.7 for v in values]}
    assert agree.compare(first, same, DECLARED) == []
    assert len(agree.compare(first, slower, DECLARED)) == 1
    capsys.readouterr()
