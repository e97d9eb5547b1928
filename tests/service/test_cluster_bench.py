"""End-to-end bench test: subprocess replicas, live chaos, registry.

This is the slowest test in the suite — one real ``run_bench`` with
three replica subprocesses behind the chaos proxy, seeded kills and
partitions, crash recovery and the invariant sweep.  Everything else
about the service layer is unit-tested; this one proves the pieces
compose.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.dtrace import build_traces, causal_violations, text_waterfall
from repro.obs.registry import RunRegistry
from repro.service import cluster as cluster_module
from repro.service.bench import BenchOptions, run_bench
from repro.service.cluster import (
    ClusterSpec,
    LocalCluster,
    free_port,
    free_ports,
    load_control,
    parse_segments,
)


class TestParseSegments:
    def test_none_and_empty_mean_no_colocation(self):
        assert parse_segments(None) is None
        assert parse_segments("") is None

    def test_groups_map_to_segment_ids(self):
        assert parse_segments("1,2/3,4,5") == {1: 0, 2: 0, 3: 1,
                                               4: 1, 5: 1}

    def test_bad_token_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_segments("1,x/3")


class TestFreePorts:
    def test_ports_of_one_call_are_distinct(self):
        ports = free_ports(64)
        assert len(set(ports)) == 64
        assert all(0 < port < 65536 for port in ports)
        assert isinstance(free_port(), int)

    def test_cluster_takes_every_port_from_one_call(self, tmp_path,
                                                    monkeypatch):
        """Replica and proxy ports come from probes held open together,
        so no two listeners of a cluster can be handed the same port."""
        calls = []

        def counting(count, host="127.0.0.1"):
            calls.append(count)
            return free_ports(count, host)

        monkeypatch.setattr(cluster_module, "free_ports", counting)
        monkeypatch.setattr(LocalCluster, "_spawn", lambda self, site: None)
        monkeypatch.setattr(LocalCluster, "wait_ready",
                            lambda self, timeout=20.0: None)
        cluster = LocalCluster(ClusterSpec(directory=str(tmp_path),
                                           replicas=3, proxy=True))
        try:
            cluster.start()
            assert calls == [6]
            ports = [*cluster.replica_ports.values(),
                     *cluster.proxy_ports.values()]
            assert len(set(ports)) == 6
            assert sorted(cluster.replica_ports) == [1, 2, 3]
            assert sorted(cluster.proxy_ports) == [1, 2, 3]
        finally:
            cluster.stop()


class TestBenchOptions:
    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            BenchOptions(directory=str(tmp_path), policies=("NOPE",))

    def test_needs_two_replicas(self, tmp_path):
        with pytest.raises(ConfigurationError):
            BenchOptions(directory=str(tmp_path), replicas=1)

    def test_positive_duration(self, tmp_path):
        with pytest.raises(ConfigurationError):
            BenchOptions(directory=str(tmp_path), duration=0.0)


class TestBenchEndToEnd:
    def test_chaos_bench_survives_and_records(self, tmp_path, capsys):
        options = BenchOptions(
            directory=str(tmp_path / "cluster"),
            policies=("ODV",),
            replicas=3,
            duration=3.5,
            seed=11,
            workers=2,
            fsync="never",
            schedule_length=12,
            trace=True,
        )
        document, samples, traces = run_bench(options)

        assert document["format"] == "repro-service-bench"
        assert document["version"] == 2
        assert document["seed"] == 11
        assert document["replicas"] == 3
        assert document["ok"] is True, document["failed_gates"]
        assert document["failed_gates"] == []
        totals = document["totals"]
        assert totals["violations"] == 0
        assert totals["kills"] >= 1
        assert totals["partitions"] >= 1
        assert totals["operations"] == len(samples.splitlines())

        policy_doc = document["policies"]["ODV"]
        assert policy_doc["policy"] == "ODV"
        assert policy_doc["ok"] is True, policy_doc["failed_gates"]
        assert policy_doc["failed_gates"] == []
        assert policy_doc["violations"] == []
        assert policy_doc["recovered"] is True
        # Every killed site came back with a verified recovery marker.
        for record in policy_doc["kills"]:
            report = policy_doc["recovery"][str(record["site"])]
            assert report["verified"] is True
            assert report["reinserted"] is True
        # Quorum commits reached every site's durable history.
        assert all(count > 0 for count in policy_doc["commits"].values())
        assert policy_doc["proxy"]["forwarded"] > 0

        # The samples sidecar is JSONL, one stamped line per operation.
        lines = samples.decode().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert first["policy"] == "ODV"
        assert {"op", "outcome", "latency"} <= set(first)

        # The cluster left a readable control file behind.
        control = load_control(tmp_path / "cluster" / "odv")
        assert control["policy"] == "ODV"
        assert control["stopped"] is True
        assert set(control["sites"]) == {"1", "2", "3"}

        # Tracing was on: the bench sampled exemplar traces and every
        # span in the sidecar merges into a causally consistent tree.
        tsum = policy_doc["traces"]
        assert tsum["spans"] > 0
        assert tsum["traces"] > 0
        assert tsum["sampled"] >= 1
        records = [json.loads(line)
                   for line in traces.decode().splitlines()]
        assert all(record["policy"] == "ODV" for record in records)
        merged = build_traces(records)
        assert merged
        for trace in merged.values():
            assert causal_violations(trace) == []

        # Acceptance: a denied/unavailable op's waterfall decomposes
        # into its round anatomy — which replicas were contacted and
        # which injected fault window got in the way.
        # (A background recover.round can also be sampled denied;
        # the round-anatomy claim is about client operations.)
        refused = [e for e in tsum["exemplars"]
                   if e["outcome"] in ("denied", "unavailable")
                   and e["name"].startswith("client.")]
        assert refused, "chaos bench produced no denied/unavailable trace"
        refused_text = text_waterfall(merged[refused[0]["trace"]])
        assert "client." in refused_text
        assert "site-" in refused_text
        faulty = [e for e in tsum["exemplars"] if e["fault_windows"]]
        assert faulty, "no exemplar trace crossed an injected fault"
        faulty_text = text_waterfall(merged[faulty[0]["trace"]])
        assert "fault window #" in faulty_text

        # And the registry round-trips the whole thing.
        registry = RunRegistry(tmp_path / "runs")
        record = registry.record_service(document, samples=samples,
                                         traces=traces)
        assert record.kind == "service"
        assert record.summary["ok"] is True
        assert registry.samples_path(record.run_id).read_bytes() == samples
        assert registry.traces_path(record.run_id).read_bytes() == traces

        # The CLI renders the recorded run's waterfalls from the
        # sidecar alone.
        from repro.cli import main as cli_main

        capsys.readouterr()
        code = cli_main(["service", "trace", "latest",
                         "--runs-dir", str(tmp_path / "runs")])
        shown = capsys.readouterr().out
        assert code == 0
        assert "trace " in shown
        assert "site-" in shown

    def test_scraped_bench_stores_series_and_alerts(
            self, tmp_path, capsys):
        from repro.obs.tsdb import TimeSeriesStore, run_query

        options = BenchOptions(
            directory=str(tmp_path / "cluster"),
            policies=("ODV",),
            replicas=3,
            duration=3.5,
            seed=11,
            workers=2,
            fsync="never",
            schedule_length=12,
            scrape_interval=0.4,
        )
        document, samples, traces = run_bench(options)
        assert document["ok"] is True, \
            document["policies"]["ODV"]["failed_gates"]
        assert document["scrape_interval"] == 0.4
        assert document["tsdb"]

        # Every replica's direct port plus the proxy landed real
        # series in the run's time-series store.
        policy_doc = document["policies"]["ODV"]
        scrape = policy_doc["scrape"]
        assert scrape["interval"] == 0.4
        assert scrape["targets"] == 4  # 3 replicas + the proxy
        assert scrape["scrapes"] >= 2
        tsdb = TimeSeriesStore(document["tsdb"])
        assert tsdb.chunk_paths()
        stored = list(tsdb.samples())
        ups = run_query(stored, 'scrape.up{policy="ODV"}', fn="last")
        targets = {row["labels"]["target"] for row in ups["results"]}
        assert targets == {"site-1", "site-2", "site-3", "proxy"}
        ops = run_query(stored, 'service.ops{policy="ODV"}',
                        fn="increase", window=3600.0)
        assert sum(row["value"] for row in ops["results"]) > 0
        # The SLO rules evaluated throughout; whatever fired during
        # the injected faults resolved by the end of the run.
        alerts = policy_doc["alerts"]
        assert len(alerts["rules"]) == 4
        assert alerts["firing"] == []
        assert all(event["state"] in ("firing", "resolved")
                   for event in alerts["events"])

        # The registry copies the store in as a .tsdb sidecar, and
        # `repro metrics` answers queries from it alone.
        registry = RunRegistry(tmp_path / "runs")
        record = registry.record_service(document, samples=samples,
                                         tsdb=document["tsdb"])
        assert registry.tsdb_path(record.run_id).is_dir()

        from repro.cli import main as cli_main

        capsys.readouterr()
        code = cli_main(["metrics", "query", "service.ops", "latest",
                         "--fn", "rate", "--window", "3600",
                         "--runs-dir", str(tmp_path / "runs")])
        shown = capsys.readouterr().out
        assert code == 0
        assert "service.ops" in shown
        assert "site-1" in shown
        code = cli_main(["metrics", "alerts", "latest",
                         "--duration", "3.5",
                         "--runs-dir", str(tmp_path / "runs")])
        shown = capsys.readouterr().out
        assert code == 0
        assert shown.strip()
