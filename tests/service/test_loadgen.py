"""Load-generator tests: spec validation, accounting, and a live run."""

import asyncio
import threading

import pytest

from repro.errors import ConfigurationError
from repro.service.cluster import AsyncRuntime, free_port
from repro.service.loadgen import LoadResult, LoadSpec, run_load
from repro.service.replica import ReplicaConfig, ReplicaServer

HOST = "127.0.0.1"


class TestLoadSpec:
    def test_defaults_are_valid(self):
        LoadSpec()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadSpec(duration=0)
        with pytest.raises(ConfigurationError):
            LoadSpec(workers=0)
        with pytest.raises(ConfigurationError):
            LoadSpec(write_ratio=1.5)
        with pytest.raises(ConfigurationError):
            LoadSpec(keys_per_worker=0)


class TestLoadResult:
    def _result(self):
        result = LoadResult()
        result.samples = [
            {"t": 0.1, "op": "get", "key": "k", "outcome": "ok",
             "latency": 0.010, "attempts": 1, "worker": 0, "site": 1},
            {"t": 0.2, "op": "get", "key": "k", "outcome": "denied",
             "latency": 0.020, "attempts": 1, "worker": 0, "site": 1},
            {"t": 0.3, "op": "put", "key": "k", "outcome": "ok",
             "latency": 0.030, "attempts": 2, "worker": 0, "site": 2},
        ]
        result.outcomes = {"get": {"ok": 1, "denied": 1},
                           "put": {"ok": 1}}
        return result

    def test_latencies_split_by_outcome(self):
        tables = self._result().latencies()
        assert sorted(tables) == ["get", "put"]
        assert sorted(tables["get"]) == ["denied", "ok"]
        assert tables["get"]["ok"].count == 1
        assert tables["get"]["denied"].count == 1
        assert tables["put"]["ok"].count == 1

    def test_availability_rates(self):
        table = self._result().availability()
        assert table["get"]["total"] == 2
        assert table["get"]["ok_rate"] == 0.5
        assert table["put"]["ok_rate"] == 1.0

    def test_to_dict_shape(self):
        doc = self._result().to_dict()
        assert doc["operations"] == 3
        assert doc["violations"] == []
        assert "p95" in doc["latency"]["get"]["ok"]
        assert "p95" in doc["latency"]["get"]["denied"]


class TestRunLoad:
    def test_needs_addresses(self):
        with pytest.raises(ConfigurationError):
            run_load([], LoadSpec(duration=0.1))

    def test_against_a_live_cluster(self, tmp_path):
        """Blocking workers in this thread, replicas on a loop thread —
        the same split the bench uses."""
        runtime = AsyncRuntime()
        runtime.start()
        sites = [1, 2, 3]
        ports = {site: free_port() for site in sites}
        servers = {}

        async def start_one(site):
            config = ReplicaConfig(
                site_id=site, host=HOST, port=ports[site],
                data_dir=str(tmp_path / f"site-{site}"),
                peers={peer: (HOST, ports[peer])
                       for peer in sites if peer != site},
                fsync="never", lease_s=1.0, peer_timeout=0.4,
                recover_interval=5.0,
            )
            server = ReplicaServer(config)
            await server.start()
            return server

        try:
            for site in sites:
                servers[site] = runtime.submit(start_one(site)).result(10.0)
            spec = LoadSpec(duration=1.5, workers=2, write_ratio=0.6,
                            keys_per_worker=2, think_s=0.005, seed=7,
                            timeout=1.0, trace=True)
            addresses = [(HOST, ports[site]) for site in sites]
            result = run_load(addresses, spec)

            async def accepted():
                await asyncio.sleep(0.1)  # let the EOFs be read
                return [len(server._accepted)
                        for server in servers.values()]

            # The workers closed their clients: what is still open is
            # the two peers' kept links.
            assert max(runtime.submit(accepted()).result(5.0)) <= 2
        finally:
            for server in servers.values():
                try:
                    runtime.submit(server.stop()).result(5.0)
                except Exception:
                    pass
            runtime.stop()

        assert result.violations == []
        assert len(result.samples) > 0
        assert all(sample["outcome"] == "ok" for sample in result.samples)
        availability = result.availability()
        for op in availability:
            assert availability[op]["ok_rate"] == 1.0
        # Reproducible key naming: every key belongs to a worker space.
        assert all(sample["key"].startswith("w") for sample in result.samples)
        # Tracing was on: every sample names its trace and the client
        # spans were collected from the worker recorders.
        assert all(sample.get("trace") for sample in result.samples)
        assert result.spans
        roots = {span["trace"] for span in result.spans
                 if span["name"].startswith("client.")
                 and not span.get("parent")}
        assert {s["trace"] for s in result.samples} <= roots

    def test_external_stop_ends_the_run_early(self, tmp_path):
        stop = threading.Event()
        stop.set()  # already stopped: workers exit on their first check
        result = run_load([(HOST, free_port())],
                          LoadSpec(duration=30.0, workers=1, think_s=0.0),
                          stop=stop)
        assert isinstance(result, LoadResult)
        assert result.samples == [] or all(
            s["outcome"] in ("unavailable", "error")
            for s in result.samples)
