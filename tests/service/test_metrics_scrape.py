"""Scraping live replicas: the ``metrics?`` frame and kill tolerance.

In-process :class:`ReplicaServer` instances inside one event loop,
scraped by the real :class:`SocketScrapeTarget` collector (pushed onto
a worker thread — the targets speak blocking sockets while the
replicas live on the loop).  The subprocess/chaos path is covered by
the bench end-to-end test.
"""

import asyncio

from repro.obs.tsdb import (MetricsScraper, SocketScrapeTarget,
                            TimeSeriesStore, run_query)
from repro.service.cluster import free_port
from repro.service.frames import encode_frame, read_frame
from repro.service.replica import ReplicaConfig, ReplicaServer

HOST = "127.0.0.1"


async def _start_cluster(root, n=3, fsync="never"):
    sites = list(range(1, n + 1))
    ports = {site: free_port() for site in sites}
    servers = {}
    for site in sites:
        config = ReplicaConfig(
            site_id=site, host=HOST, port=ports[site],
            data_dir=str(root / f"site-{site}"),
            peers={peer: (HOST, ports[peer])
                   for peer in sites if peer != site},
            policy="ODV", fsync=fsync,
            lease_s=1.0, peer_timeout=0.4,
            recover_interval=5.0,
        )
        servers[site] = ReplicaServer(config)
        await servers[site].start()
    return servers, ports


async def _stop_all(servers):
    for server in servers.values():
        await server.stop()


async def _ask(port, message, timeout=5.0):
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(encode_frame(message))
        await writer.drain()
        return await asyncio.wait_for(read_frame(reader), timeout)
    finally:
        writer.close()


class TestMetricsFrame:
    def test_replica_serves_its_registry(self, tmp_path):
        """Every series the benchmark's ``--trace`` scrape divides by the
        operation count is served: a missing one would read as 0."""
        scraped = {
            "replica.round.collect.seconds", "replica.round.evaluate.seconds",
            "replica.round.commit.seconds", "replica.frames",
            "replica.lease.denied", "service.op.seconds", "wal.records",
            "wal.bytes", "wal.fsync.seconds",
        }

        async def scenario():
            servers, ports = await _start_cluster(tmp_path, fsync="always")
            try:
                await _ask(ports[1], {"kind": "put", "key": "k",
                                      "value": "v"})
                # A held lease refuses a second, ticketless requester.
                assert (await _ask(ports[2], {"kind": "state?",
                                              "from": 1}))["kind"] == "state"
                assert (await _ask(ports[2], {"kind": "state?",
                                              "from": 3}))["kind"] == "busy"
                await _ask(ports[2], {"kind": "release", "from": 1})
                served = {}
                for site, port in ports.items():
                    reply = await _ask(port, {"kind": "metrics?"})
                    assert reply["kind"] == "metrics"
                    assert reply["site"] == site
                    served[site] = {entry["name"]
                                    for entry in reply["metrics"]["series"]}
                missing = scraped - set().union(*served.values())
                assert not missing, missing
                own = served[1]
                assert "service.ops" in own
                assert "service.op.seconds" in own
                # Resource gauges ride the same registry.
                assert "live.proc.rss_bytes" in own
            finally:
                await _stop_all(servers)
        asyncio.run(scenario())

    def test_prometheus_render_on_request(self, tmp_path):
        async def scenario():
            servers, ports = await _start_cluster(tmp_path, n=2)
            try:
                reply = await _ask(ports[1], {"kind": "metrics?",
                                              "format": "prometheus"})
                assert "# TYPE replica_frames_total counter" \
                    in reply["text"]
            finally:
                await _stop_all(servers)
        asyncio.run(scenario())


class TestScrapeCollector:
    def test_scrapes_every_replica_and_survives_a_kill(self, tmp_path):
        async def scenario():
            servers, ports = await _start_cluster(tmp_path)
            store = TimeSeriesStore(tmp_path / "tsdb")
            targets = [SocketScrapeTarget(f"site-{site}", HOST, port,
                                          timeout=2.0)
                       for site, port in sorted(ports.items())]
            scraper = MetricsScraper(store, targets, interval=0.05,
                                     labels={"policy": "ODV"})
            try:
                await _ask(ports[1], {"kind": "put", "key": "k",
                                      "value": "v"})
                healthy = await asyncio.to_thread(scraper.scrape)
                assert healthy == 3

                # The chaos driver kills replicas mid-run; a dead
                # target is a scrape.up=0 batch, not a collector error.
                await servers[2].stop()
                healthy = await asyncio.to_thread(scraper.scrape)
                assert healthy == 2
                assert scraper.failures == 1
            finally:
                await _stop_all(
                    {site: server for site, server in servers.items()
                     if site != 2})
            store.close()

            samples = list(store.samples())
            doc = run_query(samples, "scrape.up", fn="last")
            by_target = {row["labels"]["target"]: row["value"]
                         for row in doc["results"]}
            assert by_target == {"site-1": 1.0, "site-2": 0.0,
                                 "site-3": 1.0}
            # Every live replica contributed real series, stamped with
            # the scraper's batch labels.
            ops = run_query(samples, 'service.ops{target="site-1"}',
                            fn="last")
            assert ops["results"]
            assert all(row["labels"]["policy"] == "ODV"
                       for row in ops["results"])
        asyncio.run(scenario())
