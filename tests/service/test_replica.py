"""In-process cluster tests for the asyncio replica server.

These run several :class:`ReplicaServer` instances inside one event
loop (no subprocesses, no proxy) and speak the wire protocol directly;
the subprocess path is covered by the bench end-to-end test.  The
orphan rollback and the crossed-lease tests run the same replica
machines on the simulated driver (``sim_driver.py``) instead.
"""

import asyncio
import json
import random

import pytest

from repro.service.client import ServiceClient, _Retryable
from repro.service.cluster import free_port
from repro.service.frames import encode_frame, read_frame
from repro.service.invariants import check_histories, collect_histories
from repro.service.replica import RECOVERY_MARKER, ReplicaConfig, ReplicaServer
from repro.service.store import DurableReplica, commit_body, writes_digest
from sim_driver import SimCluster

HOST = "127.0.0.1"


async def _start_cluster(root, n=3, policy="ODV", recover_interval=5.0,
                         trace=False, peer_timeout=0.4):
    sites = list(range(1, n + 1))
    ports = {site: free_port() for site in sites}
    servers = {}
    for site in sites:
        config = ReplicaConfig(
            site_id=site, host=HOST, port=ports[site],
            data_dir=str(root / f"site-{site}"),
            peers={peer: (HOST, ports[peer])
                   for peer in sites if peer != site},
            policy=policy, fsync="never",
            lease_s=1.0, peer_timeout=peer_timeout,
            recover_interval=recover_interval,
            trace=trace,
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


class TestClientOperations:
    def test_put_and_get_through_different_replicas(self, tmp_path):
        async def scenario():
            servers, ports = await _start_cluster(tmp_path)
            try:
                reply = await _ask(ports[1],
                                   {"kind": "put", "key": "k", "value": "v1"})
                assert reply["ok"] is True
                assert reply["op"] == "put"
                read = await _ask(ports[2], {"kind": "get", "key": "k"})
                assert read["ok"] is True
                assert read["value"] == "v1"
                miss = await _ask(ports[3], {"kind": "get", "key": "nope"})
                assert miss["ok"] is True and miss["value"] is None
            finally:
                await _stop_all(servers)

        asyncio.run(scenario())

    def test_bare_ping_after_the_rotation_wrapped(self, tmp_path):
        """The rotation cursor only ever grows; ``ping()`` without an
        address must wrap it like every other request does."""
        async def scenario():
            servers, ports = await _start_cluster(tmp_path)
            try:
                client = ServiceClient(
                    [(HOST, port) for port in ports.values()],
                    rng=random.Random(0))

                def drive():
                    with client:
                        for i in range(len(client.addresses) + 1):
                            assert client.put("k", i).ok
                        return client.ping()

                assert await asyncio.to_thread(drive) is True
            finally:
                await _stop_all(servers)

        asyncio.run(scenario())

    def test_commits_replicate_to_every_site(self, tmp_path):
        async def scenario():
            servers, ports = await _start_cluster(tmp_path)
            try:
                await _ask(ports[1], {"kind": "put", "key": "a", "value": 1})
                await _ask(ports[2], {"kind": "put", "key": "b", "value": 2})
                infos = [await _ask(ports[site], {"kind": "info"})
                         for site in (1, 2, 3)]
                assert len({info["operation"] for info in infos}) == 1
                assert len({info["version"] for info in infos}) == 1
                assert all(info["partition_set"] == [1, 2, 3]
                           for info in infos)
            finally:
                await _stop_all(servers)

        asyncio.run(scenario())

    def test_minority_coordinator_denies(self, tmp_path):
        async def scenario():
            servers, ports = await _start_cluster(tmp_path)
            try:
                await _ask(ports[1], {"kind": "put", "key": "k", "value": 1})
                await servers[2].stop()
                await servers[3].stop()
                reply = await _ask(ports[1],
                                   {"kind": "put", "key": "k", "value": 2})
                assert reply["ok"] is False
                assert reply["outcome"] == "denied"
            finally:
                await _stop_all(servers)

        asyncio.run(scenario())

    def test_majority_survives_one_silent_site(self, tmp_path):
        async def scenario():
            servers, ports = await _start_cluster(tmp_path)
            try:
                await servers[3].stop()
                reply = await _ask(ports[1],
                                   {"kind": "put", "key": "k", "value": 9})
                assert reply["ok"] is True
                info = await _ask(ports[2], {"kind": "info"})
                assert info["partition_set"] == [1, 2]
            finally:
                await _stop_all(servers)

        asyncio.run(scenario())


class TestRecovery:
    def test_start_writes_a_verified_marker(self, tmp_path):
        async def scenario():
            servers, _ = await _start_cluster(tmp_path)
            try:
                marker = json.loads(
                    (tmp_path / "site-1" / RECOVERY_MARKER).read_text())
                assert marker["verified"] is True
                assert marker["had_state"] is False
            finally:
                await _stop_all(servers)

        asyncio.run(scenario())

    def test_stale_replica_is_reinserted_with_data(self, tmp_path):
        async def scenario():
            servers, ports = await _start_cluster(
                tmp_path, recover_interval=0.25)
            try:
                await _ask(ports[1], {"kind": "put", "key": "k", "value": 1})
                await servers[3].stop()
                # The survivors shrink P to {1, 2} and keep writing.
                reply = await _ask(ports[1],
                                   {"kind": "put", "key": "k", "value": 2})
                assert reply["ok"] is True
                survivor = await _ask(ports[1], {"kind": "info"})
                # Site 3 comes back over its surviving directory.  Its
                # stale state still *claims* P={1,2,3}, so the signal
                # that RECOVER actually ran is the marker, not P.
                servers[3] = ReplicaServer(servers[3].config)
                await servers[3].start()
                marker_path = tmp_path / "site-3" / RECOVERY_MARKER
                deadline = asyncio.get_running_loop().time() + 15.0
                marker = {}
                while asyncio.get_running_loop().time() < deadline:
                    marker = json.loads(marker_path.read_text())
                    if marker.get("reinserted"):
                        break
                    await asyncio.sleep(0.2)
                assert marker["verified"] is True
                assert marker["had_state"] is True
                assert marker["reinserted"] is True
                info = await _ask(ports[3], {"kind": "info"})
                assert info["partition_set"] == [1, 2, 3]
                assert info["operation"] > survivor["operation"]
                read = await _ask(ports[3], {"kind": "get", "key": "k"})
                assert read["ok"] is True and read["value"] == 2
            finally:
                await _stop_all(servers)

        asyncio.run(scenario())


@pytest.mark.usefixtures("no_wire")
class TestOrphanRollback:
    """The recover round's rollback, on the simulated driver: site 1
    holds an orphan at operation 2, sites 2 and 3 a rival body."""

    @staticmethod
    def _seed(store, value="v1"):
        store.commit(store.make_entry(
            "write", 1, 1, (1, 2, 3), writes={"k": value}, coordinator=1))

    def _cluster(self, tmp_path):
        cluster = SimCluster(tmp_path, recover_interval=None)
        for node in cluster.nodes.values():
            self._seed(node.store)
        holder = cluster.nodes[1].store
        # The orphan: a commit no other site ever received.
        holder.commit(holder.make_entry(
            "write", 2, 2, (1, 2, 3), writes={"k": "orphan"},
            coordinator=1))
        # The rival: committed by the surviving majority {2, 3}.
        for site in (2, 3):
            donor = cluster.nodes[site].store
            donor.commit(donor.make_entry(
                "write", 2, 2, (2, 3), writes={"k": "rival"},
                coordinator=2))
        return cluster

    def test_majority_rival_forces_rollback(self, tmp_path):
        cluster = self._cluster(tmp_path)
        holder, donor = cluster.nodes[1], cluster.nodes[2]
        status = cluster.drive(1, holder.machine.recover_round())
        assert status == "rollback"
        assert holder.counters.get("rollbacks") == 1
        assert holder.store.data == {"k": "rival"}
        assert commit_body(holder.store.history[-1]) == \
            commit_body(donor.store.history[-1])
        cluster.close()
        # The rollback is durable: the orphan never comes back.
        reopened = DurableReplica.open(
            tmp_path / "site-1", 1, (1, 2, 3), fsync="never")
        assert reopened.data == {"k": "rival"}
        assert writes_digest({"k": "orphan"}) not in {
            entry["writes_digest"] for entry in reopened.history}
        reopened.close()

    def test_minority_rival_stays_put(self, tmp_path):
        cluster = self._cluster(tmp_path)
        # Only one of the rival's two members answers: not provably
        # majority-committed, so safety demands staying put.
        cluster.partition((1, 2), (3,))
        machine = cluster.nodes[1].machine
        collected = cluster.drive(1, machine._collect(None, None))
        assert sorted(collected.replies) == [1, 2]
        assert cluster.drive(1, machine._rollback(collected.replies)) \
            is False
        assert "fetch" not in {frame[3] for frame in cluster.frames}
        assert cluster.nodes[1].store.data == {"k": "orphan"}
        cluster.close()


def _dialled(servers):
    return sum(server.counters.get("connections.dialled", 0)
               for server in servers.values())


def _accepted(servers):
    return sum(server.counters.get("connections.accepted", 0)
               for server in servers.values())


async def _slow_first_peer(delay):
    """A peer that answers nonce 1 only after *delay*, the rest at once
    — each reply echoes the nonce of the request it answers."""
    async def handle(reader, writer):
        try:
            while True:
                message = await read_frame(reader)
                if message is None:
                    break
                if message["nonce"] == 1:
                    await asyncio.sleep(delay)
                writer.write(encode_frame({"kind": "pong",
                                           "nonce": message["nonce"]}))
                await writer.drain()
        finally:
            writer.close()
    server = await asyncio.start_server(handle, HOST, 0)
    return server, server.sockets[0].getsockname()[1]


_ENTRY = {"kind": "write", "operation": 5, "version": 5,
          "partition_set": [1, 2, 3], "writes": {"k": "v"}, "data": None}

MALFORMED = {
    "release from a non-site": {"kind": "release", "from": "x"},
    "state? from a non-site": {"kind": "state?", "from": [2]},
    "commit from a non-site": {"kind": "commit", "from": "x",
                               "entry": _ENTRY},
    "commit without entry": {"kind": "commit", "from": 2, "entry": 5},
    "non-integer operation": {"kind": "commit", "from": 2,
                              "entry": dict(_ENTRY, operation="5")},
    "commit without version": {"kind": "commit", "from": 2,
                               "entry": {"operation": 5}},
    "version going backwards": {"kind": "commit", "from": 2,
                                "entry": dict(_ENTRY, version=0)},
}


class TestMalformedFrames:
    @pytest.mark.parametrize("frame", MALFORMED.values(), ids=list(MALFORMED))
    def test_error_reply_and_nothing_logged(self, tmp_path, frame):
        """A malformed peer frame is answered ``error`` on a connection
        that stays open, and never reaches the WAL: the replica still
        restarts over its directory."""
        wal = tmp_path / "site-1" / "wal.log"

        async def scenario():
            servers, ports = await _start_cluster(tmp_path)
            try:
                assert (await _ask(ports[1], {"kind": "put", "key": "k",
                                              "value": 1}))["ok"]
                before = wal.read_bytes()
                reader, writer = await asyncio.open_connection(HOST,
                                                               ports[1])
                try:
                    for message in (frame, {"kind": "ping"}):
                        writer.write(encode_frame(message))
                        await writer.drain()
                        reply = await asyncio.wait_for(read_frame(reader),
                                                       5.0)
                        if message is frame:
                            assert reply["kind"] == "error", reply
                    assert reply["kind"] == "pong"
                finally:
                    writer.close()
                assert wal.read_bytes() == before
                await servers[1].stop()
                servers[1] = ReplicaServer(servers[1].config)
                await servers[1].start()
                assert servers[1].recovery_info["verified"] is True
            finally:
                await _stop_all(servers)

        asyncio.run(scenario())


class TestKeptConnections:
    """One kept connection per client->replica and replica->peer pair."""

    def test_fifty_operations_dial_each_pair_once(self, tmp_path):
        async def scenario():
            servers, ports = await _start_cluster(tmp_path)
            try:
                def drive():
                    with ServiceClient(
                            [(HOST, port) for port in ports.values()],
                            rng=random.Random(0)) as client:
                        for i in range(50):
                            op = client.put("k", i) if i % 2 \
                                else client.get("k")
                            assert op.ok and op.attempts == 1
                        assert len(client._sockets) == 3
                    assert client._sockets == {}

                await asyncio.to_thread(drive)
                # Counted, not timed: 3 sites x 2 peers, 1 client x 3.
                assert _dialled(servers) <= 6
                assert _accepted(servers) - _dialled(servers) <= 3
                info = await _ask(ports[1], {"kind": "info"})
                assert info["counters"]["connections.accepted"] >= 1
                assert info["counters"]["connections.dialled"] == 2
            finally:
                await _stop_all(servers)

        asyncio.run(scenario())

    def test_a_timed_out_connection_is_never_reused(self, tmp_path):
        """A late reply must not be read as the next request's answer."""
        async def scenario():
            peer, port = await _slow_first_peer(0.5)
            replica = ReplicaServer(ReplicaConfig(
                site_id=1, host=HOST, port=0, data_dir=str(tmp_path),
                peers={2: (HOST, port)}, peer_timeout=0.2))
            client = ServiceClient([(HOST, port)], timeout=0.2)
            try:
                assert await replica._send_peer(
                    2, {"kind": "ping", "nonce": 1}) is None
                assert replica._links == {}
                reply = await replica._send_peer(
                    2, {"kind": "ping", "nonce": 2})
                assert reply["nonce"] == 2
                assert replica.counters["connections.dialled"] == 2

                def drive():
                    with pytest.raises(_Retryable):
                        client._request((HOST, port),
                                        {"kind": "ping", "nonce": 1})
                    assert client._sockets == {}
                    return client._request((HOST, port),
                                           {"kind": "ping", "nonce": 2})

                assert (await asyncio.to_thread(drive))["nonce"] == 2
            finally:
                client.close()
                await replica.stop()
                peer.close()
                await peer.wait_closed()

        asyncio.run(scenario())

    def test_restarted_replica_is_redialled_once(self, tmp_path):
        async def scenario():
            servers, ports = await _start_cluster(tmp_path)
            client = ServiceClient([(HOST, ports[2])],
                                   rng=random.Random(0))
            try:
                assert (await asyncio.to_thread(client.put, "k", 1)).ok
                reply = await _ask(ports[1],
                                   {"kind": "put", "key": "k", "value": 2})
                assert reply["ok"] is True
                # Site 2 restarts: the client's socket and site 1's
                # link to it are both stale now.
                await servers[2].stop()
                servers[2] = ReplicaServer(servers[2].config)
                await servers[2].start()
                before = servers[1].counters["connections.dialled"]
                reply = await _ask(ports[1],
                                   {"kind": "put", "key": "k", "value": 3})
                assert reply["ok"] is True
                assert servers[1].counters["connections.dialled"] \
                    == before + 1
                # Site 2 answered the round: P did not shrink.
                info = await _ask(ports[1], {"kind": "info"})
                assert info["partition_set"] == [1, 2, 3]
                result = await asyncio.to_thread(client.put, "k", 4)
                assert result.ok and result.attempts == 1
                # A refused fresh dial is still a failure, reused
                # socket or not.
                await servers[2].stop()
                assert await servers[1]._send_peer(
                    2, {"kind": "ping"}) is None
                assert await servers[1]._send_peer(
                    2, {"kind": "ping"}) is None
                result = await asyncio.to_thread(client.put, "k", 5)
                assert result.outcome == "unavailable"
                assert client._sockets == {}
            finally:
                client.close()
                await _stop_all(servers)

        asyncio.run(scenario())

    def test_a_stopped_replica_is_silent(self, tmp_path):
        async def scenario():
            servers, ports = await _start_cluster(tmp_path)
            try:
                # A round coordinated by every site: idle kept links in
                # each direction between site 2 and the others.
                for site in (1, 2, 3):
                    reply = await _ask(ports[site], {
                        "kind": "put", "key": "k", "value": site})
                    assert reply["ok"] is True
                assert sorted(servers[2]._links) == [1, 3]
                assert 2 in servers[1]._links
                await asyncio.wait_for(servers[2].stop(), 2.0)
                assert servers[2]._links == {}
                await asyncio.sleep(0.05)
                assert not servers[2]._accepted
                reply = await _ask(ports[1],
                                   {"kind": "put", "key": "k", "value": 9})
                assert reply["ok"] is True
                info = await _ask(ports[1], {"kind": "info"})
                assert info["partition_set"] == [1, 3]
            finally:
                await _stop_all(servers)

        asyncio.run(scenario())

    def test_fetch_carries_history_only_when_asked(self, tmp_path):
        async def scenario():
            servers, ports = await _start_cluster(tmp_path)
            try:
                await _ask(ports[1], {"kind": "put", "key": "k", "value": 1})
                bare = await _ask(ports[2], {"kind": "fetch"})
                assert bare["kind"] == "data"
                assert bare["data"] == {"k": 1}
                assert bare["state"] == servers[2].store.state.to_dict()
                assert "history" not in bare
                full = await _ask(ports[2],
                                  {"kind": "fetch", "history": True})
                assert {key: full[key] for key in bare} == bare
                assert full["history"] == servers[2].store.history
                assert len(full["history"]) == 1
            finally:
                await _stop_all(servers)

        asyncio.run(scenario())


class TestLeaseQueueing:
    """Contending coordinators queue for the lease instead of sleeping."""

    @pytest.mark.usefixtures("no_wire")
    def test_crossed_first_grants_both_finish_quickly(self, tmp_path):
        """Started at one instant, each coordinator's own site grants
        it first (A holds site 1, B holds site 2); wait-die refuses the
        younger one, which queues and reruns — nobody waits out a time-
        out.  The rerun round's queueing is a recorded lease wait."""
        peer_timeout = 4.0  # a wait is bounded at an eighth: 0.5 s
        cluster = SimCluster(tmp_path, peer_timeout=peer_timeout,
                             recover_interval=None)
        start = cluster.sim.now
        boxes = [cluster.submit(site, "put", f"k{site}", site)
                 for site in (1, 2)]
        cluster.run_until(lambda: all("reply" in box for box in boxes),
                          peer_timeout)
        elapsed = cluster.sim.now - start
        assert [box["reply"]["ok"] for box in boxes] == [True, True]
        # The grants did cross: the younger B was refused at 1.
        assert cluster.nodes[1].counters.get("busy", 0) >= 1
        assert elapsed < peer_timeout / 16
        waits = cluster.lease_waits
        assert waits and waits[0][3] is True
        assert 0 <= waits[0][2] < peer_timeout / 16
        cluster.close()

    def test_two_clients_on_disjoint_keys_never_contend(self, tmp_path):
        async def scenario():
            servers, ports = await _start_cluster(tmp_path)
            try:
                def drive(site):
                    with ServiceClient([(HOST, ports[site])],
                                       rng=random.Random(site)) as client:
                        return [client.put(f"c{site}.k{i % 4}", i).outcome
                                for i in range(40)]

                outcomes = await asyncio.gather(
                    asyncio.to_thread(drive, 1), asyncio.to_thread(drive, 2))
            finally:
                await _stop_all(servers)
            assert outcomes == [["ok"] * 40, ["ok"] * 40]
            assert sum(server.counters.get("contended", 0)
                       for server in servers.values()) == 0

        asyncio.run(scenario())
        assert check_histories(collect_histories(tmp_path, (1, 2, 3))) == []


class TestTracing:
    """Wire-compat and span recording for traced replicas.

    "Old client" here means a bare frame with no ``ctx`` (the protocol
    before tracing existed); "new client" attaches one.  Both must
    complete operations against traced and untraced replicas alike.
    """

    def test_old_client_against_traced_replicas(self, tmp_path):
        async def scenario():
            servers, ports = await _start_cluster(tmp_path, trace=True)
            try:
                reply = await _ask(ports[1],
                                   {"kind": "put", "key": "k",
                                    "value": "v"})
                assert reply["ok"] is True
                # The reply to an untraced request gains a ctx from the
                # replica's own handler span; an old client simply
                # ignores the extra key.
                read = await _ask(ports[2], {"kind": "get", "key": "k"})
                assert read["value"] == "v"
            finally:
                await _stop_all(servers)

        asyncio.run(scenario())
        # Every replica wrote its span log next to the WAL, and the
        # client op decomposed into a quorum round.
        from repro.obs.dtrace import load_span_logs

        spans = load_span_logs(tmp_path)
        assert spans
        names = {span["name"] for span in spans}
        assert "replica.put" in names
        assert "quorum.round" in names

    def test_new_client_against_untraced_replicas(self, tmp_path):
        async def scenario():
            servers, ports = await _start_cluster(tmp_path, trace=False)
            try:
                ctx = {"trace": "c" * 16, "span": "d" * 8, "lc": 3}
                reply = await _ask(ports[1],
                                   {"kind": "put", "key": "k",
                                    "value": "v", "ctx": ctx})
                assert reply["ok"] is True
                # Untraced replicas neither echo nor record context.
                assert "ctx" not in reply
            finally:
                await _stop_all(servers)

        asyncio.run(scenario())
        assert not list(tmp_path.rglob("*spans.jsonl"))

    def test_traced_round_trip_builds_a_causal_tree(self, tmp_path):
        from repro.obs.dtrace import (
            MemorySpanSink,
            SpanRecorder,
            build_traces,
            causal_violations,
            ctx_from_frame,
            load_span_logs,
        )

        client = SpanRecorder(MemorySpanSink(), proc="client-0")

        async def scenario():
            servers, ports = await _start_cluster(tmp_path, trace=True)
            try:
                op = client.span("client.put", op="put", key="k")
                reply = await _ask(ports[1],
                                   {"kind": "put", "key": "k",
                                    "value": "v", "ctx": op.sent()})
                assert reply["ok"] is True
                remote = ctx_from_frame(reply)
                assert remote is not None
                op.received(remote[2])
                op.finish(reply.get("outcome", "ok"))
            finally:
                await _stop_all(servers)

        asyncio.run(scenario())
        spans = load_span_logs(tmp_path) + client.sink.records
        traces = build_traces(spans)
        trace = traces[client.sink.records[0]["trace"]]
        assert causal_violations(trace) == []
        names = [span["name"] for _, span in trace.walk()]
        assert names[0] == "client.put"
        assert "replica.put" in names
        assert "quorum.round" in names
        assert any(name.startswith("rpc.") for name in names)
        procs = trace.procs()
        assert "client-0" in procs
        assert any(proc.startswith("site-") for proc in procs)
