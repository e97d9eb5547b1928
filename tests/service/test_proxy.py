"""Tests for the chaos TCP proxy and its fault rules."""

import asyncio
import random

import pytest

from repro.errors import ConfigurationError
from repro.service.frames import encode_frame, read_frame
from repro.service.proxy import ChaosProxy, ChaosRules


class TestChaosRules:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            ChaosRules(drop_rate=1.5)
        with pytest.raises(ConfigurationError):
            ChaosRules(delay_rate=-0.1)

    def test_partition_severs_across_blocks_only(self):
        rules = ChaosRules()
        rules.set_partition([(1,), (2, 3)])
        assert rules.severed(1, 2)
        assert not rules.severed(2, 3)
        assert not rules.severed(1, 1)
        rules.heal()
        assert not rules.severed(1, 2)

    def test_clients_are_never_severed(self):
        rules = ChaosRules()
        rules.set_partition([(1,), (2, 3)])
        assert not rules.severed(None, 1)
        assert not rules.severed(2, None)
        assert rules.verdict(None, 1) == "pass"

    def test_severed_peers_always_drop(self):
        rules = ChaosRules()
        rules.set_partition([(1,), (2,)])
        assert rules.verdict(1, 2) == "drop"

    def test_drop_and_delay_coins_are_seeded(self):
        sure = ChaosRules(drop_rate=1.0, rng=random.Random(1))
        assert sure.verdict(1, 2) == "drop"
        assert sure.verdict(None, 2) == "pass"  # coins skip client frames
        slow = ChaosRules(delay_rate=1.0, rng=random.Random(1))
        assert slow.verdict(1, 2) == "delay"
        calm = ChaosRules(rng=random.Random(1))
        assert calm.verdict(1, 2) == "pass"


class TestProxyWire:
    """End-to-end frame forwarding through a live proxy listener."""

    @staticmethod
    async def _echo_server():
        async def handle(reader, writer):
            try:
                while True:
                    message = await read_frame(reader)
                    if message is None:
                        break
                    writer.write(encode_frame({"kind": "echo",
                                               "got": message}))
                    await writer.drain()
            finally:
                writer.close()
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        return server, server.sockets[0].getsockname()[1]

    @staticmethod
    async def _ask(port, message, timeout=2.0):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(encode_frame(message))
            await writer.drain()
            return await asyncio.wait_for(read_frame(reader), timeout)
        finally:
            writer.close()

    def test_forwards_and_partitions(self):
        async def scenario():
            server, upstream_port = await self._echo_server()
            proxy = ChaosProxy("127.0.0.1", {2: (0, upstream_port)})
            await proxy.start()
            port = proxy.listen_port(2)
            try:
                # Clean pass-through for a peer frame.
                reply = await self._ask(port, {"kind": "ping", "from": 1})
                assert reply["got"] == {"kind": "ping", "from": 1}

                proxy.rules.set_partition([(1,), (2, 3)])
                # Client frames (no positive "from") cross a partition.
                reply = await self._ask(port, {"kind": "ping"})
                assert reply["kind"] == "echo"
                # Peer frames from the severed block are swallowed.
                with pytest.raises(asyncio.TimeoutError):
                    await self._ask(port, {"kind": "ping", "from": 1},
                                    timeout=0.3)
                assert proxy.dropped >= 1

                proxy.rules.heal()
                reply = await self._ask(port, {"kind": "ping", "from": 1})
                assert reply["kind"] == "echo"
            finally:
                await proxy.stop()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_kept_link_through_a_partition(self, tmp_path):
        """A frame the partition swallows on a kept link costs one
        time-out; the link is dialled again after the heal."""
        from repro.service.replica import ReplicaConfig, ReplicaServer

        async def scenario():
            server, upstream_port = await self._echo_server()
            proxy = ChaosProxy("127.0.0.1", {2: (0, upstream_port)})
            await proxy.start()
            replica = ReplicaServer(ReplicaConfig(
                site_id=1, host="127.0.0.1", port=0,
                data_dir=str(tmp_path),
                peers={2: ("127.0.0.1", proxy.listen_port(2))},
                peer_timeout=0.3))
            loop = asyncio.get_running_loop()
            try:
                for _ in range(2):
                    reply = await replica._call_peer(2, {"kind": "ping"})
                    assert reply["got"] == {"kind": "ping", "from": 1}
                assert replica.counters["connections.dialled"] == 1

                proxy.rules.set_partition([(1,), (2,)])
                start = loop.time()
                assert await replica._call_peer(2, {"kind": "ping"}) is None
                assert 0.3 <= loop.time() - start < 0.6
                assert proxy.dropped == 1
                assert replica._links == {}

                proxy.rules.heal()
                reply = await replica._call_peer(2, {"kind": "ping"})
                assert reply["kind"] == "echo"
                assert replica.counters["connections.dialled"] == 2
            finally:
                await replica.stop()
                await proxy.stop()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_source_is_read_from_every_frame(self):
        """One connection, two senders: the verdict follows each
        frame's own ``from``, not the first frame's."""
        async def scenario():
            server, upstream_port = await self._echo_server()
            proxy = ChaosProxy("127.0.0.1", {2: (0, upstream_port)})
            await proxy.start()
            proxy.rules.set_partition([(1,), (2, 3)])
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", proxy.listen_port(2))
            try:
                async def ask(sender):
                    writer.write(encode_frame({"kind": "ping",
                                               "from": sender}))
                    await writer.drain()
                    return await asyncio.wait_for(read_frame(reader), 0.3)

                assert (await ask(3))["got"]["from"] == 3
                with pytest.raises(asyncio.TimeoutError):
                    await ask(1)
                assert (await ask(3))["got"]["from"] == 3
                assert proxy.dropped == 1
            finally:
                writer.close()
                await proxy.stop()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_stop_closes_live_relays(self):
        async def scenario():
            server, upstream_port = await self._echo_server()
            proxy = ChaosProxy("127.0.0.1", {2: (0, upstream_port)})
            await proxy.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", proxy.listen_port(2))
            try:
                writer.write(encode_frame({"kind": "ping"}))
                await writer.drain()
                assert (await read_frame(reader))["kind"] == "echo"
                await asyncio.wait_for(proxy.stop(), 2.0)
                # The idle relay went with the listeners.
                assert await asyncio.wait_for(read_frame(reader),
                                              2.0) is None
                assert not proxy._relays
            finally:
                writer.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_needs_at_least_one_route(self):
        with pytest.raises(ConfigurationError):
            ChaosProxy("127.0.0.1", {})
