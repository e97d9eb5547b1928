"""The per-key Wing–Gong checker, and the replica machines under it.

The unit cases pin what the checker accepts and rejects.  The load test
runs three closed-loop clients on two *shared* keys over the simulated
driver, through dropped links and a coordinator that dies mid-COMMIT,
and requires every key's history to be linearizable: the oracle that
one-round reads must keep silent.
"""

import math
import random

import pytest

from linearizability import Op, check_registers, linearizable, record
from sim_driver import SimCluster

UNKNOWN_END = math.inf


class TestChecker:
    def test_sequential_history_is_linearizable(self):
        assert linearizable([
            Op("get", "k", None, 0, 1),
            Op("put", "k", 1, 2, 3),
            Op("get", "k", 1, 4, 5),
        ])

    def test_a_stale_read_is_rejected(self):
        assert not linearizable([
            Op("put", "k", 1, 0, 1),
            Op("put", "k", 2, 2, 3),
            Op("get", "k", 1, 4, 5),
        ])

    def test_answered_at_the_instant_another_starts_precedes_it(self):
        assert not linearizable([
            Op("put", "k", 1, 0, 1),
            Op("put", "k", 2, 1, 2),
            Op("get", "k", 1, 2, 3),
        ])

    def test_overlapping_operations_may_go_either_way(self):
        for read in (1, 2):
            assert linearizable([
                Op("put", "k", 1, 0, 1),
                Op("put", "k", 2, 2, 5),
                Op("get", "k", read, 3, 4),
            ])

    def test_an_unknown_put_may_or_may_not_have_happened(self):
        for read in (None, 1):
            assert linearizable([
                Op("put", "k", 1, 0, UNKNOWN_END),
                Op("get", "k", read, 2, 3),
            ])

    def test_an_unknown_put_once_seen_stays_seen(self):
        assert not linearizable([
            Op("put", "k", 1, 0, UNKNOWN_END),
            Op("get", "k", 1, 2, 3),
            Op("get", "k", None, 4, 5),
        ])

    def test_keys_are_checked_apart(self):
        assert check_registers([
            Op("put", "a", 1, 0, 1),
            Op("get", "b", None, 2, 3),
            Op("get", "a", None, 2, 3),
        ]) == ["a"]

    def test_record_maps_outcomes(self):
        ok = {"kind": "result", "ok": True, "value": 7}
        assert record("get", "k", None, 0, 1, ok) == Op("get", "k", 7, 0, 1)
        assert record("put", "k", 3, 0, 1, ok) == Op("put", "k", 3, 0, 1)
        for reply in (None, {"kind": "error", "reason": "x"},
                      {"kind": "result", "ok": False,
                       "outcome": "unavailable"}):
            assert record("put", "k", 3, 0, 1, reply).end == UNKNOWN_END
            assert record("get", "k", None, 0, 1, reply) is None
        for outcome in ("denied", "contended"):
            assert record("put", "k", 3, 0, 1, {
                "kind": "result", "ok": False, "outcome": outcome}) is None


class _SharedLoad:
    """Closed-loop clients that each pick a random running site, key and
    kind per operation (a stopped site refuses the connection, so a
    client fails over at once), and give up on one after *timeout*
    simulated seconds (a put given up on may or may not have happened).
    """

    def __init__(self, cluster, seed, clients=3, keys=("a", "b"),
                 timeout=2.0):
        self.cluster = cluster
        self.rng = random.Random(seed)
        self.keys = keys
        self.timeout = timeout
        self.running = True
        self.ops = []
        self.answered = 0
        self._sent = 0
        for client in range(clients):
            self._issue(client)

    def _issue(self, client):
        if not self.running:
            return
        cluster, sim = self.cluster, self.cluster.sim
        self._sent += 1
        site = self.rng.choice([site for site in cluster.sites
                                if cluster.nodes[site].up])
        key = self.rng.choice(self.keys)
        kind = self.rng.choice(("get", "put"))
        value = f"c{client}.{self._sent}" if kind == "put" else None
        start = sim.now
        pending = {"open": True}

        def done(reply, timed_out=False):
            if not pending["open"]:
                return
            pending["open"] = False
            if not timed_out:
                sim.cancel(timer)
            self.answered += reply is not None and bool(reply.get("ok"))
            op = record(kind, key, value, start, sim.now, reply)
            if op is not None:
                self.ops.append(op)
            self._issue(client)

        timer = sim.schedule(self.timeout, lambda: done(None, True))
        cluster.submit(site, kind, key, value, done)


@pytest.mark.usefixtures("no_wire")
@pytest.mark.parametrize("seed", [3, 9, 10])
def test_shared_keys_stay_linearizable_through_faults(tmp_path, seed):
    """Site 3 is cut off while sites 1 and 2 commit without it, then
    serves reads again while stale; site 1 dies after the first frame of
    its next COMMIT and restarts over its old files.  (A get answered
    from a granted peek's *local* copy is caught at seed 9.)"""
    cluster = SimCluster(tmp_path, seed=seed)
    load = _SharedLoad(cluster, seed)
    sim = cluster.sim
    peeks = {"answered": 0, "fallback": 0}

    def tally():
        for node in cluster.nodes.values():
            peeks["answered"] += node.counters.get("reads.peek", 0)
            peeks["fallback"] += node.counters.get("reads.peek.fallback", 0)

    def restart():
        tally()  # a restart starts its counters afresh
        if not cluster.nodes[1].up:
            cluster.nodes[1].start()

    sim.schedule(0.3, lambda: cluster.partition((3,), (1, 2)))
    sim.schedule(1.5, cluster.heal)
    sim.schedule(1.8, lambda: cluster.crash_after_commits(1, 1))
    sim.schedule(2.4, restart)
    cluster.settle(4.0)
    load.running = False
    cluster.settle(3.0)
    tally()
    assert cluster.nodes[1]._crash_after is None, "site 1 never crashed"
    assert load.answered > 200
    assert peeks["answered"] > 20 and peeks["fallback"] > 0, peeks
    assert check_registers(load.ops) == []
    cluster.close()


@pytest.mark.usefixtures("no_wire")
@pytest.mark.xfail(strict=True, reason=(
    "A COMMIT is acknowledged once a majority of its recipients apply "
    "it, and a write's recipients may be mostly copies outside the "
    "previous P that missed only reads: here P = {1}, the put's COMMIT "
    "to site 1 is lost, sites 2 and 3 acknowledge it, and site 1, cut "
    "off, still holds a quorum of its own P and reads the old value. "
    "The leased read does the same once the lease expires, and also "
    "commits a rival operation under the put's number."))
def test_an_acknowledged_put_is_never_read_stale(tmp_path):
    cluster = SimCluster(tmp_path, recover_interval=None)
    ops = []

    def run(site, kind, value=None):
        start = cluster.sim.now
        reply = cluster.call(site, kind, "k", value)
        ops.append(record(kind, "k", value, start, cluster.sim.now, reply))
        return reply

    assert run(1, "put", 0)["ok"]
    cluster.nodes[3].crash()
    assert run(1, "get")["ok"]  # a leased read commits P = {1, 2}
    cluster.nodes[2].crash()
    assert run(1, "get")["ok"]  # and P = {1}
    cluster.nodes[2].start()
    cluster.nodes[3].start()
    cluster.drop(2, 1, "commit")
    assert run(2, "put", 1)["ok"]
    cluster.heal()
    cluster.partition((1,), (2, 3))
    run(1, "get")
    try:
        assert check_registers([op for op in ops if op is not None]) == []
    finally:
        cluster.close()
