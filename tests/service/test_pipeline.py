"""Group commit and forwarding, on the simulated driver.

A coordinator with operations queued runs the first one's round, and
its decision answers a batch: every ``get``/``put`` queued behind it up
to the first repeated key, under one COMMIT.  A replica whose lease
another site's client round holds forwards a client operation there,
once.  No socket and no sleep is involved (``no_wire``), so every
interleaving below is exact.
"""

import pytest

from repro.errors import ProtocolError
from repro.service import machine as machine_module
from repro.service.invariants import check_histories, collect_histories
from repro.service.store import read_history, writes_digest
from sim_driver import SimCluster

pytestmark = pytest.mark.usefixtures("no_wire")


class _Load:
    """Closed-loop clients on disjoint keys, each rotating over every
    site as ``ServiceClient`` does: the next operation leaves when the
    last one is answered."""

    def __init__(self, cluster, clients=2):
        self.cluster = cluster
        self.running = True
        self.answers = {client: [] for client in range(clients)}
        for client in range(clients):
            self._issue(client)

    def _issue(self, client):
        sent = len(self.answers[client])
        sites = self.cluster.sites
        site = sites[(client + sent) % len(sites)]
        key = f"c{client}.k{sent % 4}"
        if sent % 2:
            self.cluster.submit(site, "put", key, sent, self._answer(client))
        else:
            self.cluster.submit(site, "get", key, None, self._answer(client))

    def _answer(self, client):
        def answer(reply):
            self.answers[client].append(reply)
            if self.running:
                self._issue(client)
        return answer

    def ok(self):
        return sum(1 for replies in self.answers.values()
                   for reply in replies if reply and reply.get("ok"))


def _counter(cluster, name):
    return sum(node.counters.get(name, 0) for node in cluster.nodes.values())


def _loaded(root, seed, seconds=3.0):
    cluster = SimCluster(root, seed=seed)
    load = _Load(cluster)
    cluster.settle(seconds)
    load.running = False
    cluster.settle(2.0)
    cluster.close()
    return cluster, load


def _commit_labels(cluster, site):
    """The COMMIT frames *site* sent, by label (``commit[n]``: a batch
    of *n* operations)."""
    return [frame[3] for frame in cluster.frames
            if frame[1] == site and frame[3].startswith("commit")]


def test_two_clients_pipeline_and_forward(tmp_path):
    cluster, load = _loaded(tmp_path, seed=5)
    assert load.ok() > 300
    assert all(reply["ok"] for replies in load.answers.values()
               for reply in replies)
    # More than one operation per COMMIT on average: one WAL record per
    # batch at every site.
    assert load.ok() > 1.5 * len(list(read_history(tmp_path / "site-1")))
    assert _counter(cluster, "rounds.batched") > 0
    assert _counter(cluster, "batched.ops") \
        >= 2 * _counter(cluster, "rounds.batched")
    assert _counter(cluster, "forwarded") > 0
    assert _counter(cluster, "forward.failed") == 0
    assert "commit[2]" in {frame[3] for frame in cluster.frames}
    # Every lease is free once the load stops.
    assert all(node.machine.leases.holder is None
               for node in cluster.nodes.values())
    assert check_histories(collect_histories(tmp_path, cluster.sites)) == []


def test_same_seed_same_frame_log_under_load(tmp_path):
    first = _loaded(tmp_path / "a", seed=7, seconds=1.0)[0].frames
    assert first == _loaded(tmp_path / "b", seed=7, seconds=1.0)[0].frames
    assert first != _loaded(tmp_path / "c", seed=8, seconds=1.0)[0].frames


def test_stale_site_reinserts_under_continuous_load(tmp_path):
    """RECOVER is not starved: every round releases its leases, and a
    restarted site's RECOVER round asks as the oldest requester."""
    cluster = SimCluster(tmp_path, seed=3)
    cluster.nodes[3].crash()
    for i in range(3):
        assert cluster.call(1 + i % 2, "put", "k", i)["ok"]
    cluster.nodes[3].start()
    load = _Load(cluster)
    start = cluster.sim.now
    recovery = cluster.nodes[3].machine.recovery
    cluster.run_until(lambda: recovery.get("reinserted"), 30.0)
    assert recovery.get("reinserted_operation"), recovery
    assert cluster.sim.now - start < 1.5
    during = load.ok()
    assert during > 50
    cluster.settle(1.0)
    assert load.ok() > during  # the load never stopped
    load.running = False
    cluster.settle(3.0)
    assert _counter(cluster, "rounds.batched") > 0
    assert cluster.nodes[3].store.state.snapshot() \
        == cluster.nodes[1].store.state.snapshot()
    assert check_histories(collect_histories(tmp_path, cluster.sites)) == []
    cluster.close()


def test_queued_waiter_gets_the_lease_at_a_batched_commit(tmp_path):
    """A request waiting at site 3 gets its lease when site 1's batched
    COMMIT releases it, and the next write queues behind the waiter."""
    cluster = SimCluster(tmp_path, recover_interval=None)
    node = cluster.nodes[3]
    first = cluster.submit(1, "put", "a", 1)
    second = cluster.submit(1, "put", "b", 2)
    waited = {}
    # Site 2 asks after site 1's collect reached site 3, before its
    # COMMIT does, holding no lease elsewhere.
    cluster.sim.schedule(0.0015, lambda: cluster.request(
        2, 3, {"kind": "state?", "ticket": [0.0015, 2], "queue": True},
        lambda reply: waited.update(reply=reply, at=cluster.sim.now)))
    cluster.run_until(lambda: "reply" in waited and "reply" in second, 1.0)
    assert waited["reply"]["kind"] == "state"
    assert node.machine.leases.holder == 2
    # Both writes rode the COMMIT that handed the lease on.
    assert first["reply"]["ok"] and second["reply"]["ok"]
    assert first["reply"]["operation"] == second["reply"]["operation"]
    assert _commit_labels(cluster, 1) == ["commit[2]"] * 3
    assert node.store.data == {"a": 1, "b": 2}
    third = cluster.submit(1, "put", "c", 3)
    cluster.sim.schedule(0.01, lambda: cluster.request(
        2, 3, {"kind": "release"}, lambda reply: None))
    cluster.run_until(lambda: "reply" in third, 1.0)
    assert third["reply"]["ok"]
    assert cluster.lease_waits and cluster.lease_waits[-1][1] == 3
    cluster.close()


def test_a_repeated_key_ends_the_batch(tmp_path):
    cluster = SimCluster(tmp_path, recover_interval=None)
    boxes = [cluster.submit(1, "put", "k", 1),
             cluster.submit(1, "get", "j"),
             cluster.submit(1, "put", "k", 2),
             cluster.submit(1, "put", "j", 3)]
    cluster.run_until(lambda: all("reply" in box for box in boxes), 1.0)
    assert all(box["reply"]["ok"] for box in boxes)
    # The second write to k ends the first batch and starts the next,
    # which the write to j (read in the first) joins.
    assert _commit_labels(cluster, 1) == ["commit[2]"] * 3 \
        + ["commit[2]"] * 3
    assert boxes[1]["reply"]["value"] is None
    assert boxes[2]["reply"]["operation"] \
        == boxes[3]["reply"]["operation"] \
        == boxes[0]["reply"]["operation"] + 1
    assert cluster.nodes[2].store.data == {"k": 2, "j": 3}
    cluster.close()


def test_a_get_joins_only_where_this_copy_is_newest(tmp_path):
    """Site 3 missed a write and coordinates a write and a read: its own
    copy of ``y`` is stale, so the read waits for a round of its own,
    which reads a newest site's copy."""
    cluster = SimCluster(tmp_path, recover_interval=None)
    cluster.nodes[3].crash()
    assert cluster.call(1, "put", "y", 7)["ok"]
    cluster.nodes[3].start()
    put = cluster.submit(3, "put", "x", 1)
    get = cluster.submit(3, "get", "y")
    cluster.run_until(lambda: "reply" in get, 5.0)
    assert put["reply"]["ok"]
    assert get["reply"]["value"] == 7
    assert get["reply"]["source"] in (1, 2)
    assert not cluster.nodes[3].counters.get("rounds.batched")
    assert cluster.nodes[3].counters["rounds.get"] == 1
    cluster.close()


def test_a_probe_never_joins(tmp_path):
    cluster = SimCluster(tmp_path, recover_interval=None)
    node = cluster.nodes[1]
    first = cluster.submit(1, "put", "a", 1)
    probe = {}
    node._queue("probe", {"key": "p"}, lambda reply: probe.update(
        reply=reply))
    last = cluster.submit(1, "put", "b", 2)
    cluster.run_until(lambda: "reply" in last, 1.0)
    assert first["reply"]["ok"] and last["reply"]["ok"]
    assert probe["reply"]["outcome"] == "unavailable"
    assert _commit_labels(cluster, 1) == ["commit"] * 6
    assert not node.counters.get("rounds.batched")
    cluster.close()


def test_a_minority_commit_answers_every_batched_op_unavailable(tmp_path):
    cluster = SimCluster(tmp_path, recover_interval=None)
    for site in (2, 3):
        cluster.drop(1, site, "commit")
    boxes = [cluster.submit(1, "put", "a", 1),
             cluster.submit(1, "get", "b"),
             cluster.submit(1, "put", "c", 3)]
    cluster.run_until(lambda: all("reply" in box for box in boxes), 5.0)
    assert [box["reply"]["outcome"] for box in boxes] == ["unavailable"] * 3
    assert cluster.nodes[1].counters["commit.minority"] == 1
    assert cluster.nodes[1].counters["batched.ops"] == 3
    cluster.close()


def test_a_batch_that_raises_answers_every_op_error(tmp_path, monkeypatch):
    """The round raises after its decision took a batch: every queued
    operation, batched or not, is answered ``error`` and every lease
    is free at once."""
    cluster = SimCluster(tmp_path, recover_interval=None)

    def broken(*args, **kwargs):
        raise ProtocolError("forced")

    monkeypatch.setattr(machine_module, "plan_commit", broken)
    boxes = [cluster.submit(1, "put", "a", 1),
             cluster.submit(1, "put", "b", 2),
             cluster.submit(1, "put", "a", 3)]
    start = cluster.sim.now
    cluster.run_until(lambda: all("reply" in box for box in boxes), 1.0)
    assert [box["reply"]["kind"] for box in boxes] == ["error"] * 3
    cluster.run_until(lambda: all(node.machine.leases.holder is None
                                  for node in cluster.nodes.values()), 1.0)
    assert cluster.sim.now - start < cluster.lease_s / 10
    assert all(node.machine.leases.holder is None
               for node in cluster.nodes.values())
    monkeypatch.undo()
    assert cluster.call(2, "put", "c", 3)["ok"]
    cluster.close()


def test_forward_only_once(tmp_path):
    cluster = SimCluster(tmp_path, recover_interval=None)
    machine = cluster.nodes[1].machine
    now = cluster.sim.now
    machine.handle({"kind": "state?", "from": 2, "key": "j",
                    "ticket": [0.0, 2]}, now)
    put = {"kind": "put", "key": "k", "value": 1}
    assert machine.forward_to(put, now) == 2
    assert machine.forward_to(dict(put, forwarded=True), now) is None
    # A RECOVER round's state? names no key: run the op here, whether
    # or not it carries a ticket.
    for ticket in (None, [0, 3]):
        machine.handle({"kind": "release", "from": 2}, now)
        machine.handle({"kind": "state?", "from": 3, "ticket": ticket}, now)
        assert machine.leases.holder == 3
        assert machine.forward_to(put, now) is None
        machine.handle({"kind": "release", "from": 3}, now)
        machine.handle({"kind": "state?", "from": 2, "key": "j"}, now)
    cluster.close()


def test_a_restarted_site_recovering_is_never_forwarded_to(tmp_path):
    """Site 3 restarts and asks for site 1's lease with the oldest
    ticket; a client write arriving at site 1 meanwhile runs there
    instead of following site 3's stale copy."""
    cluster = SimCluster(tmp_path, recover_interval=None)
    cluster.nodes[3].crash()
    assert cluster.call(1, "put", "k", 1)["ok"]
    cluster.nodes[3].start()
    node = cluster.nodes[3]
    status = {}
    node.run(node.machine.recover_round, lambda s: status.update(s=s))
    leases = cluster.nodes[1].machine.leases
    cluster.run_until(lambda: leases.holder == 3, 1.0)
    assert leases.ticket == (0.0, 3)
    put = cluster.submit(1, "put", "x", 2)
    cluster.run_until(lambda: "reply" in put and "s" in status, 1.0)
    assert put["reply"]["ok"], put
    assert put["reply"]["site"] == 1
    assert not cluster.nodes[1].counters.get("forwarded")
    assert status["s"] == "reinserted"
    assert node.machine.recovery["reinserted"]
    assert check_histories(collect_histories(tmp_path, cluster.sites)) == []
    cluster.close()


def test_forwarded_op_is_run_at_most_once(tmp_path):
    """Site 2 forwards a write to site 1, whose round holds its lease;
    site 1 dies after committing it, before answering.  The forwarder
    never runs the write itself: its probe round finds a quorum, so the
    client is told ``unavailable``, and the write is applied once."""
    cluster = SimCluster(tmp_path, recover_interval=0.75)
    first = cluster.submit(1, "put", "a", 1)
    forwarded = {}
    # Site 1's collect holds site 2's lease from 1 ms until its COMMIT
    # arrives at 3 ms; the forwarded write's COMMIT leaves at 6 ms.
    cluster.sim.schedule(0.0015, lambda: forwarded.update(
        box=cluster.submit(2, "put", "b", "once")))
    cluster.sim.schedule(0.0065, cluster.nodes[1].crash)
    cluster.run_until(lambda: "reply" in forwarded.get("box", {}), 5.0)
    reply = forwarded["box"]["reply"]
    assert reply["outcome"] == "unavailable", reply
    assert "first" not in reply
    assert cluster.nodes[2].counters["forwarded"] == 1
    assert cluster.nodes[2].counters["forward.failed"] == 1
    assert cluster.nodes[2].counters["rounds.probe"] == 1
    assert not cluster.nodes[2].counters.get("rounds.put")
    assert ("put" in {frame[3] for frame in cluster.frames
                      if frame[1:3] == (2, 1)})
    cluster.nodes[1].start()
    cluster.settle(5.0)
    digest = writes_digest({"b": "once"})
    assert [sum(entry.get("writes_digest") == digest
                for entry in node.store.history)
            for node in cluster.nodes.values()] == [1, 1, 1]
    assert first["reply"]["ok"]
    assert check_histories(collect_histories(tmp_path, cluster.sites)) == []
    cluster.close()


def test_a_failed_forward_is_denied_on_the_minority_side(tmp_path):
    """Site 2, cut off from the others while site 1's round holds its
    lease, forwards a write there: the forward is lost, and the probe
    round is denied, as site 2's own round of the write would have
    been.  The write runs nowhere."""
    cluster = SimCluster(tmp_path, recover_interval=None)
    cluster.submit(1, "put", "a", 1)
    forwarded = {}
    cluster.sim.schedule(0.0014, lambda: cluster.partition((2,), (1, 3)))
    cluster.sim.schedule(0.0015, lambda: forwarded.update(
        box=cluster.submit(2, "put", "b", "never")))
    cluster.run_until(lambda: "reply" in forwarded.get("box", {}), 5.0)
    reply = forwarded["box"]["reply"]
    assert reply["outcome"] == "denied", reply
    assert cluster.nodes[2].counters["forward.failed"] == 1
    digest = writes_digest({"b": "never"})
    assert not any(entry.get("writes_digest") == digest
                   for node in cluster.nodes.values()
                   for entry in node.store.history)
    cluster.close()


@pytest.mark.xfail(strict=True, reason=(
    "A failed forward's probe answers the client denied (authoritative, "
    "not retried) when it cannot reach a quorum, but the coordinator it "
    "forwarded to may have run the put: here site 1 commits it at site 2 "
    "only and dies, the probe at site 3 is denied, and RECOVER repairs "
    "the commit, so the put is read back."))
def test_a_denied_probe_never_hides_an_applied_put(tmp_path):
    cluster = SimCluster(tmp_path, recover_interval=0.75)
    cluster.submit(1, "put", "a", 1)
    forwarded = {}
    cluster.sim.schedule(0.0015, lambda: forwarded.update(
        box=cluster.submit(3, "put", "b", "ghost")))
    cluster.sim.schedule(0.003, lambda: cluster.crash_after_commits(1, 1))
    cluster.run_until(lambda: "reply" in forwarded.get("box", {}), 5.0)
    reply = forwarded["box"]["reply"]
    assert reply["op"] == "probe"
    cluster.settle(5.0)
    for _ in range(5):
        read = cluster.call(3, "get", "b")
        if read["ok"]:
            break
    try:
        assert reply["outcome"] != "denied" or read["value"] is None, (
            reply, read)
    finally:
        cluster.close()


def test_a_round_that_raises_frees_every_lease_at_once(tmp_path,
                                                       monkeypatch):
    cluster = SimCluster(tmp_path, recover_interval=None)

    def broken(*args, **kwargs):
        raise ProtocolError("forced")

    monkeypatch.setattr(machine_module, "evaluate_round", broken)
    boxes = [cluster.submit(1, "put", "a", 1),
             cluster.submit(1, "put", "b", 2)]
    start = cluster.sim.now
    cluster.run_until(lambda: all("reply" in box for box in boxes), 1.0)
    assert [box["reply"]["kind"] for box in boxes] == ["error", "error"]
    cluster.run_until(lambda: all(node.machine.leases.holder is None
                                  for node in cluster.nodes.values()), 1.0)
    assert cluster.sim.now - start < cluster.lease_s / 10
    assert all(node.machine.leases.holder is None
               for node in cluster.nodes.values())
    # The same for a RECOVER round, whose error the driver counts.
    assert cluster.drive(2, cluster.nodes[2].machine.recover_round())[
        "kind"] == "error"
    cluster.run_until(lambda: all(node.machine.leases.holder is None
                                  for node in cluster.nodes.values()), 1.0)
    assert cluster.sim.now - start < cluster.lease_s / 10
    monkeypatch.undo()
    assert cluster.call(3, "put", "c", 3)["ok"]
    cluster.close()


def _history_lengths(cluster):
    return [len(list(read_history(node.directory)))
            for node in cluster.nodes.values()]


def test_a_stable_get_is_one_peek_exchange(tmp_path):
    """Every copy answers the one triple and body: the peek answers the
    get, with no lease, no COMMIT, no release and no WAL record."""
    cluster = SimCluster(tmp_path, recover_interval=None)
    assert cluster.call(1, "put", "k", 1)["ok"]
    histories = _history_lengths(cluster)
    applied = [node.store.applied_index for node in cluster.nodes.values()]
    before = len(cluster.frames)
    box = cluster.submit(2, "get", "k")
    while "reply" not in box:
        cluster.sim.step()
        assert all(node.machine.leases.holder is None
                   for node in cluster.nodes.values())
    assert box["reply"]["ok"] and box["reply"]["value"] == 1
    assert {frame[3] for frame in cluster.frames[before:]} == {"state?"}
    assert len(cluster.frames) - before == 3
    assert _history_lengths(cluster) == histories
    assert [node.store.applied_index
            for node in cluster.nodes.values()] == applied
    assert cluster.nodes[2].counters["reads.peek"] == 1
    assert not cluster.nodes[2].counters.get("reads.peek.fallback")
    assert cluster.nodes[2].counters["granted.get"] == 1
    cluster.close()


@pytest.mark.parametrize("sent", [0, 1, 2, 3])
def test_a_peek_after_a_partial_batch_falls_back(tmp_path, sent):
    """Site 1 dies after *sent* of its three frames of a two-write
    COMMIT.  A get at site 3 peeks at what that COMMIT left: the copies
    disagree or a member of ``P`` is silent, so the peek falls back, and
    both writes are read or neither is."""
    cluster = SimCluster(tmp_path, seed=4)
    assert cluster.call(1, "put", "a", 0)["ok"]
    assert cluster.call(1, "put", "b", 0)["ok"]
    cluster.crash_after_commits(1, sent)
    cluster.submit(1, "put", "a", 1)
    cluster.submit(1, "put", "b", 1)
    cluster.run_until(lambda: not cluster.nodes[1].up, 1.0)
    cluster.settle(0.1)  # past the follow window: site 3 runs the get
    get = cluster.submit(3, "get", "a")
    cluster.run_until(lambda: "reply" in get, 5.0)
    assert cluster.nodes[3].counters["reads.peek.fallback"] == 1
    assert not cluster.nodes[3].counters.get("reads.peek")
    cluster.settle(3.0)
    reads = []
    for key in ("a", "b"):
        for _ in range(5):  # a round waiting out the dead site denies
            reply = cluster.call(3, "get", key)
            if reply["ok"]:
                break
        reads.append(reply["value"])
    assert reads in ([0, 0], [1, 1]), reads
    if get["reply"]["ok"]:
        assert get["reply"]["value"] == reads[0]
    assert check_histories(collect_histories(tmp_path, cluster.sites)) == []
    cluster.close()


def test_a_minority_get_is_denied_after_one_peer_timeout(tmp_path):
    cluster = SimCluster(tmp_path, recover_interval=None)
    assert cluster.call(1, "put", "k", 1)["ok"]
    cluster.partition((1,), (2, 3))
    start = cluster.sim.now
    reply = cluster.call(1, "get", "k")
    assert reply["outcome"] == "denied", reply
    assert cluster.sim.now - start < 1.5 * cluster.peer_timeout
    assert cluster.nodes[1].counters["reads.peek.fallback"] == 1
    cluster.close()


def test_a_get_after_a_member_failure_commits_the_shrunken_p(tmp_path):
    """Site 3 is down: the peek misses a member of ``P``, so the get
    falls back and its leased round commits ``P = {1, 2}`` as before;
    the next get is answered by its peek."""
    cluster = SimCluster(tmp_path, recover_interval=None)
    assert cluster.call(1, "put", "k", 1)["ok"]
    cluster.nodes[3].crash()
    reply = cluster.call(1, "get", "k")
    assert reply["ok"] and reply["value"] == 1
    counters = cluster.nodes[1].counters
    assert counters["reads.peek.fallback"] == 1
    latest = cluster.nodes[1].store.latest
    assert (latest["kind"], latest["partition_set"]) == ("read", [1, 2])
    histories = _history_lengths(cluster)
    assert cluster.call(2, "get", "k")["value"] == 1
    assert cluster.nodes[2].counters["reads.peek"] == 1
    assert _history_lengths(cluster) == histories
    cluster.close()


def test_a_peek_is_answered_while_another_coordinator_holds_the_lease(
        tmp_path):
    cluster = SimCluster(tmp_path, recover_interval=None)
    assert cluster.call(1, "put", "k", 1)["ok"]
    now = cluster.sim.now
    for site in (2, 3):
        machine = cluster.nodes[site].machine
        assert machine.handle({"kind": "state?", "from": 2, "key": "j",
                               "ticket": [now, 2]}, now)[0]["kind"] \
            == "state"
    reply = cluster.call(1, "get", "k")
    assert reply["ok"] and reply["value"] == 1
    assert cluster.nodes[1].counters["reads.peek"] == 1
    for site in (2, 3):
        machine = cluster.nodes[site].machine
        assert machine.leases.holder == 2
        assert 1 not in machine._recovering
    cluster.close()
