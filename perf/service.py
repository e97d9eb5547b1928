"""The three live-service workloads: serial, contended and faulted.

Each starts a real :class:`~repro.service.cluster.LocalCluster` (one OS
process per replica, fsynced WALs, loopback TCP) under ``perf/.work/`` and
drives it from this process with at most ``nproc`` client threads.  No
message delay or loss is injected anywhere: latency is processor time plus
loopback time.  The only faults are the four events of the fixed plan in
``service_faulted``.

The program under test only ever receives the operations generated here from
the seed.  Closed loops send a client's next request when the previous one
completes; the open loop sends on a precomputed schedule and times every
request from the moment it was *due*.
"""

from __future__ import annotations

import os
import pathlib
import random
import shutil
import socket
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median
from typing import Any, Iterator, Optional, Sequence

from repro.service import (
    ClusterSpec,
    DurableReplica,
    FaultEvent,
    LiveFaultDriver,
    LocalCluster,
    ServiceClient,
    SnapshotStore,
    WriteAheadLog,
    check_histories,
    collect_histories,
    encode_frame,
    evaluate_round,
    parse_segments,
    plan_commit,
    recv_frame,
    send_frame,
)

from perf.measure import (
    UNTRACED_SHARE,
    SpanLog,
    due_latency,
    duration,
    highest_percentile,
    percentile,
)

WORK = pathlib.Path(__file__).with_name(".work")

#: A request answered ``ok`` within this long of its due time meets the limit.
SLO_S = 0.250
WARMUP_S = 1.0
KEYS_PER_CLIENT = 4
WRITE_RATIO = 0.5
OPEN_RATE_PER_S = 20.0
#: Starts of a throwaway cluster per untraced run, besides the one measured
#: on.  ``setup_s`` is their mean, not their median: ``LocalCluster.start``
#: polls for readiness every 0.1 s, so single starts read 0.52 or 0.62 s and
#: a median would jump by a fifth between runs.
EXTRA_STARTS = 2
SETTLE_S = 5.0

#: The fault plan of ``service_faulted``, as shares of the run length.
PARTITION_AT, HEAL_AT, CRASH_AT, RESTART_AT = 0.15, 0.25, 0.50, 0.60
MINORITY, MAJORITY = (1, 2), (3, 4, 5)
VICTIM = 4
CLIENT_SITES = (3, 5)
FAULT_TOLERANCE_S = 0.050
LATE_TOLERANCE_S = 0.005


@dataclass(frozen=True)
class Service:
    """The shape of one service workload."""

    replicas: int
    policy: str
    segments: Optional[str]
    proxy: bool
    clients: int
    open_loop: bool


SERVICES = {
    "service_serial": Service(3, "ODV", None, False, 1, False),
    "service_contended": Service(3, "ODV", None, False, 2, False),
    "service_faulted": Service(5, "OTDV", "1,2/3,4,5", True, 2, True),
}


@dataclass
class Sample:
    """One client operation."""

    client: int
    kind: str
    outcome: str
    attempts: int
    sent: float                 # seconds after the load's epoch
    latency: float              # closed loop: from sent; open loop: from due
    due: Optional[float] = None
    phase: str = "measured"

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    @property
    def completed(self) -> float:
        """Seconds after the load's epoch at which the reply arrived."""
        return (self.sent if self.due is None else self.due) + self.latency


# ----------------------------------------------------------------------
# generated inputs
# ----------------------------------------------------------------------
def op_stream(seed: int, client: int) -> Iterator[tuple[str, str, Any]]:
    """Client *client*'s endless ``(kind, key, value)`` stream for *seed*:
    half puts, half gets, over its own four keys."""
    rng = random.Random(f"{seed}:ops-{client}")
    serial = 0
    while True:
        key = f"c{client}.k{rng.randrange(KEYS_PER_CLIENT)}"
        if rng.random() < WRITE_RATIO:
            serial += 1
            yield ("put", key, f"c{client}.v{serial}")
        else:
            yield ("get", key, None)


def open_schedule(seed: int, seconds: float, senders: int
                  ) -> list[list[float]]:
    """Due times per sender: one request every ``1 / rate`` seconds with a
    seeded phase, dealt to the senders in turn."""
    phase = random.Random(f"{seed}:phase").random()
    due = [(n + phase) / OPEN_RATE_PER_S
           for n in range(int(seconds * OPEN_RATE_PER_S))]
    return [due[sender::senders] for sender in range(senders)]


def fault_plan(seconds: float) -> list[FaultEvent]:
    """Partition the gateway, heal, SIGKILL a majority-side replica,
    restart it — at fixed shares of the run."""
    return [
        FaultEvent(PARTITION_AT * seconds, "partition",
                   blocks=(MINORITY, MAJORITY)),
        FaultEvent(HEAL_AT * seconds, "heal"),
        FaultEvent(CRASH_AT * seconds, "crash", site=VICTIM),
        FaultEvent(RESTART_AT * seconds, "restart", site=VICTIM),
    ]


# ----------------------------------------------------------------------
# clients
# ----------------------------------------------------------------------
class Client:
    """One load-generating client with its single-writer read check.

    Each client owns its keys, so after an acknowledged write of ``v`` a
    successful read must return ``v`` or a value this client issued later
    (an unacknowledged write may still have committed).  This is the
    window :mod:`repro.service.loadgen` checks, kept here because the
    generator is the benchmark's own.
    """

    def __init__(self, index: int, addresses: Sequence[tuple[str, int]],
                 seed: int):
        self.index = index
        self.service = ServiceClient(
            addresses, timeout=2.0,
            rng=random.Random(f"{seed}:client-{index}"))
        self.ops = op_stream(seed, index)
        self.issued: dict[str, list[Any]] = {}
        self.acked: dict[str, int] = {}
        self.samples: list[Sample] = []
        self.stale: list[str] = []

    def perform(self, epoch: float, phase: str, log: Optional[SpanLog],
                due: Optional[float] = None) -> None:
        """Send the next operation of the stream and record its sample."""
        kind, key, value = next(self.ops)
        if kind == "put":
            self.issued.setdefault(key, []).append(value)
        sent = time.perf_counter()
        if log is None:
            result = self._send(kind, key, value)
        else:
            with log.span(f"client.{kind}", client=self.index) as span:
                result = self._send(kind, key, value)
                span["outcome"] = result.outcome
                span["attempts"] = result.attempts
        done = time.perf_counter()
        if result.ok:
            self._check(kind, key, result.value)
        latency = (done - sent if due is None
                   else due_latency(epoch + due, done))
        self.samples.append(Sample(
            self.index, kind, result.outcome, result.attempts,
            sent - epoch, latency, due, phase))

    def _send(self, kind: str, key: str, value: Any) -> Any:
        if kind == "put":
            return self.service.put(key, value)
        return self.service.get(key)

    def _check(self, kind: str, key: str, read: Any) -> None:
        issued = self.issued.get(key, [])
        if kind == "put":
            self.acked[key] = len(issued) - 1
            return
        floor = self.acked.get(key, -1)
        try:
            position = issued.index(read)
        except ValueError:
            position = -1
        if position < floor or (read is not None and position < 0):
            self.stale.append(
                f"client {self.index} read {read!r} from {key} after "
                f"write #{floor} was acknowledged")


def _run_clients(clients: Sequence[Client], loop: Any) -> None:
    with ThreadPoolExecutor(max_workers=len(clients)) as pool:
        for future in [pool.submit(loop, client) for client in clients]:
            future.result()


def closed_phase(clients: Sequence[Client], seconds: float, epoch: float,
                 phase: str, log: Optional[SpanLog] = None) -> None:
    """Every client sends back to back, zero think time, for *seconds*."""
    deadline = time.perf_counter() + seconds

    def loop(client: Client) -> None:
        while time.perf_counter() < deadline:
            client.perform(epoch, phase, log)

    _run_clients(clients, loop)


# ----------------------------------------------------------------------
# cluster lifecycle and wire helpers
# ----------------------------------------------------------------------
@contextmanager
def work_directory(label: str) -> Iterator[pathlib.Path]:
    """A fresh directory under ``perf/.work``, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    directory = pathlib.Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK))
    try:
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)


@contextmanager
def started_cluster(service: Service, directory: pathlib.Path,
                    timings: list[float]) -> Iterator[LocalCluster]:
    """A running cluster rooted at *directory*, always stopped on the way
    out.  The time until every replica answered a ping is appended to
    *timings*."""
    cluster = LocalCluster(ClusterSpec(
        directory=str(directory), replicas=service.replicas,
        policy=service.policy, fsync="always", proxy=service.proxy,
        segments=service.segments))
    try:
        start = time.perf_counter()
        cluster.start()
        timings.append(time.perf_counter() - start)
        yield cluster
    finally:
        cluster.stop()


def _direct(cluster: LocalCluster, site: int) -> tuple[str, int]:
    return (cluster.spec.host, cluster.replica_ports[site])


def exchange(address: tuple[str, int], message: dict[str, Any]
             ) -> Optional[dict[str, Any]]:
    """One frame out, one frame back; ``None`` when the replica is away."""
    try:
        with socket.create_connection(address, timeout=1.0) as sock:
            send_frame(sock, message)
            return recv_frame(sock)
    except OSError:
        return None


def _visible_state(reply: Optional[dict[str, Any]]) -> Any:
    if not reply or reply.get("kind") != "data":
        return None
    state = reply["state"]
    return (state["operation"], state["version"],
            tuple(sorted(state["partition_set"])), reply["data"])


def await_agreement(cluster: LocalCluster, timeout: float = SETTLE_S
                    ) -> Optional[str]:
    """Wait until every replica holds the same ``(o, v, P)`` and data.

    ``info.digest`` cannot be compared across replicas (it covers the
    site id and a locally numbered log index), so the externally visible
    state is fetched instead.  Returns a complaint, or ``None``.
    """
    deadline = time.perf_counter() + timeout
    while True:
        states = {site: _visible_state(
            exchange(_direct(cluster, site), {"kind": "fetch"}))
            for site in cluster.sites}
        first = states[cluster.sites[0]]
        if first is not None and all(s == first for s in states.values()):
            return None
        if time.perf_counter() >= deadline:
            summary = {site: state and state[:3]
                       for site, state in states.items()}
            return f"replicas did not converge: {summary}"
        time.sleep(0.1)


def safety_violations(root: Any, sites: Sequence[int]) -> list[dict]:
    """The offline safety checks over the stopped replicas' durable logs."""
    return check_histories(collect_histories(root, sites))


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, log: Optional[SpanLog],
        problems: list[str]) -> tuple[dict[str, float], int, int]:
    """Run workload *name*; returns ``(metrics, attempted, failed)``.

    Untraced (*log* is ``None``) the metrics are the end-to-end ones,
    traced the per-layer ones.
    """
    service = SERVICES[name]
    threads = min(service.clients, os.cpu_count() or 1)
    starts: list[float] = []
    if log is None:
        for _ in range(EXTRA_STARTS):
            with work_directory(name) as directory, \
                    started_cluster(service, directory, starts):
                pass
    layers: dict[str, float] = {}
    with work_directory(name) as directory:
        with started_cluster(service, directory, starts) as cluster:
            sites = CLIENT_SITES if service.open_loop else cluster.sites
            addresses = [cluster.client_addresses[site - 1] for site in sites]
            clients = [Client(index, addresses, seed)
                       for index in range(threads)]
            closed_phase(clients, WARMUP_S, time.perf_counter(), "warmup")
            epoch = time.perf_counter()
            if service.open_loop:
                layers.update(_open_loop(cluster, clients, seed, seconds,
                                         epoch, log, problems))
            else:
                if log is not None:
                    closed_phase(clients, UNTRACED_SHARE * seconds, epoch,
                                 "reference")
                    seconds *= 1.0 - UNTRACED_SHARE
                    epoch = time.perf_counter()
                closed_phase(clients, seconds, epoch, "measured", log)
            complaint = await_agreement(cluster)
            if complaint:
                problems.append(complaint)
            samples = [s for client in clients for s in client.samples]
            if log is not None:
                layers.update(_scraped(cluster, samples))
                layers["client.ping_rtt_us"] = _ping_rtt_us(addresses[0])
        check_start = time.perf_counter()
        violations = safety_violations(directory, cluster.sites)
        layers["invariants.check_s"] = time.perf_counter() - check_start
        layers["invariants.violations"] = float(len(violations))
    problems.extend(f"safety: {v['invariant']}: {v['detail']}"
                    for v in violations)
    problems.extend(stale for client in clients for stale in client.stale)

    measured = [s for s in samples if s.phase == "measured"]
    attempted = len(measured)
    failed = sum(1 for s in measured if not s.ok)
    if not any(s.ok for s in measured):
        problems.append(f"{name}: no operation succeeded")
        return {}, max(attempted, 1), failed
    elapsed = max(s.completed for s in measured)
    if log is None:
        metrics = _end_to_end(measured, elapsed, service.open_loop)
        metrics["setup_s"] = sum(starts) / len(starts)
        return metrics, attempted, failed
    layers.update(_client_layers(measured))
    layers.update(_isolated(service, seed))
    layers["trace.spans"] = float(len(log.spans))
    if service.open_loop:
        layers["trace.overhead_ratio"] = 1.0 + _span_cost_s() / median(
            [duration(s) for s in log.spans if s["name"] != "fault"])
    else:
        reference = [s for s in samples if s.phase == "reference"]
        layers["trace.overhead_ratio"] = (
            _ok_rate(reference, sum(s.latency for s in reference))
            / _ok_rate(measured, sum(s.latency for s in measured)))
    return layers, attempted, failed


def _ok_rate(samples: Sequence[Sample], elapsed: float) -> float:
    return sum(1 for s in samples if s.ok) / elapsed


def _within_limit(sample: Sample) -> bool:
    return sample.ok and sample.latency <= SLO_S


def _end_to_end(measured: Sequence[Sample], elapsed: float,
                open_loop: bool) -> dict[str, float]:
    if open_loop:
        # Goodput: a late, failed or refused request misses the limit.
        latencies = [s.latency for s in measured]
        good = sum(1 for s in measured if _within_limit(s))
    else:
        latencies = [s.latency for s in measured if s.ok]
        good = len(latencies)
    return {
        "ops_per_s": good / elapsed,
        "p50_ms": 1e3 * percentile(latencies, 50.0),
    }


# ----------------------------------------------------------------------
# the open loop and its fault plan
# ----------------------------------------------------------------------
def _open_loop(cluster: LocalCluster, clients: Sequence[Client], seed: int,
               seconds: float, epoch: float, log: Optional[SpanLog],
               problems: list[str]) -> dict[str, float]:
    schedule = open_schedule(seed, seconds, len(clients))
    plan = fault_plan(seconds)
    driver = LiveFaultDriver(plan, proxy=cluster.proxy, supervisor=cluster)

    def loop(client: Client) -> None:
        for due in schedule[client.index]:
            wait = epoch + due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            client.perform(epoch, "measured", log, due)

    faults = cluster.runtime.submit(driver.run())
    with ThreadPoolExecutor(max_workers=len(clients)) as pool:
        senders = [pool.submit(loop, client) for client in clients]
        rejoin = _await_rejoin(cluster, driver, epoch,
                               epoch + seconds + SETTLE_S)
        for sender in senders:
            sender.result()
    faults.result(timeout=SETTLE_S)

    for event, applied in zip(plan, driver.applied):
        if abs(applied["applied_at"] - event.at) > FAULT_TOLERANCE_S:
            problems.append(
                f"fault {event.verb} planned at {event.at:.3f}s was "
                f"applied at {applied['applied_at']:.3f}s")
    if log is not None:
        for applied in driver.applied:
            log.event("fault", epoch + applied["applied_at"],
                      verb=applied["verb"])
    info = exchange(_direct(cluster, VICTIM), {"kind": "info"}) or {}
    recovery = info.get("recovery") or {}
    if not (recovery.get("had_state") and recovery.get("verified")
            and recovery.get("reinserted")):
        problems.append(f"killed replica {VICTIM} did not recover: "
                        f"{recovery}")
    samples = [s for client in clients for s in client.samples
               if s.due is not None]
    return _loadgen_layers(samples, seconds, rejoin, problems)


def _await_rejoin(cluster: LocalCluster, driver: LiveFaultDriver,
                  epoch: float, deadline: float) -> float:
    """Seconds from the restart until the victim's ``info`` frame says a
    RECOVER quorum reinserted it (0.0 when it never did in time)."""
    restarted = None
    while time.perf_counter() < deadline:
        if restarted is None:
            applied = [a for a in driver.applied if a["verb"] == "restart"]
            if applied:
                restarted = epoch + applied[0]["applied_at"]
        else:
            info = exchange(_direct(cluster, VICTIM), {"kind": "info"})
            if info and (info.get("recovery") or {}).get("reinserted"):
                return time.perf_counter() - restarted
        time.sleep(0.05)
    return 0.0


def _loadgen_layers(samples: Sequence[Sample], seconds: float,
                    rejoin: float, problems: list[str]) -> dict[str, float]:
    partition, heal = PARTITION_AT * seconds, HEAL_AT * seconds
    crash, restart = CRASH_AT * seconds, RESTART_AT * seconds
    # The first half second after the heal in which every request due met
    # the limit ends the catch-up.
    catchup = seconds - heal
    for step in range(int((seconds - heal) / 0.5)):
        low = heal + 0.5 * step
        due_now = [s for s in samples if low <= s.due < low + 0.5]
        if due_now and all(_within_limit(s) for s in due_now):
            catchup = 0.5 * step
            break
    quiet = [s for s in samples
             if s.due < partition or heal + catchup + 0.5 <= s.due < crash
             or s.due >= restart + 1.0]
    punctual = sum(1 for s in quiet if s.sent - s.due <= LATE_TOLERANCE_S)
    if quiet and punctual < 0.95 * len(quiet):
        problems.append(
            f"generator ran late outside the fault windows: only "
            f"{punctual}/{len(quiet)} requests sent within "
            f"{1e3 * LATE_TOLERANCE_S:.0f} ms of their due time")
    split = [s for s in samples if partition <= s.due < heal]
    late = [1e3 * (s.sent - s.due) for s in samples]
    due_ms = [1e3 * s.latency for s in samples]
    return {
        "loadgen.late_p50_ms": percentile(late, 50.0),
        "loadgen.late_max_ms": max(late),
        "loadgen.quiet_punctual_ratio":
            punctual / len(quiet) if quiet else 0.0,
        "loadgen.slo_ok_ratio":
            sum(1 for s in samples if _within_limit(s)) / len(samples),
        "loadgen.due_p50_ms": percentile(due_ms, 50.0),
        "loadgen.due_p90_ms": percentile(due_ms, 90.0),
        "loadgen.partition_ok_ratio":
            sum(1 for s in split if _within_limit(s)) / max(len(split), 1),
        "loadgen.partition_due_p50_ms":
            percentile([1e3 * s.latency for s in split], 50.0)
            if split else 0.0,
        "loadgen.catchup_s": catchup,
        "replica.rejoin_s": rejoin,
    }


# ----------------------------------------------------------------------
# per-layer metrics of a traced run
# ----------------------------------------------------------------------
def _client_layers(measured: Sequence[Sample]) -> dict[str, float]:
    metrics = {
        "client.attempts_per_op":
            sum(s.attempts for s in measured) / len(measured),
        "client.retried_ratio":
            sum(1 for s in measured if s.attempts > 1) / len(measured),
    }
    for kind in ("get", "put"):
        ms = [1e3 * s.latency for s in measured if s.ok and s.kind == kind]
        if not ms:
            continue
        metrics[f"client.{kind}_p50_ms"] = percentile(ms, 50.0)
        # A tail is reported only with ten samples or more beyond it.
        for q in (90, 99):
            if highest_percentile(len(ms)) >= q:
                metrics[f"client.{kind}_p{q}_ms"] = percentile(ms, q)
    return metrics


def _ping_rtt_us(address: tuple[str, int], pings: int = 200) -> float:
    client = ServiceClient([address], timeout=1.0)
    times = []
    for _ in range(pings):
        start = time.perf_counter()
        client.ping(address)
        times.append(time.perf_counter() - start)
    return 1e6 * median(times)


def _total(series: Sequence[dict], name: str, field: str = "value",
           **labels: str) -> float:
    return sum(entry.get(field) or 0.0 for entry in series
               if entry["name"] == name
               and all(entry["labels"].get(k) == v
                       for k, v in labels.items()))


def _scraped(cluster: LocalCluster, samples: Sequence[Sample]
             ) -> dict[str, float]:
    """One scrape of every replica's ``metrics?`` frame after load
    stopped, divided by the ``ok`` client operations since the start."""
    series: list[dict] = []
    for site in cluster.sites:
        reply = exchange(_direct(cluster, site), {"kind": "metrics?"})
        if reply and reply.get("kind") == "metrics":
            series.extend(reply["metrics"]["series"])
    ok = max(1, sum(1 for s in samples if s.ok))
    rounds = {stage: _total(series, f"replica.round.{stage}.seconds", "sum")
              for stage in ("collect", "evaluate", "commit")}
    served = _total(series, "service.op.seconds", "count")
    metrics = {
        "replica.collect_ms": 1e3 * rounds["collect"] / ok,
        "replica.evaluate_ms": 1e3 * rounds["evaluate"] / ok,
        "replica.commit_ms": 1e3 * rounds["commit"] / ok,
        "replica.op_ms":
            1e3 * _total(series, "service.op.seconds", "sum") / max(served, 1),
        "replica.rounds_per_op":
            _total(series, "replica.round.collect.seconds", "count") / ok,
        "replica.frames_per_op": _total(series, "replica.frames") / ok,
        "replica.lease_denied_per_op":
            _total(series, "replica.lease.denied") / ok,
        "wal.records_per_op": _total(series, "wal.records") / ok,
        "wal.bytes_per_op": _total(series, "wal.bytes") / ok,
        "wal.fsync_ms": 1e3 * _total(series, "wal.fsync.seconds", "sum") / ok,
    }
    if cluster.proxy is not None:
        proxy = cluster.proxy_metrics.to_dict()["series"]
        metrics["proxy.frames_passed"] = _total(
            proxy, "proxy.frames", verdict="pass")
        metrics["proxy.frames_dropped"] = _total(
            proxy, "proxy.frames", verdict="drop")
        metrics["proxy.bytes_per_op"] = _total(
            proxy, "proxy.frame.bytes") / ok
    return metrics


def _span_cost_s(spans: int = 2000) -> float:
    log = SpanLog()
    start = time.perf_counter()
    for _ in range(spans):
        with log.span("calibrate", client=0) as span:
            span["outcome"] = "ok"
    return (time.perf_counter() - start) / spans


def _per_call_us(calls: int, call: Any) -> float:
    start = time.perf_counter()
    for index in range(calls):
        call(index)
    return 1e6 * (time.perf_counter() - start) / calls


def _isolated(service: Service, seed: int) -> dict[str, float]:
    """The service's layers alone, over this workload's generated writes:
    frame codec, quorum evaluation, WAL, snapshot and durable store, plus
    a one-replica cluster as the no-peer baseline."""
    sites = list(range(1, service.replicas + 1))
    puts = (op for op in op_stream(seed, 0) if op[0] == "put")
    with work_directory("layers") as directory:
        store = DurableReplica.open(directory / "store", 1, sites,
                                    fsync="always", compact_every=10 ** 9)
        entries = [store.make_entry("write", n, n, sites,
                                    writes={key: value}, coordinator=1)
                   for n, (_, key, value) in zip(range(1, 2301), puts)]
        frame = {"kind": "commit", "from": 1, "entry": entries[0]}
        metrics = {"frames.commit_frame_bytes": float(len(encode_frame(frame))),
                   "frames.encode_us":
                       _per_call_us(2000, lambda _: encode_frame(frame))}
        left, right = socket.socketpair()
        with left, right:
            def roundtrip(_: int) -> None:
                send_frame(left, frame)
                recv_frame(right)
            metrics["frames.roundtrip_us"] = _per_call_us(2000, roundtrip)

        segments = parse_segments(service.segments)
        for size in (3, 5):
            members = frozenset(range(1, size + 1))
            states = {site: (7, 5, members) for site in members}

            def evaluate(_: int) -> None:
                verdict, replica_set, _protocol = evaluate_round(
                    service.policy, states, members,
                    segments if size == service.replicas else None)
                plan_commit(verdict, replica_set, "write")
            metrics[f"quorum.evaluate_us.{size}"] = _per_call_us(1000, evaluate)

        for policy, appends in (("always", 300), ("never", 2000)):
            wal = WriteAheadLog(directory / f"wal-{policy}", fsync=policy)
            wal.open()
            metrics[f"wal.append_us.{policy}"] = _per_call_us(
                appends, lambda n: wal.append(entries[n]))
            wal.close()
        start = time.perf_counter()
        replay = WriteAheadLog(directory / "wal-never")
        replayed = len(replay.open().entries)
        metrics["wal.replay_ms_per_1k"] = (
            1e6 * (time.perf_counter() - start) / replayed)
        replay.close()

        metrics["store.commit_us"] = _per_call_us(
            300, lambda n: store.commit(entries[n]))
        document = {"state": store.state.to_dict(), "data": store.data,
                    "history": store.history}
        snapshots = SnapshotStore(directory / "snapshots")
        metrics["wal.snapshot_ms"] = 1e-3 * _per_call_us(
            20, lambda _: snapshots.save(document))
        start = time.perf_counter()
        store.compact()
        metrics["store.compact_ms"] = 1e3 * (time.perf_counter() - start)
        for entry in entries[300:364]:
            store.commit(entry)
        store.close()
        start = time.perf_counter()
        DurableReplica.open(directory / "store", 1, sites,
                            fsync="never").close()
        metrics["store.open_ms"] = 1e3 * (time.perf_counter() - start)

    single = Service(1, service.policy, None, False, 1, False)
    with work_directory("single") as directory, \
            started_cluster(single, directory, []) as cluster:
        client = Client(0, cluster.client_addresses, seed)
        closed_phase([client], 1.0, time.perf_counter(), "measured")
    metrics["replica.single_node_p50_ms"] = 1e3 * median(
        [s.latency for s in client.samples if s.ok])
    return metrics
