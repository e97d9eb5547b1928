"""The service bench: live chaos against a real cluster, per policy.

For every requested protocol this spins up a fresh
:class:`~repro.service.cluster.LocalCluster` behind the chaos proxy,
derives a seeded fault plan from a simulator
:class:`~repro.chaos.schedule.ChaosSchedule` (topped up to the
acceptance gate's minimum of one SIGKILL and one live partition),
plays it with the :class:`~repro.service.chaos.LiveFaultDriver` while
worker threads hammer the cluster, and then holds the run to account:

* the durable histories must pass every offline safety check
  (:func:`~repro.service.invariants.check_histories`);
* the load workers must have observed no stale read;
* every SIGKILLed replica must have come back, verified its replay
  byte-for-byte and been reinserted by a RECOVER quorum.

A run that misses one says which: ``failed_gates`` (per policy and at
the top level) names the gates that tripped — ``violations``,
``recovery``, ``kills``, ``partitions``.

The result document (``format: repro-service-bench``) carries latency
quantiles and per-outcome availability per policy; the per-operation
samples are returned separately for the registry's sidecar file.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.chaos.schedule import ChaosPolicy, build_schedule, derived_rng
from repro.core.registry import available_policies
from repro.errors import ConfigurationError
from repro.obs.dtrace.collect import (
    build_traces,
    load_span_logs,
    sample_exemplars,
    summarize_trace,
)
from repro.obs.tsdb.alerts import AlertEngine, default_rules
from repro.obs.tsdb.scrape import (
    MetricsScraper,
    RegistryScrapeTarget,
    SocketScrapeTarget,
)
from repro.obs.tsdb.store import TimeSeriesStore
from repro.service.chaos import (
    LiveFaultDriver,
    ensure_minimums,
    live_plan_from_schedule,
)
from repro.service.cluster import ClusterSpec, LocalCluster
from repro.service.invariants import check_histories, collect_histories
from repro.service.loadgen import LoadResult, LoadSpec, run_load
from repro.service.replica import RECOVERY_MARKER

__all__ = [
    "BenchOptions",
    "run_bench",
]


@dataclass(frozen=True)
class BenchOptions:
    """Shape of one service bench run.

    Attributes:
        directory: Working directory (one subdirectory per policy).
        policies: Protocols to bench, each against its own cluster.
        replicas: Cluster size.
        duration: Seconds of load per policy.
        seed: Root seed for the schedule, the proxy coins and the load.
        workers: Load generator threads.
        write_ratio: Fraction of operations that are writes.
        fsync: WAL durability policy for every replica.
        segments: Co-location spec for the topological protocols.
        drop_rate / delay_rate: Frame-level chaos for the proxy coins.
        min_kills / min_partitions: Acceptance-gate fault quota.
        schedule_length: Steps drawn from the seeded schedule.
        trace: Record distributed traces end to end — clients, replicas
            and the chaos proxy all write spans, and after each policy
            the bench merges the logs and samples exemplar traces
            (always keeping violation and denied/unavailable traces).
        trace_exemplars: How many exemplar traces to keep per policy.
        scrape_interval: Seconds between metrics scrapes; ``0`` (the
            default) disables the pipeline.  On, every replica's
            direct port plus the in-process proxy registry are scraped
            into ``<directory>/tsdb`` and the SLO alert rules are
            evaluated against the store as the run progresses.
        availability_target: The burn-rate rules' SLO (0.99 → a 1%
            error budget).
    """

    directory: str
    policies: tuple[str, ...] = ("ODV", "OTDV")
    replicas: int = 5
    duration: float = 10.0
    seed: int = 1988
    workers: int = 3
    write_ratio: float = 0.5
    fsync: str = "always"
    segments: Optional[str] = None
    drop_rate: float = 0.02
    delay_rate: float = 0.05
    min_kills: int = 1
    min_partitions: int = 1
    schedule_length: int = 40
    trace: bool = False
    trace_exemplars: int = 8
    scrape_interval: float = 0.0
    availability_target: float = 0.99

    def __post_init__(self) -> None:
        if not self.policies:
            raise ConfigurationError("bench needs at least one policy")
        for policy in self.policies:
            if policy not in available_policies():
                raise ConfigurationError(
                    f"unknown policy {policy!r}; "
                    f"choose from {available_policies()}"
                )
        if self.replicas < 2:
            raise ConfigurationError(
                f"the bench needs >= 2 replicas, got {self.replicas}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"duration must be > 0, got {self.duration}")
        if self.scrape_interval < 0:
            raise ConfigurationError(
                f"scrape_interval must be >= 0, got "
                f"{self.scrape_interval}")
        if not 0.0 < self.availability_target < 1.0:
            raise ConfigurationError(
                f"availability_target must be in (0, 1), got "
                f"{self.availability_target}")


def _read_marker(path: pathlib.Path) -> Optional[dict[str, Any]]:
    try:
        marker = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return marker if isinstance(marker, dict) else None


def _await_recovery(
    cluster: LocalCluster, killed: list[int], grace: float,
) -> dict[str, Any]:
    """Poll the killed sites' recovery markers until reinserted."""
    deadline = time.monotonic() + grace
    pending = set(killed)
    markers: dict[str, Any] = {}
    while pending and time.monotonic() < deadline:
        for site in sorted(pending):
            marker = _read_marker(
                cluster.data_dir(site) / RECOVERY_MARKER)
            if marker and marker.get("verified") \
                    and marker.get("reinserted"):
                markers[str(site)] = marker
                pending.discard(site)
        if pending:
            time.sleep(0.2)
    for site in sorted(pending):
        markers[str(site)] = _read_marker(
            cluster.data_dir(site) / RECOVERY_MARKER)
    return markers


def _collect_traces(
    options: BenchOptions, root: pathlib.Path, load: LoadResult,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Merge span logs, pick exemplars; returns (summary, records).

    *records* holds every span belonging to a sampled exemplar trace —
    the lines that become the registry's ``.traces`` sidecar.
    """
    records = load_span_logs(root) + list(load.spans)
    traces = build_traces(records)
    always = {violation["trace"] for violation in load.violations
              if violation.get("trace")}
    exemplars = sample_exemplars(
        traces, limit=options.trace_exemplars, always=always)
    keep = {trace.trace_id for trace in exemplars}
    summary = {
        "spans": len(records),
        "traces": len(traces),
        "sampled": len(exemplars),
        "exemplars": [summarize_trace(trace) for trace in exemplars],
    }
    kept = [record for record in records if record.get("trace") in keep]
    return summary, kept


def _policy_samples(store: Optional[TimeSeriesStore], policy: str) -> list:
    """This policy's stored points (the store is shared across
    policies; alert windows must not see a predecessor's tail)."""
    if store is None:
        return []
    return [sample for sample in store.samples()
            if sample.labels.get("policy") == policy]


def _drain_alerts(
    options: BenchOptions, policy: str,
    store: Optional[TimeSeriesStore],
    scraper: MetricsScraper, engine: AlertEngine,
) -> None:
    """Post-load scrapes until firing alerts resolve (or a deadline).

    Load has stopped and faults are healed, so the burn-rate windows
    empty of errors as wall-clock passes; this loop keeps scraping the
    recovered cluster and re-evaluating so the ``alert.resolved`` edge
    lands inside the run instead of being lost at shutdown.
    """
    fast = max(0.75, 0.2 * options.duration)
    deadline = time.monotonic() + fast + 2.0
    while True:
        scraper.scrape()
        engine.evaluate(samples=_policy_samples(store, policy))
        if not engine.firing() or time.monotonic() >= deadline:
            return
        time.sleep(max(0.1, min(options.scrape_interval, 0.5)))


def _run_policy(
    options: BenchOptions, policy: str, bus: Optional[Any],
    tsdb_store: Optional[TimeSeriesStore] = None,
) -> tuple[dict[str, Any], LoadResult, list[dict[str, Any]]]:
    """One policy's full cluster lifecycle.

    Returns ``(doc, load, trace_records)`` — *trace_records* is empty
    unless ``options.trace``.
    """
    root = pathlib.Path(options.directory) / policy.lower()
    spec = ClusterSpec(
        directory=str(root),
        replicas=options.replicas,
        policy=policy,
        fsync=options.fsync,
        proxy=True,
        segments=options.segments,
        trace=options.trace,
    )
    cluster = LocalCluster(spec)
    cluster.rules.rng = derived_rng(options.seed, f"proxy-{policy}")
    sites = list(cluster.sites)
    schedule = build_schedule(
        options.seed, sites, sites,
        policy=ChaosPolicy(drop_rate=options.drop_rate,
                           delay_rate=options.delay_rate),
        length=options.schedule_length,
        config=f"service-{policy}",
    )
    plan = ensure_minimums(
        live_plan_from_schedule(schedule, options.duration),
        sites, options.duration,
        min_kills=options.min_kills,
        min_partitions=options.min_partitions,
    )
    if bus is not None:
        bus.publish("service.policy.start", policy=policy,
                    replicas=options.replicas,
                    planned_faults=len(plan))
    cluster.start()
    scraper: Optional[MetricsScraper] = None
    engine: Optional[AlertEngine] = None
    if tsdb_store is not None and options.scrape_interval > 0:
        targets: list[Any] = [
            SocketScrapeTarget(name, host, port,
                               timeout=min(1.0, options.scrape_interval))
            for name, (host, port)
            in sorted(cluster.scrape_addresses().items())
        ]
        targets.append(RegistryScrapeTarget("proxy",
                                            cluster.proxy_metrics))
        scraper = MetricsScraper(
            tsdb_store, targets, interval=options.scrape_interval,
            labels={"policy": policy})
        engine = AlertEngine(
            tsdb_store,
            default_rules(options.duration,
                          target=options.availability_target),
            bus=bus)
    driver = LiveFaultDriver(plan, proxy=cluster.proxy,
                             supervisor=cluster)
    fault_future = cluster.runtime.submit(driver.run())
    load_spec = LoadSpec(
        duration=options.duration,
        workers=options.workers,
        write_ratio=options.write_ratio,
        seed=options.seed,
        trace=options.trace,
    )
    load_box: dict[str, LoadResult] = {}

    def _load() -> None:
        load_box["result"] = run_load(cluster.client_addresses, load_spec)

    load_thread = threading.Thread(target=_load, name=f"bench-{policy}",
                                   daemon=True)
    load_thread.start()
    published = 0
    try:
        while load_thread.is_alive():
            # driver.applied is append-only; publishing from here keeps
            # the telemetry bus single-threaded.
            while bus is not None and published < len(driver.applied):
                bus.publish("service.fault", policy=policy,
                            **driver.applied[published])
                published += 1
            if scraper is not None and engine is not None \
                    and scraper.maybe_scrape():
                engine.evaluate(
                    samples=_policy_samples(tsdb_store, policy))
            time.sleep(0.1)
        load_thread.join()
        fault_future.result(timeout=options.duration + 30.0)
        while bus is not None and published < len(driver.applied):
            bus.publish("service.fault", policy=policy,
                        **driver.applied[published])
            published += 1
        killed = sorted({record["site"] for record in cluster.kills})
        recovery = _await_recovery(
            cluster, killed, grace=max(5.0, 0.75 * options.duration))
        if scraper is not None and engine is not None:
            _drain_alerts(options, policy, tsdb_store, scraper, engine)
        proxy_stats = {
            "forwarded": cluster.proxy.forwarded,
            "dropped": cluster.proxy.dropped,
            "delayed": cluster.proxy.delayed,
        } if cluster.proxy is not None else {}
    finally:
        cluster.stop()
    load = load_box.get("result") or LoadResult()
    histories = collect_histories(root, sites)
    violations = check_histories(histories) + list(load.violations)
    recovered = all(
        (recovery.get(str(site)) or {}).get("verified")
        and (recovery.get(str(site)) or {}).get("reinserted")
        for site in killed
    )
    applied_kills = sum(1 for record in driver.applied
                        if record["verb"] == "crash")
    applied_partitions = sum(1 for record in driver.applied
                             if record["verb"] == "partition")
    failed_gates = [gate for gate, passed in (
        ("violations", not violations),
        ("recovery", recovered),
        ("kills", applied_kills >= options.min_kills),
        ("partitions", applied_partitions >= options.min_partitions),
    ) if not passed]
    ok = not failed_gates
    doc = {
        "policy": policy,
        "ok": ok,
        "failed_gates": failed_gates,
        "load": load.to_dict(),
        "faults": list(driver.applied),
        "kills": list(cluster.kills),
        "restarts": list(cluster.restarts),
        "recovery": recovery,
        "recovered": recovered,
        "violations": violations,
        "proxy": proxy_stats,
        "commits": {str(site): sum(1 for _ in history)
                    for site, history in sorted(histories.items())},
    }
    if scraper is not None and engine is not None:
        doc["scrape"] = {
            "interval": options.scrape_interval,
            "targets": len(scraper.targets),
            "scrapes": scraper.scrapes,
            "failures": scraper.failures,
        }
        doc["alerts"] = engine.summary()
    trace_records: list[dict[str, Any]] = []
    if options.trace:
        doc["traces"], trace_records = _collect_traces(
            options, root, load)
    if bus is not None:
        bus.publish("service.policy.done", policy=policy, ok=ok,
                    operations=len(load.samples),
                    violations=len(violations))
    return doc, load, trace_records


def run_bench(
    options: BenchOptions, bus: Optional[Any] = None,
) -> tuple[dict[str, Any], bytes, bytes]:
    """Run the bench; returns ``(document, samples, traces)``.

    *document* is the ``repro-service-bench`` summary; *samples* is the
    JSON-lines sidecar (one line per operation, stamped with its
    policy) the registry stores next to the run; *traces* is the
    JSON-lines span sidecar for the sampled exemplar traces (empty
    unless ``options.trace``).

    With ``scrape_interval > 0`` the run also leaves a queryable
    time-series store at ``<directory>/tsdb`` (its path rides the
    document's ``tsdb`` member, and ``RunRegistry.record_service``
    copies it into the run's ``.tsdb/`` sidecar when passed along).
    """
    policies: dict[str, Any] = {}
    lines: list[str] = []
    trace_lines: list[str] = []
    tsdb_store: Optional[TimeSeriesStore] = None
    tsdb_dir: Optional[pathlib.Path] = None
    if options.scrape_interval > 0:
        tsdb_dir = pathlib.Path(options.directory) / "tsdb"
        tsdb_store = TimeSeriesStore(tsdb_dir)
    try:
        for policy in options.policies:
            doc, load, trace_records = _run_policy(options, policy, bus,
                                                   tsdb_store)
            policies[policy] = doc
            for sample in load.samples:
                lines.append(json.dumps(
                    dict(sample, policy=policy),
                    sort_keys=True, separators=(",", ":")))
            for record in trace_records:
                trace_lines.append(json.dumps(
                    dict(record, policy=policy),
                    sort_keys=True, separators=(",", ":")))
    finally:
        if tsdb_store is not None:
            tsdb_store.close()
    document = {
        "format": "repro-service-bench",
        "version": 2,
        "seed": options.seed,
        "duration": options.duration,
        "replicas": options.replicas,
        "workers": options.workers,
        "write_ratio": options.write_ratio,
        "fsync": options.fsync,
        "scrape_interval": options.scrape_interval,
        "tsdb": None if tsdb_dir is None else str(tsdb_dir),
        "policies": policies,
        "ok": all(doc["ok"] for doc in policies.values()),
        "failed_gates": sorted({gate for doc in policies.values()
                                for gate in doc["failed_gates"]}),
        "totals": {
            "operations": sum(
                doc["load"]["operations"] for doc in policies.values()),
            "violations": sum(
                len(doc["violations"]) for doc in policies.values()),
            "kills": sum(len(doc["kills"]) for doc in policies.values()),
            "partitions": sum(
                sum(1 for fault in doc["faults"]
                    if fault["verb"] == "partition")
                for doc in policies.values()),
        },
    }
    samples = ("\n".join(lines) + "\n").encode("utf-8") if lines \
        else b""
    traces = ("\n".join(trace_lines) + "\n").encode("utf-8") \
        if trace_lines else b""
    return document, samples, traces
