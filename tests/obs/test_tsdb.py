"""Unit tests for the cluster metrics pipeline (`repro.obs.tsdb`).

Store framing and retention, the selector/query layer, the scraping
collector's failure semantics, and the SLO alert engine's fire→resolve
edges — all with synthetic samples and injected clocks, no sockets or
subprocesses (the live path is covered by the bench end-to-end test).
"""

import json
import struct

import pytest

from repro.errors import ConfigurationError, WALCorruptionError
from repro.obs.live.bus import TelemetryBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.tsdb import (AlertEngine, BurnRateRule, MetricsScraper,
                            QuantileThresholdRule, RegistryScrapeTarget,
                            Sample, SocketScrapeTarget, TimeSeriesStore,
                            default_rules, parse_selector, run_query)


def _batch(at, target="site-1", labels=None, series=()):
    return {
        "format": "repro-tsdb-batch",
        "version": 1,
        "at": at,
        "target": target,
        "labels": dict(labels or {}),
        "series": list(series),
    }


def _counter(name, value, **labels):
    return {"name": name, "labels": labels, "type": "counter",
            "value": value}


def _gauge(name, value, **labels):
    return {"name": name, "labels": labels, "type": "gauge",
            "value": value}


def _histogram(name, count, p99, **labels):
    return {"name": name, "labels": labels, "type": "histogram",
            "count": count, "sum": p99 * count, "mean": p99,
            "p50": p99, "p95": p99, "p99": p99, "p999": p99,
            "min": p99, "max": p99}


class TestStoreRoundTrip:
    def test_batches_and_samples_round_trip(self, tmp_path):
        with TimeSeriesStore(tmp_path / "tsdb") as store:
            store.append(_batch(1.0, labels={"policy": "ODV"}, series=[
                _counter("service.ops", 3, outcome="ok"),
                _gauge("scrape.up", 1.0),
            ]))
            store.append(_batch(2.0, target="site-2", series=[
                _histogram("service.op.seconds", count=10, p99=0.5),
            ]))
        store = TimeSeriesStore(tmp_path / "tsdb")
        batches = list(store.batches())
        assert [b["at"] for b in batches] == [1.0, 2.0]
        samples = list(store.samples())
        assert len(samples) == 3
        ops = samples[0]
        assert ops.name == "service.ops"
        assert ops.value == 3.0
        # Batch labels and the target fold into the sample labels.
        assert ops.labels == {"policy": "ODV", "target": "site-1",
                              "outcome": "ok"}
        hist = samples[-1]
        assert hist.type == "histogram"
        assert hist.value is None
        assert hist.summary["p99"] == 0.5
        assert hist.labels["target"] == "site-2"

    def test_reopen_appends_to_the_same_chunk(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        store.append(_batch(1.0))
        store.close()
        again = TimeSeriesStore(tmp_path / "tsdb")
        again.append(_batch(2.0))
        again.close()
        assert len(again.chunk_paths()) == 1
        assert len(list(again.batches())) == 2

    def test_malformed_entries_are_skipped_not_fatal(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        store.append(_batch("not-a-time", series=[_gauge("g", 1.0)]))
        store.append(_batch(1.0, series=[
            {"name": "weird", "type": "mystery", "value": 1.0},
            {"labels": {}, "type": "gauge", "value": 2.0},
            _gauge("kept", 3.0),
        ]))
        kept = list(store.samples())
        assert [s.name for s in kept] == ["kept"]

    def test_config_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            TimeSeriesStore(tmp_path, chunk_bytes=0)
        with pytest.raises(ConfigurationError):
            TimeSeriesStore(tmp_path, max_chunks=0)


class TestRotationAndRetention:
    def test_rotation_seals_chunks_at_the_size_cap(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb", chunk_bytes=256)
        for tick in range(8):
            store.append(_batch(float(tick),
                                series=[_gauge("g", float(tick))]))
        store.close()
        assert len(store.chunk_paths()) > 1
        # Everything written is still readable, oldest first.
        assert [b["at"] for b in store.batches()] == \
            [float(tick) for tick in range(8)]

    def test_retention_drops_the_oldest_chunks(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb", chunk_bytes=128,
                                max_chunks=2)
        for tick in range(20):
            store.append(_batch(float(tick)))
        store.close()
        chunks = store.chunk_paths()
        assert len(chunks) <= 2
        ats = [b["at"] for b in store.batches()]
        # Newest-biased window: the latest batch survived, the first
        # did not.
        assert 19.0 in ats
        assert 0.0 not in ats


class TestCrashContract:
    def test_torn_tail_in_newest_chunk_is_dropped(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        store.append(_batch(1.0))
        store.append(_batch(2.0))
        store.close()
        # A scraper killed mid-append leaves a half-written final
        # record in the active chunk.
        chunk = store.chunk_paths()[-1]
        data = chunk.read_bytes()
        chunk.write_bytes(data + struct.pack(">II", 999, 0) + b"par")
        assert [b["at"] for b in store.batches()] == [1.0, 2.0]

    def test_torn_sealed_chunk_raises(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        store.append(_batch(1.0))
        store.close()
        chunk = store.chunk_paths()[0]
        chunk.write_bytes(chunk.read_bytes()[:-3])
        # Add a newer chunk so the torn one is no longer the tail.
        (tmp_path / "tsdb" / "chunk-000002.tsdb").write_bytes(b"")
        with pytest.raises(WALCorruptionError):
            list(store.batches())

    def test_mid_chunk_corruption_raises_even_on_the_tail(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        store.append(_batch(1.0))
        store.append(_batch(2.0))
        store.close()
        chunk = store.chunk_paths()[-1]
        data = bytearray(chunk.read_bytes())
        data[12] ^= 0xFF  # flip a byte inside the first payload
        chunk.write_bytes(bytes(data))
        with pytest.raises(WALCorruptionError):
            list(store.batches())

    def test_reopen_after_torn_append_keeps_later_batches(self, tmp_path):
        """Regression: the writer appended behind a torn record, whose
        length prefix then swallowed every later batch."""
        store = TimeSeriesStore(tmp_path / "tsdb")
        store.append(_batch(1.0))
        store.close()
        chunk = store.chunk_paths()[-1]
        chunk.write_bytes(chunk.read_bytes()
                          + struct.pack(">II", 999, 0) + b"par")
        restarted = TimeSeriesStore(tmp_path / "tsdb")
        restarted.append(_batch(2.0))
        restarted.append(_batch(3.0))
        restarted.close()
        assert [b["at"] for b in restarted.batches()] == [1.0, 2.0, 3.0]

    def test_torn_full_chunk_is_repaired_before_it_is_sealed(
            self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb", chunk_bytes=64)
        store.append(_batch(1.0))  # fills the chunk; rotation follows
        store.close()
        first = store.chunk_paths()[0]
        for stale in store.chunk_paths()[1:]:
            stale.unlink()  # killed before the rotated chunk existed
        first.write_bytes(first.read_bytes() + b"\x00\x00\x01")
        restarted = TimeSeriesStore(tmp_path / "tsdb", chunk_bytes=64)
        restarted.append(_batch(2.0))
        restarted.close()
        assert len(restarted.chunk_paths()) > 1
        assert [b["at"] for b in restarted.batches()] == [1.0, 2.0]

    def test_absurd_length_prefix_is_corruption(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        store.append(_batch(1.0))
        store.close()
        chunk = store.chunk_paths()[0]
        data = bytearray(chunk.read_bytes())
        struct.pack_into(">I", data, 0, 1 << 30)
        chunk.write_bytes(bytes(data))
        with pytest.raises(WALCorruptionError):
            list(store.batches())


class TestSelector:
    def test_bare_name(self):
        assert parse_selector("service.ops") == ("service.ops", {})

    def test_labels(self):
        name, labels = parse_selector(
            'service.ops{outcome="ok",target="site-1"}')
        assert name == "service.ops"
        assert labels == {"outcome": "ok", "target": "site-1"}

    @pytest.mark.parametrize("text", [
        "", "{a=\"b\"}", "name{unquoted=value}", "name{broken",
        "na me", "name{a=\"b\",}",
    ])
    def test_malformed_selectors_raise(self, text):
        with pytest.raises(ConfigurationError):
            parse_selector(text)


def _point(at, name, value, **labels):
    return Sample(at=at, name=name, type="counter", labels=labels,
                  value=value, summary=None)


def _hist_point(at, name, count, p99, **labels):
    return Sample(at=at, name=name, type="histogram", labels=labels,
                  value=None,
                  summary={"count": count, "p99": p99, "mean": p99})


class TestQuery:
    def test_increase_is_reset_tolerant(self):
        # A restart zeroes the counter at t=3; the post-reset value
        # counts instead of a negative delta.
        points = [_point(t, "ops", v) for t, v in
                  [(1, 10.0), (2, 15.0), (3, 2.0), (4, 7.0)]]
        doc = run_query(points, "ops", fn="increase", window=10.0, at=4.0)
        assert doc["results"][0]["value"] == pytest.approx(12.0)

    def test_rate_divides_by_the_in_window_span(self):
        points = [_point(t, "ops", 10.0 * t) for t in (1, 2, 3)]
        doc = run_query(points, "ops", fn="rate", window=10.0, at=3.0)
        assert doc["results"][0]["value"] == pytest.approx(10.0)

    def test_rate_requires_a_window(self):
        with pytest.raises(ConfigurationError):
            run_query([], "ops", fn="rate")

    def test_unknown_function_rejected(self):
        with pytest.raises(ConfigurationError):
            run_query([], "ops", fn="median")

    def test_last_respects_the_window(self):
        points = [_point(1, "g", 1.0), _point(5, "g", 5.0)]
        doc = run_query(points, "g", fn="last", window=1.0, at=2.0)
        assert doc["results"][0]["value"] == 1.0

    def test_label_filter_selects_one_series(self):
        points = [_point(1, "ops", 1.0, outcome="ok"),
                  _point(1, "ops", 9.0, outcome="denied")]
        doc = run_query(points, 'ops{outcome="denied"}', fn="last")
        assert len(doc["results"]) == 1
        assert doc["results"][0]["value"] == 9.0

    def test_merged_quantile_is_count_weighted(self):
        points = [
            _hist_point(1, "lat", count=90, p99=1.0, target="site-1"),
            _hist_point(1, "lat", count=10, p99=11.0, target="site-2"),
        ]
        doc = run_query(points, "lat", fn="p99")
        assert doc["merged"] == pytest.approx(2.0)
        per_series = {row["labels"]["target"]: row["value"]
                      for row in doc["results"]}
        assert per_series == {"site-1": 1.0, "site-2": 11.0}


class TestScraper:
    def test_registry_target_batches_with_scrape_up(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("service.ops", outcome="ok").inc(4)
        store = TimeSeriesStore(tmp_path / "tsdb")
        scraper = MetricsScraper(
            store, [RegistryScrapeTarget("proxy", registry)],
            interval=1.0, labels={"policy": "ODV"}, clock=lambda: 100.0)
        assert scraper.scrape() == 1
        store.close()
        batches = list(store.batches())
        assert len(batches) == 1
        assert batches[0]["target"] == "proxy"
        assert batches[0]["labels"] == {"policy": "ODV"}
        names = {s["name"] for s in batches[0]["series"]}
        assert names == {"service.ops", "scrape.up"}
        up = run_query(store.samples(), "scrape.up", fn="last")
        assert up["results"][0]["value"] == 1.0

    def test_dead_target_yields_scrape_up_zero_not_an_error(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        # Nothing listens on port 1 — connection refused mid-scrape is
        # exactly what a chaos kill looks like to the collector.
        dead = SocketScrapeTarget("site-1", "127.0.0.1", 1, timeout=0.2)
        scraper = MetricsScraper(store, [dead], clock=lambda: 100.0)
        assert scraper.scrape() == 0
        assert scraper.failures == 1
        store.close()
        [batch] = list(store.batches())
        assert batch["series"] == [{"name": "scrape.up", "labels": {},
                                    "type": "gauge", "value": 0.0}]

    def test_maybe_scrape_throttles_to_the_interval(self, tmp_path):
        ticks = iter([100.0, 100.1, 100.6, 101.2])
        store = TimeSeriesStore(tmp_path / "tsdb")
        scraper = MetricsScraper(
            store, [RegistryScrapeTarget("r", MetricsRegistry())],
            interval=0.5, clock=lambda: next(ticks))
        assert scraper.maybe_scrape() is True     # first call always
        assert scraper.maybe_scrape() is False    # +0.1s: throttled
        assert scraper.maybe_scrape() is True     # +0.6s: due
        assert scraper.scrapes == 2


def _ops_timeline():
    """A synthetic partition: ok traffic, a denied burst, a heal.

    Counters are cumulative like the real replica registries.  The
    denied series only grows during t=4..6; ok traffic stalls during
    the partition and resumes after.
    """
    ok = [(0, 0), (1, 10), (2, 20), (3, 30), (4, 30), (5, 30), (6, 30),
          (7, 40), (8, 50), (9, 60), (10, 70)]
    denied = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 5), (5, 10), (6, 15),
              (7, 15), (8, 15), (9, 15), (10, 15)]
    samples = []
    for at, value in ok:
        samples.append(_point(float(at), "service.ops", float(value),
                              outcome="ok", target="site-1"))
    for at, value in denied:
        samples.append(_point(float(at), "service.ops", float(value),
                              outcome="denied", target="site-1"))
    return samples


class TestAlertEngine:
    def _engine(self, tmp_path, bus=None):
        rule = BurnRateRule(
            name="availability-burn-rate", severity="critical",
            selector="service.ops", target=0.99,
            fast_window=2.0, slow_window=4.0,
            fast_burn=10.0, slow_burn=3.0)
        store = TimeSeriesStore(tmp_path / "tsdb")
        return AlertEngine(store, rules=[rule], bus=bus)

    def test_burn_rate_fires_during_partition_and_resolves(self, tmp_path):
        engine = self._engine(tmp_path)
        samples = _ops_timeline()
        history = []
        for instant in range(0, 11):
            for edge in engine.evaluate(samples=samples,
                                        now=float(instant)):
                history.append((edge["state"], edge["at"]))
        assert [state for state, _ in history] == ["firing", "resolved"]
        fired_at = history[0][1]
        resolved_at = history[1][1]
        assert 4.0 <= fired_at <= 6.0       # inside the partition
        assert resolved_at > 6.0            # after the heal
        assert engine.firing() == []
        summary = engine.summary()
        assert summary["firing"] == []
        assert [e["state"] for e in summary["events"]] == \
            ["firing", "resolved"]
        resolved = summary["events"][-1]
        assert resolved["after_seconds"] == \
            pytest.approx(resolved_at - fired_at)
        assert summary["rules"][0]["kind"] == "burn-rate"

    def test_edges_publish_on_the_telemetry_bus(self, tmp_path):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(lambda event: seen.append(event))
        engine = self._engine(tmp_path, bus=bus)
        samples = _ops_timeline()
        for instant in range(0, 11):
            engine.evaluate(samples=samples, now=float(instant))
        kinds = [event.kind for event in seen]
        assert kinds == ["alert.firing", "alert.resolved"]
        firing = seen[0].fields
        assert firing["alert"] == "availability-burn-rate"
        assert firing["severity"] == "critical"
        assert firing["burn_fast"] >= 10.0

    def test_quantile_threshold_rule(self, tmp_path):
        rule = QuantileThresholdRule(
            name="p99-latency", selector="service.op.seconds",
            quantile="p99", threshold=2.0, window=60.0)
        store = TimeSeriesStore(tmp_path / "tsdb")
        engine = AlertEngine(store, rules=[rule])
        slow = [_hist_point(1.0, "service.op.seconds", count=50, p99=3.5,
                            target="site-1")]
        [edge] = engine.evaluate(samples=slow, now=1.0)
        assert edge["state"] == "firing"
        assert edge["value"] == pytest.approx(3.5)
        fast = [_hist_point(2.0, "service.op.seconds", count=50, p99=0.1,
                            target="site-1")]
        [edge] = engine.evaluate(samples=fast, now=62.5)
        assert edge["state"] == "resolved"

    def test_rule_validation(self):
        with pytest.raises(ConfigurationError):
            BurnRateRule(name="bad", target=1.5)
        with pytest.raises(ConfigurationError):
            BurnRateRule(name="bad", fast_window=10.0, slow_window=1.0)
        with pytest.raises(ConfigurationError):
            QuantileThresholdRule(name="bad", selector="")

    def test_default_rules_scale_windows_to_the_duration(self):
        rules = {rule.name: rule for rule in default_rules(duration=10.0)}
        burn = rules["availability-burn-rate"]
        assert burn.fast_window == pytest.approx(2.0)
        assert burn.slow_window == pytest.approx(6.0)
        assert burn.severity == "critical"
        assert {"p99-latency", "fsync-stall",
                "recovery-overrun"} <= set(rules)
