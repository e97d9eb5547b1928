"""Distributed-tracing tests: context, spans, collection, rendering.

The cross-process scenarios here simulate what the service does for
real — a client recorder and a replica recorder exchanging wire
contexts — so the collector's causal validation is exercised against
logs produced exactly the way two processes would produce them.
"""

import json
import random

from repro.obs.dtrace import (
    CTX_FIELD,
    JsonlSpanSink,
    LamportClock,
    MemorySpanSink,
    SpanRecorder,
    build_traces,
    causal_violations,
    ctx_from_frame,
    ctx_to_wire,
    fault_windows,
    iter_span_log_paths,
    load_span_logs,
    new_span_id,
    new_trace_id,
    read_span_log,
    sample_exemplars,
    summarize_trace,
    svg_waterfall,
    text_waterfall,
)


class TestLamportClock:
    def test_tick_is_monotonic(self):
        clock = LamportClock()
        values = [clock.tick() for _ in range(5)]
        assert values == [1, 2, 3, 4, 5]
        assert clock.value == 5

    def test_observe_folds_in_the_remote_maximum(self):
        clock = LamportClock()
        clock.tick()
        assert clock.observe(10) == 11  # remote ahead: jump past it
        assert clock.observe(3) == 12   # remote behind: still advance


class TestWireContext:
    def test_ids_are_fixed_width_hex(self):
        rng = random.Random(7)
        assert len(new_trace_id(rng)) == 16
        assert len(new_span_id(rng)) == 8
        int(new_trace_id(rng), 16)
        int(new_span_id(rng), 16)

    def test_round_trip_through_a_frame(self):
        frame = {"kind": "get", "key": "k",
                 CTX_FIELD: ctx_to_wire("t" * 16, "s" * 8, 17)}
        assert ctx_from_frame(frame) == ("t" * 16, "s" * 8, 17)

    def test_untraced_and_malformed_degrade_to_none(self):
        assert ctx_from_frame(None) is None
        assert ctx_from_frame({"kind": "get"}) is None
        assert ctx_from_frame({CTX_FIELD: "not a mapping"}) is None
        assert ctx_from_frame({CTX_FIELD: {}}) is None
        assert ctx_from_frame(
            {CTX_FIELD: {"trace": "", "span": "s", "lc": 1}}) is None
        assert ctx_from_frame(
            {CTX_FIELD: {"trace": "t", "span": "s", "lc": "1"}}) is None
        assert ctx_from_frame(
            {CTX_FIELD: {"trace": "t", "span": "s", "lc": True}}) is None


class TestSpans:
    def test_root_child_and_remote_spans(self):
        sink = MemorySpanSink()
        recorder = SpanRecorder(sink, proc="site-1",
                                rng=random.Random(1))
        root = recorder.span("client.put", op="put")
        child = recorder.span("client.attempt", parent=root, attempt=1)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.lc_start > root.lc_start
        ctx = ctx_from_frame({CTX_FIELD: child.sent()})
        remote = SpanRecorder(MemorySpanSink(), proc="site-2")
        handler = remote.span("replica.put", ctx=ctx)
        assert handler.trace_id == root.trace_id
        assert handler.parent_id == child.span_id
        assert handler.lc_start > ctx[2]

    def test_finish_is_idempotent_and_records_once(self):
        sink = MemorySpanSink()
        recorder = SpanRecorder(sink, proc="p")
        span = recorder.span("work")
        span.finish("denied", reason="tie")
        span.finish("ok")
        assert len(sink.records) == 1
        record = sink.records[0]
        assert record["status"] == "denied"
        assert record["attrs"]["reason"] == "tie"
        assert record["lc"][0] <= record["lc"][1]

    def test_jsonl_sink_appends_across_reopen(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        first = SpanRecorder(JsonlSpanSink(path), proc="site-1")
        first.span("before.crash").finish()
        first.close()
        second = SpanRecorder(JsonlSpanSink(path), proc="site-1")
        second.span("after.restart").finish()
        second.close()
        records, skipped = read_span_log(path)
        assert skipped == 0
        assert [r["name"] for r in records] == ["before.crash",
                                                "after.restart"]

    def test_restart_after_a_torn_line_keeps_the_first_new_span(
            self, tmp_path):
        """Regression: the first span after a restart was glued onto
        the torn line and skipped as garbage."""
        path = tmp_path / "spans.jsonl"
        first = SpanRecorder(JsonlSpanSink(path), proc="site-1")
        first.span("before.crash").finish()
        first.close()
        with path.open("a") as handle:
            handle.write('{"trace": "t", "sp')  # SIGKILL mid-write
        second = SpanRecorder(JsonlSpanSink(path), proc="site-1")
        second.span("after.restart").finish()
        second.close()
        records, skipped = read_span_log(path)
        assert skipped == 0
        assert [r["name"] for r in records] == ["before.crash",
                                                "after.restart"]

    def test_write_after_close_is_a_no_op(self, tmp_path):
        sink = JsonlSpanSink(tmp_path / "spans.jsonl")
        sink.close()
        sink.write({"trace": "t", "span": "s"})  # must not raise


class TestCollect:
    def _scenario(self):
        """A realistic two-process trace plus one boring single-span
        trace, recorded the way the service records them."""
        client_sink = MemorySpanSink()
        site_sink = MemorySpanSink()
        client = SpanRecorder(client_sink, proc="client-0",
                              rng=random.Random(3))
        site = SpanRecorder(site_sink, proc="site-1")
        op = client.span("client.put", op="put", key="k")
        attempt = client.span("client.attempt", parent=op)
        wire = attempt.sent()
        handler = site.span("replica.put",
                            ctx=ctx_from_frame({CTX_FIELD: wire}))
        round_span = site.span("quorum.round", parent=handler)
        round_span.event("quorum.evaluate", granted=False,
                         reason="tie")
        round_span.finish("denied")
        reply_ctx = handler.sent()
        handler.finish("denied")
        attempt.received(reply_ctx["lc"])
        attempt.finish("denied")
        op.finish("denied")
        fast = client.span("client.get", op="get", key="k")
        fast.finish("ok")
        return client_sink.records + site_sink.records

    def test_build_and_walk_are_causally_ordered(self):
        traces = build_traces(self._scenario())
        assert len(traces) == 2
        denied = next(t for t in traces.values()
                      if t.outcome() == "denied")
        assert causal_violations(denied) == []
        names = [span["name"] for _, span in denied.walk()]
        assert names == ["client.put", "client.attempt", "replica.put",
                         "quorum.round"]
        depths = [depth for depth, _ in denied.walk()]
        assert depths == [0, 1, 2, 3]
        assert denied.procs() == ["client-0", "site-1"]

    def test_causal_violations_catch_a_doctored_log(self):
        records = self._scenario()
        # Rewind the replica handler's clock below its parent's: the
        # collector must flag it rather than trust the tree shape.
        handler = next(r for r in records if r["name"] == "replica.put")
        handler["lc"] = [0, 0]
        traces = build_traces(records)
        denied = next(t for t in traces.values()
                      if t.outcome() == "denied")
        problems = causal_violations(denied)
        assert problems
        assert any("replica.put" in p for p in problems)

    def test_backwards_lamport_pair_is_flagged(self):
        records = self._scenario()
        records[0]["lc"] = [9, 1]
        trace = build_traces(records)[records[0]["trace"]]
        assert any("backwards" in p for p in causal_violations(trace))

    def test_orphaned_spans_become_roots(self):
        records = [r for r in self._scenario()
                   if r["name"] != "client.attempt"]
        traces = build_traces(records)
        denied = next(t for t in traces.values()
                      if "replica.put" in
                      {s["name"] for s in t.spans.values()})
        root_names = {r["name"] for r in denied.roots}
        # replica.put's parent log line is gone: it floats to a root.
        assert "replica.put" in root_names

    def test_fault_windows_from_attrs_and_events(self):
        records = self._scenario()
        records[0]["attrs"] = {"window": 4}
        records[1].setdefault("events", []).append(
            {"name": "note", "lc": 99, "window": 2})
        trace = build_traces(records)[records[0]["trace"]]
        assert fault_windows(trace) == [2, 4]

    def test_summary_shape(self):
        traces = build_traces(self._scenario())
        denied = next(t for t in traces.values()
                      if t.outcome() == "denied")
        summary = summarize_trace(denied)
        assert summary["name"] == "client.put"
        assert summary["key"] == "k"
        assert summary["outcome"] == "denied"
        assert summary["spans"] == 4
        assert summary["violations"] == []

    def test_read_span_log_skips_garbage(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        good = {"trace": "t1", "span": "s1", "name": "x"}
        path.write_text(json.dumps(good) + "\n"
                        + "{\"torn\": \n"          # SIGKILL mid-write
                        + json.dumps({"no": "ids"}) + "\n")
        records, skipped = read_span_log(path)
        assert [r["span"] for r in records] == ["s1"]
        assert skipped == 2

    def test_missing_log_reads_empty(self, tmp_path):
        assert read_span_log(tmp_path / "absent.jsonl") == ([], 0)

    def test_log_discovery_matches_prefixed_names(self, tmp_path):
        (tmp_path / "site-1").mkdir()
        (tmp_path / "site-1" / "spans.jsonl").write_text(
            '{"trace": "a", "span": "1"}\n')
        (tmp_path / "proxy.spans.jsonl").write_text(
            '{"trace": "a", "span": "2"}\n')
        (tmp_path / "unrelated.jsonl").write_text(
            '{"trace": "a", "span": "3"}\n')
        paths = list(iter_span_log_paths(tmp_path))
        assert [p.name for p in paths] == ["proxy.spans.jsonl",
                                           "spans.jsonl"]
        merged = load_span_logs(tmp_path)
        assert {r["span"] for r in merged} == {"1", "2"}


class TestExemplars:
    def _trace(self, trace_id, outcome="ok", dur=0.1, window=None):
        record = {
            "trace": trace_id, "span": "root", "parent": None,
            "proc": "client-0", "name": "client.put", "start": 0.0,
            "dur": dur, "lc": [1, 2], "status": outcome,
        }
        if window is not None:
            record["attrs"] = {"window": window}
        return record

    def test_outcome_and_fault_priorities(self):
        records = [
            self._trace("slow", dur=9.0),
            self._trace("denied", outcome="denied", dur=0.1),
            self._trace("faulty", dur=0.2, window=3),
            self._trace("boring", dur=0.01),
        ]
        chosen = sample_exemplars(build_traces(records), limit=2)
        ids = [t.trace_id for t in chosen]
        # Interesting outcomes beat fault-window hits beat the slowest;
        # the 9-second trace loses both its slots to the worse traces.
        assert ids == ["denied", "faulty"]

    def test_violation_traces_are_forced_past_the_limit(self):
        records = [
            self._trace("slow", dur=9.0),
            self._trace("violated-a", dur=0.05),
            self._trace("violated-b", dur=0.02),
        ]
        chosen = sample_exemplars(build_traces(records), limit=1,
                                  always=["violated-a", "violated-b"])
        ids = [t.trace_id for t in chosen]
        assert sorted(ids) == ["violated-a", "violated-b"]
        assert "slow" not in ids


class TestRender:
    def _denied_trace(self):
        records = TestCollect()._scenario()
        handler = next(r for r in records if r["name"] == "proxy.drop"
                       ) if any(r["name"] == "proxy.drop"
                                for r in records) else None
        assert handler is None
        # Stamp a chaos annotation the way the proxy does.
        rpc = next(r for r in records if r["name"] == "quorum.round")
        rpc["attrs"] = dict(rpc.get("attrs") or {}, window=4)
        traces = build_traces(records)
        return next(t for t in traces.values()
                    if t.outcome() == "denied")

    def test_text_waterfall_names_everything(self):
        text = text_waterfall(self._denied_trace())
        assert "client.put" in text
        assert "→ denied" in text
        assert "site-1" in text
        assert "fault window #4" in text
        assert "quorum.evaluate" in text
        assert "!! causality" not in text

    def test_text_waterfall_without_events(self):
        text = text_waterfall(self._denied_trace(), events=False)
        assert "quorum.evaluate" not in text
        assert "client.put" in text

    def test_causality_problems_are_rendered(self):
        trace = self._denied_trace()
        next(iter(trace.spans.values()))["lc"] = [9, 1]
        assert "!! causality" in text_waterfall(trace)

    def test_svg_waterfall_is_escaped_markup(self):
        trace = self._denied_trace()
        span = next(iter(trace.spans.values()))
        span["attrs"] = dict(span.get("attrs") or {},
                             note="<script>alert(1)</script>")
        svg = svg_waterfall(trace)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "<script>" not in svg
        assert "client.put" in svg

    def test_empty_trace_renders_an_empty_svg(self):
        from repro.obs.dtrace.collect import Trace

        empty = Trace("none")
        assert "<svg" in svg_waterfall(empty)
