"""Command-line interface: ``repro <command>`` or ``python -m repro``.

Commands regenerate everything in the paper from the terminal:

* ``repro testbed``   — Figure 8 (topology) and Table 1 (site data);
* ``repro table2``    — Table 2 (unavailabilities), paper vs measured;
* ``repro table3``    — Table 3 (mean unavailable-period durations);
* ``repro study``     — both tables from one simulation;
* ``repro sweep``     — the access-rate ablation (experiment X1);
* ``repro placement`` — the copy-placement study (experiment X5);
* ``repro trace``     — per-site availability of a generated trace, or,
  given a scenario file, a full JSONL decision trace of its replay;
* ``repro overhead``  — the per-policy message bill of a replayed history;
* ``repro validate``  — self-check of the simulator against closed forms;
* ``repro scenario``  — run a scripted JSON scenario step by step;
* ``repro analyze``   — streaming analytics over a decision trace:
  ``summary`` (record counts), ``timeline`` (availability spans),
  ``audit`` (every denial mapped to its Algorithm-1 rule) and ``diff``
  (two protocols' decisions over the same history, first divergence
  explained);
* ``repro chaos``     — fuzz the message-passing engine with seeded
  perturbations while the safety-invariant monitor watches every trace
  record: ``run`` (one schedule), ``sweep`` (many seeds x all
  protocols), ``replay`` (reproduce a violating schedule
  deterministically);
* ``repro profile``   — profile a ``scenario``, a (small) ``study`` or a
  ``chaos`` run: top-N hot functions, flamegraph-compatible collapsed
  stacks (``--collapsed``), deterministic phase timers and kernel
  hot-path counters, via cProfile or a signal-based stack sampler;
* ``repro bench``     — the benchmark trajectory: ``record`` appends a
  ``BENCH_<n>.json`` point (quick in-process subset, or ingest a
  pytest-benchmark JSON), ``compare`` diffs two points with noise-aware
  thresholds and exits 1 on a regression (the CI gate);
* ``repro service``   — the replicated KV service: ``replica`` (one
  replica process), ``cluster`` (a supervised local cluster), ``bench``
  (seeded chaos and load against real clusters), ``kill`` and ``trace``
  (render a traced bench's exemplar waterfalls);
* ``repro metrics``   — ``query`` and ``alerts`` over a scraped
  time-series store;
* ``repro runs``      — the content-addressed run registry: ``list``,
  ``show``, ``gc``, and ``diff``, which aligns two recorded studies
  cell by cell and exits 1 on an availability regression beyond noise;
* ``repro report``    — render recorded runs as one self-contained
  HTML file (tables vs paper, availability timelines, phase
  breakdowns, chaos verdicts) that opens offline;
* ``repro serve``     — the registry as a web service: a paginated run
  index over pregenerated summary cards, per-run pages reusing the
  report renderer, noise-gated cross-run diff views, and a versioned
  JSON API (``/api/runs``, ``/healthz``, ``/metricsz``), all stdlib
  WSGI with request telemetry recorded as ``serve.*`` metrics;
  ``repro serve warm`` pregenerates the summary cache and exits;
* ``repro watch``     — follow a ``--live`` telemetry session;
* ``repro demo``      — the engine walkthrough from Section 2's example.

Each command is registered once, in :func:`build_parser`: its parser
carries its handler, and the output paths its flags declare are checked
for writability before the handler runs.

Observability: a global ``--log-level`` flag configures the package
logger; ``study``/``table2``/``table3`` and ``validate`` accept
``--metrics-out PATH`` to write a run manifest plus metrics dump, and
the study commands accept ``--progress`` for a live progress line (see
:mod:`repro.obs`).  The study, trace-scenario, chaos, profile and
bench-record commands all accept ``--record`` to store the run (with
its manifest, lineage and artifacts) in the registry under
``--runs-dir`` (default ``.repro/runs``, or ``REPRO_RUNS_DIR``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
from typing import Optional, Sequence

from repro.core.registry import PAPER_POLICIES, available_policies
from repro.errors import ConfigurationError, ReproError
from repro.experiments.configs import CONFIGURATIONS, configuration
from repro.experiments.evaluator import evaluate_policy, poisson_times
from repro.experiments.runner import StudyParameters, run_study
from repro.experiments.scenarios import load_scenario, run_scenario
from repro.experiments.sweep import access_rate_sweep, placement_sweep
from repro.experiments.tables import (
    PAPER_TABLE_2,
    PAPER_TABLE_3,
    format_comparison,
    format_intervals,
    format_table2,
    format_table3,
)
from repro.experiments.testbed import render_testbed, testbed_topology
from repro.failures.profiles import testbed_profiles
from repro.failures.trace import generate_trace
from repro.obs.metrics import MetricsRegistry, MetricsSink
from repro.obs.tracer import FanoutSink, JsonlSink, MemorySink, Tracer

__all__ = ["main", "build_parser"]

_RUNS_DIR_HELP = "registry root (default .repro/runs, or REPRO_RUNS_DIR)"


def _command(sub, name: str, handler, **kwargs) -> argparse.ArgumentParser:
    """Register one command: its parser carries the *handler* that
    :func:`main` calls, and the output paths its flags declare."""
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(handler=handler, output_paths=(), registry_written=False)
    return p


def _output(p: argparse.ArgumentParser, flag: str, help: str,
            default: Optional[str] = None) -> None:
    """Declare a flag naming a file the command writes; :func:`main`
    checks it is writable before the handler runs."""
    action = p.add_argument(flag, metavar="PATH", default=default, help=help)
    p.set_defaults(output_paths=p.get_default("output_paths") + (action.dest,))


def _runs_dir(p: argparse.ArgumentParser, help: str = _RUNS_DIR_HELP,
              written: bool = False) -> None:
    """``--runs-dir``.  A *written* command always writes the registry
    (preflighted like an output path); the others write it only under
    ``--record`` or ``--live``."""
    p.add_argument("--runs-dir", metavar="DIR", default=None, help=help)
    p.set_defaults(registry_written=written)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Paris & Long, 'Efficient Dynamic Voting "
            "Algorithms' (ICDE 1988)."
        ),
    )
    from repro.obs.logging import LOG_LEVELS

    parser.add_argument(
        "--log-level", default=None, choices=sorted(LOG_LEVELS),
        help="configure the 'repro' logger on stderr (default: off)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sim_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--horizon", type=float, default=None,
            help="simulated days (default 40000, or REPRO_SIM_DAYS)",
        )
        p.add_argument("--seed", type=int, default=1988, help="master RNG seed")
        p.add_argument("--warmup", type=float, default=360.0,
                       help="days discarded before measurement")
        p.add_argument("--batches", type=int, default=20,
                       help="batch count for confidence intervals")
        p.add_argument("--access-rate", type=float, default=1.0,
                       help="file accesses per day (optimistic policies)")

    def add_record_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--record", action="store_true",
                       help="store this run (manifest, lineage, "
                            "artifacts) in the content-addressed run "
                            "registry")
        _runs_dir(p)

    _command(sub, "testbed", _cmd_testbed,
             help="print the Figure 8 network and Table 1")

    for name, help_text in (
        ("table2", "regenerate Table 2 (unavailabilities)"),
        ("table3", "regenerate Table 3 (mean unavailable periods)"),
        ("study", "regenerate both tables from one simulation"),
    ):
        p = _command(sub, name, _cmd_tables, help=help_text)
        add_sim_args(p)
        p.add_argument("--no-compare", action="store_true",
                       help="print only measured values, not paper-vs-ours")
        p.add_argument("--intervals", action="store_true",
                       help="also print 95%% batch-means confidence intervals")
        p.add_argument("--jobs", type=int, default=None,
                       help="evaluate cells in N parallel processes")
        _output(p, "--metrics-out",
                "write a run manifest + metrics JSON "
                "(per-cell wall-clock, quorum decision tallies)")
        p.add_argument("--progress", action="store_true",
                       help="print a live progress line (cells done, "
                            "events/s, ETA) to stderr as cells complete")
        p.add_argument("--live", action="store_true",
                       help="stream telemetry (cell completions, phases, "
                            "resource samples) to a live session under "
                            "the run registry; follow it with 'repro "
                            "watch' or the /live page of 'repro serve'")
        add_record_args(p)

    p = _command(sub, "sweep", _cmd_sweep,
                 help="access-rate ablation for ODV/OTDV")
    add_sim_args(p)
    p.add_argument("--config", default="F", choices=sorted(CONFIGURATIONS),
                   help="configuration to sweep (default F)")
    p.add_argument("--rates", default="0.1,0.5,1,2,5,10,50",
                   help="comma-separated accesses per day")

    p = _command(sub, "placement", _cmd_placement,
                 help="rank every copy placement")
    add_sim_args(p)
    p.add_argument("--copies", type=int, default=3, help="copies to place")
    p.add_argument("--policy", default="TDV",
                   choices=sorted(available_policies()))
    p.add_argument("--top", type=int, default=10, help="rows to print")

    p = _command(
        sub, "trace", _cmd_trace,
        help="per-site availability of a trace, or a JSONL decision "
             "trace of a scenario replay",
    )
    add_sim_args(p)
    p.add_argument("scenario", nargs="?", default=None,
                   help="repro-scenario JSON file: replay it with full "
                        "structured tracing instead of sampling a trace")
    _output(p, "--save", "also write the generated trace to a JSON file")
    _output(p, "--out", "JSONL destination for the scenario decision "
                        "trace (default: stdout)")
    add_record_args(p)

    p = _command(sub, "overhead", _cmd_overhead,
                 help="per-policy message bill")
    add_sim_args(p)
    p.add_argument("--config", default="F", choices=sorted(CONFIGURATIONS),
                   help="configuration to replay (default F)")
    p.add_argument("--days", type=float, default=365.0,
                   help="days of history to replay through the engine")

    p = _command(
        sub, "validate", _cmd_validate,
        help="self-check: simulator vs exact analytic availability",
    )
    add_sim_args(p)
    _output(p, "--metrics-out", "write a run manifest + metrics JSON for "
                                "the validation checks")

    p = _command(sub, "scenario", _cmd_scenario,
                 help="run a JSON scenario file")
    p.add_argument("file", help="path to a repro-scenario JSON document")

    p = sub.add_parser(
        "analyze",
        help="streaming analytics over a JSONL decision trace",
    )
    asub = p.add_subparsers(dest="analyze_command", required=True)

    def add_json_out(q: argparse.ArgumentParser) -> None:
        _output(q, "--json-out", "also write the full result as a JSON "
                                 "document")

    def add_trace_command(name: str, handler, help: str):
        q = _command(asub, name, handler, help=help)
        q.add_argument("trace",
                       help="JSONL decision trace (.jsonl or .jsonl.gz)")
        return q

    q = add_trace_command(
        "summary", _cmd_analyze_summary,
        "record counts, quorum decision tallies, covered span",
    )
    add_json_out(q)

    q = add_trace_command(
        "timeline", _cmd_analyze_timeline,
        "per-policy availability spans rebuilt from the decisions",
    )
    q.add_argument("--policy", default=None,
                   help="restrict to one policy's timeline")
    add_json_out(q)

    q = add_trace_command(
        "audit", _cmd_analyze_audit,
        "map every quorum denial to the Algorithm-1 rule that failed",
    )
    q.add_argument("--limit", type=int, default=20,
                   help="denials to explain in full (default 20)")
    add_json_out(q)

    q = _command(
        asub, "diff", _cmd_analyze_diff,
        help="align two protocols' traces over the same history and "
             "explain the first divergent quorum decision",
    )
    q.add_argument("traces", nargs="*", metavar="TRACE",
                   help="two JSONL decision traces to align")
    q.add_argument("--scenario", metavar="FILE", default=None,
                   help="instead of trace files: replay this scenario "
                        "under two policies and diff the decisions")
    q.add_argument("--policies", default="ODV,OTDV",
                   help="comma-separated policy pair for --scenario "
                        "(default ODV,OTDV)")
    add_json_out(q)

    p = sub.add_parser(
        "chaos",
        help="fuzz the protocols under seeded chaos with the "
             "safety-invariant monitor always on",
    )
    csub = p.add_subparsers(dest="chaos_command", required=True)

    def add_chaos_build(q: argparse.ArgumentParser) -> None:
        q.add_argument("--steps", type=int, default=60,
                       help="schedule length in steps (default 60)")
        q.add_argument("--config", default="H",
                       choices=sorted(CONFIGURATIONS),
                       help="copy placement (default H)")
        q.add_argument("--unsafe-partial-commits", action="store_true",
                       help="lift the commit-fault safety budget "
                            "(demonstrates forks on correct protocols)")

    def add_chaos_outputs(q: argparse.ArgumentParser, save: bool) -> None:
        _output(q, "--out", "JSONL destination for the structured trace")
        if save:
            _output(q, "--save-schedule",
                    "write the schedule as replayable JSON")
        _output(q, "--json-out",
                "also write the run summary as a JSON document")
        add_record_args(q)

    q = _command(
        csub, "run", _cmd_chaos_run,
        help="one seeded schedule against one protocol",
    )
    q.add_argument("--seed", type=int, default=0, help="chaos seed")
    q.add_argument("--policy", default="LDV",
                   help="MCV/DV/LDV/ODV/TDV/OTDV, or BROKEN-TIE "
                        "(deliberately unsafe, for the monitor demo)")
    add_chaos_build(q)
    add_chaos_outputs(q, save=True)

    q = _command(
        csub, "sweep", _cmd_chaos_sweep,
        help="fuzz many seeded schedules across the paper's protocols",
    )
    q.add_argument("--seeds", type=int, default=40,
                   help="seeds per policy, 0..N-1 (default 40)")
    q.add_argument("--policies", default="MCV,DV,LDV,ODV,TDV,OTDV",
                   help="comma-separated protocols to fuzz")
    add_chaos_build(q)
    q.add_argument("--quick", action="store_true",
                   help="8 seeds per policy: the CI smoke variant")
    _output(q, "--json-out",
            "also write the sweep report as a JSON document")
    q.add_argument("--live", action="store_true",
                   help="stream per-policy phases, run summaries and "
                        "invariant violations to a live session under "
                        "the run registry")
    _runs_dir(q, "registry root for --live (default .repro/runs, or "
                 "REPRO_RUNS_DIR)")

    q = _command(
        csub, "replay", _cmd_chaos_run,
        help="re-run a violating schedule deterministically",
    )
    q.add_argument("--schedule", metavar="FILE", default=None,
                   help="schedule JSON written by run --save-schedule")
    q.add_argument("--seed", type=int, default=None,
                   help="rebuild the schedule from this seed instead")
    q.add_argument("--policy", default=None,
                   help="protocol to replay against (default: the one "
                        "recorded in --schedule, else LDV)")
    add_chaos_build(q)
    add_chaos_outputs(q, save=False)

    p = sub.add_parser(
        "profile",
        help="profile a workload: hot functions, flamegraph stacks, "
             "phase timers",
    )
    psub = p.add_subparsers(dest="profile_command", required=True)

    def add_profile_common(q: argparse.ArgumentParser) -> None:
        q.add_argument("--engine", default="cprofile",
                       choices=("cprofile", "sample"),
                       help="cprofile (deterministic, exact counts) or "
                            "sample (signal-based stack sampler, true "
                            "stacks, low overhead)")
        q.add_argument("--interval", type=float, default=5.0,
                       help="sampling period in milliseconds "
                            "(sample engine only; default 5)")
        q.add_argument("--top", type=int, default=15,
                       help="hot functions to print (default 15)")
        _output(q, "--collapsed", "write flamegraph-compatible collapsed "
                                  "stacks ('a;b;c count' lines)")
        _output(q, "--json-out",
                "also write the full report as a JSON document")
        _output(q, "--out", "write the text report here instead of stdout")
        add_record_args(q)

    q = _command(psub, "scenario", _cmd_profile_scenario,
                 help="profile one scenario replay")
    q.add_argument("file", help="path to a repro-scenario JSON document")
    q.add_argument("--policy", default=None,
                   help="override the scenario's policy")
    add_profile_common(q)

    q = _command(
        psub, "study", _cmd_profile_study,
        help="profile a (small) availability study",
    )
    add_sim_args(q)
    q.add_argument("--configs", default="A,F",
                   help="comma-separated configuration keys "
                        "(default A,F)")
    q.add_argument("--policies", default=",".join(PAPER_POLICIES),
                   help="comma-separated policies "
                        "(default: all six paper columns)")
    add_profile_common(q)

    q = _command(psub, "chaos", _cmd_profile_chaos,
                 help="profile one chaos schedule run")
    q.add_argument("--seed", type=int, default=0, help="chaos seed")
    q.add_argument("--policy", default="LDV",
                   help="protocol to run the schedule against")
    add_chaos_build(q)
    add_profile_common(q)

    p = sub.add_parser(
        "bench",
        help="record benchmark trajectory points and gate on "
             "regressions",
    )
    bsub = p.add_subparsers(dest="bench_command", required=True)

    q = _command(
        bsub, "record", _cmd_bench_record,
        help="append a BENCH_<n>.json trajectory point",
    )
    q.add_argument("--quick", action="store_true",
                   help="time the pinned micro subset in-process "
                        "(seconds to run; the CI smoke source) instead "
                        "of the full pytest-benchmark suite")
    q.add_argument("--rounds", type=int, default=5,
                   help="rounds per quick workload (default 5)")
    q.add_argument("--from-json", metavar="FILE", default=None,
                   help="ingest a pytest-benchmark --benchmark-json "
                        "document instead of running anything")
    _output(q, "--out", "write the point here instead of the next "
                        "BENCH_<n>.json in --dir")
    q.add_argument("--dir", default=".", metavar="DIR",
                   help="trajectory directory (default: current "
                        "directory)")
    q.add_argument("--note", default="",
                   help="free-text note stored in the point")
    add_record_args(q)

    q = _command(
        bsub, "compare", _cmd_bench_compare,
        help="diff two trajectory points; exit 1 on a regression",
    )
    q.add_argument("current", nargs="?", default=None,
                   help="current point (default: the highest-numbered "
                        "BENCH_<n>.json in --dir)")
    q.add_argument("--baseline", required=True, metavar="FILE",
                   help="baseline trajectory point")
    q.add_argument("--dir", default=".", metavar="DIR",
                   help="where to look for the default current point")
    q.add_argument("--max-regression", type=float, default=0.25,
                   help="relative median growth that counts as a "
                        "regression (default 0.25 = 25%%)")
    q.add_argument("--iqr-factor", type=float, default=1.5,
                   help="the median must also move by this many IQRs "
                        "(default 1.5)")
    q.add_argument("--ignore-fingerprint", action="store_true",
                   help="compare across machines/interpreters anyway "
                        "(CI does, with a wide --max-regression)")
    _output(q, "--json-out", "also write the comparison as a JSON document")

    p = sub.add_parser(
        "service",
        help="the crash-tolerant replicated KV service: replica "
             "processes, local clusters, live-chaos bench",
    )
    vsub = p.add_subparsers(dest="service_command", required=True)

    def add_service_common(q: argparse.ArgumentParser) -> None:
        q.add_argument("--policy", default="ODV",
                       choices=sorted(available_policies()),
                       help="protocol every replica runs (default ODV)")
        q.add_argument("--segments", default=None, metavar="SPEC",
                       help="co-location groups for the topological "
                            "protocols, e.g. '1,2/3,4,5'")
        q.add_argument("--fsync", default="always",
                       choices=("always", "never"),
                       help="WAL durability (default always; 'never' "
                            "is for tests only)")

    q = _command(
        vsub, "replica", _cmd_service_replica,
        help="run one replica process (what the cluster supervisor "
             "spawns)",
    )
    q.add_argument("--site", type=int, required=True,
                   help="this replica's paper site number (1-based)")
    q.add_argument("--host", default="127.0.0.1",
                   help="listen address (default 127.0.0.1)")
    q.add_argument("--port", type=int, default=0,
                   help="listen port (default 0 = OS-assigned)")
    q.add_argument("--data-dir", required=True, metavar="DIR",
                   help="directory for WAL, snapshot and recovery "
                        "marker")
    q.add_argument("--peers", default="", metavar="SPEC",
                   help="other replicas as '2=host:port,3=host:port'")
    add_service_common(q)
    q.add_argument("--trace", action="store_true",
                   help="write distributed-tracing spans to "
                        "spans.jsonl next to the WAL")

    q = _command(
        vsub, "cluster", _cmd_service_cluster,
        help="run a supervised local cluster (behind the chaos proxy) "
             "until interrupted",
    )
    q.add_argument("--dir", default=".service", metavar="DIR",
                   help="cluster directory (default .service)")
    q.add_argument("--replicas", type=int, default=5,
                   help="replica processes (default 5)")
    add_service_common(q)
    q.add_argument("--no-proxy", action="store_true",
                   help="connect replicas directly, skipping the chaos "
                        "proxy indirection")
    q.add_argument("--trace", action="store_true",
                   help="every replica (and the proxy) writes "
                        "distributed-tracing span logs")

    q = _command(
        vsub, "bench", _cmd_service_bench,
        help="seeded chaos + load against real clusters, one per "
             "policy; exit 1 on any safety violation or failed recovery",
    )
    q.add_argument("--dir", default=None, metavar="DIR",
                   help="working directory (default: a fresh temp dir, "
                        "removed on success)")
    q.add_argument("--policies", default="ODV,OTDV",
                   help="comma-separated protocols (default ODV,OTDV)")
    q.add_argument("--replicas", type=int, default=5,
                   help="cluster size (default 5)")
    q.add_argument("--duration", type=float, default=10.0,
                   help="seconds of load per policy (default 10)")
    q.add_argument("--seed", type=int, default=1988,
                   help="root seed for schedule, proxy coins and load")
    q.add_argument("--workers", type=int, default=3,
                   help="load generator threads (default 3)")
    q.add_argument("--write-ratio", type=float, default=0.5,
                   help="fraction of writes (default 0.5)")
    q.add_argument("--segments", default=None, metavar="SPEC",
                   help="co-location groups, e.g. '1,2/3,4,5'")
    q.add_argument("--fsync", default="always",
                   choices=("always", "never"),
                   help="WAL durability for every replica")
    q.add_argument("--drop-rate", type=float, default=0.02,
                   help="per-frame drop coin (default 0.02)")
    q.add_argument("--delay-rate", type=float, default=0.05,
                   help="per-frame delay coin (default 0.05)")
    q.add_argument("--kills", type=int, default=1,
                   help="minimum SIGKILLs the plan must contain "
                        "(default 1)")
    q.add_argument("--partitions", type=int, default=1,
                   help="minimum live partitions (default 1)")
    q.add_argument("--trace", action="store_true",
                   help="record end-to-end distributed traces and "
                        "sample exemplars per policy (the slowest, "
                        "denied and fault-hit operations)")
    q.add_argument("--trace-exemplars", type=int, default=8,
                   help="exemplar traces kept per policy (default 8)")
    q.add_argument("--scrape-interval", type=float, default=0.0,
                   metavar="SECONDS",
                   help="poll every replica's metrics into an on-disk "
                        "time-series store every N seconds and evaluate "
                        "SLO burn-rate alerts live (0 = off)")
    q.add_argument("--availability-target", type=float, default=0.99,
                   metavar="RATIO",
                   help="SLO availability target the burn-rate alert "
                        "guards (default 0.99)")
    _output(q, "--out", "also write the bench document as JSON")
    q.add_argument("--live", action="store_true",
                   help="stream cluster phases and applied faults to a "
                        "live session under the run registry")
    add_record_args(q)

    q = _command(
        vsub, "kill", _cmd_service_kill,
        help="SIGKILL one replica of a running cluster (uses the "
             "cluster.json control file)",
    )
    q.add_argument("site", type=int, help="site number to kill")
    q.add_argument("--dir", default=".service", metavar="DIR",
                   help="cluster directory (default .service)")

    def add_service_run(q: argparse.ArgumentParser) -> None:
        q.add_argument("run", nargs="?", default="latest",
                       help="run id (or unique prefix), or 'latest' "
                            "(default: the newest service run)")

    q = _command(
        vsub, "trace", _cmd_service_trace,
        help="render the exemplar distributed traces a traced service "
             "bench recorded (text waterfall per trace, "
             "causality-checked)",
    )
    add_service_run(q)
    q.add_argument("--trace-id", default=None, metavar="ID",
                   help="render only the trace whose id starts with ID")
    q.add_argument("--outcome", default=None, metavar="NAME",
                   help="render only traces with this root outcome "
                        "(e.g. denied, unavailable)")
    q.add_argument("--no-events", action="store_true",
                   help="hide span events (send/recv, quorum verdicts, "
                        "chaos annotations)")
    _runs_dir(q)

    p = sub.add_parser(
        "metrics",
        help="query a scraped time-series store: windowed rates, "
             "quantiles, and the SLO alert history",
    )
    msub = p.add_subparsers(dest="metrics_command", required=True)

    def add_metrics_source(q: argparse.ArgumentParser) -> None:
        add_service_run(q)
        q.add_argument("--tsdb", metavar="DIR", default=None,
                       help="query a raw store directory instead of a "
                            "recorded run (e.g. <bench-dir>/tsdb)")
        q.add_argument("--policy", default=None,
                       help="restrict to one policy's series")
        _runs_dir(q)

    q = _command(
        msub, "query", _cmd_metrics_query,
        help="evaluate one selector over the stored series (rate, "
             "increase, last, quantiles)",
    )
    q.add_argument("selector", metavar="SELECTOR",
                   help="series selector, e.g. "
                        "'service.ops{outcome=\"ok\"}'")
    q.add_argument("--fn", default="last",
                   choices=("rate", "increase", "last", "mean",
                            "p50", "p95", "p99", "p999"),
                   help="query function (default last)")
    q.add_argument("--window", type=float, default=None,
                   metavar="SECONDS",
                   help="lookback window (required for rate/increase)")
    q.add_argument("--at", type=float, default=None, metavar="UNIX",
                   help="evaluate at this wall-clock time (default: "
                        "the newest matched sample)")
    _output(q, "--json-out", "also write the result as a JSON document")
    add_metrics_source(q)

    q = _command(
        msub, "alerts", _cmd_metrics_alerts,
        help="replay the SLO alert rules over the stored series and "
             "print every firing/resolved edge",
    )
    q.add_argument("--duration", type=float, default=60.0,
                   help="bench duration the rule windows were sized "
                        "for (default 60)")
    q.add_argument("--target", type=float, default=0.99,
                   help="SLO availability target (default 0.99)")
    _output(q, "--json-out", "also write the alert history as JSON")
    add_metrics_source(q)

    p = sub.add_parser(
        "runs",
        help="browse, diff and prune the content-addressed run registry",
    )
    rsub = p.add_subparsers(dest="runs_command", required=True)

    q = _command(
        rsub, "list", _cmd_runs_list,
        help="recorded runs, from the pregenerated summary cache",
    )
    q.add_argument("--kind", default=None,
                   choices=("study", "scenario", "chaos", "bench",
                            "profile", "service"),
                   help="restrict to one run kind")
    q.add_argument("--sort", default="time",
                   choices=("time", "kind", "id"),
                   help="listing order: time = recording order "
                        "(default), kind groups by run kind, id is "
                        "lexicographic")
    q.add_argument("--limit", type=int, default=None,
                   help="show at most N runs")
    q.add_argument("--offset", type=int, default=0,
                   help="skip the first N runs (after sorting)")
    q.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                   help="repaint the listing every N seconds (summary-"
                        "cache backed: an unchanged index costs one "
                        "stat per repaint) until interrupted")
    q.add_argument("--watch-count", type=int, default=None,
                   metavar="N", help=argparse.SUPPRESS)
    _runs_dir(q, written=True)

    q = _command(rsub, "show", _cmd_runs_show,
                 help="one run's identity, lineage and artifacts")
    q.add_argument("run",
                   help="run id, unique prefix (>= 4 chars), run "
                        "directory path, or 'latest'")
    _output(q, "--json-out", "also write the record as a JSON document")
    _runs_dir(q, written=True)

    q = _command(
        rsub, "diff", _cmd_runs_diff,
        help="align two recorded studies cell by cell; exit 1 on an "
             "availability regression beyond noise",
    )
    q.add_argument("baseline",
                   help="baseline run (id, prefix, directory path, or "
                        "'latest')")
    q.add_argument("current", nargs="?", default="latest",
                   help="run under test (default: latest)")
    q.add_argument("--max-regression", type=float, default=0.25,
                   help="relative unavailability growth that counts as "
                        "a regression (default 0.25 = 25%%)")
    q.add_argument("--noise-factor", type=float, default=1.5,
                   help="the delta must also exceed this many "
                        "confidence half-widths (default 1.5)")
    q.add_argument("--verbose", action="store_true",
                   help="print every aligned cell, not only the ones "
                        "beyond noise")
    _output(q, "--json-out", "also write the diff as a JSON document")
    _runs_dir(q, written=True)

    q = _command(rsub, "gc", _cmd_runs_gc,
                 help="prune old runs and compact the index")
    q.add_argument("--keep-last", type=int, default=20,
                   help="runs to keep, most recent first (default 20)")
    q.add_argument("--kind", action="append", default=None,
                   choices=("study", "scenario", "chaos", "bench",
                            "profile", "service"),
                   help="prune only this kind (repeatable)")
    q.add_argument("--dry-run", action="store_true",
                   help="report what would be deleted, delete nothing")
    _runs_dir(q, written=True)

    p = _command(
        sub, "report", _cmd_report,
        help="render recorded runs as one self-contained HTML file",
    )
    p.add_argument("runs", nargs="+", metavar="RUN",
                   help="run ids, unique prefixes, run directory "
                        "paths, or 'latest'")
    _output(p, "--out", "HTML destination (default report.html)",
            default="report.html")
    p.add_argument("--title", default="Dynamic voting — recorded results",
                   help="document title")
    _runs_dir(p, written=True)

    p = _command(
        sub, "serve", _cmd_serve,
        help="serve the run registry as a browsable web explorer "
             "(HTML pages + JSON API); 'repro serve warm' pregenerates "
             "the summary cache and exits",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8137,
                   help="TCP port (default 8137; 0 picks a free one)")
    p.add_argument("--adopt", action="append", metavar="RUN_DIR",
                   default=None,
                   help="copy an external run directory (e.g. "
                        "results/baseline_run) into the registry "
                        "before serving (repeatable)")
    _runs_dir(p, written=True)
    ssub = p.add_subparsers(dest="serve_command", required=False)
    warm = ssub.add_parser(
        "warm",
        help="pregenerate the summary cache over the current index "
             "position, print its size, and exit",
    )
    # Accept the registry options after the subcommand too, so
    # `repro serve warm --runs-dir X --adopt Y` reads naturally.
    # SUPPRESS defaults keep unset options from clobbering values the
    # parent parser already bound (the classic subparser-default trap).
    warm.add_argument("--adopt", action="append", metavar="RUN_DIR",
                      default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    warm.add_argument("--runs-dir", metavar="DIR",
                      default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    p = _command(
        sub, "watch", _cmd_watch,
        help="follow a live telemetry session (started with --live) in "
             "the terminal",
    )
    p.add_argument("session", nargs="?", default="latest",
                   help="live session id, >=4 char prefix, recorded run "
                        "id, or 'latest' (default)")
    p.add_argument("--interval", type=float, default=0.5,
                   help="poll period in seconds (default 0.5)")
    p.add_argument("--timeout", type=float, default=None,
                   help="give up after N seconds even if the session "
                        "is still running (default: wait forever)")
    p.add_argument("--from-start", action="store_true",
                   help="replay the whole event stream instead of "
                        "tailing from the current end")
    _runs_dir(p)

    _command(sub, "demo", _cmd_demo,
             help="run the Section 2 worked example")
    return parser


def _params(args: argparse.Namespace) -> StudyParameters:
    kwargs = dict(
        warmup=args.warmup,
        batches=args.batches,
        seed=args.seed,
        access_rate_per_day=args.access_rate,
    )
    if args.horizon is not None:
        kwargs["horizon"] = args.horizon
    return StudyParameters(**kwargs)


def _cmd_testbed(args: argparse.Namespace) -> None:
    print(render_testbed())
    print()
    print("Table 1: Site Characteristics")
    header = (
        f"{'site':>4}  {'name':<8}  {'MTTF(d)':>8}  {'hw%':>4}  "
        f"{'restart(min)':>12}  {'repair c(h)':>11}  {'repair e(h)':>11}  maint"
    )
    print(header)
    print("-" * len(header))
    for profile in testbed_profiles():
        maint = "3h/90d" if profile.maintenance else "-"
        print(
            f"{profile.site_id:>4}  {profile.name:<8}  {profile.mttf_days:>8.1f}  "
            f"{profile.hardware_fraction * 100:>4.0f}  "
            f"{profile.restart_minutes:>12.1f}  "
            f"{profile.repair_constant_hours:>11.1f}  "
            f"{profile.repair_exponential_hours:>11.1f}  {maint}"
        )


def _write_metrics_dump(
    path: str,
    command: str,
    params: StudyParameters,
    policies,
    configurations,
    metrics,
    wall_clock_seconds: float,
    **extra,
) -> None:
    """Write a ``{"manifest": ..., "metrics": ...}`` JSON document."""
    from repro.obs.manifest import build_manifest

    cell_seconds = {
        f"{labels.get('config', '?')}/{labels.get('policy', '?')}":
            instrument.total
        for name, labels, instrument in metrics.series()
        if name == "cell.seconds"
    }
    manifest = build_manifest(
        command, params, policies, configurations, **extra
    ).finished(wall_clock_seconds, cell_seconds)
    _write_json(path, {"manifest": manifest.to_dict(),
                       "metrics": metrics.to_dict()},
                f"metrics written to {path}")


def _cmd_tables(args: argparse.Namespace) -> int:
    which = args.command
    params = _params(args)
    print(
        f"simulating {params.horizon:.0f} days "
        f"(seed {params.seed}, warmup {params.warmup:.0f} d, "
        f"{params.batches} batches, "
        f"{params.access_rate_per_day:g} access/day) ...",
        file=sys.stderr,
    )
    metrics_out, record, jobs = args.metrics_out, args.record, args.jobs
    with _live(args, which, {
        "horizon": params.horizon,
        "seed": params.seed,
        "warmup": params.warmup,
        "batches": params.batches,
        "access_rate": params.access_rate_per_day,
        "jobs": jobs,
    }) as live:
        if not metrics_out and not record:
            cells = run_study(params, jobs=jobs, progress=args.progress,
                              bus=live.bus)
        else:
            # The registry times the command itself (command.seconds), so
            # the manifest's wall clock is the timer's own reading — no
            # hand-rolled perf_counter pair.
            metrics = MetricsRegistry()
            profiler = None
            if record and (jobs is None or jobs == 1):
                # Recording keeps phase timings too (the report's phase
                # breakdown); profiling is in-process, so parallel runs
                # record without it rather than fail.
                from repro.obs.prof import PhaseProfiler

                profiler = PhaseProfiler(metrics)
            with metrics.timed("command.seconds", command=which):
                cells = run_study(params, jobs=jobs,
                                  metrics=metrics,
                                  progress=args.progress,
                                  profiler=profiler,
                                  capture_timelines=record,
                                  bus=live.bus)
            if profiler is not None:
                profiler.flush()
            if metrics_out:
                _write_metrics_dump(
                    metrics_out, which, params, PAPER_POLICIES,
                    tuple(sorted(CONFIGURATIONS)), metrics,
                    metrics.histogram("command.seconds",
                                      command=which).total,
                    jobs=jobs,
                )
            if record:
                registered = _registry(args).record_study(
                    cells, params, PAPER_POLICIES,
                    tuple(sorted(CONFIGURATIONS)), command=which,
                    metrics=metrics, timelines=cells.timelines,
                )
                _record_note(registered)
                live.run_id = registered.run_id
    if which in ("table2", "study"):
        if args.no_compare:
            print(format_table2(cells))
        else:
            print(format_comparison(
                cells, PAPER_TABLE_2,
                "Table 2: Replicated File Unavailabilities (paper vs ours)",
            ))
    if which == "study":
        print()
    if which in ("table3", "study"):
        if args.no_compare:
            print(format_table3(cells))
        else:
            print(format_comparison(
                cells, PAPER_TABLE_3,
                "Table 3: Mean Duration of Unavailable Periods, days "
                "(paper vs ours)",
                use_durations=True,
            ))
    if args.intervals:
        print()
        print(format_intervals(cells))
    failed = getattr(cells, "failed_cells", ())
    if failed:
        print(f"\nwarning: {len(failed)} cell(s) failed after a retry "
              "(shown as '?' above):", file=sys.stderr)
        for cell in failed:
            print(f"  {cell.config_key}/{cell.policy}: {cell.error}",
                  file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> None:
    params = _params(args)
    rates = [float(r) for r in args.rates.split(",") if r.strip()]
    config = configuration(args.config)
    points = access_rate_sweep(config, rates, params=params)
    print(f"Access-rate sweep on configuration {config.label}")
    print(f"{'policy':>8}  {'acc/day':>8}  {'unavailability':>14}  {'mean down (d)':>13}")
    for point in points:
        print(
            f"{point.policy:>8}  {point.accesses_per_day:>8.2f}  "
            f"{point.unavailability:>14.6f}  {point.mean_down_duration:>13.4f}"
        )


def _cmd_placement(args: argparse.Namespace) -> None:
    params = _params(args)
    results = placement_sweep(args.copies, args.policy, params=params)
    print(
        f"Best placements of {args.copies} copies under {args.policy} "
        f"(of {len(results)} evaluated)"
    )
    print(f"{'copies':<14}  {'segments':>8}  {'unavailability':>14}")
    for row in results[: args.top]:
        print(f"{row.label:<14}  {row.segments_used:>8}  {row.unavailability:>14.6f}")


def _cmd_trace_scenario(args: argparse.Namespace) -> int:
    """Replay a scenario file with full structured tracing (JSONL)."""
    spec = load_scenario(args.scenario)
    sink = _jsonl_sink(args.out)
    memory = None
    outer = sink
    if args.record:
        memory = MemorySink(capacity=1_000_000)
        outer = FanoutSink((sink, memory))
    tracer = Tracer(outer, scenario=spec.name)
    try:
        result = run_scenario(
            testbed_topology(), spec.copy_sites, spec.policy, spec.steps,
            initial=spec.initial, tracer=tracer,
        )
    finally:
        tracer.close()
    denied = len(result.denied_steps)
    print(
        f"scenario {spec.name!r}: {len(result.outcomes)} steps, "
        f"{denied} denied, {sink.emitted} trace records"
        + (f" -> {args.out}" if args.out else ""),
        file=sys.stderr,
    )
    if memory is not None:
        registered = _registry(args).record_scenario(
            spec.name, spec.policy,
            [record.to_dict() for record in memory.records],
        )
        _record_note(registered)
    return 0


def _jsonl_sink(path: Optional[str]):
    """A JSONL trace sink on *path* (stdout when None); exit 2 if it
    cannot be opened."""
    try:
        return JsonlSink(path if path else sys.stdout)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write trace to {path}: {exc}"
        ) from exc


def _cmd_trace(args: argparse.Namespace) -> Optional[int]:
    if args.scenario is not None:
        return _cmd_trace_scenario(args)
    flag = "--record" if args.record else "--out" if args.out else None
    if flag is not None:
        raise ConfigurationError(
            f"trace {flag} requires a scenario file; a sampled failure "
            "trace is written with --save instead"
        )
    params = _params(args)
    trace = generate_trace(testbed_profiles(), params.horizon, params.seed)
    if args.save:
        from repro.failures.serialization import dump_trace

        dump_trace(trace, args.save)
        print(f"trace written to {args.save}", file=sys.stderr)
    print(
        f"trace: {len(trace)} transitions over {trace.horizon:.0f} days "
        f"(seed {params.seed})"
    )
    print(f"{'site':>4}  {'name':<8}  {'availability':>12}  {'analytic':>9}")
    for profile in testbed_profiles():
        measured = trace.site_availability(profile.site_id)
        analytic = profile.steady_state_availability()
        print(
            f"{profile.site_id:>4}  {profile.name:<8}  {measured:>12.6f}  "
            f"{analytic:>9.6f}"
        )


def _cmd_overhead(args: argparse.Namespace) -> None:
    from repro.experiments.overhead import measure_overhead
    from repro.experiments.report import ascii_table

    config = configuration(args.config)
    topology = testbed_topology()
    trace = generate_trace(testbed_profiles(), args.days, args.seed)
    access = poisson_times(args.access_rate, args.days, args.seed)
    print(
        f"replaying {args.days:.0f} days on configuration {config.label} "
        f"({len(trace)} transitions, {len(access)} accesses)",
        file=sys.stderr,
    )
    rows = []
    for policy in PAPER_POLICIES:
        bill = measure_overhead(policy, topology, config.copy_sites, trace,
                                access)
        rows.append([
            bill.policy, bill.counters.state_requests,
            bill.counters.state_replies, bill.counters.commits,
            bill.counters.data_transfers, bill.counters.total_messages,
            round(bill.messages_per_day, 2),
        ])
    print(ascii_table(
        ["policy", "requests", "replies", "commits", "data", "total",
         "msgs/day"],
        rows,
    ))


def _cmd_validate(args: argparse.Namespace) -> int:
    """Cross-check the simulator against closed forms (DESIGN.md §4)."""
    from repro.analysis.enumeration import (
        mcv_predicate,
        single_copy_predicate,
        static_availability,
    )

    metrics_out = args.metrics_out
    metrics = MetricsRegistry() if metrics_out else None
    params = _params(args)
    topology = testbed_topology()

    def evaluate_cell(policy, copies, config_key, trace, **kwargs):
        """evaluate_policy, tallied and timed when --metrics-out is set."""
        if metrics is None:
            return evaluate_policy(policy, topology, copies, trace, **kwargs)
        with metrics.timed("cell.seconds", config=config_key, policy=policy):
            return evaluate_policy(
                policy, topology, copies, trace,
                tracer=Tracer(MetricsSink(metrics, config=config_key)),
                **kwargs,
            )

    def run_checks() -> int:
        import math

        trace = generate_trace(
            testbed_profiles(), params.horizon, params.seed
        )
        measured_sites = {
            s: trace.site_availability(s) for s in range(1, 9)
        }
        print(f"simulated {params.horizon:.0f} days (seed {params.seed})\n")
        failures = 0

        print("1. per-site availability vs mttf/(mttf+mttr):")
        for profile in testbed_profiles():
            analytic = profile.steady_state_availability()
            simulated = measured_sites[profile.site_id]
            # ~3 standard errors of the downtime estimator: per-failure
            # downtime varies by roughly its own mean (exponential
            # parts), and the horizon sees about horizon / mttf
            # failures.  Plus the maintenance duty cycle (sites 1, 3,
            # 5), absent from the closed form.
            n_failures = max(1.0, params.horizon / profile.mttf_days)
            sigma = (profile.expected_downtime() * math.sqrt(n_failures)
                     / params.horizon)
            slack = (3.0 * sigma + 0.002
                     + (0.0015 if profile.maintenance else 0.0))
            ok = abs(simulated - analytic) < slack
            failures += 0 if ok else 1
            print(f"   site {profile.site_id} ({profile.name:<8}) "
                  f"simulated {simulated:.6f}  analytic {analytic:.6f}  "
                  f"{'ok' if ok else 'MISMATCH'}")

        print("\n2. MCV availability vs exact 2^8-state enumeration:")
        for key in ("A", "B", "F"):
            copies = configuration(key).copy_sites
            result = evaluate_cell("MCV", copies, key, trace,
                                   warmup=0.0, batches=1)
            exact = static_availability(topology, measured_sites,
                                        mcv_predicate(copies))
            ok = abs(result.availability - exact) < 0.005
            failures += 0 if ok else 1
            print(f"   config {key}: simulated {result.availability:.6f}  "
                  f"exact {exact:.6f}  {'ok' if ok else 'MISMATCH'}")

        print("\n3. no policy beats the 'some copy up' bound (config A):")
        copies = configuration("A").copy_sites
        bound = static_availability(topology, measured_sites,
                                    single_copy_predicate(copies))
        access = poisson_times(params.access_rate_per_day, params.horizon,
                               params.seed)
        for policy in PAPER_POLICIES:
            result = evaluate_cell(policy, copies, "A", trace,
                                   warmup=0.0, batches=1,
                                   access_times=access)
            ok = result.availability <= bound + 0.002
            failures += 0 if ok else 1
            print(f"   {policy:<5} {result.availability:.6f} <= "
                  f"{bound:.6f}  {'ok' if ok else 'VIOLATION'}")

        print(f"\n{'all checks passed' if failures == 0 else f'{failures} check(s) FAILED'}")
        return failures

    if metrics is None:
        failures = run_checks()
    else:
        # Same dedup as _cmd_tables: the registry's timer is the one
        # wall clock, read back for the manifest.
        with metrics.timed("command.seconds", command="validate"):
            failures = run_checks()
        _write_metrics_dump(
            metrics_out, "validate", params,
            ("MCV",) + tuple(PAPER_POLICIES), ("A", "B", "F"),
            metrics,
            metrics.histogram("command.seconds", command="validate").total,
            failures=failures,
        )
    return 0 if failures == 0 else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    spec = load_scenario(args.file)
    print(f"scenario {spec.name!r}: policy {spec.policy}, "
          f"copies {sorted(spec.copy_sites)}")
    result = run_scenario(
        testbed_topology(), spec.copy_sites, spec.policy, spec.steps,
        initial=spec.initial,
    )
    for index, outcome in enumerate(result.outcomes):
        step = outcome.step
        what = step.kind
        if step.site is not None:
            what += f" site {step.site}"
            if step.peer is not None:
                what += f"-{step.peer}"
        status = "ok" if outcome.granted else "DENIED"
        detail = ""
        if step.kind == "read" and outcome.granted:
            detail = f" -> {outcome.value!r}"
        elif not outcome.granted and outcome.detail:
            detail = f" ({outcome.detail})"
        print(f"  {index:>3}  {what:<24} {status}{detail}")
    denied = len(result.denied_steps)
    print(f"done: {len(result.outcomes)} steps, {denied} denied")
    return 0


def _cmd_demo(args: argparse.Namespace) -> None:
    # Local import: the demo pulls in the engine, which most commands skip.
    from repro.experiments.demo import run_demo

    run_demo()


def _write(path, text: str, note: Optional[str] = None) -> None:
    """The one file writer: *text* to *path*, then *note* on stderr.
    An unwritable path is a configuration error (exit 2)."""
    try:
        pathlib.Path(path).write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc
    if note:
        print(note, file=sys.stderr)


def _write_json(path, payload: dict, note: Optional[str] = None) -> None:
    """Write *payload* in the one JSON format: two-space indent, keys in
    document order, a trailing newline."""
    _write(path, json.dumps(payload, indent=2) + "\n", note)


def _json_out(args: argparse.Namespace, payload: dict) -> None:
    """Honour ``--json-out``."""
    if args.json_out:
        _write_json(args.json_out, payload,
                    f"json written to {args.json_out}")


def _cmd_analyze_summary(args: argparse.Namespace) -> int:
    from repro.experiments.report import ascii_table
    from repro.obs.analysis import RecordStream, summarize

    summary = summarize(RecordStream.from_jsonl(args.trace))
    print(f"trace {args.trace}: {summary.total} records")
    if summary.first_time is not None:
        print(f"timed span: {summary.first_time:g} .. {summary.last_time:g}")
    if summary.sites:
        print("sites touched: "
              + ", ".join(str(s) for s in sorted(summary.sites)))
    if summary.by_kind:
        print()
        rows = [
            [kind, count]
            for kind, count in sorted(
                summary.by_kind.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        print(ascii_table(["kind", "records"], rows))
    if summary.grants or summary.denials:
        print()
        print(f"quorum decisions: {summary.grants} granted, "
              f"{summary.denials} denied "
              f"(denial rate {summary.denial_rate:.3f})")
    _json_out(args, summary.to_dict())
    return 0


def _cmd_analyze_timeline(args: argparse.Namespace) -> int:
    from repro.experiments.report import ascii_table
    from repro.obs.analysis import RecordStream, build_timelines

    timelines = build_timelines(RecordStream.from_jsonl(args.trace))
    if args.policy is not None:
        if args.policy not in timelines:
            raise ConfigurationError(
                f"no decisions by {args.policy!r} in the trace; "
                f"saw {sorted(timelines) or 'none'}"
            )
        timelines = {args.policy: timelines[args.policy]}
    if not timelines:
        raise ConfigurationError("no quorum decisions in the trace")
    rows = []
    for policy, timeline in sorted(timelines.items()):
        rows.append([
            policy, timeline.unit, timeline.decisions,
            f"{timeline.start:g}..{timeline.end:g}",
            len(timeline.down_spans),
            round(timeline.unavailable_time(), 6),
            round(timeline.unavailability(), 6),
        ])
    print(ascii_table(
        ["policy", "unit", "decisions", "window", "outages",
         "down", "unavailability"],
        rows,
    ))
    for policy, timeline in sorted(timelines.items()):
        downs = timeline.down_spans
        if not downs:
            continue
        print(f"\n{policy} unavailable spans ({timeline.unit}):")
        shown = downs[:20]
        print(ascii_table(
            ["start", "end", "duration"],
            [[span.start, span.end, span.duration] for span in shown],
        ))
        if len(downs) > len(shown):
            print(f"... and {len(downs) - len(shown)} more")
    _json_out(args, {
        "format": "repro-trace-timelines",
        "version": 1,
        "timelines": [
            timelines[policy].to_dict() for policy in sorted(timelines)
        ],
    })
    return 0


def _cmd_analyze_audit(args: argparse.Namespace) -> int:
    from repro.experiments.report import ascii_table
    from repro.obs.analysis import RecordStream, audit_trace

    if args.limit < 0:
        raise ConfigurationError(f"--limit must be >= 0, got {args.limit}")
    total = 0
    by_rule: dict[str, int] = {}
    kept = []
    for denial in audit_trace(RecordStream.from_jsonl(args.trace)):
        total += 1
        by_rule[denial.rule] = by_rule.get(denial.rule, 0) + 1
        if len(kept) < args.limit:
            kept.append(denial)
    if total == 0:
        print("no denied quorum decisions in the trace")
        _json_out(args, {
            "format": "repro-trace-audit", "version": 1,
            "denials": 0, "by_rule": {}, "explanations": [],
        })
        return 0
    for denial in kept:
        where = f"t={denial.time:g}" if denial.time is not None else \
            f"seq={denial.seq}"
        print(f"[{where}] {denial.policy} denied — {denial.rule}")
        print(f"    {denial.explanation}")
        if denial.topological_note:
            print(f"    ({denial.topological_note})")
    if total > len(kept):
        print(f"... and {total - len(kept)} more "
              "(raise --limit or use --json-out)")
    print()
    print(ascii_table(
        ["rule", "denials"],
        sorted(by_rule.items(), key=lambda kv: (-kv[1], kv[0])),
    ))
    _json_out(args, {
        "format": "repro-trace-audit",
        "version": 1,
        "denials": total,
        "by_rule": dict(sorted(by_rule.items())),
        "explanations": [denial.to_dict() for denial in kept],
    })
    return 0


def _scenario_records(path: str, policy: str):
    """Replay *path* under *policy*, returning the decision records."""
    spec = load_scenario(path)
    sink = MemorySink(capacity=1_000_000)
    tracer = Tracer(sink, scenario=spec.name)
    run_scenario(
        testbed_topology(), spec.copy_sites, policy, spec.steps,
        initial=spec.initial, tracer=tracer,
    )
    return [record.to_dict() for record in sink.records]


def _cmd_analyze_diff(args: argparse.Namespace) -> int:
    from repro.experiments.report import ascii_table
    from repro.obs.analysis import RecordStream, diff_traces, explain_denial

    if args.scenario is not None:
        if args.traces:
            raise ConfigurationError(
                "give either two trace files or --scenario, not both"
            )
        policies = _policy_list(args.policies, available_policies())
        if len(policies) != 2:
            raise ConfigurationError(
                f"--policies needs exactly two names, got {policies}"
            )
        print(f"replaying {args.scenario} under {policies[0]} "
              f"and {policies[1]} ...", file=sys.stderr)
        records_a = _scenario_records(args.scenario, policies[0])
        records_b = _scenario_records(args.scenario, policies[1])
    else:
        if len(args.traces) != 2:
            raise ConfigurationError(
                "diff needs two JSONL traces (or --scenario FILE)"
            )
        records_a = RecordStream.from_jsonl(args.traces[0])
        records_b = RecordStream.from_jsonl(args.traces[1])
    diff = diff_traces(records_a, records_b)
    print(f"{diff.policy_a} vs {diff.policy_b}: {diff.aligned} aligned "
          f"decisions, {diff.agreements} agree, {diff.divergent} diverge")
    if diff.only_a or diff.only_b:
        print(f"unaligned decision points: {diff.only_a} only in "
              f"{diff.policy_a}, {diff.only_b} only in {diff.policy_b}")
    first = diff.first_divergence
    if first is None:
        print("the protocols agree on every aligned decision")
    else:
        where = f"position {first.position:g}"
        if first.action:
            where += f" ({first.action})"
        print(f"\nfirst divergence at {where}:")
        for policy, decision in (
            (diff.policy_a, first.a), (diff.policy_b, first.b),
        ):
            verdict = "GRANTED" if decision.granted else "DENIED"
            print(f"  {policy:<5} {verdict}: {decision.explain()}")
            if not decision.granted:
                note = explain_denial(decision.record).topological_note
                if note:
                    print(f"        ({note})")
        if len(diff.divergences) > 1:
            print()
            print(ascii_table(
                ["position", "action", diff.policy_a, diff.policy_b],
                [
                    [
                        f"{d.position:g}", d.action or "-",
                        "granted" if d.a.granted else "denied",
                        "granted" if d.b.granted else "denied",
                    ]
                    for d in diff.divergences
                ],
            ))
    _json_out(args, diff.to_dict())
    return 0


def _policy_list(spec: str, known=None) -> list:
    """A comma-separated ``--policies`` value as names; exit 2 when it
    names none, or a name outside *known* (when given)."""
    policies = [name.strip() for name in spec.split(",") if name.strip()]
    for name in policies:
        if known is not None and name not in known:
            raise ConfigurationError(
                f"unknown policy {name!r} in --policies; "
                f"choose from {', '.join(sorted(known))}"
            )
    if not policies:
        raise ConfigurationError("--policies named no protocols")
    return policies


def _print_chaos_violation(result) -> None:
    """The violation report: what broke, the evidence, the first
    decision where the run left the safe path (PR-2 diff analytics)."""
    from repro.chaos import explain_divergence
    from repro.obs.analysis import explain_violation

    violation = result.violation
    print(f"\nVIOLATION: {violation}")
    print(f"  {explain_violation(violation.to_dict())}")
    diff = explain_divergence(result)
    if diff is None:
        return
    reference = ("fault-free run" if diff.policy_a == diff.policy_b
                 else diff.policy_b)
    first = diff.first_divergence
    if first is None:
        print(f"  no divergent quorum decision vs the {reference} "
              "(the violation is in the commit path, not a decision)")
        return
    print(f"  first divergence from the {reference} at schedule step "
          f"{first.position:g}:")
    for policy, decision in ((diff.policy_a, first.a),
                             (diff.policy_b, first.b)):
        verdict = "GRANTED" if decision.granted else "DENIED"
        print(f"    {policy:<10} {verdict}: {decision.explain()}")


def _chaos_schedule(args: argparse.Namespace) -> tuple:
    """The ``(schedule, protocol)`` a chaos command executes: loaded
    from ``--schedule FILE`` (replay only), or built from ``--seed`` and
    the schedule knobs.  The protocol is ``--policy``, else the one the
    file records, else LDV."""
    from repro.chaos import ChaosPolicy, ChaosSchedule, build_schedule

    path = getattr(args, "schedule", None)
    protocol = args.policy
    if path is not None:
        from repro.failures.serialization import load_chaos_document

        if args.seed is not None:
            raise ConfigurationError("give --schedule or --seed, not both")
        document = load_chaos_document(path)
        schedule = ChaosSchedule.from_dict(document)
        if protocol is None:
            protocol = document.get("protocol")
    elif args.seed is not None:
        placement = configuration(args.config)
        schedule = build_schedule(
            args.seed,
            placement.copy_sites,
            testbed_topology().site_ids,
            policy=ChaosPolicy(
                unsafe_partial_commits=args.unsafe_partial_commits),
            length=args.steps,
            config=placement.key,
        )
    else:
        raise ConfigurationError(
            "replay needs --schedule FILE or --seed N"
        )
    return schedule, "LDV" if protocol is None else protocol


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    """``chaos run`` and ``chaos replay``: one schedule, monitor on."""
    from repro.chaos import run_schedule

    replay = args.chaos_command == "replay"
    schedule, protocol = _chaos_schedule(args)
    if getattr(args, "save_schedule", None):
        from repro.failures.serialization import dump_chaos_schedule

        dump_chaos_schedule(schedule, args.save_schedule,
                            protocol=protocol)
        print(f"schedule written to {args.save_schedule}", file=sys.stderr)
    sink = _jsonl_sink(args.out) if args.out else None
    try:
        result = run_schedule(schedule, protocol, sink=sink)
    finally:
        if sink is not None:
            sink.close()
    print(f"chaos run: policy {result.policy}, seed {schedule.seed}, "
          f"config {schedule.config}, {len(schedule.steps)} steps")
    print(f"  {result.operations} operations: {result.granted} granted, "
          f"{result.denied} denied, {result.aborted} aborted")
    print(f"  {result.faults_injected} faults injected, "
          f"{result.messages_sent} messages, "
          f"{result.stale_commits} stale commits tolerated"
          + (f" -> {args.out}" if args.out else ""))
    if not result.ok:
        _print_chaos_violation(result)
    elif replay:
        print("  no invariant violation reproduced")
    else:
        print("  OK: every safety invariant held")
    _json_out(args, result.to_dict())
    if args.record:
        _record_note(_registry(args).record_chaos(
            result, command=f"chaos {args.chaos_command}"))
    return 0 if result.ok else 1


def _cmd_chaos_sweep(args: argparse.Namespace) -> int:
    from repro.chaos import ChaosPolicy, run_sweep
    from repro.experiments.report import ascii_table

    policies = _policy_list(args.policies)
    seeds = 8 if args.quick else args.seeds
    if seeds < 1:
        raise ConfigurationError(f"--seeds must be >= 1, got {seeds}")
    chaos = ChaosPolicy(
        unsafe_partial_commits=args.unsafe_partial_commits
    )
    print(f"chaos sweep: {len(policies)} policies x {seeds} seeds "
          f"({len(policies) * seeds} schedules of {args.steps} steps, "
          f"config {args.config}) ...", file=sys.stderr)
    with _live(args, "chaos sweep", {
        "policies": policies,
        "seeds": seeds,
        "config": args.config,
        "steps": args.steps,
        "unsafe_partial_commits": args.unsafe_partial_commits,
    }) as live:
        report = run_sweep(
            policies=policies,
            seeds=range(seeds),
            config=args.config,
            steps=args.steps,
            chaos=chaos,
            bus=live.bus,
        )
    rows = [
        [
            row.policy, row.runs, row.operations, row.granted, row.denied,
            row.aborted, row.faults_injected, len(row.violations),
        ]
        for row in report.rows
    ]
    print(ascii_table(
        ["policy", "runs", "ops", "granted", "denied", "aborted",
         "faults", "violations"],
        rows,
    ))
    print(f"\n{report.total_runs} runs, "
          f"{report.total_violations} invariant violations")
    for row in report.rows:
        if row.first_violation is not None:
            _print_chaos_violation(row.first_violation)
    _json_out(args, report.to_dict())
    return 0 if report.ok else 1


def _profile(args: argparse.Namespace, target: str, workload) -> int:
    """Run ``workload(phases)`` under the chosen profiler, then print or
    write the report (``repro profile``)."""
    from repro.obs.prof import PhaseProfiler, run_profiled

    if args.interval <= 0:
        raise ConfigurationError(
            f"--interval must be > 0 ms, got {args.interval}"
        )
    phases = PhaseProfiler()
    _, report = run_profiled(
        lambda: workload(phases), target, engine=args.engine,
        interval=args.interval / 1000.0, top=args.top, phases=phases,
    )
    text = report.format_text(args.top)
    if args.out:
        _write(args.out, text + "\n", f"report written to {args.out}")
    else:
        print(text)
    if args.collapsed:
        _write(args.collapsed, "\n".join(report.collapsed) + "\n",
               f"{len(report.collapsed)} collapsed stacks written to "
               f"{args.collapsed} (flamegraph.pl / speedscope ready)")
    _json_out(args, report.to_dict())
    if args.record:
        _record_note(_registry(args).record_profile(
            report.to_dict(), command=f"profile {args.profile_command}",
            label=target,
        ))
    return 0


def _cmd_profile_scenario(args: argparse.Namespace) -> int:
    spec = load_scenario(args.file)
    policy = args.policy if args.policy is not None else spec.policy
    topology = testbed_topology()

    def workload(phases):
        with phases.phase("scenario", policy=policy):
            return run_scenario(
                topology, spec.copy_sites, policy, spec.steps,
                initial=spec.initial,
            )

    return _profile(args, f"scenario:{spec.name} ({policy})", workload)


def _cmd_profile_study(args: argparse.Namespace) -> int:
    if args.horizon is None:
        # A profiled study defaults to a short horizon: cProfile
        # multiplies the replay cost several-fold, and hot spots
        # show at 4000 days just as well as at 40000.
        args.horizon = 4000.0
    params = _params(args)
    configs = [configuration(key.strip())
               for key in args.configs.split(",") if key.strip()]
    if not configs:
        raise ConfigurationError("--configs named no configurations")
    policies = _policy_list(args.policies, available_policies())

    def workload(phases):
        with phases.phase("study"):
            return run_study(params, configurations=configs,
                             policies=policies, profiler=phases)

    return _profile(args, f"study:{len(configs)}x{len(policies)} cells, "
                          f"{params.horizon:g} days", workload)


def _cmd_profile_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import run_schedule

    schedule, _ = _chaos_schedule(args)

    def workload(phases):
        with phases.phase("chaos", policy=args.policy):
            return run_schedule(schedule, args.policy, profiler=phases)

    return _profile(args, f"chaos:seed={args.seed} {args.policy} "
                          f"x{args.steps} steps", workload)


def _bench_full_suite() -> list:
    """Run the pytest-benchmark suite; returns its BenchmarkStats."""
    import os
    import subprocess
    import tempfile

    from repro.obs.prof import ingest_pytest_benchmark

    src = str(pathlib.Path(__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    print("running the pytest-benchmark suite "
          "(--quick records the smoke subset in seconds) ...",
          file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "benchmark.json"
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "benchmarks/",
             "--benchmark-only", f"--benchmark-json={out}", "-q"],
            env=env,
        )
        if result.returncode != 0 or not out.exists():
            raise ReproError(
                f"pytest-benchmark run failed (exit {result.returncode})"
            )
        document = json.loads(out.read_text())
    return ingest_pytest_benchmark(document)


def _cmd_bench_record(args: argparse.Namespace) -> int:
    from repro.obs.prof import (
        build_point,
        ingest_pytest_benchmark,
        next_trajectory_path,
        run_quick,
    )

    if args.quick and args.from_json:
        raise ConfigurationError("give --quick or --from-json, not both")
    if args.rounds < 1:
        raise ConfigurationError(
            f"--rounds must be >= 1, got {args.rounds}"
        )
    if args.from_json:
        source_path = pathlib.Path(args.from_json)
        try:
            document = json.loads(source_path.read_text())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read {source_path}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{source_path} is not JSON: {exc}"
            ) from exc
        stats = ingest_pytest_benchmark(document)
        source = "pytest-benchmark"
    elif args.quick:
        print(f"timing the quick subset ({args.rounds} rounds each) ...",
              file=sys.stderr)
        stats = run_quick(args.rounds)
        source = "quick"
    else:
        stats = _bench_full_suite()
        source = "pytest-benchmark"
    if args.out:
        index, target = None, pathlib.Path(args.out)
    else:
        index, target = next_trajectory_path(args.dir)
    point = build_point(stats, source, index=index, note=args.note)
    _write_json(target, point)
    label = f"point #{index}" if index is not None else "point"
    print(f"trajectory {label} written to {target} "
          f"({len(stats)} benchmarks, source {source})")
    if args.record:
        _record_note(_registry(args).record_bench(point,
                                                  command="bench record"))
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.experiments.report import ascii_table
    from repro.obs.prof import (
        compare_points,
        latest_trajectory_path,
        load_point,
    )

    baseline = load_point(args.baseline)
    current_path = args.current
    if current_path is None:
        found = latest_trajectory_path(args.dir)
        if found is None:
            raise ConfigurationError(
                f"no BENCH_<n>.json in {args.dir}; name the current "
                "point explicitly"
            )
        current_path = str(found)
    current = load_point(current_path)
    comparison = compare_points(
        baseline, current,
        max_regression=args.max_regression,
        iqr_factor=args.iqr_factor,
        ignore_fingerprint=args.ignore_fingerprint,
    )
    print(f"baseline {args.baseline}  vs  current {current_path}")
    if comparison.status == "incomparable":
        print("incomparable: the points come from different "
              "interpreters or machines:")
        for key in ("implementation", "python", "machine"):
            print(f"  {key}: {comparison.baseline_fingerprint.get(key)}"
                  f" vs {comparison.current_fingerprint.get(key)}")
        print("re-record on one machine, or pass --ignore-fingerprint "
              "with a --max-regression wide enough for the difference")
        _json_out(args, comparison.to_dict())
        return 1
    rows = [
        [
            row.name, row.verdict,
            "-" if row.baseline_median is None
            else f"{row.baseline_median:.6f}",
            "-" if row.current_median is None
            else f"{row.current_median:.6f}",
            "-" if row.ratio is None else f"{row.ratio:.3f}x",
        ]
        for row in comparison.rows
    ]
    print(ascii_table(
        ["benchmark", "verdict", "base median(s)", "cur median(s)",
         "ratio"],
        rows,
    ))
    if not comparison.fingerprint_matches:
        print("note: fingerprints differ; comparing anyway "
              "(--ignore-fingerprint)", file=sys.stderr)
    regressions = comparison.regressions
    if regressions:
        print(f"\nREGRESSION: {len(regressions)} benchmark(s) slowed "
              f"by more than {comparison.max_regression:.0%} beyond "
              "noise:")
        for row in regressions:
            print(f"  {row.name}: {row.baseline_median:.6f}s -> "
                  f"{row.current_median:.6f}s ({row.ratio:.2f}x)")
    else:
        print(f"\nok: no regression beyond "
              f"{comparison.max_regression:.0%} + noise")
    _json_out(args, comparison.to_dict())
    return 1 if comparison.status != "ok" else 0


def _parse_peer_spec(spec: str) -> dict:
    """``'2=host:port,3=host:port'`` → ``{site: (host, port)}``."""
    peers: dict[int, tuple] = {}
    for token in (spec or "").split(","):
        token = token.strip()
        if not token:
            continue
        try:
            site_part, address = token.split("=", 1)
            host, port = address.rsplit(":", 1)
            peers[int(site_part)] = (host, int(port))
        except ValueError as exc:
            raise ConfigurationError(
                f"bad peer spec {token!r} (want site=host:port): {exc}"
            ) from exc
    return peers


def _cmd_service_replica(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.cluster import parse_segments
    from repro.service.replica import ReplicaConfig, serve_replica

    config = ReplicaConfig(
        site_id=args.site,
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        peers=_parse_peer_spec(args.peers),
        policy=args.policy,
        segments=parse_segments(args.segments),
        fsync=args.fsync,
        trace=args.trace,
    )
    try:
        asyncio.run(serve_replica(config))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_service_cluster(args: argparse.Namespace) -> int:
    import time

    from repro.service.cluster import ClusterSpec, LocalCluster

    spec = ClusterSpec(
        directory=args.dir,
        replicas=args.replicas,
        policy=args.policy,
        fsync=args.fsync,
        proxy=not args.no_proxy,
        segments=args.segments,
        trace=args.trace,
    )
    cluster = LocalCluster(spec)
    cluster.start()
    addresses = ", ".join(
        f"{host}:{port}" for host, port in cluster.client_addresses)
    print(f"cluster of {args.replicas} {args.policy} replica(s) under "
          f"{cluster.root} — clients connect to {addresses} "
          "(Ctrl-C to stop; 'repro service kill <site>' for chaos)",
          file=sys.stderr)
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        print("stopping cluster", file=sys.stderr)
    finally:
        cluster.stop()
    return 0


def _print_service_summary(document: dict) -> None:
    for policy, doc in sorted(document.get("policies", {}).items()):
        load = doc.get("load", {})
        mark = "ok" if doc.get("ok") else "FAILED"
        print(f"{policy}: {mark}, {load.get('operations', 0)} ops, "
              f"{len(doc.get('kills', []))} kill(s), "
              f"{sum(1 for f in doc.get('faults', []) if f.get('verb') == 'partition')} "
              f"partition(s), {len(doc.get('violations', []))} "
              "violation(s)")
        for op, outcomes in sorted(load.get("latency", {}).items()):
            for outcome, hist in sorted(outcomes.items()):
                print(f"  {op}/{outcome}: n={hist.get('count', 0)} "
                      f"p50={hist.get('p50', 0) * 1000:.1f}ms "
                      f"p95={hist.get('p95', 0) * 1000:.1f}ms "
                      f"p99={hist.get('p99', 0) * 1000:.1f}ms")
        for op, table in sorted(load.get("availability", {}).items()):
            outcomes = " ".join(
                f"{name}={count}" for name, count in sorted(
                    table.get("outcomes", {}).items()))
            print(f"  {op}: ok_rate={table.get('ok_rate', 0):.3f} "
                  f"({outcomes})")
        traces = doc.get("traces")
        if traces:
            print(f"  traces: {traces.get('traces', 0)} recorded, "
                  f"{traces.get('sampled', 0)} exemplar(s) kept "
                  f"({traces.get('spans', 0)} spans)")
        scrape = doc.get("scrape")
        if scrape:
            print(f"  scrape: {scrape.get('scrapes', 0)} round(s) over "
                  f"{scrape.get('targets', 0)} target(s), "
                  f"{scrape.get('failures', 0)} failure(s)")
        alerts = doc.get("alerts")
        if alerts:
            events = alerts.get("events", [])
            firing = alerts.get("firing", [])
            fired = sorted({e.get("alert") for e in events
                            if e.get("state") == "firing"})
            print(f"  alerts: {len(events)} edge(s)"
                  + (f", fired: {', '.join(fired)}" if fired else "")
                  + (f", STILL FIRING: {', '.join(firing)}"
                     if firing else ""))


def _cmd_service_bench(args: argparse.Namespace) -> int:
    import shutil
    import tempfile

    from repro.service.bench import BenchOptions, run_bench

    policies = tuple(_policy_list(args.policies.upper()))
    directory = args.dir
    temporary = directory is None
    if temporary:
        directory = tempfile.mkdtemp(prefix="repro-service-")
    options = BenchOptions(
        directory=directory,
        policies=policies,
        replicas=args.replicas,
        duration=args.duration,
        seed=args.seed,
        workers=args.workers,
        write_ratio=args.write_ratio,
        fsync=args.fsync,
        segments=args.segments,
        drop_rate=args.drop_rate,
        delay_rate=args.delay_rate,
        min_kills=args.kills,
        min_partitions=args.partitions,
        trace=args.trace,
        trace_exemplars=args.trace_exemplars,
        scrape_interval=args.scrape_interval,
        availability_target=args.availability_target,
    )
    with _live(args, "service bench", {
        "policies": ",".join(policies),
        "replicas": args.replicas,
        "duration": args.duration,
        "seed": args.seed,
    }) as live:
        document, samples, traces = run_bench(options, bus=live.bus)
        live.status = "finished" if document["ok"] else "failed"
        if args.record:
            record = _registry(args).record_service(
                document, command="service bench", samples=samples,
                traces=traces, tsdb=document.get("tsdb"))
            _record_note(record)
            live.run_id = record.run_id
    if args.out:
        _write_json(args.out, document)
    _print_service_summary(document)
    if document["ok"]:
        if temporary:
            shutil.rmtree(directory, ignore_errors=True)
        return 0
    print(f"service bench FAILED "
          f"({', '.join(document['failed_gates'])}); "
          f"cluster state kept under {directory}", file=sys.stderr)
    return 1


def _cmd_service_kill(args: argparse.Namespace) -> int:
    import os
    import signal

    from repro.service.cluster import load_control

    control = load_control(args.dir)
    site = (control.get("sites") or {}).get(str(args.site))
    if not site or not site.get("pid"):
        raise ConfigurationError(
            f"no live pid for site {args.site} under {args.dir}"
        )
    try:
        os.kill(int(site["pid"]), signal.SIGKILL)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(
            f"cannot SIGKILL pid {site['pid']}: {exc}"
        ) from exc
    print(f"sent SIGKILL to site {args.site} (pid {site['pid']})")
    return 0


def _cmd_service_trace(args: argparse.Namespace) -> int:
    from repro.obs.dtrace.collect import build_traces, read_span_log
    from repro.obs.dtrace.render import text_waterfall

    registry = _registry(args)
    record = _service_run(registry, args.run)
    sidecar = registry.traces_path(record.run_id)
    if not sidecar.exists():
        raise ConfigurationError(
            f"run {record.run_id} has no trace sidecar — was the bench "
            "run with --trace --record?"
        )
    records, skipped = read_span_log(sidecar)
    traces = build_traces(records)
    if skipped:
        print(f"({skipped} unparseable span line(s) skipped)",
              file=sys.stderr)
    shown = 0
    for trace_id in sorted(traces):
        trace = traces[trace_id]
        if args.trace_id and not trace_id.startswith(args.trace_id):
            continue
        if args.outcome and trace.outcome() != args.outcome:
            continue
        if shown:
            print()
        print(text_waterfall(trace, events=not args.no_events))
        shown += 1
    if not shown:
        print("no traces matched", file=sys.stderr)
        return 1
    return 0


def _service_run(registry, token: str):
    """The recorded run *token* names; 'latest' is the newest service
    run."""
    if token != "latest":
        return registry.resolve(token)
    record = registry.latest(kind="service")
    if record is None:
        raise ConfigurationError(
            "no service runs recorded under this registry")
    return record


def _metrics_source(args: argparse.Namespace) -> tuple:
    """Resolve ``repro metrics`` source args to an open store and its
    samples (only ``--policy``'s, when given)."""
    from repro.obs.tsdb import TimeSeriesStore

    if args.tsdb is not None:
        directory = pathlib.Path(args.tsdb)
        if not directory.is_dir():
            raise ConfigurationError(
                f"no time-series store at {directory}"
            )
    else:
        registry = _registry(args)
        record = _service_run(registry, args.run)
        directory = registry.tsdb_path(record.run_id)
        if not directory.is_dir():
            raise ConfigurationError(
                f"run {record.run_id} has no time-series sidecar — was "
                "the bench run with --scrape-interval and --record?"
            )
    store = TimeSeriesStore(directory)
    samples = [sample for sample in store.samples()
               if args.policy is None
               or sample.labels.get("policy") == args.policy]
    return store, samples


def _cmd_metrics_query(args: argparse.Namespace) -> int:
    from repro.obs.tsdb import run_query

    _, samples = _metrics_source(args)
    result = run_query(samples, args.selector, args.fn,
                       window=args.window, at=args.at)
    _json_out(args, result)
    if not result["results"]:
        print(f"no series matched {args.selector!r}", file=sys.stderr)
        return 1
    name, _ = args.selector.split("{", 1) if "{" in args.selector \
        else (args.selector, "")
    for row in result["results"]:
        labels = ",".join(f'{key}="{value}"'
                          for key, value in sorted(row["labels"].items()))
        value = "-" if row["value"] is None else f"{row['value']:.6g}"
        print(f"{name.strip()}{{{labels}}} {value} "
              f"({row['points']} point(s))")
    if result.get("merged") is not None:
        print(f"merged {args.fn}: {result['merged']:.6g}")
    return 0


def _cmd_metrics_alerts(args: argparse.Namespace) -> int:
    from repro.obs.tsdb import AlertEngine, default_rules

    store, samples = _metrics_source(args)
    engine = AlertEngine(store,
                         default_rules(args.duration, target=args.target))
    # Replay: evaluate at every scrape instant, in order, so the
    # firing/resolved history a live run produced is reconstructed
    # from the stored series alone.
    for instant in sorted({sample.at for sample in samples}):
        engine.evaluate(samples=samples, now=instant)
    summary = engine.summary()
    _json_out(args, summary)
    if not summary["events"]:
        print("no alert transitions over the stored series")
        return 0
    for event in summary["events"]:
        mark = "FIRING " if event["state"] == "firing" else "resolved"
        extra = ""
        if "burn_fast" in event:
            extra = (f" burn fast={event['burn_fast']:g} "
                     f"slow={event['burn_slow']:g}")
        elif event.get("value") is not None:
            extra = (f" {event.get('quantile', 'value')}="
                     f"{event['value']:g} > {event.get('threshold')}")
        if "after_seconds" in event:
            extra += f" (after {event['after_seconds']:g}s)"
        print(f"{event['at']:.3f} {mark} {event['alert']} "
              f"[{event['severity']}]{extra}")
    if summary["firing"]:
        print(f"still firing: {', '.join(summary['firing'])}")
    return 0


def _registry(args: argparse.Namespace):
    """The run registry named by ``--runs-dir`` (or the default root)."""
    from repro.obs.registry import RunRegistry

    return RunRegistry(getattr(args, "runs_dir", None))


@contextlib.contextmanager
def _live(args: argparse.Namespace, command: str, parameters: dict):
    """The ``--live`` session around a command's body.

    Yields a namespace whose ``bus`` is the telemetry bus, or None
    without ``--live`` (the no-bus path costs nothing downstream).  The
    body may set ``status`` and ``run_id``; the session finishes with
    them, or as "failed" if the body raises.
    """
    live = argparse.Namespace(bus=None, status="finished", run_id=None)
    if not getattr(args, "live", False):
        yield live
        return
    from repro.obs.live import TelemetryBus
    from repro.obs.live.stream import LiveSession

    registry = _registry(args)
    live.bus = TelemetryBus()
    try:
        session = LiveSession.start(registry.root, command, parameters)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot start a live session under {registry.root}: {exc}"
        ) from exc
    session.attach(live.bus)
    print(f"live session {session.live_id} -> {session.stream_path} "
          f"(follow with 'repro watch {session.live_id[:8]}' or the "
          "/live page of 'repro serve')", file=sys.stderr)
    try:
        yield live
    except BaseException:
        session.finish("failed")
        raise
    session.finish(live.status, run_id=live.run_id)


def _format_live_event(event: dict) -> str:
    """One ``live.jsonl`` event as a terminal line."""
    seq = event.get("seq", "?")
    kind = event.get("kind", "?")
    detail = " ".join(
        f"{key}={value}"
        for key, value in sorted(event.items())
        if key not in ("seq", "kind", "at") and value is not None
    )
    return f"[{seq:>5}] {kind:<20} {detail}"


def _cmd_watch(args: argparse.Namespace) -> int:
    import time

    from repro.obs.live.stream import LiveTail

    registry = _registry(args)
    session = registry.resolve_live(args.session)
    offset = 0
    if not args.from_start:
        try:
            offset = session.stream_path.stat().st_size
        except OSError:
            offset = 0
    print(f"watching live session {session.live_id} "
          f"({session.descriptor.get('command', '?')}, "
          f"{session.status}) under {registry.root}", file=sys.stderr)
    deadline = None
    if args.timeout is not None:
        deadline = time.monotonic() + args.timeout
    tail = LiveTail(session.stream_path, offset=offset)
    try:
        while True:
            events = tail.poll()
            for event in events:
                print(_format_live_event(event))
            if events:
                continue
            session.refresh()
            if session.status != "running":
                for event in tail.poll():  # drain the final writes
                    print(_format_live_event(event))
                run_id = session.descriptor.get("run_id")
                print(f"session {session.status}"
                      + (f"; recorded as run {run_id}" if run_id else ""),
                      file=sys.stderr)
                return 1 if session.status == "failed" else 0
            if deadline is not None and time.monotonic() >= deadline:
                print(f"gave up after {args.timeout:g}s: session "
                      "is still running", file=sys.stderr)
                return 1
            time.sleep(max(args.interval, 0.05))
    except KeyboardInterrupt:
        print("stopped", file=sys.stderr)
        return 0
    finally:
        tail.close()


def _record_note(record) -> None:
    print(f"recorded {record.kind} run {record.run_id} -> {record.path}",
          file=sys.stderr)


def _cmd_runs_list(args: argparse.Namespace) -> int:
    import time

    from repro.experiments.report import ascii_table
    from repro.obs.serve.cache import SummaryCache, query_cards

    registry = _registry(args)
    cache = SummaryCache(registry)
    watch = args.watch
    if watch is not None and watch <= 0:
        raise ConfigurationError(
            f"--watch must be a positive number of seconds, got {watch:g}"
        )
    repaints = 0

    def paint() -> None:
        cards = cache.cards()
        total, page = query_cards(
            cards, kind=args.kind, sort=args.sort,
            limit=args.limit, offset=args.offset,
        )
        if not page:
            print(f"no runs recorded under {registry.root}"
                  if not cards else
                  f"no runs match (of {len(cards)} under "
                  f"{registry.root})")
            return
        rows = [
            [
                card["run_id"], card["kind"],
                card["created_at"].split("T")[0],
                card["caption"],
            ]
            for card in page
        ]
        print(ascii_table(["run", "kind", "recorded", "summary"], rows))
        if len(page) != total:
            print(f"{len(page)} of {total} run(s) under {registry.root}")
        else:
            print(f"{total} run(s) under {registry.root}")

    try:
        while True:
            if repaints and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            elif repaints:
                print()
            paint()
            repaints += 1
            if watch is None:
                return 0
            count = args.watch_count
            if count is not None and repaints >= count:
                return 0
            sys.stdout.flush()
            time.sleep(watch)
    except KeyboardInterrupt:
        print("stopped", file=sys.stderr)
        return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    registry = _registry(args)
    record = registry.resolve(args.run)
    print(f"run {record.run_id} ({record.kind}) — {record.command}")
    print(f"  recorded:  {record.created_at}")
    print(f"  directory: {record.path}")
    if record.lineage:
        print("  lineage:")
        for key, value in sorted(record.lineage.items()):
            print(f"    {key}: {value}")
    if record.summary:
        print("  summary:")
        for key, value in sorted(record.summary.items()):
            print(f"    {key}: {value}")
    if record.artifacts:
        print("  artifacts:")
        for name in sorted(record.artifacts):
            path = record.artifact_path(name)
            try:
                size = path.stat().st_size
            except OSError:
                size = None
            detail = f"{size} bytes" if size is not None else "missing"
            print(f"    {name}: {path.name} ({detail})")
    _json_out(args, record.to_dict())
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    from repro.obs.registry import diff_runs, format_diff

    registry = _registry(args)
    baseline = registry.resolve(args.baseline)
    current = registry.resolve(args.current)
    diff = diff_runs(
        baseline, current,
        max_regression=args.max_regression,
        noise_factor=args.noise_factor,
    )
    print(format_diff(diff, verbose=args.verbose))
    if diff.regressions:
        print(f"\nREGRESSION: {len(diff.regressions)} cell(s) lost "
              f"availability beyond {diff.max_regression:.0%} + noise")
    else:
        print(f"\nok: no availability regression beyond "
              f"{diff.max_regression:.0%} + noise")
    _json_out(args, diff.to_dict())
    return 1 if diff.regressions else 0


def _cmd_runs_gc(args: argparse.Namespace) -> int:
    registry = _registry(args)
    doomed = registry.gc(
        keep_last=args.keep_last,
        kinds=args.kind,
        dry_run=args.dry_run,
    )
    verb = "would delete" if args.dry_run else "deleted"
    if not doomed:
        print(f"nothing to prune under {registry.root} "
              f"(keep-last {args.keep_last})")
        return 0
    for record in doomed:
        print(f"{verb} {record.run_id} ({record.kind}, "
              f"{record.created_at.split('T')[0]})")
    print(f"{verb} {len(doomed)} run(s); "
          f"{len(registry.list_runs())} remain")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import write_report

    registry = _registry(args)
    records = []
    seen = set()
    for token in args.runs:
        record = registry.resolve(token)
        if record.run_id in seen:
            continue
        seen.add(record.run_id)
        records.append(record)
    try:
        write_report(records, args.out, title=args.title)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write {args.out}: {exc}"
        ) from exc
    print(f"report on {len(records)} run(s) written to {args.out}",
          file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.serve import create_app, make_http_server

    application = create_app(args.runs_dir)
    for run_dir in args.adopt or ():
        record = application.registry.adopt(run_dir)
        print(f"adopted {record.kind} run {record.run_id} "
              f"-> {record.path}", file=sys.stderr)
    count, fresh = application.cache.warm()
    if args.serve_command == "warm":
        state = "already fresh" if fresh else "rebuilt"
        print(f"summary cache {state}: {count} run(s) under "
              f"{application.registry.root} -> {application.cache.path}")
        return 0
    httpd = make_http_server(application, args.host, args.port)
    host, port = httpd.server_address[:2]
    print(f"serving {count} run(s) from {application.registry.root} "
          f"on http://{host}:{port}/ (Ctrl-C to stop)", file=sys.stderr)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        print("stopped", file=sys.stderr)
    finally:
        httpd.server_close()
    return 0


def _ensure_dir_writable(path: str) -> None:
    """Fail fast (exit 2) when a directory destination (``--runs-dir``)
    could not be created or written."""
    import os

    target = pathlib.Path(path)
    if target.exists() and not target.is_dir():
        raise ConfigurationError(
            f"cannot use {path} as a directory: it is a file"
        )
    probe = target
    while not probe.exists():
        parent = probe.parent
        if parent == probe:
            break
        probe = parent
    if not os.access(probe, os.W_OK):
        raise ConfigurationError(
            f"cannot write under {path}: {probe} is not writable"
        )


def _ensure_writable(path: str) -> None:
    """Fail fast (exit 2) on an unwritable output path, before hours of
    simulation would be thrown away at write time."""
    import os

    target = pathlib.Path(path)
    if target.is_dir():
        raise ConfigurationError(f"cannot write {path}: is a directory")
    if target.exists():
        if not os.access(target, os.W_OK):
            raise ConfigurationError(
                f"cannot write {path}: permission denied"
            )
        return
    parent = target.parent if str(target.parent) else pathlib.Path(".")
    if not parent.is_dir():
        raise ConfigurationError(
            f"cannot write {path}: directory {parent} does not exist"
        )
    if not os.access(parent, os.W_OK):
        raise ConfigurationError(
            f"cannot write {path}: directory {parent} is not writable"
        )


def _preflight(args: argparse.Namespace) -> None:
    """Fail fast (exit 2) on any destination the command would write,
    before hours of simulation would be thrown away at write time: the
    output paths its flags declare, and the registry root when the run
    writes it."""
    for dest in args.output_paths:
        if getattr(args, dest):
            _ensure_writable(getattr(args, dest))
    runs_dir = getattr(args, "runs_dir", None)
    if runs_dir and (args.registry_written
                     or getattr(args, "record", False)
                     or getattr(args, "live", False)):
        _ensure_dir_writable(runs_dir)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro`` and ``python -m repro``.

    Exit codes: 0 success, 1 a check or run failed (validation
    mismatch, invariant violation, failed study cells), 2 the command
    itself was misconfigured (bad paths, unknown names, malformed
    input files).
    """
    args = build_parser().parse_args(argv)
    if args.log_level is not None:
        from repro.obs.logging import configure_logging

        configure_logging(args.log_level)
    try:
        _preflight(args)
        return args.handler(args) or 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
