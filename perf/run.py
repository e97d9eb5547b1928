"""Run the benchmark declared in ``BENCHMARK.json``.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` is a separate run that records spans
in this directory's own code, times the layers in isolation and reports the
per-layer metrics.  Without ``--workload`` all six run in turn.  Exit code 0
only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import measure  # noqa: E402

DEFAULT_SEED = 1988
#: Seeds of successive ``--repeat`` runs are this far apart, so the laps of
#: one run (seed, seed + 1, ...) never reuse another run's inputs.
REPEAT_STRIDE = 100
#: Fresh interpreters timed per simulator run for ``setup_s``.
SETUP_CHILDREN = 5

_SETUP_CHILD = (
    "import sys; sys.path[:0] = [{root!r}, {src!r}]; "
    "from perf import simulator; simulator.setup({name!r}, {seed})"
)


def declaration() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def simulator_setup_s(name: str, seed: int) -> float:
    """Median wall time of a fresh interpreter importing the program and
    building the workload's inputs (for the sweep: also catching the
    ``BROKEN-TIE`` canary)."""
    code = _SETUP_CHILD.format(root=str(ROOT), src=str(ROOT / "src"),
                               name=name, seed=seed)
    times = []
    for _ in range(SETUP_CHILDREN):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_once(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result document."""
    from perf import service, simulator

    declared = declaration()
    problems: list[str] = []
    log = measure.SpanLog() if trace else None
    module = service if name in service.SERVICES else simulator
    try:
        metrics, attempted, failed = module.run(
            name, seed, seconds, log, problems)
        if not trace:
            if module is simulator:
                metrics["setup_s"] = simulator_setup_s(name, seed)
            metrics["peak_rss_mb"] = measure.peak_rss_mb()
    except subprocess.CalledProcessError as exc:
        problems.append(f"set-up failed: {exc}")
        metrics, attempted, failed = {}, 1, 0
    wanted = declared["per_layer" if trace else "end_to_end"]
    undeclared = sorted(set(metrics) - {m["name"] for m in wanted})
    if undeclared:
        problems.append(f"undeclared metrics: {undeclared}")
    reported = {}
    for metric in wanted:
        value = metrics.get(metric["name"])
        if value is None:
            # A layer this workload never enters did no work: 0.  Every
            # end-to-end metric, though, is every workload's to report.
            if not trace:
                problems.append(f"missing metric {metric['name']}")
            value = 0.0
        reported[metric["name"]] = {"value": value, "unit": metric["unit"]}
    result = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": not problems,
        "attempted": attempted, "failed": failed, "metrics": reported,
        "problems": problems,
        "client_threads_cap": os.cpu_count() or 1,
    }
    if log is not None:
        service.WORK.mkdir(exist_ok=True)
        spans = service.WORK / f"spans-{name}.jsonl"
        log.write(spans)
        result["span_file"] = str(spans.relative_to(ROOT))
    return result


def show(result: dict) -> None:
    """The human-readable table, then the driver's one-line JSON."""
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']:g}  trace {result['trace']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"failed_ratio {ratio:.4f}  client threads capped at nproc = "
          f"{result['client_threads_cap']}")
    if "span_file" in result:
        print(f"  spans written to {result['span_file']}")
    for problem in result["problems"]:
        print(f"  GATE FAILED: {problem}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    declared = declaration()
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="fresh-process runs per workload, "
                             f"{REPEAT_STRIDE} seeds apart")
    parser.add_argument("--out", help="write every run's result as JSON")
    args = parser.parse_args(argv)

    # A terminated runner must still stop its replicas: turn SIGTERM into
    # an exception so every ``finally`` runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    results = []
    for name in [args.workload] if args.workload else names:
        if args.repeat == 1:
            results.append(run_once(name, args.seed, args.seconds,
                                    bool(args.trace)))
            show(results[-1])
            continue
        # Each repeat is a fresh process, as each of the driver's runs is.
        for repeat in range(args.repeat):
            seed = args.seed + REPEAT_STRIDE * repeat
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout)
            last = json.loads(done.stdout.strip().splitlines()[-1])
            results.append({"workload": name, "seed": seed,
                            "trace": args.trace, **last})
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps({"runs": results}, indent=1) + "\n")
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
