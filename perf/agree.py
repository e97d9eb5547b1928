"""Do two sets of runs of the same commit agree?

    python3 perf/agree.py A.json B.json

Each file is what ``perf/run.py --repeat N --out FILE`` wrote.  For every
workload and end-to-end metric this prints both sets' median and quartiles
and each set's spread (interquartile distance over the median), and exits 1
if the second median is worse than the first by more than the metric's bound
in ``BENCHMARK.json``, or if a spread other than ``setup_s``'s exceeds it.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perf.measure import quartiles, spread, worse_by  # noqa: E402


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): values}`` of the untraced runs in *path*."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(pathlib.Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(
                metric["value"])
    return values


def compare(first: dict, second: dict, declared: dict) -> list[str]:
    """Print the table; return one line per disagreement."""
    complaints = []
    print(f"{'workload':<20}{'metric':<13}{'set':<4}{'q1':>12}"
          f"{'median':>12}{'q3':>12}{'spread':>8}{'worse by':>10}")
    for metric in declared["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in (w["name"] for w in declared["workloads"]):
            key = (workload, name)
            if key not in first or key not in second:
                continue
            medians = []
            for label, values in (("A", first[key]), ("B", second[key])):
                q1, middle, q3 = quartiles(values)
                medians.append(middle)
                drift = worse_by(medians[0], middle, metric["better"])
                wide = spread(values)
                print(f"{workload:<20}{name:<13}{label:<4}{q1:>12.5g}"
                      f"{middle:>12.5g}{q3:>12.5g}{wide:>8.3f}"
                      f"{drift:>10.3f}")
                if name != "setup_s" and wide > bound:
                    complaints.append(
                        f"{workload} {name}: spread of set {label} "
                        f"{wide:.3f} exceeds the bound {bound}")
            if drift > bound:
                complaints.append(
                    f"{workload} {name}: second median worse by "
                    f"{drift:.3f}, bound {bound}")
    return complaints


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    complaints = compare(load(argv[0]), load(argv[1]), declared)
    for complaint in complaints:
        print("DISAGREE:", complaint)
    return 1 if complaints else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
