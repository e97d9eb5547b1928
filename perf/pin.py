"""Regenerate ``perf/expected.json``, the pinned digests of the simulator laps.

    python3 perf/pin.py

A digest covers every simulated statistic of a lap, so a simulator speed-up
must leave all of them bit-identical.  Run this only on a commit whose
simulator results are trusted, and say why in the change that commits the
new file.  Laps of the default seed 1988 and the held-out seed 2024 are
pinned far beyond what a run reaches; other seeds are checked for structure
only.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import simulator  # noqa: E402

#: Study lap seeds: 60 laps of seed 1988, of which the last 24 are also the
#: first 24 laps of seed 2024.
STUDY_SEEDS = range(1988, 2048)
#: Sweep laps start every 12 seeds; 2024 = 1988 + 3 * 12 lies on the lattice.
CHAOS_FIRST_SEEDS = range(1988, 1988 + 12 * 51, simulator.CHAOS_SEEDS_PER_LAP)


def main() -> None:
    pinned: dict[str, dict[str, str]] = {}
    for name, study in simulator.STUDIES.items():
        pinned[name] = {str(seed): simulator.study_lap(study, seed).digest
                        for seed in STUDY_SEEDS}
        print(name, len(pinned[name]), "laps pinned", flush=True)
    pinned["chaos_sweep"] = {str(seed): simulator.chaos_lap(seed).digest
                             for seed in CHAOS_FIRST_SEEDS}
    print("chaos_sweep", len(pinned["chaos_sweep"]), "laps pinned")
    simulator.EXPECTED_PATH.write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
