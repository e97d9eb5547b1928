"""Experiment harness: the paper's Section 4 simulation study.

Pieces:

* :mod:`repro.experiments.testbed` — the Figure 8 network (eight sites,
  three carrier-sense segments, gateways at sites 4 and 5);
* :mod:`repro.experiments.configs` — the eight copy placements A–H;
* :mod:`repro.experiments.evaluator` — replays one failure trace against
  one policy, producing unavailability, down-period and reliability
  statistics; Poisson / periodic / business-hours access streams;
* :mod:`repro.experiments.runner` — sweeps (configuration × policy) cells
  over a shared trace (common random numbers) with batch-means
  intervals, optionally across worker processes;
* :mod:`repro.experiments.tables` — regenerates Tables 2 and 3 (plus the
  confidence-interval and MTBF views) and holds the paper's published
  numbers for shape comparison;
* :mod:`repro.experiments.sweep` — the access-rate and placement
  ablations (DESIGN.md experiments X1, X5);
* :mod:`repro.experiments.witness_sweep` /
  :mod:`repro.experiments.ordering_sweep` — witness placement (X3) and
  choice of lexicographic maximum (X9);
* :mod:`repro.experiments.overhead` — the message-bill replay (X2);
* :mod:`repro.experiments.scenarios` — scripted failure scenarios as
  executable specifications (plus a JSON loader for the CLI);
* :mod:`repro.experiments.study_io` — saving and loading study results;
* :mod:`repro.experiments.report` — plain-text tables and bar charts.
"""

from repro.experiments.configs import CONFIGURATIONS, Configuration
from repro.experiments.evaluator import (
    EvaluationResult,
    evaluate_policy,
    periodic_times,
    poisson_times,
    view_timeline,
)
from repro.experiments.overhead import OverheadResult, measure_overhead
from repro.experiments.runner import CellResult, StudyParameters, run_cell, run_study
from repro.experiments.scenarios import ScenarioResult, Step, run_scenario
from repro.experiments.study_io import dump_study, load_study
from repro.experiments.tables import (
    PAPER_TABLE_2,
    PAPER_TABLE_3,
    format_table2,
    format_table3,
)
from repro.experiments.testbed import SEGMENTS, testbed_topology, render_testbed
from repro.experiments.witness_sweep import WitnessPlacement, witness_placement_sweep

__all__ = [
    "CONFIGURATIONS",
    "CellResult",
    "Configuration",
    "EvaluationResult",
    "OverheadResult",
    "PAPER_TABLE_2",
    "PAPER_TABLE_3",
    "SEGMENTS",
    "ScenarioResult",
    "Step",
    "StudyParameters",
    "WitnessPlacement",
    "dump_study",
    "evaluate_policy",
    "format_table2",
    "format_table3",
    "load_study",
    "measure_overhead",
    "periodic_times",
    "poisson_times",
    "render_testbed",
    "run_cell",
    "run_scenario",
    "run_study",
    "testbed_topology",
    "view_timeline",
    "witness_placement_sweep",
]
