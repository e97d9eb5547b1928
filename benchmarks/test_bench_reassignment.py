"""Vote-reassignment comparison (experiment X6).

The paper's introduction groups dynamic vote *reassignment* [BGS86] with
dynamic voting as the adaptive alternatives to MCV.  This benchmark
races both reassignment policies against the paper's protocols on the
testbed, answering the natural question the paper leaves open: does
moving weights do as well as shrinking quorums?
"""

import functools

from repro.core.reassignment import ReassignmentPolicy, VoteReassignmentVoting
from repro.experiments.configs import CONFIGURATIONS
from repro.experiments.evaluator import evaluate_policy, poisson_times
from repro.experiments.report import ascii_table
from repro.experiments.runner import StudyParameters, default_horizon
from repro.experiments.testbed import testbed_topology
from repro.failures.profiles import testbed_profiles
from repro.failures.trace import generate_trace

CONFIG_KEYS = ("A", "D", "F", "H")
POLICIES = {
    "MCV": "MCV",
    "DV": "DV",
    "LDV": "LDV",
    "DVR-alliance": functools.partial(
        VoteReassignmentVoting, policy=ReassignmentPolicy.ALLIANCE
    ),
    "DVR-overthrow": functools.partial(
        VoteReassignmentVoting, policy=ReassignmentPolicy.OVERTHROW
    ),
}


#: The policy orderings asserted below are not resolved by fewer days
#: (CI's smoke run sets ``REPRO_SIM_DAYS=2000``).
MIN_HORIZON = 8_000.0


def test_bench_vote_reassignment(benchmark, artefact_sink):
    params = StudyParameters(
        horizon=max(default_horizon(15_000.0), MIN_HORIZON), warmup=360.0,
        batches=5, seed=1988,
    )
    topology = testbed_topology()
    trace = generate_trace(testbed_profiles(), params.horizon, params.seed)
    access = poisson_times(1.0, trace.horizon, params.seed)

    def run():
        cells = {}
        for key in CONFIG_KEYS:
            copies = CONFIGURATIONS[key].copy_sites
            for label, spec in POLICIES.items():
                cells[(key, label)] = evaluate_policy(
                    spec, topology, copies, trace,
                    warmup=params.warmup, batches=params.batches,
                    access_times=access,
                )
        return cells

    cells = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for key in CONFIG_KEYS:
        rows.append([
            CONFIGURATIONS[key].label,
            *(cells[(key, label)].unavailability for label in POLICIES),
        ])
    artefact_sink(
        "x6_vote_reassignment",
        "Dynamic vote reassignment vs dynamic voting (unavailability)\n"
        + ascii_table(["config", *POLICIES.keys()], rows)
        + "\nNeither adaptive family dominates: reassignment wins where "
        "ties strand\nmembership-based voting behind a slow gateway "
        "(config F), while LDV wins\nwhere the lexicographic side of a "
        "clean split carries on (config H).",
    )

    for key in CONFIG_KEYS:
        dvr = cells[(key, "DVR-alliance")].unavailability
        mcv = cells[(key, "MCV")].unavailability
        dv = cells[(key, "DV")].unavailability
        # Adaptive weights never lose meaningfully to the static quorum,
        # and always beat tie-prone plain DV.
        assert dvr <= max(1.2 * mcv, 1e-4), (key, dvr, mcv)
        assert dvr <= max(dv, 1e-4), (key, dvr, dv)
