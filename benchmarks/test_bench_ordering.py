"""Lexicographic-ordering ablation (experiment X9).

The tie-break hands split-brain situations to the side holding the
maximum element; the paper fixes the ordering a priori (A > B > C) and
never asks which choice is best.  This benchmark makes each copy of
configuration H the maximum in turn.  The measured answer: what matters
is the maximum site's own *reliability* — a tie is only won while the
maximum is actually up, so hanging it on beowulf (MTTF 10 days) is an
order of magnitude worse than any of the stable sites, while the choice
of segment is secondary.
"""

from repro.experiments.configs import CONFIGURATIONS
from repro.experiments.ordering_sweep import ordering_sweep
from repro.experiments.report import ascii_table
from repro.experiments.runner import StudyParameters, default_horizon


#: The strict ordering asserted below is not resolved by fewer days
#: (CI's smoke run sets ``REPRO_SIM_DAYS=2000``).
MIN_HORIZON = 8_000.0


def test_bench_ordering_choice(benchmark, artefact_sink):
    params = StudyParameters(
        horizon=max(default_horizon(15_000.0), MIN_HORIZON), warmup=360.0,
        batches=5, seed=1988,
    )
    copies = CONFIGURATIONS["H"].copy_sites   # 1, 2 | 7, 8 across gateway 5

    def run():
        return ordering_sweep(copies, policy="LDV", params=params)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [f"site {r.maximum_site} ({r.site_name})", r.unavailability,
         r.mean_down_duration]
        for r in results
    ]
    artefact_sink(
        "x9_ordering_choice",
        "Choice of lexicographic maximum, configuration H under LDV\n"
        + ascii_table(
            ["maximum element", "unavailability", "mean down (d)"], rows
        )
        + "\nA tie is only won while the maximum element is up: put it on "
        "a reliable\nsite.  Hanging the tie-break on beowulf (MTTF 10 days) "
        "costs an order of\nmagnitude; among the stable sites the choice "
        "barely matters.",
    )

    by_site = {r.maximum_site: r.unavailability for r in results}
    # The flaky site (beowulf, MTTF 10 d) is the worst possible maximum;
    # every stable site (csvax, rip, mangle) is a fine choice.
    stable_worst = max(by_site[1], by_site[7], by_site[8])
    assert by_site[2] > 2 * stable_worst