"""Seed robustness (experiment X10): the findings are not one lucky RNG.

Every headline ordering of Table 2 must hold for several independent
random seeds at a moderate horizon.  Absolute cell values move (that is
the point of confidence intervals); the policy ranking must not.
"""

from repro.experiments.configs import CONFIGURATIONS
from repro.experiments.report import ascii_table
from repro.experiments.runner import StudyParameters, default_horizon, run_study

SEEDS = (7, 1988, 20_26)
KEYS = ("A", "D", "F")
#: The strict orderings asserted below are not resolved by fewer days
#: (CI's smoke run sets ``REPRO_SIM_DAYS=2000``).
MIN_HORIZON = 8_000.0


def test_bench_seed_robustness(benchmark, artefact_sink):
    horizon = max(default_horizon(15_000.0), MIN_HORIZON)

    def run():
        studies = {}
        for seed in SEEDS:
            params = StudyParameters(horizon=horizon, warmup=360.0,
                                     batches=5, seed=seed)
            studies[seed] = run_study(
                params,
                configurations=[CONFIGURATIONS[k] for k in KEYS],
            )
        return studies

    studies = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for seed in SEEDS:
        for key in KEYS:
            rows.append([
                f"seed {seed} / {key}",
                *(studies[seed][(key, p)].unavailability
                  for p in ("MCV", "DV", "LDV", "ODV", "TDV", "OTDV")),
            ])
    artefact_sink(
        "x10_seed_robustness",
        f"Three seeds, {horizon:.0f} days each — the orderings hold in "
        "every run\n"
        + ascii_table(
            ["run", "MCV", "DV", "LDV", "ODV", "TDV", "OTDV"], rows
        ),
    )

    for seed, cells in studies.items():
        def u(key, policy):
            return cells[(key, policy)].unavailability

        # Three-copy rows: DV is the worst policy.
        for key in KEYS:
            assert u(key, "DV") > u(key, "MCV"), (seed, key)
        # LDV always beats DV; the optimistic twin stays in its band.
        for key in KEYS:
            assert u(key, "LDV") < u(key, "DV"), (seed, key)
            assert u(key, "ODV") <= max(4 * u(key, "LDV"), 5e-4), (seed, key)
        # Topological wins wherever copies share a segment (A, F).
        for key in ("A", "F"):
            assert u(key, "TDV") <= 0.5 * u(key, "LDV"), (seed, key)
        # DV's configuration-F collapse is structural, not seed luck.
        assert u("F", "DV") > 0.05, seed