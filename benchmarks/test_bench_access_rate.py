"""Access-rate ablation (experiment X1): where does ODV sit between MCV
and LDV as the file's access rate varies — and where does it *beat* LDV?

Regenerates the Section 4 narrative around configuration F ("This
phenomenon is the most apparent for configuration F ... This is exactly
what Optimistic Dynamic Voting does when the replicated file is accessed
once a day").
"""

from repro.experiments.configs import CONFIGURATIONS
from repro.experiments.report import ascii_table
from repro.experiments.runner import StudyParameters, default_horizon
from repro.experiments.sweep import access_rate_sweep

RATES = [0.1, 0.5, 1.0, 5.0, 20.0]
#: The ODV-versus-LDV ordering asserted by the sweep is not resolved by
#: fewer days (CI's smoke run sets ``REPRO_SIM_DAYS=2000``).
MIN_HORIZON = 8_000.0


def test_bench_access_rate_sweep(benchmark, artefact_sink):
    params = StudyParameters(
        horizon=max(default_horizon(15_000.0), MIN_HORIZON), warmup=360.0,
        batches=5, seed=1988,
    )
    config = CONFIGURATIONS["F"]

    def run():
        points = access_rate_sweep(
            config, RATES, policies=("ODV", "OTDV"), params=params
        )
        reference = access_rate_sweep(
            config, [1.0], policies=("MCV", "LDV", "TDV"), params=params
        )
        return points, {p.policy: p.unavailability for p in reference}

    points, reference = benchmark.pedantic(run, rounds=1, iterations=1)

    odv = {p.accesses_per_day: p.unavailability
           for p in points if p.policy == "ODV"}
    otdv = {p.accesses_per_day: p.unavailability
            for p in points if p.policy == "OTDV"}
    rows = [[f"{rate:g}", odv[rate], otdv[rate]] for rate in RATES]
    table = ascii_table(["accesses/day", "ODV unavail", "OTDV unavail"], rows)
    artefact_sink(
        "x1_access_rate_sweep",
        f"Access-rate sweep, configuration {config.label}\n{table}\n"
        f"eager references: MCV {reference['MCV']:.6f}  "
        f"LDV {reference['LDV']:.6f}  TDV {reference['TDV']:.6f}",
    )

    # The paper's claim at one access per day: ODV <= LDV on config F.
    assert odv[1.0] <= reference["LDV"] * 1.2


def test_bench_access_pattern(benchmark, artefact_sink):
    """Timing, not just rate: the same three accesses per day, Poisson
    versus business-hours-only, on the optimistic policies.  Bursty
    daytime access leaves ODV's state stale all night — the realistic
    worst case for its optimism."""
    from repro.experiments.evaluator import (
        business_hours_times,
        evaluate_policy,
        poisson_times,
    )
    from repro.experiments.testbed import testbed_topology
    from repro.failures.profiles import testbed_profiles
    from repro.failures.trace import generate_trace

    params = StudyParameters(
        horizon=default_horizon(15_000.0), warmup=360.0, batches=5,
        seed=1988,
    )
    topology = testbed_topology()
    trace = generate_trace(testbed_profiles(), params.horizon, params.seed)
    streams = {
        "poisson 3/day": poisson_times(3.0, params.horizon, params.seed),
        "business hours 3/day": business_hours_times(
            3.0, params.horizon, params.seed
        ),
    }
    config = CONFIGURATIONS["B"]

    def run():
        cells = {}
        for label, access in streams.items():
            for policy in ("ODV", "OTDV"):
                cells[(label, policy)] = evaluate_policy(
                    policy, topology, config.copy_sites, trace,
                    warmup=params.warmup, batches=params.batches,
                    access_times=access,
                )
        return cells

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [label, cells[(label, "ODV")].unavailability,
         cells[(label, "OTDV")].unavailability]
        for label in streams
    ]
    artefact_sink(
        "x1_access_pattern",
        f"Access timing at equal daily rate, configuration {config.label}\n"
        + ascii_table(["pattern", "ODV", "OTDV"], rows),
    )
    # Both patterns must stay in the same availability regime — the
    # optimistic protocols tolerate bursty access (no order-of-magnitude
    # blowup from the idle nights).
    for policy in ("ODV", "OTDV"):
        poisson_u = cells[("poisson 3/day", policy)].unavailability
        bursty_u = cells[("business hours 3/day", policy)].unavailability
        assert bursty_u <= max(10 * poisson_u, 1e-3), (policy, bursty_u)
