"""The repo's benchmark: six workloads over the simulator and the live service.

Everything here drives :mod:`repro` through its public functions and wire
frames only; ``BENCHMARK.json`` at the repository root declares the command,
the workloads and every metric.  See ``perf/README.md``.
"""
