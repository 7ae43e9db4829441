"""End-to-end replication benchmark for the PRINS reproduction.

Five closed-loop workloads drive the system through
``repro.api.open_primary`` only; wall-clock metrics come from an untraced
run, a per-layer budget from a separate traced run.  ``BENCHMARK.json`` at
the repository root names the workloads, the metrics and their bounds;
``bench/README.md`` explains each choice.

Run ``python -m bench --help`` from the repository root.
"""
