"""Benchmark of the ``repro`` package: four workloads, end-to-end metrics
and a per-layer host-time ledger. Run ``python -m perfbench --help``;
``perfbench/README.md`` defines every workload and metric."""
