"""Repository benchmark: seeded end-to-end workloads and a per-layer ledger.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the root of a checkout.  With
``--trace 0`` it times closed-loop jobs with tracing off and prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
jobs and prints the per-layer ledger.  See ``perfbench/README.md``.
"""
