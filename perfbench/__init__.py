"""Benchmark harness for hoimix: workloads, an outside-in span tracer, and the runner.

Run one measurement with::

    python3 perfbench/run.py --workload golden_run --seed 0 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how they are
measured.
"""
