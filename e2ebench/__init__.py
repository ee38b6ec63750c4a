"""End-to-end session benchmark of the simulated SSD stack.

``python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see :mod:`e2ebench.workloads`) and prints its metrics;
``README.md`` in this directory documents the workloads and every metric.
"""
