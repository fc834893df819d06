"""Two-clock training benchmark for the ``repro`` ZeRO simulator.

Run it from the repository root as ``python3 perfbench/run.py`` (see
``perfbench/README.md``). The package holds the workload definitions
(``workloads``), the single-driver step loop (``driver``), the span
recorder that wraps each layer's public entry points (``spans``) and the
statistics both runs report (``summary``).
"""
