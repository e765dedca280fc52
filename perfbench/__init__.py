"""End-to-end and per-layer benchmark of the spel_ray linkage engine.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root (or any other directory: the
script locates the repository from its own path). See ``run.py``.
"""
