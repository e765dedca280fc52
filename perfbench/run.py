"""Benchmark of the spel_ray linkage engine: one command per workload.

    python3 perfbench/run.py --workload link-batch --seed 1 --seconds 10 \\
        --trace 0

Workloads (see ``workloads.py``): ``link-batch`` and ``serve-mixed``.
Inputs are generated from ``--seed`` into
``perfbench/.data`` before set-up starts. Ray runs locally with pinned
``--num-cpus``, ``--blocks`` (``override_num_blocks``) and ``--buckets``
(``num_buckets``); nothing depends on the CPU count the host reports.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, and spans plus ``ds.stats()`` go to ``perfbench/out``. A layer the
workload does not exercise reads 0 in the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import OPS_QUERIES  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "throughput_per_s": "1/s",
    "driver_peak_rss_mb": "MB",
}
_SERVE_LAT = [f"serving.{k}_{m}" for k in ("read", "sharded", "add")
              for m in ("tail_ms", "tail_q", "samples")]
PER_LAYER = {
    "host.probe_ms": "ms",
    "error_rate": "ratio",
    "trace.overhead_s": "s",
    "trace.stage_share": "ratio",
    "fingerprint.s": "s",
    "fingerprint.rows": "count",
    "blocking.s": "s",
    "blocking.block_rows": "count",
    "blocking.bytes": "B",
    "pairs.s": "s",
    "pairs.candidates": "count",
    "pairs.capped_fraction": "ratio",
    "scoring.s": "s",
    "scoring.edges": "count",
    "scoring.accept_ratio": "ratio",
    "clustering.components_s": "s",
    "clustering.assign_s": "s",
    "clustering.clusters": "count",
    "incremental.s": "s",
    "incremental.pairs": "count",
    "incremental.cc_edges": "count",
    "incremental.components_s": "s",
    "serving.featurize_ms": "ms",
    "serving.probe_ms": "ms",
    "serving.sharded_rtt_ms": "ms",
    "serving.hits_per_query": "count",
    "serving.shards_per_query": "count",
    "serving.sharded_ms": "ms",
    "serving.add_ms": "ms",
    **{k: ("percentile" if k.endswith("_q") else
           "count" if k.endswith("samples") else "ms") for k in _SERVE_LAT},
    **{f"ops.{q}_s": "s" for q in OPS_QUERIES},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["link-batch", "serve-mixed"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--num-cpus", type=int, default=2)
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--buckets", type=int, default=8)
    p.add_argument("--scale", choices=["full", "tiny"], default="full")
    return p.parse_args(argv)


def metrics_of(rep, trace: bool, probe_ms: float) -> dict:
    if trace:
        vals = dict.fromkeys(PER_LAYER, 0.0)
        vals.update(rep.layers)
        vals["host.probe_ms"] = probe_ms
        vals["error_rate"] = rep.failed / rep.attempted
        units = PER_LAYER
    else:
        from perfbench.harness import median
        vals = {
            "setup_s": rep.setup_s,
            "op_ms": median(rep.op_s) * 1e3,
            "throughput_per_s": rep.items / rep.busy_s,
            "driver_peak_rss_mb": rep.rss_mb,
        }
        units = END_TO_END
    return {k: {"value": float(vals[k]), "unit": u} for k, u in units.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "spel_ray" / "__init__.py").is_file():
        print(f"spel_ray not found next to {HERE.name}/ (looked in {ROOT}); "
              "run the benchmark from a full checkout", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    from perfbench.harness import host_probe_ms, median, ray_session
    from perfbench.workloads import WORKLOADS, Ctx

    work = HERE / ".data"
    out = HERE / "out"
    out.mkdir(parents=True, exist_ok=True)
    ctx = Ctx(data=work, seed=args.seed,
              seconds=args.seconds, trace=bool(args.trace),
              blocks=args.blocks, buckets=args.buckets, scale=args.scale)
    ctx.tracer.enabled = ctx.trace
    probes = [host_probe_ms()]
    wl = WORKLOADS[args.workload]()
    wl.prepare(ctx)                     # seeded inputs, outside set-up

    ctx.t_start = time.perf_counter()
    with ray_session(ROOT, work, args.num_cpus):
        rep = wl.run(ctx)
    probes.append(host_probe_ms())

    if ctx.trace:
        trace = {"workload": args.workload, "seed": args.seed,
                 "spans": ctx.tracer.to_json(), "layers": rep.layers,
                 "host_probe_ms": probes, **rep.trace}
        (out / f"trace_{args.workload}_s{args.seed}.json").write_text(
            json.dumps(trace, indent=1, default=str))
    result = {
        "correct": rep.failed == 0,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": metrics_of(rep, ctx.trace, median(probes)),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
