"""Tests of the benchmark itself (not part of the repository's test suite).

    python -m pytest perfbench/test_perfbench.py -q

Tiny-size runs of every workload must emit every named metric with its
unit and no failed op; a perturbed result must be counted as failed; and
a directory without the engine must make the command fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pandas as pd
import pytest

from perfbench import run as bench
from perfbench import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, *args: str, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True,
        text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_tiny_run_emits_every_metric(tmp_path, workload, trace):
    # started outside the repository root on purpose: workers must still
    # import the engine
    p = _run(tmp_path, "--workload", workload, "--seed", "5", "--seconds",
             "1", "--trace", str(trace), "--scale", "tiny")
    assert p.returncode == 0, p.stderr[-2000:]
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    want = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    if trace:
        assert out["metrics"]["error_rate"]["value"] == 0.0
    else:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_perturbed_linkage_result_counts_as_failed(monkeypatch):
    import ray.data

    from perfbench.harness import ray_session
    from spel_ray.pipelines import linkage

    real = linkage.run_linkage
    calls = {"n": 0}

    def perturbed(*a, **k):
        res = real(*a, **k)
        calls["n"] += 1
        if calls["n"] > 1:          # the warm-up op stays the reference
            df = res.clusters.to_pandas()
            df.loc[0, "cluster_id"] += 1
            res.clusters = ray.data.from_pandas(df)
        return res

    monkeypatch.setattr(linkage, "run_linkage", perturbed)
    ctx = wl.Ctx(data=HERE / ".data", seed=5,
                 seconds=0.1, trace=False, blocks=2, buckets=4, scale="tiny")
    w = wl.LinkBatch()
    w.prepare(ctx)
    with ray_session(ROOT, HERE / ".data", 2):
        rep = w.run(ctx)
    assert rep.attempted >= 2
    assert rep.failed == rep.attempted - 1


def test_same_values_rejects_a_perturbed_frame():
    want = pd.DataFrame({"k": [1, 2, 3], "v": [0.5, 0.25, 0.125],
                         "s": ["a", "b", "c"]})
    got = want.sample(frac=1.0, random_state=0)       # row order is free
    got["v"] = got["v"] + 1e-6                        # within tolerance
    assert wl.same_values(got, want)
    for col, val in (("k", 9), ("v", 0.6), ("s", "z")):
        bad = want.copy()
        bad.loc[1, col] = val
        assert not wl.same_values(bad, want)
    assert not wl.same_values(want.iloc[:2], want)
    assert wl.digest(got[["k", "s"]]) == wl.digest(want[["k", "s"]])


def test_command_fails_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(
        ".data", "out", "__pycache__"))
    p = _run(tmp_path, "--workload", "link-batch", "--seed", "1",
             "--seconds", "1", "--trace", "0",
             script=tmp_path / HERE.name / "run.py")
    assert p.returncode != 0
    assert p.stdout.strip() == ""
