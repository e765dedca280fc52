"""Measurement plumbing shared by every workload: the pinned Ray session,
the closed-loop timer, spans, the host-noise probe and summary statistics.

Nothing here knows about a particular workload; ``workloads.py`` calls in.
"""

from __future__ import annotations

import contextlib
import logging
import os
import resource
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

# Unix socket paths (Ray's plasma store, raylet) are capped at 107 bytes;
# the session directory adds about this many characters below the temp dir.
_RAY_SOCKET_SUFFIX = 80


# ------------------------------------------------------------- ray session
def _children(pid: int) -> list[int]:
    """Direct children of ``pid`` read from /proc (Linux)."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            return [int(p) for p in f.read().split()]
    except OSError:
        return []


def descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        for c in _children(todo.pop()):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def reap(pids: list[int], timeout_s: float = 20.0) -> None:
    """Wait until every pid has exited; SIGKILL what is left at the
    deadline and wait again, so no process of the run outlives it."""
    deadline = time.monotonic() + timeout_s
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in pids:
        if _alive(p):
            with contextlib.suppress(OSError):
                os.kill(p, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    for p in pids:          # collect our own zombies
        with contextlib.suppress(ChildProcessError, OSError):
            os.waitpid(p, os.WNOHANG)


@contextlib.contextmanager
def ray_session(root: Path, work: Path, num_cpus: int):
    """A fresh local Ray cluster with pinned parallelism.

    ``num_cpus`` is fixed by the caller, never detected from the host, and
    every worker gets the repository root on ``PYTHONPATH`` (the package is
    not installed, so a worker started outside the root could not import
    it otherwise). On exit the cluster is shut down and every process it
    started is waited for."""
    import ray

    tmp = work / "ray"
    tmp.mkdir(parents=True, exist_ok=True)
    kwargs = {}
    if len(str(tmp.resolve())) + _RAY_SOCKET_SUFFIX <= 107:
        kwargs["_temp_dir"] = str(tmp.resolve())
    threads = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS")}
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 1024 * 1024,
             runtime_env={"env_vars": {"PYTHONPATH": str(root), **threads}},
             **kwargs)
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    logging.getLogger("ray").setLevel(logging.ERROR)
    try:
        yield
    finally:
        started = descendants(os.getpid())
        ray.shutdown()
        reap(started)
        if kwargs:
            shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------- timing
@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: str | None
    op_id: int


@dataclass
class Tracer:
    """Spans recorded from the benchmark's side of each layer call: name,
    start, end, parent span and op id. Kept in memory, written at the end."""
    enabled: bool = True
    spans: list[Span] = field(default_factory=list)
    _stack: list[str] = field(default_factory=list)
    op_id: int = 0

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(name, t0, time.perf_counter(), parent,
                                   self.op_id))
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def to_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def timed(fn):
    """(seconds, result) of one call."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def host_probe_ms(reps: int = 5) -> float:
    """Median time of a fixed single-threaded numpy work unit. It does not
    touch the program; it shows how busy the host was during the run."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192))
    v = rng.standard_normal(200_000)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(8):
            a = np.tanh(a @ a.T / 192.0)
        np.sort(v)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def peak_rss_mb() -> float:
    """Peak resident set of this (driver) process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


_TAIL_QS = (99, 95, 90, 75, 50)


def tail(xs) -> tuple[int, float]:
    """(q, value) of the highest percentile q with at least ten samples
    beyond it; (0, 0.0) when there are fewer than 20 samples."""
    n = len(xs)
    for q in _TAIL_QS:
        if n * (100 - q) / 100.0 >= 10:
            cuts = statistics.quantiles(xs, n=100, method="inclusive")
            return q, float(cuts[q - 1])
    return 0, 0.0
