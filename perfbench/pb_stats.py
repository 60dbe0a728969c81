"""Summary statistics, op accounting, host facts and the result line."""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import platform
import statistics
import threading
import time

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(fixed_ops: int) -> float:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it in a
    run of ``fixed_ops`` ops.

    Each workload fixes its op count, so the percentile is the same in
    every run and on every commit: a faster commit completing more ops
    in a timed run is still compared at the same percentile.
    """
    if fixed_ops <= TAIL_BEYOND:
        raise ValueError("a tail needs more ops than TAIL_BEYOND")
    return 100.0 * (fixed_ops - TAIL_BEYOND) / fixed_ops


def tail(values, fixed_ops: int) -> tuple[float, float, int, int]:
    """The workload's tail latency: its fixed percentile of ``values``.

    Uses the nearest-rank method, so with exactly ``fixed_ops`` samples
    ``TAIL_BEYOND`` samples lie beyond the value, and more lie beyond it
    in a run that completed more ops.  Returns ``(value, percentile,
    samples, samples_beyond)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    pct = tail_percentile(fixed_ops)
    rank = max(1, math.ceil(pct / 100.0 * n - 1e-9))
    value = float(ordered[rank - 1])
    return value, pct, n, sum(v > value for v in ordered)


class OpLog:
    """Thread-safe record of attempted ops, their latencies and failures.

    An op that raises, is refused or fails its answer check counts once
    in ``failed``; its latency is kept out of the latency samples.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def ok(self, **latencies_s: float) -> None:
        with self._lock:
            self.attempted += 1
            for kind, seconds in latencies_s.items():
                self.samples.setdefault(kind, []).append(seconds)

    def fail(self, message: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def ms(self, kind: str) -> list[float]:
        return [1000.0 * s for s in self.samples.get(kind, [])]


def blas_info() -> dict:
    """numpy's BLAS vendor, version and the thread count it runs with."""
    import numpy as np

    out: dict = {"vendor": None, "version": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["vendor"] = deps.get("name")
        out["version"] = deps.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = int(fn())
                return out
    return out


def host_info(work_dir: str) -> dict:
    """Cores, BLAS, versions and the schedulers the host default picks."""
    import numpy as np

    from repro.core.pipeline import default_scheduler
    from repro.store import DiskBehaviorStore

    picks = {}
    for label, store in (("without_store", None),
                         ("with_store", DiskBehaviorStore(
                             os.path.join(work_dir, "probe-store")))):
        scheduler = default_scheduler(store=store)
        picks[label] = type(scheduler).__name__
        scheduler.shutdown()
    return {"cpu_count": os.cpu_count(), "blas": blas_info(),
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(),
            "repro_scheduler_env": os.environ.get("REPRO_SCHEDULER"),
            "default_scheduler": picks}


class RssSampler:
    """Peak resident memory of a process tree, sampled from ``/proc``.

    Sums ``VmRSS`` over the root process and its descendants every
    ``interval`` seconds while running; ``peak_mb`` is the largest sum.
    """

    def __init__(self, root_pids, interval: float = 0.05):
        self.root_pids = list(root_pids)
        self.interval = interval
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @staticmethod
    def _children(pid: int) -> list[int]:
        out: list[int] = []
        for path in glob.glob(f"/proc/{pid}/task/*/children"):
            try:
                with open(path, encoding="ascii") as f:
                    out += [int(c) for c in f.read().split()]
            except OSError:
                continue
        return out

    @staticmethod
    def _rss(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) * 1024
        except OSError:
            pass
        return 0

    def sample(self) -> int:
        seen: set[int] = set()
        todo = list(self.root_pids)
        total = 0
        while todo:
            pid = todo.pop()
            if pid in seen:
                continue
            seen.add(pid)
            total += self._rss(pid)
            todo += self._children(pid)
        self.peak_bytes = max(self.peak_bytes, total)
        return total

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.interval)

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-rss")
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / 2**20


def metric(value: float, unit: str) -> dict:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not finite")
    return {"value": value, "unit": unit}


def result_line(*, correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    """The last stdout line the benchmark prints (the result schema)."""
    if attempted < 1:
        raise ValueError("a result needs at least one attempted op")
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics},
                      allow_nan=False)


class Deadline:
    """The timed phase: ops start until ``seconds`` have elapsed."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.end = self.start + seconds

    def open(self) -> bool:
        return time.perf_counter() < self.end
