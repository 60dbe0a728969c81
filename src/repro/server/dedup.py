"""Cross-query forward-sweep dedup: the single-flight sweep registry.

Two clients inspecting the same model over the same dataset should
share one forward pass.  The caches already make the *warm* case free;
what they cannot prevent is N queries arriving at a *cold* cache
simultaneously and racing N identical extractions.  The
:class:`SweepRegistry` closes that window: before extracting, a run
leases its sweep identities — ``(model fingerprint, raw-extractor key,
dataset hash)`` triples, exactly the granularity the
:class:`~repro.core.cache.UnitBehaviorCache` keys entries by — and a
run that finds one of its keys already leased *waits* for the leader to
finish, then re-checks the (now warm) cache instead of re-extracting.

Two properties matter more than strict exclusion:

* **Warm queries never serialize.**  The lease loop re-evaluates each
  key's ``cold`` predicate every round, so keys another run has since
  made warm are simply dropped from the request — a follower wakes up,
  sees nothing left cold, and proceeds immediately with zero claims.
* **No deadlock, bounded waiting.**  A run claims all its (still-cold)
  keys atomically or claims nothing and waits — it never waits while
  holding claims, so two runs with overlapping key sets cannot block
  each other forever.  The wait is bounded (``wait_timeout``): on
  timeout the run proceeds *ungated* — duplicated work beats a wedged
  server if a leader stalls — and the ``timeouts`` counter records it.

The registry plugs into the plan executor through
``InspectConfig.sweep_gate`` (see
:meth:`~repro.core.pipeline.InspectionPlan.execute_blocks`): the server
sets one on its shared session's config (``session.config.sweep_gate``),
and every query — HTTP, websocket, or in-process Python issued on the
same session — runs on that config and shares it.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager

SweepKey = tuple[str, str, str]


class SweepRegistry:
    """Single-flight registry over in-flight forward sweeps.

    Thread-safe; designed for the server's worker threads but usable by
    any concurrent callers sharing a session.
    """

    def __init__(self, wait_timeout: float = 120.0):
        self.wait_timeout = wait_timeout
        self._lock = threading.Lock()
        self._inflight: dict[SweepKey, threading.Event] = {}
        self._counts = {"leases": 0, "leads": 0, "joins": 0, "waits": 0,
                        "timeouts": 0}

    @contextmanager
    def lease(self, keys: list[SweepKey],
              cold: Callable[[SweepKey], bool] | None = None) -> Iterator[None]:
        """Hold the given sweep identities for the duration of a run.

        ``cold`` filters the request each retry round: keys it reports
        warm are not claimed (and not waited for).  All still-cold keys
        are claimed atomically, or none are and the call waits for one
        of the blocking leases to release before retrying.
        """
        claimed = self._claim(list(dict.fromkeys(keys)), cold)
        try:
            yield
        finally:
            self._release(claimed)

    def _claim(self, keys: list[SweepKey],
               cold: Callable[[SweepKey], bool] | None) -> list[SweepKey]:
        with self._lock:
            self._counts["leases"] += 1
        waited = False
        while True:
            # the cold probe reads caches — keep it outside the registry
            # lock so slow probes don't serialize unrelated leases
            live = [k for k in keys if cold is None or cold(k)]
            with self._lock:
                busy = [self._inflight[k] for k in live
                        if k in self._inflight]
                if not busy:
                    for key in live:
                        self._inflight[key] = threading.Event()
                    if live:
                        self._counts["leads"] += 1
                    elif waited:
                        self._counts["joins"] += 1
                    return live
                self._counts["waits"] += 1
                event = busy[0]
            if not event.wait(timeout=self.wait_timeout):
                # leader stalled: proceed without the gate rather than
                # wedge the query behind it — worst case is a duplicated
                # sweep, which the caches absorb
                with self._lock:
                    self._counts["timeouts"] += 1
                return []
            waited = True

    def _release(self, claimed: list[SweepKey]) -> None:
        with self._lock:
            events = [self._inflight.pop(k) for k in claimed
                      if k in self._inflight]
        for event in events:
            event.set()

    def stats(self) -> dict:
        """Counters plus the current in-flight claim count."""
        with self._lock:
            out = dict(self._counts)
            out["inflight"] = len(self._inflight)
        return out
