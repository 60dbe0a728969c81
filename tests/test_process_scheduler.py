"""Shard-parallel process execution: the PR-6 acceptance tests.

The contract under test: a ``ProcessPoolScheduler`` run is bit-identical
to serial for ``run()``, ``.stream()``'s final frame and INSPECT SQL;
workers exchange behaviors through the mmap'd store (no pickled arrays
over the result pipe, one manifest commit per run); cross-process
counters fold back so extraction-once assertions stay meaningful; and
``Session.close()`` reaps the pool even when a stream was abandoned.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle

import pytest

from repro import (DiskBehaviorStore, InspectConfig, ProcessPoolScheduler,
                   SerialScheduler, Session, ThreadPoolScheduler)
from repro.core.pipeline import default_scheduler
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.util.testing import CountingForwardModel

MAX_RECORDS = 60

INSPECT_SQL = """
    SELECT S.uid, S.hid, S.unit_score
    INSPECT U.uid AND H.h USING corr OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid
    ORDER BY S.unit_score DESC
"""


@pytest.fixture
def hyps():
    return sql_keyword_hypotheses(("SELECT", "FROM"))


def make_session(model, workload, hyps, config=None, **fields) -> Session:
    """A registered session; ``fields`` (store, scheduler...) override
    ``config``'s."""
    config = dataclasses.replace(
        config or InspectConfig(mode="full", max_records=MAX_RECORDS),
        **fields)
    session = Session(config=config)
    session.register_model("m0", model)
    session.register_dataset("d0", workload.dataset)
    session.register_hypotheses(hyps, name="keywords")
    return session


def run_frame(model, workload, hyps, **kwargs):
    with make_session(model, workload, hyps, **kwargs) as session:
        return (session.inspect("m0", "d0").hypotheses(hyps)
                .using("corr").run())


def worker_shards(root) -> list[str]:
    """Shard files written by pool workers (coordinator stems are hex)."""
    return [name for name in os.listdir(os.path.join(root, "shards"))
            if name.startswith("w")]


# ----------------------------------------------------------------------
# bit-identity: serial vs threads vs processes
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_run_identical_across_schedulers(self, trained_sql_model,
                                             sql_workload, hyps):
        serial = run_frame(trained_sql_model, sql_workload, hyps,
                           scheduler=SerialScheduler())
        threads = run_frame(trained_sql_model, sql_workload, hyps,
                            scheduler=ThreadPoolScheduler(max_workers=2))
        procs = run_frame(trained_sql_model, sql_workload, hyps,
                          scheduler=ProcessPoolScheduler(max_workers=2))
        assert serial == threads
        assert serial == procs

    def test_stream_final_frame_identical(self, trained_sql_model,
                                          sql_workload, hyps):
        config = InspectConfig(mode="streaming", block_size=20,
                               early_stop=False, max_records=MAX_RECORDS)

        def final(scheduler):
            with make_session(trained_sql_model, sql_workload, hyps,
                              config=config, scheduler=scheduler) as s:
                frames = list(s.inspect("m0", "d0").hypotheses(hyps)
                              .using("corr").stream())
            return frames[-1]

        assert final(SerialScheduler()) == final(
            ProcessPoolScheduler(max_workers=2))

    def test_inspect_sql_identical(self, trained_sql_model, sql_workload,
                                   hyps):
        def sql(scheduler):
            with make_session(trained_sql_model, sql_workload, hyps,
                              scheduler=scheduler) as s:
                return s.sql(INSPECT_SQL)

        assert sql(SerialScheduler()) == sql(
            ProcessPoolScheduler(max_workers=2))

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="platform has no spawn start method")
    def test_spawn_context_identical(self, trained_sql_model, sql_workload,
                                     hyps, tmp_path):
        """Tasks must survive a cold interpreter: no closures, no fork
        inheritance — everything travels by pickle/content identity."""
        store = DiskBehaviorStore(tmp_path / "store")
        spawned = run_frame(
            trained_sql_model, sql_workload, hyps, store=store,
            scheduler=ProcessPoolScheduler(max_workers=2,
                                           mp_context="spawn"))
        serial = run_frame(trained_sql_model, sql_workload, hyps,
                           scheduler=SerialScheduler())
        assert spawned == serial
        # the pool genuinely did the extraction: worker-stem shards exist
        assert worker_shards(tmp_path / "store")

    def test_cold_process_then_warm_serial_store_roundtrip(
            self, trained_sql_model, sql_workload, hyps, tmp_path):
        """Worker-written shards are adopted into the manifest and are
        readable by a later, unrelated serial session."""
        cold = run_frame(trained_sql_model, sql_workload, hyps,
                         store=DiskBehaviorStore(tmp_path / "store"),
                         scheduler=ProcessPoolScheduler(max_workers=2))
        assert worker_shards(tmp_path / "store")
        counting = CountingForwardModel(trained_sql_model)
        warm = run_frame(counting, sql_workload, hyps,
                         store=DiskBehaviorStore(tmp_path / "store"),
                         scheduler=SerialScheduler())
        assert cold == warm
        assert counting.forward_calls == 0  # served from adopted shards


# ----------------------------------------------------------------------
# lifecycle: pool reaping, idempotent shutdown, scratch store cleanup
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_no_leaked_workers_after_close(self, trained_sql_model,
                                           sql_workload, hyps):
        session = make_session(
            trained_sql_model, sql_workload, hyps,
            scheduler=ProcessPoolScheduler(max_workers=2))
        session.inspect("m0", "d0").hypotheses(hyps).using("corr").run()
        assert multiprocessing.active_children()  # pool is live mid-session
        session.close()
        assert multiprocessing.active_children() == []

    def test_no_leaked_workers_after_abandoned_stream(
            self, trained_sql_model, sql_workload, hyps):
        config = InspectConfig(mode="streaming", block_size=20,
                               early_stop=False, max_records=MAX_RECORDS)
        session = make_session(trained_sql_model, sql_workload, hyps,
                               config=config,
                               scheduler=ProcessPoolScheduler(max_workers=2))
        stream = (session.inspect("m0", "d0").hypotheses(hyps)
                  .using("corr").stream())
        next(stream)
        stream.close()  # abandon mid-run
        session.close()
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent(self, trained_sql_model, sql_workload,
                                 hyps):
        scheduler = ProcessPoolScheduler(max_workers=2)
        session = make_session(trained_sql_model, sql_workload, hyps,
                               scheduler=scheduler)
        session.inspect("m0", "d0").hypotheses(hyps).using("corr").run()
        session.close()
        session.close()
        scheduler.shutdown()  # third shutdown, directly: still a no-op
        assert multiprocessing.active_children() == []

    def test_scratch_store_removed_on_shutdown(self, trained_sql_model,
                                               sql_workload, hyps):
        scheduler = ProcessPoolScheduler(max_workers=2)
        with make_session(trained_sql_model, sql_workload, hyps,
                          scheduler=scheduler) as session:
            session.inspect("m0", "d0").hypotheses(hyps).using("corr").run()
            scratch_root = scheduler.scratch_store().root
            assert scratch_root.exists()
        assert not scratch_root.exists()


# ----------------------------------------------------------------------
# cross-process counter aggregation
# ----------------------------------------------------------------------
class TestCounterFolding:
    def test_extraction_once_with_folded_counters(
            self, trained_sql_model, sql_workload, hyps, tmp_path):
        counting = CountingForwardModel(trained_sql_model)
        with make_session(counting, sql_workload, hyps,
                          store=DiskBehaviorStore(tmp_path / "store"),
                          scheduler=ProcessPoolScheduler(max_workers=2)
                          ) as session:
            session.inspect("m0", "d0").hypotheses(hyps).using("corr").run()
            stats = session.stats()
        # single-block workload -> one shard task -> exactly one sweep,
        # folded back from the worker into the live coordinator model
        assert counting.forward_calls == 1
        assert stats["unit_cache"]["extractions"] == 1
        assert stats["hypothesis_cache"]["extractions"] == len(hyps)
        assert stats["store"]["commits"] == 1  # coordinator-only commit

    def test_warm_store_run_extracts_nothing(self, trained_sql_model,
                                             sql_workload, hyps, tmp_path):
        run_frame(trained_sql_model, sql_workload, hyps,
                  store=DiskBehaviorStore(tmp_path / "store"),
                  scheduler=ProcessPoolScheduler(max_workers=2))
        counting = CountingForwardModel(trained_sql_model)
        with make_session(counting, sql_workload, hyps,
                          store=DiskBehaviorStore(tmp_path / "store"),
                          scheduler=ProcessPoolScheduler(max_workers=2)
                          ) as session:
            session.inspect("m0", "d0").hypotheses(hyps).using("corr").run()
            stats = session.stats()
        assert counting.forward_calls == 0
        assert stats["unit_cache"]["extractions"] == 0
        assert stats["hypothesis_cache"]["extractions"] == 0
        assert stats["unit_cache"]["disk_hits"] > 0


# ----------------------------------------------------------------------
# graceful degradation: unpicklable payloads extract inline
# ----------------------------------------------------------------------
class _UnpicklableHypothesis:
    """A hypothesis whose closure cannot travel to a worker."""

    def __init__(self, inner):
        self.name = inner.name
        self._inner = inner
        self._blocker = lambda: None  # defeats pickle

    def extract(self, dataset, indices=None):
        return self._inner.extract(dataset, indices)


class TestGracefulDegradation:
    def test_unpicklable_hypothesis_still_identical(self, trained_sql_model,
                                                    sql_workload):
        base = sql_keyword_hypotheses(("SELECT", "FROM"))
        wrapped = [_UnpicklableHypothesis(h) for h in base]
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            pickle.dumps(wrapped[0])
        serial = run_frame(trained_sql_model, sql_workload, wrapped,
                           scheduler=SerialScheduler())
        procs = run_frame(trained_sql_model, sql_workload, wrapped,
                          scheduler=ProcessPoolScheduler(max_workers=2))
        assert serial == procs


# ----------------------------------------------------------------------
# default_scheduler selection rules
# ----------------------------------------------------------------------
class TestDefaultScheduler:
    def test_env_override_wins(self, monkeypatch):
        for name, cls in (("serial", SerialScheduler),
                          ("threads", ThreadPoolScheduler),
                          ("processes", ProcessPoolScheduler)):
            monkeypatch.setenv("REPRO_SCHEDULER", name)
            with default_scheduler() as scheduler:
                assert type(scheduler) is cls

    @staticmethod
    def _assert_serial_default(monkeypatch, tmp_path, cores,
                               with_store=True, without_store=True):
        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        if without_store:
            assert type(default_scheduler()) is SerialScheduler
            with Session() as session:
                assert type(session.scheduler) is SerialScheduler
        if with_store:
            store = DiskBehaviorStore(tmp_path / "store")
            assert type(default_scheduler(store=store)) is SerialScheduler
            with Session(config=InspectConfig(store=store)) as session:
                assert type(session.scheduler) is SerialScheduler

    def test_single_core_picks_serial(self, monkeypatch, tmp_path):
        self._assert_serial_default(monkeypatch, tmp_path, cores=1)

    def test_multicore_with_store_picks_serial(self, monkeypatch, tmp_path):
        self._assert_serial_default(monkeypatch, tmp_path, cores=4,
                                    without_store=False)

    def test_multicore_without_store_picks_serial(self, monkeypatch,
                                                  tmp_path):
        self._assert_serial_default(monkeypatch, tmp_path, cores=4,
                                    with_store=False)
