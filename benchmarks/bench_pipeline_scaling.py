"""Plan-engine scaling: scheduler and unit-behavior-cache configurations.

Runs a multi-group workload (two models x two unit groups x two measures =
eight score tasks) through the plan-based engine under:

* ``seed_pipeline``    -- serial, no caches, scalar early stopping: the
  pre-plan engine's behavior.
* ``plan_serial_cold`` -- serial scheduler, cold unit cache, per-hypothesis
  freezing.
* ``plan_threads_cold``-- thread-pool scheduler, cold unit cache.
* ``plan_serial_warm`` -- serial scheduler, warmed unit + hypothesis caches.
* ``plan_threads_warm``-- thread-pool scheduler, warmed caches (the
  interactive-debugging configuration).
* ``plan_serial_cold_store`` / ``plan_processes_cold`` -- store-backed
  cold runs, serial vs. the opt-in shard-parallel process pool writing
  worker shards through the store (``default_scheduler`` picks serial on
  every host unless ``REPRO_SCHEDULER`` names a pool).

Results are printed and written to ``BENCH_pipeline.json`` so CI can smoke
check that the parallel scheduler and the warm cache are not slower than
serial/cold, and that warm + parallel beats the seed pipeline outright.
On hosts with at least four cores the process pool must beat the
store-backed serial cold run by 2x; single- and dual-core hosts skip that
gate (the pool cannot win there).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

import pytest

from repro import (DiskBehaviorStore, HypothesisCache, InspectConfig,
                   ProcessPoolScheduler, UnitBehaviorCache, inspect)
from repro.measures import CorrelationScore, DiffMeansScore
from repro.nn import CharLSTMModel
from repro.util.rng import new_rng
from benchmarks.conftest import SETTING, print_table

OUTPUT = "BENCH_pipeline.json"

#: generous slack for shared CI runners; the expectation is ~1.0 or below
NOT_SLOWER = 1.35
#: the warm + parallel configuration must beat the seed pipeline clearly
WARM_WIN = 1.10


def _models(bench_model, bench_workload):
    second = CharLSTMModel(len(bench_workload.vocab), SETTING.n_units,
                           rng=new_rng(17), model_id="sibling_model")
    return [bench_model, second]


def _run(models, dataset, hyps, config) -> float:
    t0 = time.perf_counter()
    inspect(models, dataset, [CorrelationScore(), DiffMeansScore()], hyps,
            config=config)
    return time.perf_counter() - t0


def _config(scheduler=None, unit_cache=None, hyp_cache=None,
            partition=True, store=None) -> InspectConfig:
    return InspectConfig(mode="streaming", early_stop=True, block_size=128,
                         seed=0, scheduler=scheduler, unit_cache=unit_cache,
                         cache=hyp_cache, partition=partition, store=store)


def test_pipeline_scaling_report(benchmark, bench_model, bench_workload,
                                 bench_hypotheses):
    def _report():
        models = _models(bench_model, bench_workload)
        dataset = bench_workload.dataset
        hyps = bench_hypotheses

        timings: dict[str, float] = {}
        timings["seed_pipeline"] = _run(
            models, dataset, hyps, _config(partition=False))
        timings["plan_serial_cold"] = _run(
            models, dataset, hyps,
            _config(unit_cache=UnitBehaviorCache()))
        timings["plan_threads_cold"] = _run(
            models, dataset, hyps,
            _config(scheduler="threads", unit_cache=UnitBehaviorCache()))

        # warm configurations: one priming run fills both caches
        unit_cache, hyp_cache = UnitBehaviorCache(), HypothesisCache()
        _run(models, dataset, hyps,
             _config(unit_cache=unit_cache, hyp_cache=hyp_cache))
        timings["plan_serial_warm"] = _run(
            models, dataset, hyps,
            _config(unit_cache=unit_cache, hyp_cache=hyp_cache))
        timings["plan_threads_warm"] = _run(
            models, dataset, hyps,
            _config(scheduler="threads", unit_cache=unit_cache,
                    hyp_cache=hyp_cache))

        # store-backed cold runs: the store is the process pool's shard
        # exchange medium; a serial row over its own store keeps the
        # comparison fair (both pay the write-through)
        store_root = tempfile.mkdtemp(prefix="bench-shard-exchange-")
        try:
            timings["plan_serial_cold_store"] = _run(
                models, dataset, hyps,
                _config(unit_cache=UnitBehaviorCache(),
                        hyp_cache=HypothesisCache(),
                        store=DiskBehaviorStore(
                            os.path.join(store_root, "serial"))))
            pool = ProcessPoolScheduler()
            try:
                timings["plan_processes_cold"] = _run(
                    models, dataset, hyps,
                    _config(scheduler=pool,
                            unit_cache=UnitBehaviorCache(),
                            hyp_cache=HypothesisCache(),
                            store=DiskBehaviorStore(
                                os.path.join(store_root, "procs"))))
            finally:
                pool.shutdown()
        finally:
            shutil.rmtree(store_root, ignore_errors=True)

        baseline = timings["seed_pipeline"]
        rows = [{"config": name, "seconds": secs,
                 "speedup_vs_seed": baseline / max(secs, 1e-9)}
                for name, secs in timings.items()]
        print_table("Plan-engine scaling (streaming, 8 score tasks)", rows)

        payload = {
            "setting": {"n_records": dataset.n_records,
                        "n_units": SETTING.n_units,
                        "n_hypotheses": len(hyps),
                        "n_models": len(models),
                        "cpu_count": os.cpu_count(),
                        "unit_cache_stats": unit_cache.stats()},
            "timings_s": timings,
            "speedup_vs_seed": {r["config"]: r["speedup_vs_seed"]
                                for r in rows},
        }
        with open(OUTPUT, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {OUTPUT}")

        # smoke gates: parallel / warm must not regress, warm+parallel must
        # beat the seed configuration outright
        assert timings["plan_threads_cold"] <= \
            timings["plan_serial_cold"] * NOT_SLOWER
        assert timings["plan_serial_warm"] <= \
            timings["plan_serial_cold"] * NOT_SLOWER
        assert timings["plan_threads_warm"] * WARM_WIN <= baseline
        # shard-parallel cold extraction must win clearly where the cores
        # exist to pay for the worker round-trips
        if (os.cpu_count() or 1) >= 4:
            assert timings["plan_processes_cold"] * 2.0 <= \
                timings["plan_serial_cold_store"]

    benchmark.pedantic(_report, rounds=1, iterations=1)


@pytest.mark.parametrize("scheduler", ["serial", "threads"])
def test_pipeline_scheduler(benchmark, scheduler, bench_model,
                            bench_workload, bench_hypotheses):
    models = _models(bench_model, bench_workload)
    benchmark.pedantic(
        lambda: _run(models, bench_workload.dataset, bench_hypotheses,
                     _config(scheduler=scheduler)),
        rounds=1, iterations=1)
