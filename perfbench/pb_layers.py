"""Which public functions of each layer the traced run wraps, the
``stats()`` counters it reads, and the per-layer metrics built from both.

The layer names are this repository's modules: ``server``, ``session``,
``db`` (with ``db.storage``), ``core`` (``pipeline``, ``cache``,
``shard``), ``nn``/``extract``, ``hypotheses``, ``measures`` and
``store``.
"""

from __future__ import annotations

from pb_stats import metric

#: measures the workloads' statements use (their classes are traced)
MEASURES_USED = ("corr", "logreg", "jaccard")

#: per-layer metric name -> unit (the order ``BENCHMARK.json`` lists)
PER_LAYER_UNITS = {
    "server.self_ms": "ms/op",
    "server.protocol_ms": "ms/op",
    "server.admission.rejected": "count/op",
    "server.admission.failed": "count/op",
    "server.dedup.leases": "count/op",
    "session.open_ms": "ms/op",
    "session.close_ms": "ms/op",
    "session.streams_abandoned": "count/op",
    "db.parse_ms": "ms/op",
    "db.select_ms": "ms/op",
    "db.full_scans": "count/op",
    "db.index_scans": "count/op",
    "db.storage.pages_read": "count/op",
    "db.storage.pages_written": "count/op",
    "db.storage.commits": "count/op",
    "core.pipeline.plan_ms": "ms/op",
    "core.pipeline.execute_self_ms": "ms/op",
    "core.cache.unit_hit_ratio": "ratio",
    "core.cache.hyp_hit_ratio": "ratio",
    "core.cache.disk_hit_ratio": "ratio",
    "core.cache.extract_self_ms": "ms/op",
    "core.shard.submit_ms": "ms/op",
    "core.shard.tasks": "count/op",
    "nn.forward_sweeps": "count/op",
    "extract.sweep_ms": "ms/op",
    "hypotheses.evaluations": "count/op",
    "hypotheses.extract_ms": "ms/op",
    "measures.blocks": "count/op",
    "measures.score_ms": "ms/op",
    "store.appends": "count/op",
    "store.commits": "count/op",
    "store.bytes_written": "B/op",
    "store.flush_ms": "ms/op",
    "store.read_ms": "ms/op",
    "trace.overhead_frac": "ratio",
}


def _indices_count(args, kwargs) -> int:
    """Records one ``HypothesisFunction.extract(dataset, indices)`` call
    evaluates."""
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    indices = args[2] if len(args) > 2 else kwargs.get("indices")
    return dataset.n_records if indices is None else len(indices)


def install(tracer, hypotheses=()) -> None:
    """Wrap each layer's public entry points with ``tracer`` spans."""
    import repro.db.inspect_clause  # noqa: F401  (bind its imports first)
    from repro.core.cache import HypothesisCache, UnitBehaviorCache
    from repro.core.pipeline import (InspectionPlan, ProcessPoolScheduler,
                                     SerialScheduler, ThreadPoolScheduler)
    from repro.core.shard import ShardExchange
    from repro.db.executor import execute_select
    from repro.db.sqlparser import parse_sql
    from repro.extract.base import Extractor
    from repro.measures.registry import get_measure
    from repro.session import Session
    from repro.store.disk import DiskBehaviorStore, StoreEntryReader

    tracer.patch(Session, "sql", "session.sql")
    tracer.patch(Session, "stream_sql", "session.stream_sql")
    tracer.patch(Session, "close", "session.close")
    tracer.patch_everywhere(parse_sql, "db.parse")
    tracer.patch_everywhere(execute_select, "db.select")
    tracer.patch(InspectionPlan, "build", "core.pipeline.plan")
    tracer.patch(InspectionPlan, "execute_blocks", "core.pipeline.execute")
    for cls in (SerialScheduler, ThreadPoolScheduler, ProcessPoolScheduler):
        tracer.patch(cls, "map", "core.scheduler.map")
    tracer.patch(ProcessPoolScheduler, "submit_shards",
                 "core.shard.submit_shards",
                 count=lambda args, kwargs: len(args[1]))
    for attr in ("dispatch", "ensure", "ensure_all"):
        tracer.patch(ShardExchange, attr, "core.shard.submit")
    tracer.patch(HypothesisCache, "extract", "core.cache.hyp_extract")
    tracer.patch(UnitBehaviorCache, "extract", "core.cache.unit_extract")
    tracer.patch(Extractor, "extract", "extract.sweep")
    tracer.patch(Extractor, "raw_rows", "extract.sweep")
    for cls in sorted({type(h) for h in hypotheses}, key=lambda c: c.__name__):
        tracer.patch(cls, "extract", "hypotheses.extract",
                     count=_indices_count)
    for cls in sorted({type(get_measure(n)) for n in MEASURES_USED},
                      key=lambda c: c.__name__):
        for attr in ("process_block", "compute"):
            tracer.patch(cls, attr, "measures.score",
                         count=lambda args, kwargs: 1)
    tracer.patch(DiskBehaviorStore, "flush", "store.flush")
    tracer.patch(DiskBehaviorStore, "reader", "store.read")
    tracer.patch(StoreEntryReader, "rows", "store.read")
    install_protocol(tracer)


def install_protocol(tracer) -> None:
    """Wrap ``repro.server.protocol``'s encode/decode functions."""
    from repro.server import protocol

    for name in ("dumps", "parse_envelope", "frame_payload",
                 "frame_from_payload", "result_envelope", "frame_envelope",
                 "error_envelope"):
        tracer.patch(protocol, name, "server.protocol")


def counters(session, models=()) -> dict:
    """Flat snapshot of the public counters a session's layers expose."""
    stats = session.stats()
    out: dict = {}
    for tier, label in (("unit_cache", "unit"), ("hypothesis_cache", "hyp")):
        tier_stats = stats.get(tier, {})
        for key in ("hits", "misses", "disk_hits", "disk_misses",
                    "extractions"):
            out[f"cache.{label}.{key}"] = tier_stats.get(key, 0)
    store = stats.get("store", {})
    for key in ("appends", "commits", "bytes"):
        out[f"store.{key}"] = store.get(key, 0)
    for key, value in stats["queries"].items():
        out[f"queries.{key}"] = value
    db = session.db
    out["db.full_scans"] = db.full_scans
    out["db.index_scans"] = db.index_scans
    pager = db.storage.stats() if db.storage is not None else {}
    for key in ("reads", "writes", "commits"):
        out[f"db.storage.{key}"] = pager.get(key, 0)
    out["nn.forward_sweeps"] = sum(m.forward_calls for m in models)
    return out


def delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def add_into(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(summary: dict, counts: dict, deltas: dict, n_ops: int, *,
              overhead: float, server_self_s: float = 0.0) -> dict:
    """Per-op layer metrics from span summaries and counter deltas.

    ``summary`` is :func:`pb_trace.summarize` output, ``counts`` the
    tracer's work counts and ``deltas`` counter differences over the
    traced phase (see :func:`counters`; server runs add ``admission.*``
    and ``dedup.*``).  A layer the workload never enters reads 0.
    """
    def ms(name: str, field: str = "total_s") -> float:
        return 1000.0 * summary.get(name, {}).get(field, 0.0) / n_ops

    def per_op(key: str, source: dict = deltas) -> float:
        return source.get(key, 0) / n_ops

    d = deltas
    values = {
        "server.self_ms": 1000.0 * server_self_s / n_ops,
        "server.protocol_ms": ms("server.protocol"),
        "server.admission.rejected": per_op("admission.rejected"),
        "server.admission.failed": per_op("admission.failed"),
        "server.dedup.leases": per_op("dedup.leases"),
        "session.open_ms": ms("session.open"),
        "session.close_ms": ms("session.close"),
        "session.streams_abandoned": per_op("queries.streams_abandoned"),
        "db.parse_ms": ms("db.parse"),
        "db.select_ms": ms("db.select"),
        "db.full_scans": per_op("db.full_scans"),
        "db.index_scans": per_op("db.index_scans"),
        "db.storage.pages_read": per_op("db.storage.reads"),
        "db.storage.pages_written": per_op("db.storage.writes"),
        "db.storage.commits": per_op("db.storage.commits"),
        "core.pipeline.plan_ms": ms("core.pipeline.plan"),
        "core.pipeline.execute_self_ms": ms("core.pipeline.execute",
                                            "self_s"),
        "core.cache.unit_hit_ratio": _ratio(
            d.get("cache.unit.hits", 0),
            d.get("cache.unit.hits", 0) + d.get("cache.unit.misses", 0)),
        "core.cache.hyp_hit_ratio": _ratio(
            d.get("cache.hyp.hits", 0),
            d.get("cache.hyp.hits", 0) + d.get("cache.hyp.misses", 0)),
        "core.cache.disk_hit_ratio": _ratio(
            d.get("cache.unit.disk_hits", 0) + d.get("cache.hyp.disk_hits", 0),
            sum(d.get(f"cache.{t}.{k}", 0) for t in ("unit", "hyp")
                for k in ("disk_hits", "disk_misses"))),
        "core.cache.extract_self_ms": (ms("core.cache.unit_extract", "self_s")
                                       + ms("core.cache.hyp_extract",
                                            "self_s")),
        "core.shard.submit_ms": ms("core.shard.submit"),
        "core.shard.tasks": per_op("core.shard.submit_shards", counts),
        "nn.forward_sweeps": per_op("nn.forward_sweeps"),
        "extract.sweep_ms": ms("extract.sweep"),
        "hypotheses.evaluations": per_op("hypotheses.extract", counts),
        "hypotheses.extract_ms": ms("hypotheses.extract"),
        "measures.blocks": per_op("measures.score", counts),
        "measures.score_ms": ms("measures.score"),
        "store.appends": per_op("store.appends"),
        "store.commits": per_op("store.commits"),
        "store.bytes_written": per_op("store.bytes"),
        "store.flush_ms": ms("store.flush"),
        "store.read_ms": ms("store.read"),
        "trace.overhead_frac": overhead,
    }
    return {name: metric(values[name], unit)
            for name, unit in PER_LAYER_UNITS.items()}
