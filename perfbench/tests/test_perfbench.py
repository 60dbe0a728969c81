"""Tests for the benchmark's own code: tail choice, span self time,
failure accounting, frame checks and the result schema.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pb_layers  # noqa: E402
import pb_stats  # noqa: E402
import pb_trace  # noqa: E402
import pb_workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# tail percentile
# ----------------------------------------------------------------------
class TestTail:
    @pytest.mark.parametrize("fixed_ops", [11, 12, 20, 30, 200])
    def test_leaves_exactly_ten_samples_beyond_at_the_fixed_count(
            self, fixed_ops):
        values = [float(i) for i in range(fixed_ops)]
        value, pct, n, beyond = pb_stats.tail(values[::-1], fixed_ops)
        assert n == fixed_ops
        assert beyond == sum(v > value for v in values) \
            == pb_stats.TAIL_BEYOND
        assert pct == pytest.approx(100.0 * (fixed_ops - 10) / fixed_ops)

    def test_is_the_highest_such_percentile(self):
        assert pb_stats.tail_percentile(200) == 95.0
        values = [float(i) for i in range(200)]
        value, _, _, _ = pb_stats.tail(values, 200)
        assert value == 189.0
        # the next rank up would leave only nine samples beyond
        assert sum(v > 190.0 for v in values) == 9

    def test_percentile_stays_fixed_when_a_run_completes_more_ops(self):
        values = [float(i) for i in range(1000)]
        value, pct, n, beyond = pb_stats.tail(values, 200)
        assert (pct, n) == (95.0, 1000)
        assert value == 949.0 and beyond == 50

    def test_a_short_run_reports_how_few_samples_lie_beyond(self):
        value, pct, n, beyond = pb_stats.tail([3.0, 1.0, 2.0], 20)
        assert (value, pct, n, beyond) == (2.0, 50.0, 3, 1)

    def test_degenerate_inputs_are_errors(self):
        with pytest.raises(ValueError):
            pb_stats.tail([], 20)
        with pytest.raises(ValueError):
            pb_stats.tail_percentile(10)


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------
class TestSelfTime:
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = pb_trace.Tracer(clock=clock)
        with tracer.span("outer"):
            clock.now = 2.0
            with tracer.span("child"):
                clock.now = 3.0
                with tracer.span("grandchild"):
                    clock.now = 4.0
                clock.now = 5.0
            clock.now = 6.0
            with tracer.span("child"):
                clock.now = 7.0
            clock.now = 10.0
        summary = pb_trace.summarize(tracer.spans)
        assert summary["outer"]["total_s"] == 10.0
        assert summary["outer"]["self_s"] == 10.0 - 3.0 - 1.0
        assert summary["child"] == {"calls": 2, "total_s": 4.0,
                                    "self_s": 3.0}
        assert summary["grandchild"]["self_s"] == 1.0

    def test_spans_on_other_threads_are_not_children(self):
        clock = FakeClock()
        tracer = pb_trace.Tracer(clock=clock)

        def worker():
            with tracer.span("pool_work"):
                clock.now = 8.0

        with tracer.span("loop"):
            clock.now = 1.0
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            clock.now = 10.0
        by_name = {s[pb_trace.NAME]: s for s in tracer.spans}
        assert by_name["pool_work"][pb_trace.PARENT] is None
        assert by_name["pool_work"][pb_trace.THREAD] != \
            by_name["loop"][pb_trace.THREAD]
        summary = pb_trace.summarize(tracer.spans)
        assert summary["loop"]["self_s"] == 10.0
        assert summary["pool_work"]["self_s"] == 7.0

    def test_summaries_of_separate_processes_add_up(self):
        server = [("session.sql", 0.0, 4.0, None, 7, 1, False),
                  ("db.parse", 1.0, 2.0, 1, 7, 2, False)]
        client = [("session.sql", 10.0, 11.0, None, 9, 1, False)]
        merged = pb_trace.merge_summaries(
            [pb_trace.summarize(server), pb_trace.summarize(client)])
        assert merged["session.sql"] == {"calls": 2, "total_s": 5.0,
                                         "self_s": 4.0}
        assert merged["db.parse"]["total_s"] == 1.0

    def test_overlapping_children_are_covered_once(self):
        spans = [("p", 0.0, 10.0, None, 1, 1, False),
                 ("c", 1.0, 5.0, 1, 1, 2, False),
                 ("c", 3.0, 6.0, 1, 1, 3, False),
                 ("c", 9.0, 12.0, 1, 1, 4, False)]
        assert pb_trace.self_times(spans)[1] == pytest.approx(10 - 5 - 1)

    def test_same_name_nesting_counts_once(self):
        clock = FakeClock()
        tracer = pb_trace.Tracer(clock=clock)

        def inner():
            clock.now += 1.0

        def outer():
            clock.now += 1.0
            traced_inner()
            clock.now += 1.0

        traced_inner = tracer.wrap(inner, "layer")
        tracer.wrap(outer, "layer")()
        summary = pb_trace.summarize(tracer.spans)
        assert summary["layer"] == {"calls": 1, "total_s": 3.0,
                                    "self_s": 3.0}


class TestPatching:
    def test_patch_and_restore_methods(self):
        class Base:
            def work(self, n):
                return n + 1

            @classmethod
            def make(cls):
                return cls()

        class Child(Base):
            pass

        tracer = pb_trace.Tracer()
        tracer.patch(Child, "work", "work",
                     count=lambda args, kwargs: args[1])
        tracer.patch(Base, "make", "make")
        assert Child().work(4) == 5
        assert isinstance(Child.make(), Child)
        assert tracer.counts["work"] == 4
        assert [s[pb_trace.NAME] for s in tracer.spans] == ["work", "make"]
        tracer.restore()
        assert "work" not in vars(Child)
        assert isinstance(vars(Base)["make"], classmethod)
        assert Child().work(1) == 2

    def test_patch_everywhere_follows_from_imports(self, monkeypatch):
        def helper():
            return 42

        source = types.ModuleType("fakepkg.source")
        user = types.ModuleType("fakepkg.user")
        source.helper = user.helper = helper
        monkeypatch.setitem(sys.modules, "fakepkg.source", source)
        monkeypatch.setitem(sys.modules, "fakepkg.user", user)
        tracer = pb_trace.Tracer()
        tracer.patch_everywhere(helper, "helper", prefix="fakepkg")
        assert source.helper() == user.helper() == 42
        assert len(tracer.spans) == 2
        tracer.restore()
        assert source.helper is helper and user.helper is helper

    def test_generators_are_traced_per_resume_and_close(self):
        clock = FakeClock()
        tracer = pb_trace.Tracer(clock=clock)
        closed = []

        def blocks():
            try:
                for i in range(3):
                    clock.now += 2.0
                    yield i
            finally:
                closed.append(True)

        gen = tracer.wrap(blocks, "loop")()
        assert next(gen) == 0
        clock.now += 100.0        # consumer time is not the generator's
        assert next(gen) == 1
        gen.close()
        assert closed == [True]
        summary = pb_trace.summarize(tracer.spans)
        assert summary["loop"]["total_s"] == 4.0

    def test_dump_and_load_round_trip(self, tmp_path):
        tracer = pb_trace.Tracer()
        with tracer.span("a"):
            tracer.count("a", 3)
        path = tmp_path / "spans.json"
        tracer.dump(str(path), extra={"deltas": {"x": 1}})
        loaded = pb_trace.load(str(path))
        assert loaded["spans"] == tracer.spans
        assert loaded["counts"] == {"a": 3}
        assert loaded["deltas"] == {"x": 1}


# ----------------------------------------------------------------------
# op accounting and answer checks
# ----------------------------------------------------------------------
class TestAccounting:
    def test_failed_share_counts_raises_refusals_and_wrong_answers(self):
        log = pb_stats.OpLog()

        def raises():
            raise RuntimeError("boom")

        pb_workloads.attempt(log, lambda: ([], {"op": 0.5}))
        pb_workloads.attempt(log, raises)
        pb_workloads.attempt(log, lambda: (["wrong answer"], {"op": 0.1}))
        pb_workloads.attempt(log, lambda: ([], {"op": 0.25}))
        assert (log.attempted, log.failed) == (4, 2)
        assert log.failed_share == 0.5
        assert log.ms("op") == [500.0, 250.0]    # failed ops add no latency
        assert "RuntimeError: boom" in log.errors
        assert "wrong answer" in log.errors

    def test_failed_share_of_an_empty_log_is_total(self):
        assert pb_stats.OpLog().failed_share == 1.0

    def test_frames_compare_bit_for_bit(self):
        from repro.util.frame import Frame

        def frame(score):
            return Frame.from_records([{"uid": 1, "unit_score": score}],
                                      columns=["uid", "unit_score"])

        nan = float("nan")
        assert pb_workloads.frames_equal(frame(nan), frame(float("nan")))
        assert pb_workloads.frames_equal(frame(0.5), frame(0.5))
        assert not pb_workloads.frames_equal(frame(0.0), frame(-0.0))
        assert not pb_workloads.frames_equal(frame(0.5),
                                             frame(0.5000000000000001))
        assert not pb_workloads.frames_equal(
            frame(0.5), Frame.from_records([], columns=["uid", "unit_score"]))


# ----------------------------------------------------------------------
# output schema
# ----------------------------------------------------------------------
class TestSchema:
    def test_result_line_has_exactly_the_contract_keys(self):
        line = pb_stats.result_line(
            correct=True, attempted=3, failed=0,
            metrics={"latency_p50_ms": pb_stats.metric(1.25, "ms")})
        payload = json.loads(line)
        assert set(payload) == {"correct", "attempted", "failed", "metrics"}
        assert payload["metrics"]["latency_p50_ms"] == {"value": 1.25,
                                                        "unit": "ms"}

    def test_result_line_refuses_empty_runs_and_non_finite_values(self):
        with pytest.raises(ValueError):
            pb_stats.result_line(correct=True, attempted=0, failed=0,
                                 metrics={})
        with pytest.raises(ValueError):
            pb_stats.metric(float("inf"), "ms")

    def test_benchmark_json_matches_the_metrics_the_code_reports(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert spec["command"][:2] == ["python3", "perfbench/run.py"]
        assert [w["name"] for w in spec["workloads"]] == \
            ["sweep_cold", "serve_warm", "store_roundtrip"]
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        assert per_layer == pb_layers.PER_LAYER_UNITS
        log = pb_stats.OpLog()
        for ms in range(1, 30):
            log.ok(op=ms / 1000)
        common, _ = pb_workloads.common_metrics(log, 1.0, [0.5], 100.0, 20)
        end_to_end = {m["name"]: m for m in spec["end_to_end"]}
        for name, value in common.items():
            assert end_to_end[name]["unit"] == value["unit"]
        assert end_to_end["setup_s"]["bound"] == max(
            m["bound"] for m in spec["end_to_end"])

    def test_per_layer_reports_every_metric(self):
        metrics = pb_layers.per_layer({}, {}, {}, 1, overhead=0.05)
        assert list(metrics) == list(pb_layers.PER_LAYER_UNITS)
        assert metrics["trace.overhead_frac"]["value"] == 0.05
        assert metrics["core.cache.unit_hit_ratio"]["value"] == 0.0
