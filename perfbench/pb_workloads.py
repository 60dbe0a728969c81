"""The three workloads: ``sweep_cold``, ``serve_warm`` and ``store_roundtrip``.

Each is a closed loop: a client sends its next op only after the previous
answer arrived, with no think time.  Every answer is checked against a
reference computed during set-up by a serial, cache-less session, plus
counter invariants; an op that fails a check counts in ``failed`` and
the run goes on.

A workload function takes a :class:`Context` and returns an
:class:`Outcome`.  With ``trace`` off it times one phase of
``seconds`` and reports the end-to-end metrics; with ``trace`` on it
times an untraced phase and then a traced phase of ``seconds / 2`` each
and reports the per-layer metrics, measured in the traced phase, plus
the tracing overhead between the two.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import pb_inputs
import pb_layers
import pb_trace
from pb_inputs import (HAVING_SQL, HYPS_SQL, JACCARD_SQL, KEYWORD_SQL,
                       LOGREG_SQL, MODELS_SQL, STORE_SWEEP_SQL,
                       STORE_TOPK_SQL, STORE_WRITE_SQL, SWEEP_SQL,
                       topk_epoch_sql)
from pb_stats import Deadline, OpLog, RssSampler, median, metric, tail

#: the op count each workload's tail percentile is fixed at: about the
#: ops one run completes on a 2-core host (30 s: ~35 cold sweeps, ~25
#: store round trips, 500+ served ops), so at least ten lie beyond it
TAIL_OPS = {"sweep_cold": 30, "serve_warm": 200, "store_roundtrip": 20}
#: set-ups timed per run; ``setup_s`` is their median
SETUP_REPS = {"sweep_cold": 9, "serve_warm": 3, "store_roundtrip": 9}
#: seconds a server gets to start, and to stop after SIGINT
SERVER_START_TIMEOUT = 120.0
SERVER_STOP_TIMEOUT = 30.0


@dataclass
class Context:
    workload: str
    seconds: float
    trace: bool
    root: Path            # the checkout the benchmark runs in
    work: Path            # scratch directory inside it, removed at exit
    inputs: pb_inputs.Inputs


@dataclass
class Outcome:
    log: OpLog
    metrics: dict
    #: failed checks that belong to no single op (set-up, whole phase)
    check_errors: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# answer checks
# ----------------------------------------------------------------------
def frames_equal(a, b) -> bool:
    """Bit-for-bit frame equality: same columns, rows, values and bits.

    Float columns compare by their IEEE-754 bytes, so NaN scores match
    only a NaN with the same bits and 0.0 does not match -0.0.
    """
    if a.columns != b.columns or len(a) != len(b):
        return False
    for name in a.columns:
        x, y = a.column(name), b.column(name)
        if x.dtype.kind == "f" or y.dtype.kind == "f":
            if x.dtype != y.dtype or x.tobytes() != y.tobytes():
                return False
        elif x.tolist() != y.tolist():
            return False
    return True


def reference(inputs, statements, streams=()) -> tuple[dict, dict]:
    """Frames of a serial, cache-less session, in statement order."""
    from repro import Session

    with Session(session_defaults=False) as ref:
        pb_inputs.register(ref, inputs)
        frames = {sql: ref.sql(sql) for sql in statements}
        partials = {sql: list(ref.stream_sql(sql)) for sql in streams}
    return frames, partials


def n_blocks() -> int:
    from repro import InspectConfig
    return math.ceil(pb_inputs.N_RECORDS / InspectConfig().block_size)


def attempt(log: OpLog, fn) -> None:
    """Run one op; ``fn`` returns ``(problems, latencies)``."""
    try:
        problems, latencies = fn()
    except Exception as exc:   # an op that raises is a failed op
        log.fail(f"{type(exc).__name__}: {exc}")
        return
    if problems:
        log.fail("; ".join(problems))
    else:
        log.ok(**latencies)


def loop(seconds: float, op) -> float:
    """Call ``op()`` until ``seconds`` have passed; returns elapsed s."""
    deadline = Deadline(seconds)
    while deadline.open():
        op()
    return time.perf_counter() - deadline.start


def phases(ctx: Context, run_phase):
    """Run the timed phase(s); ``run_phase(seconds, traced)`` returns
    ``(log, elapsed_s, layer_inputs)``.  Returns the combined log, the
    untraced phase's ``(log, elapsed)`` and the traced layer inputs."""
    if not ctx.trace:
        log, elapsed, _ = run_phase(ctx.seconds, False)
        return log, (log, elapsed), None
    log_a, elapsed_a, _ = run_phase(ctx.seconds / 2, False)
    log_b, _, layer_inputs = run_phase(ctx.seconds / 2, True)
    combined = OpLog()
    combined.attempted = log_a.attempted + log_b.attempted
    combined.failed = log_a.failed + log_b.failed
    combined.errors = log_a.errors + log_b.errors
    overhead = (median(log_b.ms("op")) / median(log_a.ms("op")) - 1.0
                if log_a.ms("op") and log_b.ms("op") else 0.0)
    layer_inputs["overhead"] = overhead
    return combined, (log_a, elapsed_a), layer_inputs


def common_metrics(log: OpLog, elapsed: float, setup: list[float],
                   peak_mb: float, tail_ops: int) -> tuple[dict, dict]:
    """The end-to-end metrics every workload reports, and their detail."""
    op_ms = log.ms("op")
    if not op_ms:
        raise RuntimeError("no op succeeded in the timed phase: "
                           + "; ".join(log.errors[:3]))
    tail_ms, pct, n, beyond = tail(op_ms, tail_ops)
    metrics = {
        "setup_s": metric(median(setup), "s"),
        "latency_p50_ms": metric(median(op_ms), "ms"),
        "latency_tail_ms": metric(tail_ms, "ms"),
        "throughput_ops": metric(len(op_ms) / elapsed, "ops/s"),
        "ok_share": metric(1.0 - log.failed_share, "ratio"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    detail = {"latency_tail": {"percentile": pct, "samples": n,
                               "beyond": beyond, "fixed_ops": tail_ops},
              "failed_share": log.failed_share,
              "setup_samples_s": setup,
              "p50_ms": {kind: median(log.ms(kind)) for kind in log.samples},
              "samples_ms": {kind: log.ms(kind) for kind in log.samples}}
    return metrics, detail


def maybe_span(tracer, name: str):
    """A span on ``tracer``, or nothing in an untraced phase."""
    return (tracer.span(name) if tracer is not None
            else contextlib.nullcontext())


def child_env(ctx: Context) -> dict:
    """Environment of the program processes the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ctx.root / "src"), str(ctx.root / "perfbench")])
    env["PERFBENCH_WORK"] = str(ctx.work)
    return env


def save_inputs(ctx: Context) -> Path:
    """Pickle the generated inputs for the program's own processes."""
    path = ctx.work / "inputs.pkl"
    with open(path, "wb") as f:
        pickle.dump(ctx.inputs, f)
    return path


def probe_setup(ctx: Context) -> list[float]:
    """Time, in fresh processes, from start to a registered session.

    Each sample starts ``pb_setup.py``, which imports the library, opens
    the workload's session, registers the inputs and closes it; the time
    runs from process start to its ``ready`` line.
    """
    inputs_path = save_inputs(ctx)
    samples = []
    for rep in range(SETUP_REPS[ctx.workload]):
        base = ctx.work / f"setup-{rep}"
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ctx.root / "perfbench" / "pb_setup.py"),
             ctx.workload, str(inputs_path), str(base)],
            cwd=str(ctx.root), env=child_env(ctx), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        _, err = proc.communicate(timeout=SERVER_START_TIMEOUT)
        shutil.rmtree(base, ignore_errors=True)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err[-2000:]}")
    return samples


# ----------------------------------------------------------------------
# sweep_cold
# ----------------------------------------------------------------------
def sweep_cold(ctx: Context) -> Outcome:
    from repro import Session
    from repro.util.testing import CountingForwardModel

    inputs = ctx.inputs
    frames, _ = reference(inputs, [SWEEP_SQL])
    ref = frames[SWEEP_SQL]
    n_models = len(inputs.snapshots)
    max_sweeps = n_models * n_blocks()

    def open_session():
        session = Session()
        return session, pb_inputs.register(session, inputs,
                                           CountingForwardModel)

    setup = probe_setup(ctx)

    def make_op(tracer, totals):
        def one():
            t0 = time.perf_counter()
            with maybe_span(tracer, "session.open"):
                session, models = open_session()
            try:
                frame = session.sql(SWEEP_SQL)
            finally:
                session.close()
            elapsed = time.perf_counter() - t0
            after = pb_layers.counters(session, models)
            pb_layers.add_into(totals, after)
            sweeps = after["nn.forward_sweeps"]
            problems = []
            if not frames_equal(frame, ref):
                problems.append("sweep frame differs from the reference")
            if not n_models <= sweeps <= max_sweeps:
                problems.append(f"{sweeps} forward sweeps, expected "
                                f"{n_models}..{max_sweeps}")
            if after["cache.unit.extractions"] != sweeps:
                problems.append("unit-cache extractions != forward sweeps")
            return problems, {"op": elapsed}
        return one

    return _finish(ctx, in_process(inputs, make_op), setup, [os.getpid()],
                   extra_detail={"blocks_per_query": n_blocks()})


def in_process(inputs, make_op):
    """``run_phase`` for a workload whose ops run in this process.

    ``make_op(tracer, totals)`` returns the op; the op adds its sessions'
    counters into ``totals`` and, when ``tracer`` is set, opens them in a
    ``session.open`` span.
    """
    def run_phase(seconds: float, traced: bool):
        log = OpLog()
        tracer = pb_trace.Tracer() if traced else None
        totals: dict = {}
        one = make_op(tracer, totals)
        if tracer is not None:
            pb_layers.install(tracer, inputs.hypotheses)
        try:
            elapsed = loop(seconds, lambda: attempt(log, one))
        finally:
            if tracer is not None:
                tracer.restore()
        layer_inputs = ({"tracer": tracer, "deltas": totals,
                         "n_ops": log.attempted} if traced else None)
        return log, elapsed, layer_inputs
    return run_phase


def _finish(ctx, run_phase, setup, pids, extra_metrics=None,
            extra_detail=None, server_self=None) -> Outcome:
    """Shared tail of every workload: timed phases under the RSS sampler
    (over ``pids`` and their children), then the metrics of the mode."""
    with RssSampler(pids) as rss:
        log, (log_e2e, elapsed), layer_inputs = phases(ctx, run_phase)
    detail = dict(extra_detail or {})
    if ctx.trace:
        tracer = layer_inputs["tracer"]
        # span ids and clocks are per process: summarize each process's
        # spans on their own, then add the summaries
        spans = {"benchmark": tracer.spans}
        if "server_spans" in layer_inputs:
            spans["server"] = layer_inputs["server_spans"]
        summary = pb_trace.merge_summaries(
            [pb_trace.summarize(part) for part in spans.values()])
        counts = dict(tracer.counts)
        pb_layers.add_into(counts, layer_inputs.get("server_counts", {}))
        server_self_s = server_self(summary) if server_self else 0.0
        metrics = pb_layers.per_layer(
            summary, counts, layer_inputs["deltas"],
            max(1, layer_inputs["n_ops"]),
            overhead=layer_inputs["overhead"], server_self_s=server_self_s)
        detail["span_summary"] = summary
        detail["spans_recorded"] = {k: len(v) for k, v in spans.items()}
        detail["_spans"] = spans
    else:
        metrics, common = common_metrics(log_e2e, elapsed, setup,
                                         rss.peak_mb,
                                         TAIL_OPS[ctx.workload])
        detail.update(common)
        if extra_metrics is not None:
            detail["workload_metrics"] = extra_metrics(log_e2e)
    return Outcome(log=log, metrics=metrics, detail=detail)


# ----------------------------------------------------------------------
# store_roundtrip
# ----------------------------------------------------------------------
def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def store_roundtrip(ctx: Context) -> Outcome:
    from repro import Session
    from repro.util.testing import CountingForwardModel

    inputs = ctx.inputs
    frames, _ = reference(inputs, [STORE_WRITE_SQL, STORE_TOPK_SQL])
    ref_write, ref_topk = frames[STORE_WRITE_SQL], frames[STORE_TOPK_SQL]
    n_models = len(inputs.snapshots)
    max_sweeps = n_models * n_blocks()
    seq = iter(range(10**9))

    def open_session(base: Path):
        session = Session(store_path=str(base / "store"),
                          db_path=str(base / "db"))
        return session, pb_inputs.register(session, inputs,
                                           CountingForwardModel)

    setup = probe_setup(ctx)
    disk_mb: list[float] = []

    def make_op(tracer, totals):
        def one():
            base = ctx.work / f"rt-{next(seq)}"
            problems = []
            try:
                # write: cold sweep INTO scores, closed (store + catalog
                # committed)
                t0 = time.perf_counter()
                with maybe_span(tracer, "session.open"):
                    session, models = open_session(base)
                try:
                    written = session.sql(STORE_WRITE_SQL)
                finally:
                    session.close()
                t1 = time.perf_counter()
                after_w = pb_layers.counters(session, models)
                disk_mb.append(_dir_bytes(base) / 2**20)
                # read: a new session over the same directories
                t2 = time.perf_counter()
                with maybe_span(tracer, "session.open"):
                    session, models = open_session(base)
                try:
                    again = session.sql(STORE_SWEEP_SQL)
                    topk = session.sql(STORE_TOPK_SQL)
                finally:
                    session.close()
                t3 = time.perf_counter()
                after_r = pb_layers.counters(session, models)
            finally:
                shutil.rmtree(base, ignore_errors=True)
            after_r["store.bytes"] = 0      # reads write nothing
            pb_layers.add_into(totals, after_w)
            pb_layers.add_into(totals, after_r)
            sweeps_w = after_w["nn.forward_sweeps"]
            if not frames_equal(written, ref_write):
                problems.append("write frame differs from the reference")
            if not frames_equal(again, written):
                problems.append("read frame differs from the write frame")
            if not frames_equal(topk, ref_topk):
                problems.append("top-k SELECT differs from the reference")
            if not n_models <= sweeps_w <= max_sweeps:
                problems.append(f"write ran {sweeps_w} forward sweeps")
            if after_w["store.commits"] < 1:
                problems.append("write committed no store manifest")
            if after_w["db.storage.commits"] < 1:
                problems.append("write committed no catalog")
            if after_r["nn.forward_sweeps"] or after_r[
                    "cache.unit.extractions"] or after_r[
                    "cache.hyp.extractions"]:
                problems.append("read op extracted instead of reading "
                                "the disk tier")
            if after_r["cache.unit.disk_hits"] == 0:
                problems.append("read op had no disk-tier hits")
            if after_r["db.index_scans"] < 1:
                problems.append("top-k SELECT was not index-routed")
            return problems, {"op": t3 - t0 - (t2 - t1), "write": t1 - t0,
                              "read": t3 - t2}
        return one

    def extra(log):
        return {"write_p50_ms": metric(median(log.ms("write")), "ms"),
                "read_p50_ms": metric(median(log.ms("read")), "ms"),
                "disk_mb": metric(median(disk_mb), "MB")}

    return _finish(ctx, in_process(inputs, make_op), setup, [os.getpid()],
                   extra_metrics=extra,
                   extra_detail={"blocks_per_query": n_blocks(),
                                 "op": "one write op then one read op"})


# ----------------------------------------------------------------------
# serve_warm
# ----------------------------------------------------------------------
TOPK_EPOCHS = (1, 3, 5, 7)
N_TENANTS = 2


def serve_mix(cycle: int) -> list[tuple[str, str]]:
    """One rotation of the served mix: (kind, statement) pairs."""
    return [("inspect", topk_epoch_sql(TOPK_EPOCHS[cycle % len(TOPK_EPOCHS)])),
            ("select", MODELS_SQL),
            ("inspect", HAVING_SQL),
            ("stream", JACCARD_SQL),
            ("inspect", KEYWORD_SQL),
            ("select", HYPS_SQL),
            ("inspect", LOGREG_SQL),
            ("cancel", LOGREG_SQL)]


def _mix_statements() -> tuple[list[str], list[str]]:
    plain, streams = [], []
    for cycle in range(len(TOPK_EPOCHS)):
        for kind, sql in serve_mix(cycle):
            target = streams if kind in ("stream", "cancel") else plain
            if sql not in target:
                target.append(sql)
    return plain, streams


class Server:
    """``python -m repro serve`` in its own process, set up by
    ``pb_serve_setup.py``."""

    def __init__(self, ctx: Context):
        self.work = ctx.work
        for marker in ("traced", "dumped"):
            (ctx.work / marker).unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--setup",
             str(ctx.root / "perfbench" / "pb_serve_setup.py"),
             "--port", "0"],
            cwd=str(ctx.root), env=child_env(ctx), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        self.port = None
        self.stderr: list[str] = []
        self._stderr_thread = threading.Thread(
            target=lambda: self.stderr.extend(self.proc.stderr), daemon=True)
        self._stderr_thread.start()
        timer = threading.Timer(SERVER_START_TIMEOUT, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                if "listening on http://" in line:
                    self.port = int(line.rsplit(":", 1)[1])
                    break
        finally:
            timer.cancel()
        if self.port is None:
            self.stop()
            raise RuntimeError("inspection server did not start: "
                               + "".join(self.stderr[-20:]))

    def signal_and_wait(self, signum: int, marker: str) -> None:
        """Send ``signum`` and wait until the setup script writes
        ``marker`` into the work directory."""
        path = self.work / marker
        self.proc.send_signal(signum)
        deadline = time.perf_counter() + 60
        while not path.exists():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not acknowledge {marker}")
            time.sleep(0.01)
        path.unlink()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr_thread.join(timeout=5)
        self.proc.stderr.close()


def serve_warm(ctx: Context) -> Outcome:
    from repro.server import InspectClient

    inputs = ctx.inputs
    plain, streams = _mix_statements()
    refs, partials = reference(inputs, plain, streams)
    for sql in streams:
        if len(partials[sql]) < 2:
            raise RuntimeError("a streamed statement yields fewer than two "
                               "frames; the cancel-after-first-frame op "
                               "would not cancel anything")
    save_inputs(ctx)
    with open(ctx.work / "warm.pkl", "wb") as f:
        pickle.dump([("sql", sql) for sql in plain]
                    + [("stream", sql) for sql in streams], f)

    setup: list[float] = []
    server = None
    try:
        for rep in range(SETUP_REPS["serve_warm"]):
            t0 = time.perf_counter()
            server = Server(ctx)
            setup.append(time.perf_counter() - t0)
            if rep + 1 < SETUP_REPS["serve_warm"]:
                server.stop()
        with open(ctx.work / "direct.pkl", "rb") as f:
            direct = pickle.load(f)
        check_errors = []
        for (kind, sql), got in direct.items():
            want = refs[sql] if kind == "sql" else partials[sql]
            same = (frames_equal(got, want) if kind == "sql" else
                    len(got) == len(want)
                    and all(map(frames_equal, got, want)))
            if not same:
                check_errors.append(f"direct Session {kind} frame differs "
                                    f"from the reference")
        port = server.port

        traced_phase: dict = {}

        def tenant_loop(log, idx, deadline):
            client = InspectClient("127.0.0.1", port, client_id=f"tenant-{idx}")
            step = idx * 4        # tenants start at different mix offsets
            while deadline.open():
                cycle, pos = divmod(step, 8)
                kind, sql = serve_mix(cycle)[pos]
                step += 1
                attempt(log, lambda: _serve_op(client, kind, sql, refs,
                                               partials, pos))

        def run_phase(seconds: float, traced: bool):
            log = OpLog()
            tracer = None
            probe = InspectClient("127.0.0.1", port, client_id="perfbench")
            before = probe.stats()
            if traced:     # trace the ops only, not the /stats probes
                server.signal_and_wait(signal.SIGUSR1, "traced")
                tracer = pb_trace.Tracer()
                pb_layers.install_protocol(tracer)
            deadline = Deadline(seconds)
            threads = [threading.Thread(target=tenant_loop,
                                        args=(log, i, deadline))
                       for i in range(N_TENANTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - deadline.start
            if traced:
                tracer.restore()
                server.signal_and_wait(signal.SIGUSR2, "dumped")
            after = probe.stats()
            sd = _served_deltas(before, after)
            if sd["cache.unit.extractions"] or sd["cache.hyp.extractions"]:
                check_errors.append("warm server extracted behaviors "
                                    "during a timed phase")
            layer_inputs = None
            if traced:
                dumped = pb_trace.load(str(ctx.work / "server-trace.json"))
                deltas = dict(dumped["deltas"])
                deltas.update({k: v for k, v in sd.items()
                               if k.startswith(("admission.", "dedup."))})
                layer_inputs = {
                    "tracer": tracer, "deltas": deltas,
                    "n_ops": log.attempted,
                    "server_spans": dumped["spans"],
                    "server_counts": dumped["counts"],
                    "client_op_s": sum(log.samples.get("op", [])),
                }
                traced_phase.update(layer_inputs)
            return log, elapsed, layer_inputs

        def server_self(summary):
            inner = sum(summary.get(n, {}).get("total_s", 0.0)
                        for n in ("session.sql", "session.stream_sql"))
            return traced_phase["client_op_s"] - inner

        def extra(log):
            return {"select_p50_ms": metric(median(log.ms("select")), "ms"),
                    "first_frame_p50_ms": metric(
                        median(log.ms("first_frame")), "ms")}

        outcome = _finish(ctx, run_phase, setup, [server.proc.pid],
                          extra_metrics=extra, server_self=server_self,
                          extra_detail={"tenants": N_TENANTS,
                                        "mix": [k for k, _ in serve_mix(0)]})
        outcome.check_errors += check_errors
        return outcome
    finally:
        if server is not None:
            server.stop()


def _served_deltas(before: dict, after: dict) -> dict:
    """Counter differences between two ``/stats`` snapshots."""
    out = {}
    for tier, label in (("unit_cache", "unit"), ("hypothesis_cache", "hyp")):
        out[f"cache.{label}.extractions"] = (
            after["session"][tier]["extractions"]
            - before["session"][tier]["extractions"])
    for key in ("rejected", "failed"):
        out[f"admission.{key}"] = (after["admission"]["totals"][key]
                                   - before["admission"]["totals"][key])
    out["dedup.leases"] = (after.get("dedup", {}).get("leases", 0)
                           - before.get("dedup", {}).get("leases", 0))
    return out


def _serve_op(client, kind: str, sql: str, refs: dict, partials: dict,
              pos: int):
    """One served op at mix position ``pos``; returns ``(problems,
    latencies)``."""
    t0 = time.perf_counter()
    if kind in ("inspect", "select"):
        frame = client.query(sql)
        elapsed = time.perf_counter() - t0
        problems = ([] if frames_equal(frame, refs[sql])
                    else [f"served {kind} frame differs from the reference"])
        latencies = {"op": elapsed, f"mix{pos}": elapsed}
        if kind == "select":
            latencies["select"] = elapsed
        return problems, latencies
    want = partials[sql]
    handle = client.stream(sql)
    got = []
    first = None
    for final, frame in handle:
        if first is None:
            first = time.perf_counter() - t0
            if kind == "cancel":
                handle.cancel()
        got.append(frame)
    elapsed = time.perf_counter() - t0
    problems = []
    if first is None:
        problems.append("stream ended without a frame")
    elif kind == "stream":
        if len(got) != len(want) or not all(map(frames_equal, got, want)):
            problems.append("streamed frames differ from the reference")
    elif not frames_equal(got[0], want[0]):
        problems.append("first streamed frame differs from the reference")
    return problems, {"op": elapsed, "first_frame": first or 0.0,
                      f"mix{pos}": elapsed}
