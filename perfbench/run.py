"""Repository benchmark: one workload per process, every answer checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``sweep_cold``      -- fresh memory-only session per op, Fig. 14 sweep;
* ``serve_warm``      -- two tenants against ``python -m repro serve``;
* ``store_roundtrip`` -- cold sweep ``INTO scores`` on disk, then a new
  session answers it from the disk tier and an index-routed SELECT.

All inputs are generated from ``--seed``.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs an untraced and a traced phase
and prints the per-layer metrics.  The last stdout line is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a ``{"detail": ...}`` object with the host, the seed, the
tail percentile and sample counts.  Spans and the detail are also
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep_cold", "serve_warm", "store_roundtrip")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # the program under test is this checkout's source tree, never an
    # installed copy; worker processes inherit the same path and a
    # temporary directory inside the checkout
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else []))
    os.environ.pop("REPRO_SCHEDULER", None)
    os.environ.pop("REPRO_DB_PATH", None)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    import pb_inputs
    import pb_workloads
    from pb_stats import host_info, result_line

    t0 = time.perf_counter()
    inputs = pb_inputs.generate(args.seed)
    generate_s = time.perf_counter() - t0
    host = host_info(str(work))
    ctx = pb_workloads.Context(workload=args.workload, seconds=args.seconds,
                               trace=bool(args.trace), root=ROOT, work=work,
                               inputs=inputs)
    outcome = getattr(pb_workloads, args.workload)(ctx)
    log = outcome.log
    spans = outcome.detail.pop("_spans", None)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host, "input_generation_s": generate_s,
              "attempted": log.attempted, "failed": log.failed,
              "errors": log.errors, "check_errors": outcome.check_errors,
              **outcome.detail}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(detail, f, indent=1, default=str)
    if spans is not None:
        with open(out_dir / f"{stem}-spans.json", "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "thread",
                                  "sid", "nested"], "processes": spans}, f)
    brief = {k: v for k, v in detail.items()
             if k not in ("span_summary", "samples_ms")}
    print(json.dumps({"detail": brief}, default=str))
    correct = log.failed == 0 and not outcome.check_errors
    print(result_line(correct=correct, attempted=log.attempted,
                      failed=log.failed, metrics=outcome.metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
