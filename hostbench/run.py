#!/usr/bin/env python3
"""Host-time benchmark of the repro engine, end to end and per layer.

Usage (from the repository root)::

    python3 hostbench/run.py --workload dss --seed 0 --seconds 35 --trace 0

``--workload`` is ``dss``, ``oltp`` or ``serve`` (see README.md).  The run
builds its databases from ``--seed`` (repeated for the median
``setup_s``), then runs whole passes of the workload for about
``--seconds`` seconds (``serve`` runs a fixed number of replays instead),
checking every operation's rows and simulated cycles.  Reported times are normalised by the host's measured speed (see
``common.HostClock``).  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it runs one untraced pass, installs the layer tracer and
reports the per-layer metrics, writing the spans to
``.hostbench/trace-<workload>-seed<seed>.json``.  The last line of
standard output is the JSON result; the lines before it describe the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".hostbench")
WORKLOADS = ("dss", "oltp", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("hostbench: src/repro is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    # Build products and temporary files stay inside the checkout.
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")
    sys.path[:0] = [SRC, ROOT]

    from repro.hardware.native import load_native
    from hostbench import common, dss, oltp, serve

    native = load_native() is not None  # compile once, outside every timing
    module = {"dss": dss, "oltp": oltp, "serve": serve}[args.workload]
    seeds = common.derive_seeds(args.seed)
    workload = module.Workload(seeds)
    book = common.CycleBook(args.workload, args.seed)
    log = common.RunLog()

    state, setup_seconds = common.timed_setups(workload.build, log.clock)
    workload.prepare(state)
    print(f"hostbench {args.workload} seed {args.seed} ({seeds}); native "
          f"charging {'on' if native else 'off'}; setup median "
          f"{setup_seconds:.3f}s")
    for line in workload.describe():
        print(line)
    gc.collect()

    started = time.perf_counter()
    if args.trace:
        metrics = traced_run(workload, log, book, args, started)
    else:
        common.run_passes(workload, log, book, args.seconds, started)
        metrics = common.common_metrics(log, setup_seconds)
        metrics.update(workload.metrics(log))
    for line in getattr(workload, "diagnostics", lambda: [])():
        print(line)
    slowdowns = [sample / common.REFERENCE_BURST_S for sample in log.clock.samples]
    print(f"{log.passes} passes, {log.attempted} operations, {log.failed} "
          f"failed, {time.perf_counter() - started:.1f}s timed phase; "
          f"simulated cycles per pass {book.pass_total()}; host slowdown "
          f"median {statistics.median(slowdowns):.2f} over {len(slowdowns)} samples")
    for failure in log.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": log.failed == 0 and log.attempted > 0,
                      "attempted": log.attempted, "failed": log.failed,
                      "metrics": metrics}))
    return 0


def traced_run(workload, log, book, args, started):
    """One untraced pass, then traced set-up and passes; layer metrics."""
    from hostbench import common, layers

    untraced = time.perf_counter()
    workload.run_pass(log, book)
    untraced = time.perf_counter() - untraced

    tracer = layers.Tracer()
    tracer.install()
    try:
        before = tracer.snapshot()
        tracer.op = "setup"
        workload.build()
        after = tracer.snapshot()
        setup = tuple(after.get(f"Database.{name}.total", 0.0)
                      - before.get(f"Database.{name}.total", 0.0)
                      for name in ("load", "create_index"))
        before = after
        passes_before = log.passes
        traced = time.perf_counter()
        durations = common.run_passes(workload, log, book, args.seconds,
                                      started, tracer)
        traced = time.perf_counter() - traced
        after = tracer.snapshot()
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(
        before, after, log.passes - passes_before, traced, untraced,
        durations, setup, tracer.queue_waits, book.pass_total())
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                 {"workload": args.workload, "seed": args.seed,
                  "traced_passes": log.passes - passes_before,
                  "traced_wall_s": traced, "untraced_pass_s": untraced})
    return metrics


if __name__ == "__main__":
    sys.exit(main())
