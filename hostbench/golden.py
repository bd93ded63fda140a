#!/usr/bin/env python3
"""Regenerate ``golden.json``: simulated cycles per operation, default seed.

Usage (from the repository root)::

    python3 hostbench/golden.py

Runs one pass of every workload with ``--seed 0`` and records each
operation's simulated cycles.  Operations with wrong rows are listed but
still recorded: the cycles describe the work done, right or wrong.
Regenerate only when a change is meant to move simulated counts; the
benchmark fails any operation whose cycles differ from this file.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from hostbench import common, dss, oltp, serve

    golden = {}
    for module in (dss, oltp, serve):
        workload = module.Workload(common.derive_seeds(common.DEFAULT_SEED))
        workload.prepare(workload.build())
        book = common.CycleBook(workload.name, common.DEFAULT_SEED,
                                use_golden=False)
        log = common.RunLog()
        workload.run_pass(log, book)
        for failure in log.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        golden[workload.name] = {"pass_total": book.pass_total(),
                                 "ops": book.first}
        print(f"{workload.name}: {len(book.first)} operations, "
              f"{book.pass_total()} simulated cycles per pass")
    with open(common.GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
