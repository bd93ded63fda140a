"""Tests of the benchmark itself: oracle, metric names, failure counting.

Run from the repository root::

    python3 -m pytest -q hostbench/tests
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.engine.session import Session  # noqa: E402
from repro.query.expressions import avg  # noqa: E402
from repro.query.plans import SelectionQuery  # noqa: E402
from repro.systems.vendors import SYSTEM_B, oltp_variant  # noqa: E402
from repro.workloads.micro import MicroWorkload, MicroWorkloadConfig  # noqa: E402
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload  # noqa: E402

from hostbench import common, oltp, run, serve  # noqa: E402
from hostbench.oracle import AccountOracle, MicroOracle  # noqa: E402
from hostbench.templates import (JOIN_AGGREGATES, exclusive_low_defects,  # noqa: E402
                                 expected, to_query)

SECOND_SEED = common.derive_seeds(1)
SMALL_MICRO = MicroWorkloadConfig(scale=1 / 1000, seed=SECOND_SEED["micro"])


def _micro(layout: str):
    workload = MicroWorkload(SMALL_MICRO)
    database = workload.build(layout_style=layout)
    workload.create_selection_index(database)
    oracle = MicroOracle(workload.generate_r_rows(), workload.generate_s_rows())
    return workload, database, database.address_space.checkpoint(), oracle


def _templates(config: MicroWorkloadConfig, defects):
    """Templates of every kind the timed workloads draw: range windows
    anywhere in the domain (index windows not starting in ``defects``) and
    joins over every aggregate of ``JOIN_AGGREGATES``.  The xfail tests
    below cover the two engine defects the workloads leave out."""
    domain = config.a2_domain
    starts = [0, domain // 3, domain // 2] + sorted(defects)
    out = [("range", start, start + width + 1, indexed, function)
           for start in starts
           for width in (1, domain // 10, domain // 2)
           for indexed in (False, True) if not (indexed and start in defects)
           for function in serve.RANGE_AGGREGATES]
    out += [("skewed", round(0.9 * config.r_rows), 5_000, domain // 20 + 1)]
    out += [("join",) + aggregate
            for pool in ("SJR", "SJS") for aggregate in JOIN_AGGREGATES[pool]]
    out += [("update", 3, 1234), ("range", 0, 5, True, "avg")]
    return out


@pytest.mark.parametrize("layout", ["nsm", "pax"])
@pytest.mark.parametrize("engine", ["tuple", "vectorized"])
def test_oracle_agrees_with_engine_on_second_seed(layout, engine):
    workload, database, checkpoint, oracle = _micro(layout)
    defects = exclusive_low_defects(database)
    for template in _templates(workload.config, defects):
        database.address_space.restore(checkpoint)
        session = Session(database, SYSTEM_B, engine=engine)
        rows = session.execute(to_query(template, "t"), warmup_runs=0).rows
        assert rows == expected(oracle, template), template


def test_account_oracle_agrees_with_engine_on_second_seed():
    workload = TPCCWorkload(TPCCConfig(scale=1 / 100, seed=SECOND_SEED["tpcc"]))
    database = workload.build()
    fresh = {table: (key, value, oltp.decode(database, table))
             for table, (key, value) in oltp.CHECKED.items()}
    oracle = AccountOracle(fresh)
    session = Session(database, oltp_variant(SYSTEM_B), engine="vectorized")
    for number, txn in enumerate(workload.transactions(40, seed=SECOND_SEED["txn"])):
        session.execute_transaction(txn.statements)
        assert oltp.check_transaction(str(number), database, txn.statements,
                                      oracle) is None


def _run(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1",
                         "--seconds", "0.1", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_emitted_metric_names_are_the_declared_ones(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace)
        assert result["attempted"] >= 1
        names = {entry["name"]: entry["unit"] for entry in declared[section]}
        emitted = {name: value["unit"] for name, value in result["metrics"].items()}
        assert emitted == names
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))


def test_unknown_table_is_counted_as_failed_and_the_run_completes():
    workload = serve.Workload(SECOND_SEED)
    workload.prepare(workload.build())
    first, third = [a for a in workload.arrivals if a.kind in ("SRS", "ACS")][:2]
    bad = serve.Arrival(len(workload.arrivals), "BAD", ("missing",),
                        SelectionQuery(table="missing", aggregates=(avg("a1"),),
                                       label="BAD"), [])
    workload.arrivals = [first, bad, third]

    def only_expected_failures(problems):
        # The bad query fails, and so may any query its round leaves
        # without an outcome; a served query must match the oracle.
        return all("(BAD)" in problem or "not served" in problem
                   for problem in problems)

    # Due at once, so one admission round takes all three.
    result = serve.replay(workload.new_server(), workload.arrivals, float("inf"))
    assert len(result.served) == 3
    problems = {item.index: item.problem for item in result.served}
    assert problems[bad.index] is not None
    assert only_expected_failures(p for p in problems.values() if p is not None)
    # Through run_pass every arrival is counted and every replay completes.
    log, book = common.RunLog(), common.CycleBook("serve", 1)
    for _ in range(serve.Workload.REPLAYS):
        workload.run_pass(log, book)
    assert log.passes == serve.Workload.REPLAYS
    assert log.attempted == 3 * serve.Workload.REPLAYS
    assert log.failed >= serve.Workload.REPLAYS
    assert only_expected_failures(log.failures)


@pytest.mark.xfail(strict=True, reason=(
    "BTreeIndex.range_search with an exclusive low bound returns keys equal "
    "to the bound when the bound's first entry starts a leaf"))
def test_index_range_with_exclusive_low_bound_matches_oracle():
    workload = MicroWorkload(MicroWorkloadConfig(seed=common.derive_seeds(0)["micro"]))
    database = workload.build()
    workload.create_selection_index(database)
    checkpoint = database.address_space.checkpoint()
    oracle = MicroOracle(workload.generate_r_rows(), workload.generate_s_rows())
    for low in range(workload.config.a2_domain - 5):
        template = ("range", low, low + 5, True, "count")
        database.address_space.restore(checkpoint)
        rows = Session(database, SYSTEM_B).execute(to_query(template, "t"),
                                                   warmup_runs=0).rows
        assert rows == expected(oracle, template), template


@pytest.mark.xfail(strict=True, reason=(
    "join output rows are dict-merged by unqualified column name, so an "
    "aggregate over S.a2 reads R.a2"))
def test_join_aggregate_over_s_column_matches_oracle():
    workload, database, checkpoint, oracle = _micro("nsm")
    template = ("join", "avg", "S.a2")
    rows = Session(database, SYSTEM_B).execute(to_query(template, "t"),
                                               warmup_runs=0).rows
    assert rows == expected(oracle, template)
