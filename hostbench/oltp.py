"""``oltp``: the seeded TPC-C mix, one closed-loop client.

One pass restores each layout's build (address-space and data checkpoints),
opens a session with system B's OLTP profile on the vectorized engine and
runs the same seeded stream of transactions (about half new-order, half
payment) through ``Session.execute_transaction`` on NSM and then on PAX.
After each transaction, outside its timing, the benchmark reads every
customer and stock record the transaction touched, through the key index,
and compares the checked column with :class:`~hostbench.oracle.AccountOracle`,
whose dicts are decoded from the freshly built tables and updated as each
statement applies.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List

from repro.engine.session import Session
from repro.query.plans import UpdateQuery
from repro.systems.vendors import SYSTEM_B, oltp_variant
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload

from .common import CycleBook, Op, RunLog, kind_p50_ms, metric, nearest_rank
from .oracle import AccountOracle

LAYOUTS = ("nsm", "pax")
#: Transactions per layout per pass.
TRANSACTIONS = 100
#: table -> (key column, checked value column)
CHECKED = {"customer": ("c_id", "c_balance"), "stock": ("s_i_id", "s_quantity")}


def stored_value(database, table: str, key: int):
    """The checked column of the record whose key is ``key``, read through
    the table's key index (``None`` when there is no such record)."""
    stored = database.table(table)
    key_column, value_column = CHECKED[table]
    rids = stored.index_on(key_column).search(key)
    if not rids:
        return None
    values = stored.heap.read_values(rids[0])
    return values[stored.schema.column_names().index(value_column)]


def check_transaction(key: str, database, statements,
                      oracle: AccountOracle):
    """Apply ``statements``' updates to ``oracle``, then compare every
    record they touched with it; the first difference, or ``None``."""
    touched = []
    for statement in statements:
        if isinstance(statement, UpdateQuery):
            oracle.update(statement.table, statement.set_column,
                          statement.key_value, statement.set_value)
            touched.append((statement.table, statement.key_value))
        else:
            touched.append((statement.table, statement.predicate.right.value))
    for table, record in touched:
        want = oracle.value(table, record)
        got = stored_value(database, table, record)
        if got != want:
            return (f"{key}: {table} {CHECKED[table][0]}={record} holds "
                    f"{CHECKED[table][1]}={got}, oracle {want}")
    return None


def decode(database, table: str) -> Dict[int, int]:
    """``{key: value}`` of one checked table, read record by record."""
    stored = database.table(table)
    names = stored.schema.column_names()
    key_at, value_at = (names.index(column) for column in CHECKED[table])
    data = {}
    for entry in stored.heap.scan():
        values = stored.heap.read_values(entry.rid)
        data[values[key_at]] = values[value_at]
    return data


class Workload:
    name = "oltp"
    min_passes = 1
    max_passes = None

    def __init__(self, seeds: Dict[str, int]) -> None:
        self.tpcc = TPCCWorkload(TPCCConfig(seed=seeds["tpcc"]))
        self.stream_seed = seeds["txn"]
        self.profile = oltp_variant(SYSTEM_B)
        self.state = None

    def build(self):
        state = {}
        for layout in LAYOUTS:
            database = self.tpcc.build(layout_style=layout)
            state[layout] = (database, database.address_space.checkpoint(),
                             database.data_checkpoint())
        return state

    def prepare(self, state) -> None:
        self.state = state
        self.transactions = list(self.tpcc.transactions(TRANSACTIONS,
                                                        seed=self.stream_seed))
        database = state[LAYOUTS[0]][0]
        self.fresh = {table: (key, value, decode(database, table))
                      for table, (key, value) in CHECKED.items()}

    def describe(self) -> List[str]:
        kinds = [txn.kind for txn in self.transactions]
        return [f"oltp: {len(kinds)} transactions per layout, "
                f"{kinds.count('new_order')} new-order, "
                f"{kinds.count('payment')} payment"]

    def run_pass(self, log: RunLog, book: CycleBook, tracer=None) -> None:
        for layout in LAYOUTS:
            database, checkpoint, data = self.state[layout]
            log.clock.tick()
            start = time.perf_counter()
            database.address_space.restore(checkpoint)
            database.data_restore(data)
            session = Session(database, self.profile, engine="vectorized")
            log.program_seconds += log.clock.normalise(time.perf_counter() - start)
            oracle = AccountOracle(self.fresh)
            cycles_before = 0
            for number, txn in enumerate(self.transactions):
                key = f"{layout}/{number}/{txn.kind}"
                kind = f"{txn.kind}/{layout}"
                if tracer is not None:
                    tracer.op = key
                log.clock.tick()
                start = time.perf_counter()
                try:
                    session.execute_transaction(txn.statements)
                    error = None
                except Exception as exc:  # the transaction fails alone
                    error = f"{key}: {type(exc).__name__}: {exc}"
                seconds = log.clock.normalise(time.perf_counter() - start)
                log.program_seconds += seconds
                with tracer.pause() if tracer is not None else contextlib.nullcontext():
                    problem = check_transaction(key, database, txn.statements,
                                                oracle)
                cycles = session.processor.finalize().get("CPU_CLK_UNHALTED")
                if error is None:
                    problem = problem or book.check(key, cycles - cycles_before)
                cycles_before = cycles
                problem = error or problem
                log.ops.append(Op(key, kind, seconds, problem is None))
                if problem is not None:
                    log.fail(problem)
            if tracer is not None:
                tracer.observe(session, None)
        log.passes += 1

    @staticmethod
    def metrics(log: RunLog) -> Dict[str, dict]:
        return {
            "throughput_per_s": metric(len(log.ops) / log.program_seconds, "1/s"),
            "p50_a_ms": metric(kind_p50_ms(log, ("new_order/nsm",)), "ms"),
            "p50_b_ms": metric(kind_p50_ms(log, ("payment/nsm",)), "ms"),
            "p90_ms": metric(nearest_rank([op.seconds for op in log.ops], 0.9)
                             * 1e3, "ms")}
