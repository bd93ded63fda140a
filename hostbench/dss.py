"""``dss``: the figure-regeneration mix, one closed-loop client.

One pass runs, on warmed NSM and PAX builds:

* the 17-query TPC-D suite on the vectorized engine, one session per layout;
* SRS, IRS and SJ on the tuple and on the vectorized engine, one fresh
  session per query (the grid discipline: restore the build's address-space
  checkpoint, then open a session);
* the skewed-conjunct selection (ACS) under ``adaptivity="greedy"``;
* SJ under a memory budget of half the build side's bytes, which sends the
  join through the spilling buffer pool (the unbudgeted SJ is the
  vectorized SJ above).

The SRS and IRS windows (width and start), the SJ aggregate (``avg`` or
``sum`` of ``S.a3``, see ``templates.JOIN_AGGREGATES``) and the
ACS narrow bound are drawn from the seed once per run, so every pass
repeats the same 50 operations.  The IRS window starts clear of
``templates.exclusive_low_defects``.  Micro rows are checked against the
oracle, TPC-D rows between NSM and PAX.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List, Tuple

from repro.engine.session import Session
from repro.systems.vendors import SYSTEM_B
from repro.workloads.micro import MicroWorkload, MicroWorkloadConfig
from repro.workloads.tpcd import TPCDConfig, TPCDWorkload

from .common import CycleBook, Op, RunLog, kind_p50_ms, metric, nearest_rank
from .oracle import MicroOracle
from .templates import (JOIN_AGGREGATES, clear_of, exclusive_low_defects,
                        expected, to_query)

LAYOUTS = ("nsm", "pax")
ENGINES = ("tuple", "vectorized")
#: TPC-D queries that are equijoins (the rest are selections).
TPCD_JOINS = {"Q12", "Q13", "Q14", "Q15", "Q16"}


def tpcd_config(seed: int) -> TPCDConfig:
    """The experiment runner's TPC-D size (5,000 lineitem rows)."""
    return TPCDConfig(lineitem_rows=5_000, orders_rows=500, part_rows=200,
                      supplier_rows=50, seed=seed)


class Workload:
    name = "dss"
    min_passes = 1
    max_passes = None

    def __init__(self, seeds: Dict[str, int]) -> None:
        self.micro = MicroWorkload(MicroWorkloadConfig(seed=seeds["micro"]))
        self.tpcd = TPCDWorkload(tpcd_config(seeds["tpcd"]))
        self.params_seed = seeds["params"]
        self.budget = self.micro.config.s_bytes // 2
        self.state = None
        self.templates: Dict[str, tuple] = {}
        self.expected: Dict[str, list] = {}

    def draw_templates(self, defects) -> Dict[str, tuple]:
        """The run's micro templates; the IRS window starts clear of
        ``defects``."""
        config = self.micro.config
        rng = random.Random(self.params_seed)
        domain = config.a2_domain

        srs = round(rng.uniform(0.10, 0.30) * domain)
        irs = round(rng.uniform(0.06, 0.10) * domain)
        narrow = round(rng.uniform(0.04, 0.07) * domain) + 1
        srs_low = rng.randint(0, domain - srs)
        irs_low = clear_of(rng.randint(0, domain - irs), defects)
        return {
            "SRS": ("range", srs_low, srs_low + srs + 1, False, "avg"),
            "IRS": ("range", irs_low, irs_low + irs + 1, True, "avg"),
            "SJ": ("join",) + rng.choice(JOIN_AGGREGATES["SJS"]),
            "ACS": ("skewed", round(0.9 * config.r_rows), 5_000, narrow),
        }

    # ------------------------------------------------------------- set-up
    def build(self):
        state = {}
        for layout in LAYOUTS:
            micro_db = self.micro.build(layout_style=layout)
            self.micro.create_selection_index(micro_db)
            tpcd_db = self.tpcd.build(layout_style=layout)
            state[layout] = {
                "micro": (micro_db, micro_db.address_space.checkpoint()),
                "tpcd": (tpcd_db, tpcd_db.address_space.checkpoint())}
        return state

    def prepare(self, state) -> None:
        self.state = state
        self.templates = self.draw_templates(frozenset().union(
            *(exclusive_low_defects(state[layout]["micro"][0])
              for layout in LAYOUTS)))
        oracle = MicroOracle(self.micro.generate_r_rows(),
                             self.micro.generate_s_rows())
        self.expected = {kind: expected(oracle, template)
                         for kind, template in self.templates.items()}
        self.suite = self.tpcd.queries()

    def describe(self) -> List[str]:
        return [f"dss templates: {self.templates}; SJ budget {self.budget} B"]

    # --------------------------------------------------------------- pass
    def _micro_ops(self) -> List[Tuple[str, str, str, dict]]:
        """``(key, layout, template kind, session options)`` of one pass."""
        ops = []
        for layout in LAYOUTS:
            for engine in ENGINES:
                for kind in ("SRS", "IRS", "SJ"):
                    ops.append((f"{layout}/{engine}/{kind}", layout, kind,
                                {"engine": engine}))
            ops.append((f"{layout}/greedy/ACS", layout, "ACS",
                        {"engine": "vectorized", "adaptivity": "greedy"}))
            ops.append((f"{layout}/budget-half/SJ", layout, "SJ",
                        {"engine": "vectorized",
                         "memory_budget_bytes": self.budget}))
        return ops

    def run_pass(self, log: RunLog, book: CycleBook, tracer=None) -> None:
        reference: Dict[str, list] = {}
        for layout in LAYOUTS:
            database, checkpoint = self.state[layout]["tpcd"]
            log.clock.tick()
            start = time.perf_counter()
            database.address_space.restore(checkpoint)
            session = Session(database, SYSTEM_B, engine="vectorized")
            opened = time.perf_counter() - start
            for query in self.suite:
                key = f"{layout}/tpcd/{query.label}"
                kind = "join" if query.label in TPCD_JOINS else "select"
                if tracer is not None:
                    tracer.op = key
                log.clock.tick()
                start = time.perf_counter()
                try:
                    result = session.execute(query, warmup_runs=0)
                except Exception as exc:  # one failed query fails alone
                    seconds = time.perf_counter() - start + opened
                    self._record(log, key, kind, seconds,
                                 f"{key}: {type(exc).__name__}: {exc}", None, None)
                    continue
                seconds = time.perf_counter() - start + opened
                opened = 0.0
                problem = book.check(key, result.counters.get("CPU_CLK_UNHALTED"))
                rows = reference.setdefault(query.label, result.rows)
                if problem is None and rows != result.rows:
                    problem = f"{key}: rows {result.rows} differ from NSM {rows}"
                self._record(log, key, kind, seconds, problem, tracer,
                             session, result)

        for key, layout, kind, options in self._micro_ops():
            database, checkpoint = self.state[layout]["micro"]
            query = to_query(self.templates[kind], kind)
            if tracer is not None:
                tracer.op = key
            log.clock.tick()
            start = time.perf_counter()
            try:
                database.address_space.restore(checkpoint)
                session = Session(database, SYSTEM_B, **options)
                result = session.execute(query, warmup_runs=0)
            except Exception as exc:
                self._record(log, key, "join" if kind == "SJ" else "select",
                             time.perf_counter() - start,
                             f"{key}: {type(exc).__name__}: {exc}", None, None)
                continue
            seconds = time.perf_counter() - start
            problem = book.check(key, result.counters.get("CPU_CLK_UNHALTED"))
            if problem is None and result.rows != self.expected[kind]:
                problem = f"{key}: rows {result.rows}, oracle {self.expected[kind]}"
            self._record(log, key, "join" if kind == "SJ" else "select",
                         seconds, problem, tracer, session, result)
        log.passes += 1

    @staticmethod
    def _record(log: RunLog, key: str, kind: str, seconds: float, problem,
                tracer, session, result=None) -> None:
        seconds = log.clock.normalise(seconds)
        log.ops.append(Op(key, kind, seconds, problem is None))
        log.program_seconds += seconds
        if problem is not None:
            log.fail(problem)
        if tracer is not None and result is not None:
            tracer.observe(session, result)

    # ------------------------------------------------------------ metrics
    @staticmethod
    def metrics(log: RunLog) -> Dict[str, dict]:
        """``p90_ms`` is the median over passes of each pass's p90.

        A pass has 50 fixed operations, so the p90 of all operations sits
        exactly between the fifth and the sixth slowest operation of every
        pass and reads the slowest repeat of the sixth; one pass's p90 is
        the sixth slowest operation itself.
        """
        per_pass = len(log.ops) // log.passes
        p90s = [nearest_rank([op.seconds for op in log.ops[start:start + per_pass]], 0.9)
                for start in range(0, len(log.ops), per_pass)]
        return {
            "throughput_per_s": metric(len(log.ops) / log.program_seconds, "1/s"),
            "p50_a_ms": metric(kind_p50_ms(log, ("select",)), "ms"),
            "p50_b_ms": metric(kind_p50_ms(log, ("join",)), "ms"),
            "p90_ms": metric(statistics.median(p90s) * 1e3, "ms")}
