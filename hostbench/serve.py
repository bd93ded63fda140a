"""``serve``: the default server under an open-loop trace on a virtual clock.

The benchmark draws the trace from the seed (see :func:`build_trace`):
IRS, SRS, ACS and SJ queries in fixed numbers per block, shuffled, with
constants from seeded template pools, and one point update of ``R.a3``
through the ``a2`` index per block.  Range windows start anywhere in the
``a2`` domain, except that an IRS window starts clear of
``templates.exclusive_low_defects``; SJ templates aggregate a column of R
or of S, in fixed shares.  A run is a fixed number of replays (``Workload.REPLAYS``),
all in this process: each serves the whole trace at one rate, arrivals
evenly spaced, through a fresh default ``Server`` (concurrency 8, plan
cache, result cache and shared scans, NSM) after restoring the build's
data.  Memory the program keeps from one replay stays for the next, as it
would in a long-lived server.

Time is virtual: submissions happen when the clock reaches an arrival,
and each round advances the clock by the host wall time it took,
normalised by the host's measured speed (``common.HostClock``).  A
query's latency runs from its arrival (its due time) to the end of the
round that served it.  When ``Server.step`` raises, the queries of that
round that have no outcome are failures, and so are queries whose rows or
simulated cycles are wrong.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.serving import Server
from repro.systems.vendors import SYSTEM_B
from repro.workloads.micro import MicroWorkload, MicroWorkloadConfig

from .common import CycleBook, HostClock, Op, RunLog, metric, nearest_rank
from .oracle import MicroOracle
from .templates import (JOIN_AGGREGATES, clear_of, exclusive_low_defects,
                        expected, to_query)

#: Queries per block of the trace, by class.  The trace is ``BLOCKS``
#: blocks, each a seeded shuffle of these queries followed by one point
#: update (2% of arrivals), so expensive classes cannot bunch up more under
#: one seed than another.  ``SJR`` and ``SJS`` are SJ queries aggregating a
#: column of R and of S (see ``templates.JOIN_AGGREGATES``).
BLOCK = {"IRS": 22, "SRS": 12, "ACS": 12, "SJR": 2, "SJS": 1}
BLOCKS = 2
#: Distinct templates per class and block.  Template ``k`` of a block's pool
#: recurs in proportion to 1 / (k + 1) (Zipf), so each block repeats
#: (22 - 14) + (12 - 8) + (12 - 8) + (2 - 1) = 17 of its queries: 34% of
#: arrivals are result-cache hits under every seed.  Each later block also
#: re-asks one IRS query of the block before, after the update between
#: them: a stale cached result would fail the oracle check.  With these
#: shares the slowest 10% at ``lo`` are the SJ queries, stalls and the
#: slowest ACS queries, so ``p90`` lands inside the ACS class instead of on
#: the edge between two classes.
TEMPLATES = {"IRS": 14, "SRS": 8, "ACS": 8, "SJR": 1, "SJS": 1}
#: Aggregates of the range templates (``function(a3)``, or ``count(*)``).
RANGE_AGGREGATES = ("avg", "sum", "min", "max", "count")

#: The two arrival rates, per second: at ``lo`` the server is idle most of
#: the time, so few arrivals queue behind a stall, at ``hi`` about a fifth
#: busy.  Near saturation, queueing
#: behind the stalls the program's garbage causes amplifies them, and a
#: percentile there jumps from run to run.
RATE_LO = 2.0
RATE_HI = 10.0
#: The rates of a run's replays, in the order they run: each rate sees
#: early and late replays alike.
SCHEDULE = (RATE_LO, RATE_HI) * 3

@dataclass
class Arrival:
    index: int
    kind: str
    template: tuple
    query: object
    rows: list


@dataclass
class Served:
    """One arrival's outcome in a replay."""

    index: int
    kind: str
    latency: float
    problem: Optional[str]
    hit: bool = False
    plan_hit: bool = False
    cycles: Optional[int] = None
    #: Interpreted executor-routine invocations the query was charged.
    routines: int = 0


@dataclass
class Replay:
    """What one replay of the trace at one rate measured."""

    rate: float
    served: List[Served] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)
    rounds: int = 0
    shared_reuses: int = 0
    #: Virtual seconds from the last arrival to the last completion.
    backlog: float = 0.0
    #: Server time: the seconds the rounds advanced the virtual clock by.
    busy: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for item in self.served if item.problem is not None)

    @property
    def hits(self) -> int:
        return sum(1 for item in self.served if item.hit and item.problem is None)


def zipf_counts(arrivals: int, templates: int) -> List[int]:
    """How often each of ``templates`` recurs among ``arrivals``: shares
    proportional to 1 / (k + 1), at least one each, largest remainders
    rounded up."""
    weights = [1.0 / (rank + 1) for rank in range(templates)]
    spare = arrivals - templates
    raw = [spare * weight / sum(weights) for weight in weights]
    counts = [1 + int(value) for value in raw]
    by_remainder = sorted(range(templates), key=lambda k: int(raw[k]) - raw[k])
    for k in by_remainder[:arrivals - sum(counts)]:
        counts[k] += 1
    return counts


def build_trace(config: MicroWorkloadConfig, seed: int,
                defects: FrozenSet[int]) -> List[tuple]:
    """``(class, template)`` per arrival, drawn from ``seed``; an IRS
    window starts clear of ``defects`` (see ``templates.clear_of``)."""
    rng = random.Random(seed)
    domain = config.a2_domain

    def shares(low: float, high: float):
        return range(round(low * domain), round(high * domain) + 1)

    def windows(low: float, high: float, indexed: bool):
        """Range templates of every width in the share range, anywhere in
        the domain (``a2`` runs from 1 to ``domain``)."""
        return [("range", first, first + width + 1, indexed, function)
                for width in shares(low, high)
                for start in range(domain - width + 1)
                for first in [clear_of(start, defects) if indexed else start]
                for function in RANGE_AGGREGATES]

    candidates = {
        "IRS": windows(0.04, 0.10, True),
        "SRS": windows(0.10, 0.50, False),
        "ACS": [("skewed", round(0.9 * config.r_rows), coin, narrow + 1)
                for coin in range(4_000, 6_001, 250)
                for narrow in shares(0.03, 0.08)],
        "SJR": [("join",) + aggregate for aggregate in JOIN_AGGREGATES["SJR"]],
        "SJS": [("join",) + aggregate for aggregate in JOIN_AGGREGATES["SJS"]],
    }
    pools = {kind: rng.sample(candidates[kind], count * BLOCKS)
             for kind, count in TEMPLATES.items()}
    trace = []
    for block in range(BLOCKS):
        queries = []
        for kind, count in TEMPLATES.items():
            pool = pools[kind][block * count:(block + 1) * count]
            if block and kind == "IRS":
                pool[-1] = pools[kind][block * count - 1]
            queries += [(kind, template) for template, repeats
                        in zip(pool, zipf_counts(BLOCK[kind], count))
                        for _ in range(repeats)]
        rng.shuffle(queries)
        trace += queries
        trace.append(("UPD", ("update", rng.randint(1, domain),
                              rng.randrange(10_000))))
    return trace


def replay(server: Server, arrivals: Sequence[Arrival], rate: float,
           clock: Optional[HostClock] = None) -> Replay:
    """Serve ``arrivals`` at ``rate`` per second; check every outcome's rows.

    A round submits the arrivals that are due and calls ``Server.step``;
    its wall time advances the virtual clock.  So does the benchmark's
    bookkeeping after the round: it is short, and a garbage-collection
    pause that lands in it stalls the server's process all the same.  With
    a ``clock``, wall times are normalised, so the queue behaves as on the
    reference host; the clock's samples are taken outside the timing.
    """
    out = Replay(rate=rate)
    due = [position / rate for position in range(len(arrivals))]
    now = 0.0
    next_up = 0
    waiting: deque = deque()  # (arrival, due time, future), in queue order

    def elapsed_since(start: float) -> float:
        seconds = time.perf_counter() - start
        return clock.normalise(seconds) if clock is not None else seconds

    while len(out.served) < len(arrivals):
        if not waiting:
            now = max(now, due[next_up])
        if clock is not None:
            clock.tick()
        start = time.perf_counter()
        while next_up < len(arrivals) and due[next_up] <= now:
            arrival = arrivals[next_up]
            waiting.append((arrival, due[next_up],
                            server.submit(arrival.query, label=arrival.kind)))
            next_up += 1
        depth = server.queue_depth
        try:
            server.step()
            error = None
        except Exception as exc:  # the round's unserved queries fail
            error = exc
        elapsed = elapsed_since(start)
        done = now + elapsed
        out.rounds += 1
        start = time.perf_counter()
        for _ in range(depth - server.queue_depth):
            arrival, arrived, future = waiting.popleft()
            out.queue_waits.append(now - arrived)
            outcome = future.outcome
            label = f"arrival {arrival.index} ({arrival.kind}) at {rate:g}/s"
            if outcome is None:
                out.served.append(Served(
                    arrival.index, arrival.kind, done - arrived,
                    f"{label}: not served, its round raised "
                    f"{type(error).__name__}: {error}"))
                continue
            problem = None
            if outcome.rows != arrival.rows:
                problem = f"{label}: rows {outcome.rows}, oracle {arrival.rows}"
            out.served.append(Served(
                arrival.index, arrival.kind, done - arrived, problem,
                outcome.result_cached, outcome.plan_cached, outcome.cycles,
                outcome.result.total_routine_invocations))
        elapsed += elapsed_since(start)
        now += elapsed
        out.busy += elapsed
    out.backlog = now - due[-1]
    out.shared_reuses = server.stats.shared_scan_reuses
    return out


def percentile_ms(replays: Sequence[Replay], fraction: float) -> float:
    """Nearest-rank latency percentile, in ms, over every arrival of
    ``replays``, failed or not (as ``dss`` and ``oltp`` time failed
    operations too)."""
    return nearest_rank([item.latency for rep in replays for item in rep.served],
                        fraction) * 1e3


class Workload:
    name = "serve"
    #: Replays per run, one per entry of :data:`SCHEDULE`.  The count is
    #: fixed, not set by ``--seconds``, so what the program keeps between
    #: replays weighs the same in every run.
    REPLAYS = len(SCHEDULE)
    min_passes = max_passes = REPLAYS

    def __init__(self, seeds: Dict[str, int]) -> None:
        self.micro = MicroWorkload(MicroWorkloadConfig(seed=seeds["micro"]))
        self.trace_seed = seeds["trace"]
        self.trace: List[tuple] = []
        self.state = None
        self.replays: Dict[float, List[Replay]] = {}

    def build(self):
        database = self.micro.build(layout_style="nsm")
        self.micro.create_selection_index(database)
        return (database, database.address_space.checkpoint(),
                database.data_checkpoint())

    def prepare(self, state) -> None:
        self.state = state
        self.trace = build_trace(self.micro.config, self.trace_seed,
                                 exclusive_low_defects(state[0]))
        oracle = MicroOracle(self.micro.generate_r_rows(),
                             self.micro.generate_s_rows())
        self.arrivals = [Arrival(index, kind, template,
                                 to_query(template, kind),
                                 expected(oracle, template))
                         for index, (kind, template) in enumerate(self.trace)]

    def describe(self) -> List[str]:
        seen, repeats = set(), 0
        for _, template in self.trace:
            repeats += template in seen
            seen.add(template)
        return [f"serve: {len(self.trace)} arrivals, {repeats} repeat an "
                f"earlier query, {BLOCKS} updates; replays at {SCHEDULE}/s"]

    def new_server(self) -> Server:
        database, checkpoint, _ = self.state
        return Server(database, checkpoint, SYSTEM_B)

    def run_pass(self, log: RunLog, book: CycleBook, tracer=None) -> None:
        """The run's next replay of the trace (see :data:`SCHEDULE`):
        restore the data, open a fresh server and serve every arrival."""
        rate = SCHEDULE[log.passes]
        if tracer is not None:
            tracer.op = f"rate {rate:g}/s"
        database, _, data = self.state
        log.clock.tick()
        start = time.perf_counter()
        database.data_restore(data)
        server = self.new_server()
        log.program_seconds += log.clock.normalise(time.perf_counter() - start)
        result = replay(server, self.arrivals, rate, log.clock)
        log.program_seconds += result.busy
        if tracer is not None:
            tracer.observe_replay(result)
        for item in result.served:
            if item.cycles is not None:
                problem = book.check(str(item.index), item.cycles)
                if problem is not None and item.problem is None:
                    item.problem = f"arrival {item.index} at {rate:g}/s: {problem}"
            log.ops.append(Op(str(item.index), item.kind, item.latency,
                              item.problem is None))
            if item.problem is not None:
                log.fail(item.problem)
        self.replays.setdefault(rate, []).append(result)
        log.passes += 1

    def metrics(self, log: RunLog) -> Dict[str, dict]:
        """Latency percentiles per rate; throughput is arrivals per second
        of server time (the virtual clock's advances) over every replay."""
        replays = [rep for reps in self.replays.values() for rep in reps]
        served = sum(len(rep.served) for rep in replays)
        return {
            "throughput_per_s": metric(served / sum(rep.busy for rep in replays),
                                       "1/s"),
            "p50_a_ms": metric(percentile_ms(self.replays[RATE_LO], 0.5), "ms"),
            "p50_b_ms": metric(percentile_ms(self.replays[RATE_HI], 0.5), "ms"),
            "p90_ms": metric(percentile_ms(self.replays[RATE_LO], 0.9), "ms")}

    def diagnostics(self) -> List[str]:
        """Cache use per replay and where each reported percentile falls."""
        lines = []
        for rate, replays in sorted(self.replays.items()):
            for rep in replays:
                executed = [item for item in rep.served
                            if not item.hit and item.kind != "UPD"]
                lines.append(
                    f"serve @ {rate:g}/s: p50 {percentile_ms([rep], 0.5):.2f} ms, "
                    f"p90 {percentile_ms([rep], 0.9):.2f} ms, backlog "
                    f"{rep.backlog * 1e3:.1f} ms, result-cache hits "
                    f"{rep.hits}/{len(rep.served)}, plan-cache hits "
                    f"{sum(item.plan_hit for item in executed)}/{len(executed)}, "
                    f"shared-scan reuses {rep.shared_reuses}, rounds {rep.rounds}, "
                    f"failed {rep.failed}, busy {rep.busy:.2f} s")
        for name, rate, fraction in (("p50 lo", RATE_LO, 0.5),
                                     ("p50 hi", RATE_HI, 0.5),
                                     ("p90 lo", RATE_LO, 0.9),
                                     ("p90 hi", RATE_HI, 0.9)):
            lines.append(f"serve {name} (last replay): "
                         f"{_neighbourhood(self.replays[rate][-1], fraction)}")
        return lines


def _neighbourhood(rep: Replay, fraction: float) -> str:
    """The arrivals ranked just below, at and above a percentile."""
    ranked = sorted(rep.served, key=lambda item: (item.problem is not None,
                                                  item.latency))
    rank = max(-(-int(fraction * 1000) * len(ranked) // 1000), 1) - 1
    cells = []
    for position in range(max(rank - 2, 0), min(rank + 3, len(ranked))):
        item = ranked[position]
        tag = "failed" if item.problem else ("hit" if item.hit else "miss")
        mark = "*" if position == rank else ""
        cells.append(f"{mark}{item.kind}/{tag} {item.latency * 1e3:.2f}ms")
    return ", ".join(cells)
