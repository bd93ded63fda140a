"""Shared pieces of the host-time benchmark: seeds, run records, statistics.

Every workload module (``dss``, ``oltp``, ``serve``) turns one ``--seed``
into its inputs through :func:`derive_seeds`, runs its timed phase into a
:class:`RunLog`, and reports :func:`common_metrics` plus its own.  Nothing
here touches the engine: the statistics are computed by the benchmark
itself, never by helpers of the program under test.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

#: The seed whose simulated-cycle totals are committed in ``golden.json``.
DEFAULT_SEED = 0
#: Stride between the generator seeds of consecutive ``--seed`` values.  A
#: prime far above the few offsets each generator adds to its own seed
#: (``MicroWorkload`` draws R from ``seed`` and S from ``seed + 1``), so no
#: two ``--seed`` values share a random stream.
SEED_STRIDE = 7919
#: The set-up is repeated at least ``SETUP_REPEATS`` times and until
#: ``SETUP_SECONDS`` have gone, at most ``SETUP_MAX_REPEATS`` times, for the
#: ``setup_s`` median: a cheap set-up needs more samples to be steady.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 25
#: Seconds :func:`calibration_burst` takes on the reference host: the fast
#: speed state of the 2-core container ``steadiness.json`` was measured on.
REFERENCE_BURST_S = 0.0035
#: Host seconds between two calibration samples.
BURST_EVERY_S = 0.2


def derive_seeds(seed: int) -> Dict[str, int]:
    """The generator seeds one ``--seed`` feeds.

    Seed 0 gives the repository's default configuration seeds (micro 1999,
    TPC-D 2025, TPC-C 4242 and its transaction stream 4249), so the
    default-seed goldens describe the same databases the figures use.
    """
    if seed < 0:
        raise ValueError("--seed must be a non-negative integer")
    offset = SEED_STRIDE * seed
    return {"micro": 1999 + offset, "tpcd": 2025 + offset,
            "tpcc": 4242 + offset, "txn": 4249 + offset,
            "trace": 2026 + offset, "params": 31 + offset}


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: an observed value, never an interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(math.ceil(fraction * len(ordered)), 1)
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_burst() -> float:
    """Seconds a fixed pure-Python loop (dict reads and writes, integer
    arithmetic) takes now: the host's current speed."""
    table = dict.fromkeys(range(1024), 1)
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        table[i & 1023] = i
        total += table[(i * 7) & 1023] % 13
    return time.perf_counter() - start


class HostClock:
    """Host-speed samples taken through a run, to normalise its times.

    The shared container this benchmark was built on drifts between speed
    states: a fixed loop and a query slow down together by up to 1.6x for
    seconds at a time, while their ratio stays within about 7%.  Every
    reported time is therefore divided by the host's slowdown: the median
    of the last three samples of :func:`calibration_burst` over
    :data:`REFERENCE_BURST_S`.  Samples are taken between operations, at
    most every :data:`BURST_EVERY_S`.  A change to the program moves the
    normalised times fully, because the loop does not run program code.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        """Take a sample if the last one is older than ``BURST_EVERY_S``.

        A sample is the faster of two bursts in a row: the first often runs
        with the previous operation's data in the caches."""
        now = time.perf_counter()
        if now - self._last >= BURST_EVERY_S:
            self.samples.append(min(calibration_burst(), calibration_burst()))
            self._last = time.perf_counter()

    def slowdown(self) -> float:
        if not self.samples:
            self.tick()
        return statistics.median(self.samples[-3:]) / REFERENCE_BURST_S

    def normalise(self, seconds: float) -> float:
        """``seconds`` of host time as the reference host would take them."""
        return seconds / self.slowdown()


def timed_setups(build: Callable[[], object], clock: HostClock):
    """Run ``build`` repeatedly; return (last result, median seconds).

    Each repetition builds everything anew, so the median is the
    cost a fresh process pays; the last build is the one the run uses.
    Durations are normalised by ``clock``.
    """
    durations: List[float] = []
    built = None
    began = time.perf_counter()
    while (len(durations) < SETUP_REPEATS
           or (time.perf_counter() - began < SETUP_SECONDS
               and len(durations) < SETUP_MAX_REPEATS)):
        built = None  # release the previous build before timing the next
        clock.tick()
        start = time.perf_counter()
        built = build()
        durations.append(clock.normalise(time.perf_counter() - start))
    return built, statistics.median(durations)


def run_passes(workload, log, book, seconds: float, started: float,
               tracer=None) -> List[float]:
    """Whole passes while another one fits in ``seconds`` since ``started``.

    At least ``workload.min_passes`` passes run, and at most
    ``workload.max_passes`` when that is not ``None`` (``serve`` runs a
    fixed number of replays).  Whole passes keep each run's mix of
    operations exact.  The process's peak resident set size is recorded
    after the first pass, or after the last of a fixed number, so
    ``peak_rss_mb`` describes a fixed amount of work however many passes
    fit.  Returns the wall seconds of each pass.
    """
    durations = []
    while True:
        if tracer is not None:
            tracer.op = f"pass {log.passes}"
        start = time.perf_counter()
        workload.run_pass(log, book, tracer)
        durations.append(time.perf_counter() - start)
        if log.passes <= (workload.max_passes or 1):
            log.peak_rss_mb = peak_rss_mb()
        if workload.max_passes is not None and log.passes >= workload.max_passes:
            return durations
        if (log.passes >= workload.min_passes
                and time.perf_counter() - started + durations[-1] > seconds):
            return durations


@dataclass
class Op:
    """One timed operation of a workload."""

    key: str
    kind: str
    seconds: float
    ok: bool


@dataclass
class RunLog:
    """Everything a workload's timed phase produced.

    ``program_seconds`` is host time spent inside the program (operations
    plus per-pass restores and session set-up); the benchmark's own checks
    run outside it.  Operation and program seconds are normalised by
    ``clock``.  ``failures`` holds one line per failed operation.
    """

    ops: List[Op] = field(default_factory=list)
    program_seconds: float = 0.0
    passes: int = 0
    failures: List[str] = field(default_factory=list)
    #: Peak resident set size, in MB (see :func:`run_passes`).
    peak_rss_mb: Optional[float] = None
    clock: HostClock = field(default_factory=HostClock)

    def fail(self, message: str) -> None:
        if len(self.failures) < 50:
            self.failures.append(message)
        elif len(self.failures) == 50:
            self.failures.append("... further failures not listed")

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)


class CycleBook:
    """Per-operation simulated-cycle checks.

    Every operation key must report the same cycles on every repeat in the
    run, and, for the default seed, the committed golden value.
    """

    def __init__(self, workload: str, seed: int, use_golden: bool = True) -> None:
        self.first: Dict[str, int] = {}
        self.golden: Optional[Dict[str, int]] = None
        if use_golden and seed == DEFAULT_SEED:
            with open(GOLDEN_PATH) as handle:
                self.golden = json.load(handle)[workload]["ops"]

    def check(self, key: str, cycles: int) -> Optional[str]:
        """``None`` when ``cycles`` is right for ``key``, else the reason."""
        seen = self.first.setdefault(key, cycles)
        if seen != cycles:
            return f"{key}: {cycles} simulated cycles, {seen} on the first repeat"
        if self.golden is not None:
            expected = self.golden.get(key)
            if expected != cycles:
                return f"{key}: {cycles} simulated cycles, golden {expected}"
        return None

    def pass_total(self) -> int:
        return sum(self.first.values())


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def common_metrics(log: RunLog, setup_seconds: float) -> Dict[str, dict]:
    """The end-to-end metrics every workload reports the same way."""
    attempted = max(log.attempted, 1)
    return {"setup_s": metric(setup_seconds, "s"),
            "peak_rss_mb": metric(log.peak_rss_mb, "MB"),
            "success_ratio": metric((attempted - log.failed) / attempted, "ratio")}


def kind_p50_ms(log: RunLog, kinds: Sequence[str]) -> float:
    """Median latency, in ms, of the operations whose kind is in ``kinds``."""
    values = [op.seconds for op in log.ops if op.kind in kinds]
    return nearest_rank(values, 0.5) * 1e3
