"""The traced run: spans around each layer's public functions.

:class:`Tracer` replaces the functions :func:`targets` lists with
wrappers that record one span per call: name, start, end, parent span and
the benchmark's current operation id.  A generator function's span covers
each resumption, so a scan's span is the time spent producing records, not
the time its consumer holds it.  Spans are kept in memory (up to
:data:`SPAN_CAP`; every span is aggregated regardless) and written as JSON
when the run ends.  A span's self time is its duration minus the time of
the spans nested in it; a layer's self time is the sum over its functions.

Installing the tracer changes no simulated count: the wrappers only read
the host clock.  The run checks this by comparing every traced operation's
simulated cycles with the untraced pass that precedes tracing.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.adaptive.manager import AdaptiveExecution
from repro.engine import session as session_module
from repro.engine.database import Database
from repro.engine.session import Session
from repro.execution import executor
from repro.execution.context import ExecutionContext
from repro.execution.kernels import python_backend
from repro.hardware.processor import SimulatedProcessor
from repro.index.btree import BTreeIndex
from repro.query.planner import Planner
from repro.serving.cache import PlanCache, ResultCache
from repro.serving.server import Server
from repro.storage.address_space import AddressSpace
from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import Table
from repro.storage.heapfile import HeapFile
from repro.storage.page import PaxPage, SlottedPage

#: Spans kept for the JSON file; later spans are only aggregated.
SPAN_CAP = 200_000

_KERNEL_METHODS = tuple(name for name, value in vars(python_backend.PythonKernels).items()
                        if inspect.isfunction(value) and not name.startswith("_"))
_PROCESSOR_METHODS = ("fetch_code", "fetch_code_run", "retire", "charge_routine",
                      "data_read", "data_write", "data_read_span",
                      "data_read_strided", "data_write_strided",
                      "count_data_refs", "branch", "count_branches",
                      "add_resource_stalls", "record_done")
_CONTEXT_METHODS = ("visit", "visit_batch", "visit_conjunct_batch",
                    "read_address", "write_address", "read_fields",
                    "read_record", "write_record", "read_column_batch",
                    "read_column_group_batch", "page_io_out", "page_io_in")


def _kernel_classes():
    classes = [python_backend.PythonKernels]
    try:
        from repro.execution.kernels.array_backend import ArrayKernels
    except ImportError:  # numpy missing: only the Python kernels exist
        return classes
    return classes + [ArrayKernels]


def targets() -> List[Tuple[str, object, str]]:
    """``(layer, owner, attribute)`` of every timed function."""
    out = [("query", Planner, "plan"), ("query", Planner, "estimate_selectivity")]
    out += [("storage", HeapFile, name)
            for name in ("scan", "scan_pages", "fetch", "read_values")]
    out += [("storage", Table, "update"), ("storage", SlottedPage, "field_values"),
            ("storage", PaxPage, "column_values"),
            ("storage", AddressSpace, "restore"),
            ("storage", Database, "data_restore"),
            ("storage", BufferPool, "fetch_page"),
            ("storage", BufferPool, "allocate_page")]
    out += [("index", BTreeIndex, "search"), ("index", BTreeIndex, "range_search")]
    # Session imports the executor's entry points by name: time both names.
    for module in (executor, session_module):
        out += [("execution", module, "execute_plan"),
                ("execution", module, "execute_update")]
    for cls in _kernel_classes():
        out += [("kernel", cls, name) for name in _KERNEL_METHODS
                if name in vars(cls)]
    out += [("hardware", SimulatedProcessor, name) for name in _PROCESSOR_METHODS]
    out += [("hardware", ExecutionContext, name) for name in _CONTEXT_METHODS]
    out += [("adaptive", AdaptiveExecution, "evaluate_batch"),
            ("adaptive", AdaptiveExecution, "plan_for")]
    out += [("engine", Session, "__init__")]
    out += [("serving", Server, "submit"), ("serving", Server, "step")]
    out += [("serving", cache, name) for cache in (ResultCache, PlanCache)
            for name in ("get", "put")]
    out += [("setup", Database, "load"), ("setup", Database, "create_index")]
    return out


class _Frame:
    __slots__ = ("name", "start", "children", "index")

    def __init__(self, name: str, start: float, index: int) -> None:
        self.name = name
        self.start = start
        self.children = 0.0
        self.index = index


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self) -> None:
        self.layer_of: Dict[str, str] = {}
        self.stack: List[_Frame] = []
        #: name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans: List[list] = []
        self.dropped = 0
        self.counts: Dict[str, float] = defaultdict(float)
        self.op: Optional[str] = None
        self.queue_waits: List[float] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._planning = 0
        #: While set, wrapped calls run untimed (the benchmark's own checks).
        self.paused = False

    # ------------------------------------------------------------ spans
    def _enter(self, name: str) -> _Frame:
        parent = self.stack[-1].index if self.stack else -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        else:
            index = -1
            self.dropped += 1
        frame = _Frame(name, time.perf_counter(), index)
        if index >= 0:
            self.spans[index][1] = frame.start
        outer = self.stack[-1].name if self.stack else None
        if outer is None or self.layer_of[outer] != self.layer_of[name]:
            self.counts[f"{self.layer_of[name]}.entries"] += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame.start
        if self.stack:
            self.stack[-1].children += duration
        record = self.stats[frame.name]
        record[0] += 1
        record[1] += duration
        record[2] += duration - frame.children
        if frame.index >= 0:
            self.spans[frame.index][2] = end

    def _wrap(self, name: str, function):
        tracer = self
        if inspect.isgeneratorfunction(function):
            counts_records = name in ("HeapFile.scan", "HeapFile.scan_pages")

            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                if tracer.paused:
                    yield from function(*args, **kwargs)
                    return
                tracer.counts[f"{name}.calls"] += 1
                inner = function(*args, **kwargs)
                try:
                    while True:
                        frame = tracer._enter(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(frame)
                        if counts_records:
                            records = 1 if name == "HeapFile.scan" else len(item[1])
                            tracer.counts["storage.records"] += records
                            if tracer._planning:
                                tracer.counts["query.rows_examined"] += records
                        yield item
                finally:
                    inner.close()
            return generator_wrapper

        planner = name == "Planner.plan"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return function(*args, **kwargs)
            frame = tracer._enter(name)
            if planner:
                tracer._planning += 1
            try:
                return function(*args, **kwargs)
            finally:
                if planner:
                    tracer._planning -= 1
                tracer._exit(frame)
        return wrapper

    # ------------------------------------------------------- install
    def install(self) -> None:
        for layer, owner, attribute in targets():
            original = getattr(owner, attribute)
            owner_name = getattr(owner, "__name__", "").rsplit(".", 1)[-1]
            name = f"{owner_name}.{attribute}"
            if owner in (executor, session_module):
                name = attribute
            self.layer_of[name] = layer
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))

    @contextlib.contextmanager
    def pause(self):
        """Run the enclosed calls untimed and uncounted."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------ readings
    def snapshot(self) -> Dict[str, float]:
        """Self seconds per layer plus the counters, as of now."""
        out: Dict[str, float] = defaultdict(float)
        for name, (calls, total, self_seconds) in self.stats.items():
            layer = self.layer_of[name]
            out[f"{layer}.self"] += self_seconds
            out[f"{name}.n"] += calls
            out[f"{name}.total"] += total
            out[f"{name}.self"] += self_seconds
        out.update(self.counts)
        return out

    def observe(self, session, result) -> None:
        """Counters an operation's session and ``QueryResult`` expose once
        it is done (``result`` is ``None`` for a transaction stream)."""
        counts = self.counts
        context = session.context
        counts["storage.spill_pages"] += context.io_stats["page_writes"]
        if result is None:
            counts["execution.routines"] += sum(context.op_invocations.values())
        else:
            counts["execution.routines"] += sum(result.routine_invocations.values())

    def observe_replay(self, replay) -> None:
        """Serving counters of one ``serve`` replay."""
        counts = self.counts
        executed = [item for item in replay.served
                    if not item.hit and item.kind != "UPD"]
        counts["serving.hits"] += replay.hits
        counts["serving.executed"] += len(executed)
        counts["serving.plan_hits"] += sum(item.plan_hit for item in executed)
        counts["serving.completed"] += len(replay.served)
        counts["serving.shared_scan_reuses"] += replay.shared_reuses
        counts["serving.rounds"] += replay.rounds
        counts["execution.routines"] += sum(item.routines for item in replay.served)
        self.queue_waits.extend(replay.queue_waits)

    def write(self, path: str, meta: dict) -> None:
        payload = dict(meta)
        payload["functions"] = {name: {"layer": self.layer_of[name], "calls": stat[0],
                                       "total_s": stat[1], "self_s": stat[2]}
                                for name, stat in sorted(self.stats.items())}
        payload["counts"] = dict(self.counts)
        payload["spans_kept"] = len(self.spans)
        payload["spans_not_kept"] = self.dropped
        payload["span_fields"] = ["name", "start", "end", "parent", "op"]
        payload["spans"] = self.spans
        with open(path, "w") as handle:
            json.dump(payload, handle)


def layer_metrics(before: Dict[str, float], after: Dict[str, float],
                  passes: int, traced_wall: float, untraced_pass: float,
                  traced_passes: List[float], setup: Tuple[float, float],
                  queue_waits: List[float], sim_cycles: int) -> Dict[str, dict]:
    """Per-pass layer metrics from two :meth:`Tracer.snapshot` readings."""
    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    def per_pass(key: str) -> float:
        return delta(key) / passes

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def seconds(*names: str) -> float:
        return sum(per_pass(f"{name}.self") for name in names)

    layers = ("query", "storage", "index", "execution", "kernel", "hardware",
              "adaptive", "engine", "serving", "setup")
    attributed = sum(delta(f"{layer}.self") for layer in layers)
    plans = delta("Planner.plan.n")
    m = {
        "query.plan_s": (per_pass("query.self"), "s"),
        "query.plan_calls": (plans / passes, "count"),
        "query.rows_examined_per_plan": (ratio(delta("query.rows_examined"), plans), "count"),
        "storage.scan_s": (seconds("HeapFile.scan", "HeapFile.scan_pages",
                                   "HeapFile.fetch", "BufferPool.fetch_page",
                                   "BufferPool.allocate_page"), "s"),
        "storage.decode_s": (seconds("HeapFile.read_values", "Table.update",
                                     "SlottedPage.field_values",
                                     "PaxPage.column_values"), "s"),
        "storage.restore_s": (seconds("AddressSpace.restore",
                                      "Database.data_restore"), "s"),
        "storage.records_scanned": (per_pass("storage.records"), "count"),
        "storage.spill_pages": (per_pass("storage.spill_pages"), "count"),
        "index.probe_s": (per_pass("index.self"), "s"),
        "index.probes": (per_pass("BTreeIndex.range_search.calls"), "count"),
        "execution.self_s": (per_pass("execution.self"), "s"),
        "execution.kernel_s": (per_pass("kernel.self"), "s"),
        "execution.routine_invocations": (per_pass("execution.routines"), "count"),
        "hardware.charge_s": (per_pass("hardware.self"), "s"),
        "hardware.charge_calls": (per_pass("hardware.entries"), "count"),
        "hardware.sim_cycles": (sim_cycles, "count"),
        "adaptive.s": (per_pass("adaptive.self"), "s"),
        "engine.session_setup_s": (per_pass("engine.self"), "s"),
        "engine.sessions": (per_pass("Session.__init__.n"), "count"),
        "serving.self_s": (per_pass("serving.self"), "s"),
        "serving.result_hit_ratio": (ratio(delta("serving.hits"),
                                           delta("serving.completed")), "ratio"),
        "serving.plan_hit_ratio": (ratio(delta("serving.plan_hits"),
                                         delta("serving.executed")), "ratio"),
        "serving.shared_scan_reuses": (per_pass("serving.shared_scan_reuses"), "count"),
        "serving.queue_wait_ms_p50": ((statistics.median(queue_waits) * 1e3
                                       if queue_waits else 0.0), "ms"),
        "serving.admitted_per_round": (ratio(delta("serving.completed"),
                                             delta("serving.rounds")), "count"),
        "setup.load_s": (setup[0], "s"),
        "setup.index_s": (setup[1], "s"),
        "trace.overhead_ratio": (ratio(statistics.median(traced_passes),
                                       untraced_pass), "ratio"),
        "trace.unattributed_ratio": (ratio(traced_wall - attributed, traced_wall),
                                     "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
