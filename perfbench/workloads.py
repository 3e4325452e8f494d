"""The three workloads: set-up and the timed closed loop of each.

``wire_read`` and ``wire_update`` drive a gateway in its own process
over one TCP connection; ``engine_mix`` calls the engine in this
process.  A runner returns every operation it made as a :class:`Record`;
answers are checked afterwards, outside the timed window (see
:mod:`oracle`).  Times are read raw and scaled afterwards by the
machine-speed gauge (:class:`common.SpeedGauge`) probed between
operations.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.pqe import CompilationCache, ExtensionalPlanCache, evaluate

import inputs
from common import SpeedGauge, status_kb
from inputs import Catalog, Content, QuerySpec
from wire import Client, ServerProcess, query_line

#: Set-up runs this many times per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

WIRE_SETTINGS = {
    "wire_read": {"backend": "processes", "shards": 2},
    "wire_update": {
        "backend": "threads",
        "shards": 2,
        "journal_fsync": "always",
        # Superseded records past this many trigger a compaction: several
        # per run at the workload's register rate.
        "journal_auto_compact": 48,
    },
}


@dataclass
class Record:
    """One operation: a ``query`` of ``spec`` against ``content`` with
    the served ``answer``, or a ``register`` of ``content``.  ``error``
    holds the typed error of a request that was not answered."""

    phase: str  #: "setup" (the warm-up pass) or "window"
    kind: str
    latency_ms: float
    name: str = ""
    spec: QuerySpec | None = None
    content: Content | None = None
    answer: object = None
    error: str | None = None
    scale: float = 1.0  #: the speed gauge's scale for this operation

    @property
    def scaled_ms(self) -> float:
        return self.latency_ms * self.scale


@dataclass
class Run:
    setup_s: list = field(default_factory=list)  #: scaled, per set-up
    raw_setup_s: list = field(default_factory=list)
    window_s: float = 0.0  #: scaled time of the operations' slices
    raw_window_s: float = 0.0
    records: list = field(default_factory=list)
    peak_rss_mb: float = 0.0


def timed_setup(run: Run, gauge: SpeedGauge, setup):
    """Run ``setup()``, which probes the gauge between its operations
    and returns ``(result, seconds spent not probing)``; record its raw
    and scaled time and return its result."""
    first = len(gauge.probes)
    gauge.probe()
    result, seconds = setup()
    gauge.probe()
    run.raw_setup_s.append(seconds)
    run.setup_s.append(
        seconds * gauge.scale_between(first, len(gauge.probes)))
    return result


def timed_window(run: Run, gauge: SpeedGauge, seconds: float, step) -> None:
    """The closed loop: call ``step()``, which makes one operation and
    returns its records, for ``seconds``, probing the gauge between
    operations.  Each record, and each slice's share of the window, is
    scaled by its slice's speed; probing time is left out of the
    window."""
    gc.collect()  # the benchmark's own garbage, outside the timing
    slices = []
    deadline = time.perf_counter() + seconds
    while True:
        first = len(gauge.probes)
        probing = gauge.probe()
        begun = time.perf_counter()
        slice_end = min(begun + gauge.SLICE_S, deadline)
        made = []
        while time.perf_counter() < slice_end:
            probing += gauge.between()
            made.extend(step())
        elapsed = time.perf_counter() - begun - probing
        slices.append((first, len(gauge.probes), elapsed, made))
        if time.perf_counter() >= deadline:
            break
    for first, end, elapsed, made in slices:
        scale = gauge.scale_between(first, end)
        run.raw_window_s += elapsed
        run.window_s += elapsed * scale
        for record in made:
            record.scale = scale


# ----------------------------------------------------------------------
# Wire workloads
# ----------------------------------------------------------------------


class WireSession:
    """A gateway process with a registered, warmed catalog and one
    client connection to it.  ``setup_s`` is the time set-up took, less
    the time spent probing ``gauge`` between its requests."""

    def __init__(self, catalog: Catalog, settings: dict,
                 gauge: SpeedGauge):
        self.current = dict(catalog.contents)
        self.records: list[Record] = []
        self._next_id = itertools.count()
        self._wire_queries = {
            spec.label: json.dumps(spec.wire(), separators=(",", ":"))
            for _, spec in catalog.pairs()
        }
        self.server = ServerProcess()
        self.client = None
        try:
            started = time.perf_counter()
            probing = 0.0
            self.client = Client(self.server.start(settings))
            for name in catalog.names:
                probing += gauge.between()
                self.register(name, catalog.contents[name], "setup")
            for name, spec in catalog.pairs():
                probing += gauge.between()
                self.query(name, spec, "setup")
            self.setup_s = time.perf_counter() - started - probing
        except BaseException:
            self.close()
            raise

    def register(self, name: str, content: Content, phase: str) -> Record:
        line = inputs.register_line(name, content, next(self._next_id))
        started = time.perf_counter()
        reply = self.client.call(line)
        elapsed = (time.perf_counter() - started) * 1e3
        self.current[name] = content
        record = Record(phase, "register", elapsed, name, content=content,
                        error=None if reply.get("ok") else reply.get("error"))
        self.records.append(record)
        return record

    def query(self, name: str, spec: QuerySpec, phase: str) -> Record:
        line = query_line(name, self._wire_queries[spec.label],
                          next(self._next_id))
        started = time.perf_counter()
        reply = self.client.call(line)
        elapsed = (time.perf_counter() - started) * 1e3
        record = Record(phase, "query", elapsed, name, spec,
                        self.current[name])
        if reply.get("ok"):
            record.answer = reply["response"]["probability"]
        else:
            record.error = reply.get("error", "unknown")
        self.records.append(record)
        return record

    def apply(self, op, phase: str) -> Record:
        if op.spec is None:
            return self.register(op.name, op.content, phase)
        return self.query(op.name, op.spec, phase)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        self.server.stop()


def wire_settings(workload: str, run_dir: Path, tag) -> dict:
    """The gateway settings of a wire workload; a journaling gateway
    gets a fresh journal named by ``tag`` (one started on an old journal
    would replay it)."""
    settings = dict(WIRE_SETTINGS[workload])
    if "journal_fsync" in settings:
        settings["journal_path"] = str(run_dir / f"journal-{tag}.jsonl")
    return settings


def wire_ops(workload: str, seed: int, catalog: Catalog):
    if workload == "wire_read":
        return inputs.wire_read_ops(seed, catalog)
    return inputs.wire_update_ops(seed, catalog)


def run_wire(workload: str, seed: int, seconds: float,
             run_dir: Path) -> Run:
    catalog = inputs.wire_catalog(seed)
    run, gauge = Run(), SpeedGauge()
    session = None

    def setup(attempt):
        gc.collect()  # the previous set-up's garbage, outside the timing
        fresh = WireSession(catalog,
                            wire_settings(workload, run_dir, attempt), gauge)
        return fresh, fresh.setup_s

    for attempt in range(SETUP_REPEATS):
        if session is not None:
            session.close()
            run.records += session.records
        session = timed_setup(run, gauge, lambda: setup(attempt))
    try:
        ops = wire_ops(workload, seed, catalog)
        timed_window(run, gauge, seconds,
                     lambda: [session.apply(next(ops), "window")])
        run.peak_rss_mb = session.server.peak_rss_mb()
    finally:
        session.close()
    run.records += session.records
    return run


# ----------------------------------------------------------------------
# engine_mix
# ----------------------------------------------------------------------


class EngineStream:
    """The engine_mix closed loop over a pool of units, cycled.  Each
    pass over a unit starts from fresh objects and fresh caches, so its
    first evaluation is cold every time."""

    def __init__(self, units):
        self.units = units
        self.records: list[Record] = []

    def operations(self, units, phase: str):
        """Evaluate ``units`` in turn, one assignment per ``next()``:
        install it (the first builds the instance), then evaluate the
        unit's query under it.  Yields the two records made."""
        for unit in units:
            query = unit.spec.query()
            cache = CompilationCache()
            plan_cache = ExtensionalPlanCache()
            tid = None
            for index, content in enumerate(unit.assignments):
                started = time.perf_counter()
                if tid is None:
                    tid = inputs.build_tid(content)
                    tid.instance.content_fingerprint()
                else:
                    inputs.assign(tid, content)
                installed = time.perf_counter()
                if unit.spec.route == "sampling":
                    result = evaluate(
                        query, tid, method="sampling",
                        budget=inputs.sampling_budget(
                            unit.budget_seed + index),
                    )
                    answer = result.estimate
                else:
                    result = evaluate(query, tid, cache=cache,
                                      plan_cache=plan_cache)
                    answer = result.probability
                done = time.perf_counter()
                made = [
                    Record(phase, "register", (installed - started) * 1e3,
                           str(unit.index), content=content),
                    Record(phase, "query", (done - installed) * 1e3,
                           str(unit.index), unit.spec, content, answer),
                ]
                self.records.extend(made)
                yield made


#: Unit blocks the engine_mix set-up evaluates: about a second of the
#: program's work, so that set-up time is not a sub-second blip.
WARMUP_BLOCKS = 2


def warmup_units(units) -> list:
    """Two units of every (query class, shape) of a unit block: the
    first blocks of the pool."""
    return units[: WARMUP_BLOCKS * len(inputs.UNIT_BLOCK)]


def engine_setup(stream: EngineStream,
                 gauge: SpeedGauge) -> tuple[EngineStream, float]:
    """Warm the engine's per-process state by evaluating units of every
    query class and shape; only the program's work is timed, with
    ``gauge`` probed between operations."""
    started = time.perf_counter()
    probing = 0.0
    for _ in stream.operations(warmup_units(stream.units), "setup"):
        probing += gauge.between()
    return stream, time.perf_counter() - started - probing


def run_engine(seed: int, seconds: float) -> Run:
    run, gauge = Run(), SpeedGauge()
    # The unit pool is the benchmark's own memory: generated before any
    # timing and left out of the peak resident set.  Frozen, its objects
    # stay out of the garbage collector's generations, so they do not
    # delay collecting the program's garbage.
    before_kb = status_kb(os.getpid(), "VmRSS")
    stream = EngineStream(inputs.engine_units(seed))
    gc.collect()
    gc.freeze()
    pool_kb = status_kb(os.getpid(), "VmRSS") - before_kb
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous set-up's garbage, outside the timing
        timed_setup(run, gauge, lambda: engine_setup(stream, gauge))
    ops = stream.operations(itertools.cycle(stream.units), "window")
    timed_window(run, gauge, seconds, lambda: next(ops))
    run.peak_rss_mb = (status_kb(os.getpid(), "VmHWM") - pool_kb) / 1024
    run.records = stream.records
    return run
