"""The traced run (``--trace 1``): an outside-in layer ledger.

The ledger takes a fixed, seeded sample of the workload's own requests
— the warm-up pass and the first operations of its closed loop — and
sends the same sequence through each layer's public entry point in
turn, timing every call from outside:

- the engine (``evaluate``, ``evaluate_batch``) and, below it, the
  intensional compiler and its tapes, the lifted planner and plan
  evaluator, the extensional evaluator, the sampler and instance
  building;
- ``ShardedService`` in this process, once per backend;
- the gateway over TCP, in its own process, configured as the workload
  configures it;
- ``RegistrationJournal`` with the workload's register records.

Each pass replays the sequence from the same starting state, so cold
compiles fall on the same requests everywhere, and a layer's self time
is the difference between two layers' times *for the same request*
(the gateway's overhead on a query is its round trip minus the
service's ``submit`` for that request).  Counts (cache hits, gates,
plan ops, samples, journal bytes...) come from a fixed sequence on one
connection, so they repeat exactly for a seed.  The same holds for
layers a workload's timed loop does not cross: their numbers are those
of the workload's requests sent through that layer.

Every call is recorded as a span (name, start, end, parent, request)
kept in memory and written once, at the end, to
``.perfbench_out/spans-<workload>-<seed>.jsonl``.  Finally the
workload's own closed loop runs in alternating slices, untraced and with
a span per operation, and ``trace.overhead_ratio`` is the traced
throughput over the untraced one: the cost of recording spans, per
operation.  Per-layer times are raw wall-clock times, not scaled by the
speed gauge.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.pqe import (
    CompilationCache,
    ExtensionalPlanCache,
    compile_lineage,
    evaluate,
    evaluate_batch,
    evaluate_plan,
    extensional_probability,
    lift_query,
    sampling_plan,
)
from repro.serving import RegistrationJournal, ShardedService

import inputs
import workloads
from common import OUT, SpeedGauge, log, median, metric, result_line
from inputs import Content, QuerySpec
from oracle import Oracle, answer_ok, check_records
from wire import Client, ServerProcess, ping_line, query_line, stats_line

#: How many operations of the workload's closed loop the ledger replays
#: after the warm-up pass; for engine_mix, how many units.
LEDGER_OPS = 240
LEDGER_UNITS = 2 * len(inputs.UNIT_BLOCK)
#: The tracing-overhead comparison alternates slices of this length.
OVERHEAD_SLICE_S = 0.5
#: The journal pass journals as wire_update's gateway does.
JOURNAL_SETTINGS = workloads.WIRE_SETTINGS["wire_update"]

#: Which end-to-end metric, on which workload, each layer metric should
#: move (the map BENCHMARK.json cannot hold; see README.md).
LAYERS = {
    "gateway.ping_rtt_ms": "query_p50_ms, throughput_qps @ wire_read",
    "gateway.query_overhead_ms": "query_p50_ms, throughput_qps @ wire_read",
    "gateway.register_overhead_ms": "register_p50_ms @ wire_update",
    "service.submit_ms": "query_p50_ms @ wire_read",
    "service.overhead_ms": "query_p50_ms @ wire_read",
    "service.register_ms": "register_p50_ms @ wire_update",
    "service.unregister_ms": "register_p50_ms @ wire_update",
    "shard.requests": "query_p99_ms @ wire_update",
    "shard.batches": "query_p99_ms @ wire_update",
    "shard.microbatched_requests": "query_p99_ms @ wire_update",
    "shard.cache_hits": "query_p99_ms @ wire_update",
    "shard.cache_misses": "query_p99_ms @ wire_update (0 after set-up "
                          "on wire_read)",
    "shard.plan_hit_rate": "query_p99_ms @ wire_update",
    "shard.compile_ms": "query_p99_ms @ wire_update",
    "worker.ipc_overhead_ms": "query_p50_ms @ wire_read",
    "journal.append_ms": "register_p50_ms @ wire_update",
    "journal.records": "register_p50_ms @ wire_update",
    "journal.compactions": "register_p95_ms @ wire_update",
    "journal.bytes": "register_p50_ms @ wire_update",
    "journal.bytes_per_user_byte": "register_p50_ms @ wire_update",
    "engine.evaluate_ms.extensional": "query_p50_ms @ engine_mix",
    "engine.evaluate_ms.lifted": "query_p50_ms @ engine_mix",
    "engine.evaluate_ms.intensional": "query_p50_ms @ engine_mix; "
                                      "minor on wire_read",
    "engine.evaluate_ms.sampling": "query_p50_ms @ engine_mix",
    "engine.cold_evaluate_ms.intensional": "query_p99_ms @ engine_mix, "
                                           "wire_update",
    "intensional.compile_ms": "throughput_qps @ engine_mix",
    "circuits.gates": "throughput_qps @ engine_mix",
    "circuits.tape_exact_ms": "query_p50_ms @ engine_mix",
    "circuits.tape_float_ms": "query_p50_ms @ wire_read",
    "lift.plan_search_ms": "throughput_qps @ engine_mix",
    "lift.plan_ops": "throughput_qps @ engine_mix",
    "lift.evaluate_exact_ms": "query_p50_ms @ engine_mix",
    "extensional.evaluate_exact_ms": "query_p50_ms @ engine_mix",
    "approximate.run_ms": "throughput_qps @ engine_mix",
    "approximate.samples": "throughput_qps @ engine_mix",
    "approximate.waves": "throughput_qps @ engine_mix",
    "db.build_ms": "register_p50_ms @ wire_update; setup_s everywhere",
    "db.fingerprint_ms": "register_p50_ms @ wire_update; setup_s "
                         "everywhere",
    "trace.overhead_ratio": "none: traced over untraced throughput",
}


class Tracer:
    """Spans kept in memory: ``(id, name, start_ns, end_ns, parent,
    request)`` on the monotonic clock."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, request=None, parent=None):
        span_id = next(self._ids)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            self.spans.append({
                "id": span_id, "name": name, "start_ns": start,
                "end_ns": time.perf_counter_ns(), "parent": parent,
                "request": request,
            })

    def timed(self, name: str, call, request=None, parent=None):
        """``(call(), milliseconds)``, recorded as a span."""
        with self.span(name, request, parent):
            started = time.perf_counter()
            result = call()
            elapsed = (time.perf_counter() - started) * 1e3
        return result, elapsed

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# The request sequence
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One request of the ledger's sequence: a query of ``spec`` (or,
    with ``spec is None``, a register) of ``content`` under ``name``."""

    index: int
    name: str
    spec: QuerySpec | None
    content: Content
    budget_seed: int | None = None
    facts_changed: bool = False


@dataclass(frozen=True)
class Plan:
    catalog: dict  #: name -> initial Content
    steps: tuple
    #: extra sampled (spec, content, budget seed) requests for the engine
    #: pass, when the workload sends none itself
    probes: tuple
    gateway: dict  #: the wire pass's gateway settings


def _sequence(catalog: dict, requests) -> tuple:
    """Number the requests and mark registers that change facts."""
    current = dict(catalog)
    steps = []
    for index, (name, spec, content, budget_seed) in enumerate(requests):
        changed = spec is None and content.facts != current[name].facts
        if spec is None:
            current[name] = content
        steps.append(Step(index, name, spec, content if spec is None
                          else current[name], budget_seed, changed))
    return tuple(steps)


def ledger_plan(workload: str, seed: int) -> Plan:
    if workload == "engine_mix":
        units = inputs.engine_units(seed, LEDGER_UNITS)
        catalog = {f"u{u.index}": u.assignments[0] for u in units}
        requests = []
        for unit in units:
            name = f"u{unit.index}"
            for index, content in enumerate(unit.assignments):
                seed_of = (unit.budget_seed + index
                           if unit.spec.route == "sampling" else None)
                if index:
                    requests.append((name, None, content, None))
                requests.append((name, unit.spec, content, seed_of))
        return Plan(catalog, _sequence(catalog, requests), (),
                    {"backend": "threads", "shards": 2})
    wire_catalog = inputs.wire_catalog(seed)
    catalog = dict(wire_catalog.contents)
    requests = [(name, spec, None, None) for name, spec in
                wire_catalog.pairs()]
    ops = workloads.wire_ops(workload, seed, wire_catalog)
    for op in itertools.islice(ops, LEDGER_OPS):
        requests.append((op.name, op.spec, op.content, None))
    # The wire workloads send no sampled queries; the sampler is timed on
    # a hard query over their small-tier instance.
    rng = inputs.lane(seed, "ledger")
    small = next(c for c in catalog.values()
                 if c.h_schema and len(c) <= inputs.SMALL_TIER_LIMIT)
    hard = inputs.class_queries("sampling")
    probes = tuple(
        (next(hard), small, rng.randrange(1 << 30)) for _ in range(4)
    )
    return Plan(catalog, _sequence(catalog, requests), probes,
                dict(workloads.WIRE_SETTINGS[workload]))


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


class Ledger:
    def __init__(self, workload: str, seed: int, run_dir):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.plan = ledger_plan(workload, seed)
        self.tracer = Tracer()
        self.oracle = Oracle()
        self.samples: dict[str, list] = {}
        self.per_request: dict[str, dict] = {}
        self.counts: dict[str, float] = {}
        self.checked = 0
        self.failed = 0

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def at(self, layer: str, index: int, value: float) -> None:
        self.per_request.setdefault(layer, {})[index] = value

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def check(self, spec, content, answer) -> None:
        record = workloads.Record("ledger", "query", 0.0, spec=spec,
                                  content=content, answer=answer)
        self.checked += 1
        if not answer_ok(record, self.oracle.reference(spec, content)):
            self.failed += 1
            log(f"ledger: wrong answer {answer!r} for {spec.label}")

    @property
    def journaled(self) -> bool:
        """Whether the wire pass's gateway journals its registers."""
        return "journal_fsync" in self.plan.gateway

    @staticmethod
    def budget(step):
        if step.budget_seed is None:
            return None
        return inputs.sampling_budget(step.budget_seed)

    # -- engine ----------------------------------------------------------

    def engine_pass(self) -> None:
        tracer = self.tracer
        with tracer.span("pass.engine") as parent:
            cache, plans = CompilationCache(), ExtensionalPlanCache()
            batch_cache = CompilationCache()
            batch_plans = ExtensionalPlanCache()
            tids = {}
            for name, content in self.plan.catalog.items():
                tids[name] = self.build(content, parent, None)
            compiled: dict = {}
            for step in self.plan.steps:
                if step.spec is None:
                    tids[step.name] = self.build(step.content, parent,
                                                 step.index)
                    continue
                tid, query = tids[step.name], step.spec.query()
                if step.spec.route == "sampling":
                    self.sampled(step.spec, tid, step.content,
                                 step.budget_seed, parent, step.index)
                    continue
                result, ms = tracer.timed(
                    "engine.evaluate", lambda: evaluate(
                        query, tid, cache=cache, plan_cache=plans),
                    step.index, parent)
                self.check(step.spec, step.content, result.probability)
                if result.engine == "intensional" and not result.cache_hit:
                    self.sample("engine.cold_evaluate_ms.intensional", ms)
                else:
                    self.sample(f"engine.evaluate_ms.{result.engine}", ms)
                _, ms = tracer.timed(
                    "engine.evaluate_batch", lambda: evaluate_batch(
                        query, [tid], cache=batch_cache,
                        plan_cache=batch_plans),
                    step.index, parent)
                self.at("engine.evaluate_batch", step.index, ms)
                self.below_engine(step, query, tid, compiled, parent)
            for spec, content, budget_seed in self.plan.probes:
                self.sampled(spec, inputs.build_tid(content), content,
                             budget_seed, parent, None)

    def build(self, content: Content, parent, request):
        tid, build_ms = self.tracer.timed(
            "db.build", lambda: inputs.build_tid(content), request, parent)
        self.sample("db.build_ms", build_ms)
        _, ms = self.tracer.timed(
            "db.fingerprint", tid.instance.content_fingerprint, request,
            parent)
        self.sample("db.fingerprint_ms", ms)
        if request is not None:
            self.at("db.build", request, build_ms + ms)
        return tid

    def below_engine(self, step, query, tid, compiled, parent) -> None:
        """Time the layers under ``evaluate`` for this request."""
        tracer, route, index = self.tracer, step.spec.route, step.index
        if route == "intensional":
            key = (step.spec.label, step.content.facts)
            if key not in compiled:
                fresh = inputs.build_tid(step.content)
                compiled[key], ms = tracer.timed(
                    "intensional.compile",
                    lambda: compile_lineage(query, fresh.instance),
                    index, parent)
                self.sample("intensional.compile_ms", ms)
                self.count("circuits.gates", compiled[key].size())
            lineage = compiled[key]
            _, ms = tracer.timed("circuits.tape_exact",
                                 lambda: lineage.probability(tid),
                                 index, parent)
            self.sample("circuits.tape_exact_ms", ms)
            _, ms = tracer.timed("circuits.tape_float",
                                 lambda: lineage.probability_float(tid),
                                 index, parent)
            self.sample("circuits.tape_float_ms", ms)
        elif route == "lifted":
            plan, ms = tracer.timed("lift.plan_search",
                                    lambda: lift_query(query), index, parent)
            self.sample("lift.plan_search_ms", ms)
            self.count("lift.plan_ops", plan.op_count())
            _, ms = tracer.timed("lift.evaluate_exact",
                                 lambda: evaluate_plan(plan, tid),
                                 index, parent)
            self.sample("lift.evaluate_exact_ms", ms)
        elif route == "extensional":
            _, ms = tracer.timed(
                "extensional.evaluate_exact",
                lambda: extensional_probability(query, tid), index, parent)
            self.sample("extensional.evaluate_exact_ms", ms)

    def sampled(self, spec, tid, content, budget_seed, parent,
                request) -> None:
        """A sampled request: the engine's ``evaluate``, then the
        sampler under it."""
        budget = inputs.sampling_budget(budget_seed)
        result, ms = self.tracer.timed(
            "engine.evaluate", lambda: evaluate(
                spec.query(), tid, method="sampling", budget=budget),
            request, parent)
        self.check(spec, content, result.estimate)
        self.sample("engine.evaluate_ms.sampling", ms)
        estimate, ms = self.tracer.timed(
            "approximate.run",
            lambda: sampling_plan(spec.query(), tid).run(budget),
            request, parent)
        self.sample("approximate.run_ms", ms)
        self.count("approximate.samples", estimate.samples)
        self.count("approximate.waves", estimate.waves)

    # -- service -----------------------------------------------------------

    def service_pass(self, backend: str) -> None:
        tracer = self.tracer
        layer = f"service.{backend}"
        with tracer.span(f"pass.{layer}") as parent, ShardedService(
            shards=2, backend=backend
        ) as service:
            tids = {}
            for name, content in self.plan.catalog.items():
                tids[name] = inputs.build_tid(content)
                _, ms = tracer.timed(f"{layer}.register",
                                     lambda: service.register(tids[name]),
                                     None, parent)
                self.sample(f"{layer}.register_ms", ms)
            for step in self.plan.steps:
                if step.spec is None:
                    new = inputs.build_tid(step.content)
                    spent = 0.0
                    if step.facts_changed:
                        old = tids[step.name]
                        _, ms = tracer.timed(
                            f"{layer}.unregister",
                            lambda: service.unregister(old),
                            step.index, parent)
                        self.sample(f"{layer}.unregister_ms", ms)
                        spent += ms
                    _, ms = tracer.timed(f"{layer}.register",
                                         lambda: service.register(new),
                                         step.index, parent)
                    self.sample(f"{layer}.register_ms", ms)
                    self.at(f"{layer}.register", step.index, spent + ms)
                    tids[step.name] = new
                    continue
                tid, query = tids[step.name], step.spec.query()
                response, ms = tracer.timed(
                    f"{layer}.submit",
                    lambda: service.submit(query, tid,
                                           self.budget(step)).result(),
                    step.index, parent)
                self.at(f"{layer}.submit", step.index, ms)
                self.check(step.spec, step.content, response.probability)
            for tid in tids.values():
                _, ms = tracer.timed(f"{layer}.unregister",
                                     lambda: service.unregister(tid),
                                     None, parent)
                self.sample(f"{layer}.unregister_ms", ms)

    # -- gateway -----------------------------------------------------------

    def wire_pass(self) -> None:
        tracer = self.tracer
        settings = dict(self.plan.gateway)
        if self.journaled:
            settings["journal_path"] = str(self.run_dir / "ledger-wire.jsonl")
        ids = itertools.count()
        wire_queries = {}
        with tracer.span("pass.gateway") as parent, ServerProcess() as server:
            with Client(server.start(settings)) as client:
                for name, content in self.plan.catalog.items():
                    reply, ms = tracer.timed(
                        "gateway.register", lambda: client.call(
                            inputs.register_line(name, content, next(ids))),
                        None, parent)
                    self.expect_ok(reply)
                for step in self.plan.steps:
                    if step.spec is None:
                        reply, ms = tracer.timed(
                            "gateway.register", lambda: client.call(
                                inputs.register_line(step.name, step.content,
                                                     next(ids))),
                            step.index, parent)
                        self.expect_ok(reply)
                        self.at("gateway.register", step.index, ms)
                        continue
                    _, ms = tracer.timed(
                        "gateway.ping", lambda: client.call(
                            ping_line(next(ids))), step.index, parent)
                    self.sample("gateway.ping_rtt_ms", ms)
                    wire = wire_queries.setdefault(
                        step.spec.label,
                        json.dumps(step.spec.wire(), separators=(",", ":")))
                    line = query_line(step.name, wire, next(ids),
                                      _budget_payload(step.budget_seed))
                    reply, ms = tracer.timed(
                        "gateway.query", lambda: client.call(line),
                        step.index, parent)
                    self.expect_ok(reply)
                    self.at("gateway.query", step.index, ms)
                    if reply.get("ok"):
                        self.check(step.spec, step.content,
                                   reply["response"]["probability"])
                stats = client.call(stats_line(next(ids)))
        self.shard_counts(stats["stats"])

    def expect_ok(self, reply: dict) -> None:
        if not reply.get("ok"):
            self.failed += 1
            log(f"ledger: request failed: {reply}")

    def shard_counts(self, stats: dict) -> None:
        shards = stats["shards"]
        self.counts["shard.requests"] = stats["requests"]
        self.counts["shard.batches"] = stats["batches"]
        self.counts["shard.microbatched_requests"] = stats[
            "microbatched_requests"]
        self.counts["shard.cache_hits"] = sum(
            s["cache"]["hits"] for s in shards)
        self.counts["shard.cache_misses"] = sum(
            s["cache"]["misses"] for s in shards)
        plan_hits = sum(s["plans"]["hits"] for s in shards)
        plan_all = plan_hits + sum(s["plans"]["misses"] for s in shards)
        self.counts["shard.plan_hit_rate"] = (
            plan_hits / plan_all if plan_all else 0.0)
        self.counts["shard.compile_ms"] = stats["compile_ms"]

    # -- journal -----------------------------------------------------------

    def journal_pass(self) -> None:
        tracer = self.tracer
        path = self.run_dir / "ledger-journal.jsonl"
        journal = RegistrationJournal(
            path, fsync=JOURNAL_SETTINGS["journal_fsync"],
            auto_compact_dead=JOURNAL_SETTINGS["journal_auto_compact"])
        registers = [(None, name, content)
                     for name, content in self.plan.catalog.items()]
        registers += [(s.index, s.name, s.content)
                      for s in self.plan.steps if s.spec is None]
        written = user = 0
        with tracer.span("pass.journal") as parent:
            try:
                for index, name, content in registers:
                    record = inputs.journal_record(name, content)
                    before = _file_id(path)
                    _, ms = tracer.timed("journal.append",
                                         lambda: journal.append(record),
                                         index, parent)
                    self.sample("journal.append_ms", ms)
                    if index is not None:
                        self.at("journal.append", index, ms)
                    written += _bytes_written(path, before, name)
                    user += len(inputs.register_line(name, content, 0))
                stats = journal.stats()
            finally:
                journal.close()
        self.counts["journal.records"] = stats.appended
        self.counts["journal.compactions"] = stats.compactions
        self.counts["journal.bytes"] = written
        self.counts["journal.bytes_per_user_byte"] = written / user

    # -- tracing overhead --------------------------------------------------

    def overhead_pass(self, seconds: float) -> None:
        """The workload's own closed loop in alternating slices, untraced
        and with one span per operation, for ``seconds`` in all;
        alternating keeps drift in machine speed out of the ratio.  So
        ``trace.overhead_ratio`` prices the span recording itself, per
        operation.  The loop's answers are checked like any other."""
        slices = max(2, int(seconds / OVERHEAD_SLICE_S))
        if self.workload == "engine_mix":
            stream = workloads.EngineStream(inputs.engine_units(self.seed))
            workloads.engine_setup(stream, SpeedGauge())
            ops = stream.operations(itertools.cycle(stream.units),
                                    "overhead")
            self._overhead(lambda: next(ops), seconds / slices, slices)
            self.check_records(stream.records)
            return
        catalog = inputs.wire_catalog(self.seed)
        session = workloads.WireSession(
            catalog, workloads.wire_settings(self.workload, self.run_dir,
                                             "overhead"), SpeedGauge())
        try:
            ops = workloads.wire_ops(self.workload, self.seed, catalog)
            self._overhead(lambda: [session.apply(next(ops), "overhead")],
                           seconds / slices, slices)
        finally:
            session.close()
        self.check_records(session.records)

    def _overhead(self, step, slice_s: float, slices: int) -> None:
        done = {False: 0, True: 0}
        spent = {False: 0.0, True: 0.0}
        for index in range(slices):
            traced = bool(index % 2)
            started = time.perf_counter()
            done[traced] += _closed_loop(step, started + slice_s,
                                         self.tracer if traced else None)
            spent[traced] += time.perf_counter() - started
        self.counts["trace.overhead_ratio"] = (
            done[True] / spent[True]) / (done[False] / spent[False])

    def check_records(self, records) -> None:
        """Check a closed loop's records as the untraced run does."""
        failed = check_records(records, self.oracle)
        self.checked += sum(1 for r in records if r.kind == "query")
        self.failed += len(failed)
        for record in failed[:5]:
            log(f"ledger: failed {record.kind} {record.name} "
                f"answer={record.answer!r} error={record.error}")

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict:
        backend = self.plan.gateway["backend"]
        per = self.per_request
        submit = per[f"service.{backend}.submit"]
        wire_registers = per["gateway.register"]
        journal = per["journal.append"] if self.journaled else {}
        values = {
            "gateway.ping_rtt_ms": median(self.samples["gateway.ping_rtt_ms"]),
            "gateway.query_overhead_ms": _median_difference(
                per["gateway.query"], submit),
            "service.submit_ms": median(submit.values()),
            "service.overhead_ms": _median_difference(
                submit, per["engine.evaluate_batch"]),
            "service.register_ms": median(
                self.samples[f"service.{backend}.register_ms"]),
            "service.unregister_ms": median(
                self.samples[f"service.{backend}.unregister_ms"]),
            "worker.ipc_overhead_ms": _median_difference(
                per["service.processes.submit"],
                per["service.threads.submit"]),
            "journal.append_ms": median(self.samples["journal.append_ms"]),
        }
        # A wire register builds the instance, (re)registers it with the
        # service and, on a journaling gateway, appends to the journal;
        # the rest of its round trip is the gateway's own.
        service_register = per[f"service.{backend}.register"]
        values["gateway.register_overhead_ms"] = median([
            wire_registers[i] - service_register[i]
            - journal.get(i, 0.0) - per["db.build"][i]
            for i in wire_registers
        ])
        for name, samples in self.samples.items():
            if name.startswith(("engine.", "intensional.", "circuits.",
                                "lift.", "extensional.", "approximate.",
                                "db.")):
                values[name] = median(samples)
        values.update(self.counts)
        return {
            name: metric(values[name], _unit(name)) for name in LAYERS
        }


def _budget_payload(seed: int | None) -> dict | None:
    """The wire form of a sampled request's accuracy budget."""
    if seed is None:
        return None
    budget = inputs.sampling_budget(seed)
    return {"epsilon": budget.epsilon, "seed": budget.seed,
            "delta": budget.delta, "interval": budget.interval}


def _unit(name: str) -> str:
    if "_ms" in name:
        return "ms"
    if name.endswith(("rate", "ratio", "per_user_byte")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def _median_difference(outer: dict, inner: dict) -> float:
    """The median over requests of one layer's time minus the time of
    the layer under it, for the same request."""
    return median([outer[i] - inner[i] for i in outer if i in inner])


def _file_id(path):
    try:
        info = os.stat(path)
    except FileNotFoundError:
        return None, 0
    return info.st_ino, info.st_size


def _bytes_written(path, before, name: str) -> int:
    """Bytes one append wrote: the file's growth, or, when the append
    triggered a compaction (a new file), the appended record (which is
    also the live record of ``name`` in the new file) plus the whole
    compacted file."""
    inode, size = _file_id(path)
    if before[0] in (None, inode):  # created, or appended in place
        return size - before[1]
    appended = 0
    with open(path, "rb") as handle:
        for line in handle:
            if json.loads(line)["record"]["instance"] == name:
                appended = len(line)
    return appended + size


def _closed_loop(step, deadline: float, tracer=None) -> int:
    """Call ``step()`` until ``deadline``, each call in a span when
    traced; returns the queries completed."""
    done = 0
    while time.perf_counter() < deadline:
        if tracer is None:
            made = step()
        else:
            with tracer.span("client.op", done):
                made = step()
        done += sum(1 for record in made if record.kind == "query")
    return done


def run_traced(args, run_dir) -> int:
    ledger = Ledger(args.workload, args.seed, run_dir)
    started = time.perf_counter()
    ledger.engine_pass()
    for backend in ("threads", "processes"):
        ledger.service_pass(backend)
    ledger.wire_pass()
    ledger.journal_pass()
    log(f"ledger passes took {time.perf_counter() - started:.1f} s")
    ledger.overhead_pass(args.seconds / 2)  # keeps traced runs short
    metrics = ledger.metrics()
    OUT.mkdir(parents=True, exist_ok=True)
    ledger.tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    for name, value in metrics.items():
        log(f"  {name:38s} {value['value']:14.4f} {value['unit']:6s} "
            f"-> {LAYERS[name]}")
    print(result_line(not ledger.failed, ledger.checked, ledger.failed,
                      metrics))
    return 0 if not ledger.failed else 1
