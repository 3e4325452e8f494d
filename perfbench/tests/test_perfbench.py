"""Tests of the benchmark's own code: input generation, the percentile
helper, the speed gauge, answer checking, the journal byte count, the
bounds check and the ending of every process a run starts.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import inputs  # noqa: E402
import ledger  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402
from common import (  # noqa: E402
    NOMINAL_REFERENCE_MS,
    PercentileError,
    SpeedGauge,
    percentile,
    supported,
)
from oracle import (  # noqa: E402
    Oracle,
    answer_ok,
    check_records,
    lifted_closed_form,
    mobius_expansion,
)
from repro.pqe import (  # noqa: E402
    Estimate,
    probability_by_world_enumeration,
)
from repro.serving import RegistrationJournal  # noqa: E402
from repro.serving.journal import encode_record  # noqa: E402
from workloads import Record  # noqa: E402


# -- generators ----------------------------------------------------------


def test_same_seed_gives_same_inputs():
    assert inputs.wire_catalog(5) == inputs.wire_catalog(5)
    assert inputs.engine_units(5, 16) == inputs.engine_units(5, 16)
    catalog = inputs.wire_catalog(5)
    for ops in (inputs.wire_read_ops, inputs.wire_update_ops):
        first = list(itertools.islice(ops(5, catalog), 300))
        again = list(itertools.islice(ops(5, catalog), 300))
        assert first == again


def test_other_seed_gives_other_inputs():
    assert inputs.wire_catalog(5) != inputs.wire_catalog(6)
    assert inputs.engine_units(5, 8) != inputs.engine_units(6, 8)


def test_generated_shapes_hold():
    catalog = inputs.wire_catalog(3)
    for name in catalog.names:
        assert len(catalog.contents[name]) == catalog.shapes[name][-1]
    small = [c for c in catalog.contents.values()
             if len(c) <= inputs.SMALL_TIER_LIMIT]
    assert len(small) == 2
    ops = list(itertools.islice(inputs.wire_update_ops(3, catalog), 400))
    registers = [op for op in ops if op.spec is None]
    assert len(registers) == 100
    for unit in inputs.engine_units(3, 16):
        assert len({a.facts for a in unit.assignments}) == 1
        assert len(unit.assignments) == inputs.ASSIGNMENTS_PER_UNIT
        if unit.spec.route != "sampling":
            assert 100 <= len(unit.assignments[0]) <= 170


# -- percentiles ---------------------------------------------------------


def test_percentile_reports_its_sample_count():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == {"value": 50.5, "samples": 100}
    assert percentile([3.0], 0.99) == {"value": 3.0, "samples": 1}
    assert percentile(values, 0.99)["value"] == pytest.approx(99.01)
    with pytest.raises(PercentileError):
        percentile([], 0.5)


def test_tail_percentile_needs_ten_samples_beyond():
    assert supported(1000, 0.99)
    assert not supported(999, 0.99)
    assert supported(100, 0.90)


# -- answer checking -------------------------------------------------------


def _small_h(seed: int):
    return inputs.h_content(inputs.lane(seed, "test"), 2, 2, 8)


def test_oracle_routes_agree_with_world_enumeration():
    rng = inputs.lane(0, "oracle")
    zero_euler = inputs.class_queries("intensional")
    for seed in range(3):
        content = _small_h(seed)
        tid = inputs.build_tid(content)
        spec = next(zero_euler)
        assert mobius_expansion(spec.table, tid) == (
            probability_by_world_enumeration(spec.query(), tid))
        flat = inputs.flat_content(rng, 2, 6)
        for lifted in (inputs.CQ, inputs.UCQ):
            assert lifted_closed_form(lifted.label, flat) == (
                probability_by_world_enumeration(
                    lifted.query(), inputs.build_tid(flat)))


def test_check_rejects_a_perturbed_answer():
    content = inputs.h_content(inputs.lane(1, "test"), 4, 4, 40)
    spec = next(inputs.class_queries("intensional"))
    reference = Oracle().reference(spec, content)

    def record(answer):
        return Record("window", "query", 1.0, spec=spec, content=content,
                      answer=answer)

    assert answer_ok(record(reference), reference)
    assert answer_ok(record(float(reference)), reference)
    assert not answer_ok(record(reference + Fraction(1, 2**40)), reference)
    assert not answer_ok(record(float(reference) + 1e-9), reference)
    covering = Estimate(float(reference) + 0.01, 0.02, 100, "wilson")
    missing = Estimate(float(reference) + 0.03, 0.02, 100, "wilson")
    assert answer_ok(record(covering), reference)
    assert not answer_ok(record(missing), reference)
    failed = check_records([record(float(reference)),
                            record(float(reference) * 1.001)])
    assert len(failed) == 1


def test_unanswered_request_counts_as_failed():
    lost = Record("window", "query", 1.0, error="ShardOverloaded")
    assert check_records([lost]) == [lost]


# -- journal bytes -----------------------------------------------------------


def test_journal_bytes_count_appends_and_compactions(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = RegistrationJournal(path, fsync="never", auto_compact_dead=3)
    rng = inputs.lane(2, "journal")
    content = inputs.flat_content(rng, 2, 6)
    written = expected = in_file = 0
    live = {}
    try:
        for index in range(10):
            name = f"i{index % 2}"
            content = inputs.refresh_probs(rng, content)
            record = inputs.journal_record(name, content)
            before = ledger._file_id(path)
            journal.append(record)
            written += ledger._bytes_written(path, before, name)
            # What the journal writes: the record, and on every third
            # superseded record a rewrite of the live ones.
            expected += len(encode_record(record))
            in_file += 1
            live[name] = record
            if in_file - len(live) >= 3:
                expected += sum(len(encode_record(r)) for r in live.values())
                in_file = len(live)
        compactions = journal.stats().compactions
    finally:
        journal.close()
    assert compactions == 2
    assert written == expected


# -- bounds check ----------------------------------------------------------


SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "throughput_qps", "unit": "1/s", "better": "higher",
     "bound": 0.1},
]}


def _run_set(latency, throughput, setup=(1.0,) * 10):
    return {"setup_s": list(setup), "latency_ms": list(latency),
            "throughput_qps": list(throughput)}


def test_spread_is_interquartile_distance_over_median():
    assert steady.spread([10.0] * 10) == 0.0
    values = [9.0, 9.5, 10.0, 10.0, 10.0, 10.0, 10.0, 10.5, 11.0, 12.0]
    assert steady.spread(values) == pytest.approx((10.625 - 9.875) / 10.0)


def test_bounds_check_accepts_steady_sets_and_flags_noisy_ones():
    steady_set = _run_set([10 + 0.1 * i for i in range(10)],
                          [100 - 0.5 * i for i in range(10)],
                          setup=[1 + 0.01 * i for i in range(10)])
    assert steady.check_run_set(SPEC, steady_set) == []
    noisy = _run_set([10, 14] * 5, [100] * 10)
    problems = steady.check_run_set(SPEC, noisy)
    assert len(problems) == 1 and problems[0].startswith("latency_ms")
    # setup_s depends on the seed by design: only its median is bounded.
    seeded_setup = _run_set([10] * 10, [100] * 10, setup=[1, 3] * 5)
    assert steady.check_run_set(SPEC, seeded_setup) == []
    assert [p.split(":")[0] for p in steady.check_pair(
        SPEC, seeded_setup, _run_set([10] * 10, [100] * 10,
                                     setup=[2, 4] * 5))] == ["setup_s"]
    # Steady, but not with the margin the benchmark aims for.
    assert steady.check_run_set(
        SPEC, _run_set([10, 10.5] * 5, [100] * 10), margin=1 / 3)


def test_bounds_check_compares_medians_in_the_metrics_direction():
    first = _run_set([10.0] * 10, [100.0] * 10)
    faster = _run_set([8.0] * 10, [130.0] * 10)
    slower = _run_set([11.5] * 10, [100.0] * 10)
    fewer = _run_set([10.0] * 10, [85.0] * 10)
    assert steady.check_pair(SPEC, first, faster) == []
    assert [p.split(":")[0] for p in steady.check_pair(SPEC, first, slower)] \
        == ["latency_ms"]
    assert [p.split(":")[0] for p in steady.check_pair(SPEC, first, fewer)] \
        == ["throughput_qps"]


# -- the speed gauge ---------------------------------------------------------


def test_speed_gauge_scales_times_to_the_nominal_machine():
    gauge = SpeedGauge()
    slow, nominal = 2 * NOMINAL_REFERENCE_MS, NOMINAL_REFERENCE_MS
    gauge.probes = [slow] * 5 + [nominal] * 5
    assert gauge.scale_between(0, 5) == 0.5
    assert gauge.scale_between(5, 10) == 1.0
    # One stray probe in a slice does not move its median.
    gauge.probes[1] = 10 * slow
    assert gauge.scale_between(0, 5) == 0.5


def test_timed_window_scales_operations_by_their_slice(monkeypatch):
    # A reference that takes twice the nominal time: a machine running
    # at half speed, so every time is scaled by about a half.
    monkeypatch.setattr(
        common, "reference_work",
        lambda: time.sleep(2 * NOMINAL_REFERENCE_MS / 1e3))
    run, gauge, made = workloads.Run(), SpeedGauge(), []

    def step():
        time.sleep(0.002)
        made.append(Record("window", "query", 2.0))
        return made[-1:]

    workloads.timed_window(run, gauge, 0.3, step)
    scales = {record.scale for record in made}
    assert len(gauge.probes) >= 5
    assert all(0.3 < scale <= 0.5 for scale in scales)
    assert 0.3 * run.raw_window_s < run.window_s <= 0.5 * run.raw_window_s


# -- repeatable counts -------------------------------------------------------


def test_engine_pass_counts_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.setattr(ledger, "LEDGER_UNITS",
                        len(inputs.UNIT_BLOCK))
    runs = []
    for _ in range(2):
        book = ledger.Ledger("engine_mix", 4, tmp_path)
        book.engine_pass()
        assert book.failed == 0 and book.checked > 0
        runs.append(dict(book.counts))
    assert runs[0] == runs[1]
    assert runs[0]["circuits.gates"] > 0
    assert runs[0]["lift.plan_ops"] > 0
    assert runs[0]["approximate.samples"] > 0


ORPHANING = textwrap.dedent("""
    import os, subprocess, sys, time
    sys.path.insert(0, sys.argv[1])
    from common import adopt_orphans, end_children
    adopt_orphans()
    # A child that starts a grandchild and exits at once, orphaning it.
    launcher = subprocess.run(
        [sys.executable, "-c",
         "import subprocess, sys; print(subprocess.Popen("
         "[sys.executable, '-c', 'import time; time.sleep(%s)'],"
         " stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).pid)"],
        capture_output=True, text=True, check=True)
    orphan = int(launcher.stdout)
    started = time.monotonic()
    end_children(grace_s=%s)
    print(os.path.exists(f"/proc/{orphan}"), time.monotonic() - started)
""")


@pytest.mark.parametrize("sleep_s, grace_s", [
    (1.0, 30.0),  # ends by itself: waited for
    (60.0, 0.5),  # outlives the grace: killed
])
def test_end_children_ends_orphaned_descendants(sleep_s, grace_s):
    done = subprocess.run(
        [sys.executable, "-c", ORPHANING % (sleep_s, grace_s), str(BENCH)],
        capture_output=True, text=True, check=True, timeout=60)
    alive, elapsed = done.stdout.split()
    assert alive == "False"
    assert 0.3 < float(elapsed) < 10.0
