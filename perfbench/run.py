"""The benchmark's one command.

    python3 perfbench/run.py --workload wire_read --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload end to end and prints every end-to-end
metric; ``--trace 1`` runs the outside-in layer ledger instead and
prints every per-layer metric (see ``ledger.py``).  Every answer is
checked against an independent exact reference; the last line of
standard output is the JSON result, and a wrong or missing answer makes
the exit code non-zero.  Times are scaled to the nominal machine by the
speed gauge (``common.SpeedGauge``); the raw figures go to stderr.
``BENCHMARK.json`` at the checkout root records why each workload and
metric was chosen.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
import time

from common import (
    HASH_SEED,
    OUT,
    adopt_orphans,
    end_children,
    log,
    median,
    metric,
    percentile,
    pin_one_cpu,
    pinned_env,
    result_line,
    supported,
    use_sources,
)

WORKLOADS = ("wire_read", "wire_update", "engine_mix")
QUERY_TAIL = 0.99
REGISTER_TAIL = 0.95


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(run, failed, raw: bool = False) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced run, and the sample
    counts behind its percentiles; ``raw`` reads the times unscaled."""
    window = [r for r in run.records if r.phase == "window"]

    def times(kind):
        return [r.latency_ms if raw else r.scaled_ms
                for r in window if r.kind == kind]

    queries, registers = times("query"), times("register")
    failed_ids = {id(r) for r in failed}
    good = sum(1 for r in window if id(r) not in failed_ids)
    window_s = run.raw_window_s if raw else run.window_s
    metrics = {
        "setup_s": metric(median(run.raw_setup_s if raw else run.setup_s),
                          "s"),
        "throughput_qps": metric(len(queries) / window_s, "1/s"),
        "query_p50_ms": metric(percentile(queries, 0.5)["value"], "ms"),
        "query_p99_ms": metric(percentile(queries, QUERY_TAIL)["value"],
                               "ms"),
        "register_p50_ms": metric(percentile(registers, 0.5)["value"],
                                  "ms"),
        "register_p95_ms": metric(
            percentile(registers, REGISTER_TAIL)["value"], "ms"),
        "success_rate": metric(good / len(window), "ratio"),
        "peak_rss_mb": metric(run.peak_rss_mb, "MB"),
    }
    samples = {
        "queries": len(queries),
        "registers": len(registers),
        "setups": len(run.setup_s),
        "query_p99_supported": supported(len(queries), QUERY_TAIL),
        "register_p95_supported": supported(len(registers), REGISTER_TAIL),
    }
    return metrics, samples


def run_untraced(args, run_dir) -> int:
    from oracle import check_records
    from workloads import run_engine, run_wire

    if args.workload == "engine_mix":
        run = run_engine(args.seed, args.seconds)
    else:
        run = run_wire(args.workload, args.seed, args.seconds, run_dir)
    started = time.perf_counter()
    failed = check_records(run.records)
    log(f"checked {len(run.records)} operations in "
        f"{time.perf_counter() - started:.1f} s; {len(failed)} failed")
    for record in failed[:5]:
        log(f"  failed: {record.kind} {record.name} "
            f"{record.spec.label if record.spec else ''} "
            f"answer={record.answer!r} error={record.error}")
    metrics, samples = end_to_end(run, failed)
    raw, _ = end_to_end(run, failed, raw=True)
    log(f"samples: {samples}; machine speed: nominal x "
        f"{run.raw_window_s / run.window_s:.3f} over the window")
    log(f"  {'metric':18s} {'scaled':>12s} {'raw':>12s}")
    for name, value in metrics.items():
        log(f"  {name:18s} {value['value']:12.4f} "
            f"{raw[name]['value']:12.4f} {value['unit']}")
    print(result_line(not failed, len(run.records), len(failed), metrics))
    return 0 if not failed else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Re-run under the pinned hash seed so work counts repeat.
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable] + sys.argv, pinned_env())
    pin_one_cpu()
    use_sources()
    try:
        import repro  # noqa: F401
    except ImportError as error:
        log(f"cannot import the program from its sources: {error}")
        return 2
    # Every way out, a termination signal too, passes the finally below,
    # which waits for every process the run started to end.
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            from ledger import run_traced

            return run_traced(args, run_dir)
        return run_untraced(args, run_dir)
    finally:
        end_children()
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
