"""Run sets and the bounds check.

A run set is the end-to-end metrics of several runs of one workload,
each with another seed.  A metric's spread is the distance between the
first and third quartiles of its values over their median.  The
benchmark is steady when every spread stays within the metric's bound
from ``BENCHMARK.json``, and two run sets of the same code agree when no
metric's median in the second is worse than in the first by more than
its bound.  ``setup_s`` is held to the agreement rule only: how much
set-up work a run does depends on its seed by design (which facts are
built, which functions are compiled), so its spread over seeds is
printed but not bounded, as the benchmark contract specifies; the
agreement rule compares the same seeds, so that dependence cancels.

    python3 perfbench/steady.py --workload wire_read --seeds 1-10
    python3 perfbench/steady.py --all --seeds 1-10 --save sets.json

runs the benchmark once per seed and prints each metric's median,
spread and bound; ``--compare a.json b.json`` checks two saved run sets
against each other; ``--counts`` runs the traced ledger twice per seed
and checks that every count it reports repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"

#: Steady means spreads below this share of the bound (the margin a run
#: set needs so that a second one agrees with it).
MARGIN = 1 / 3


def spread(values) -> float:
    """Inter-quartile distance over the median (0 for a constant)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def check_run_set(spec: dict, run_set: dict, margin: float = 1.0) -> list:
    """Violations of the spread rule: ``run_set`` maps metric name to
    its values over the seeds."""
    problems = []
    for entry in spec["end_to_end"]:
        name = entry["name"]
        if name == "setup_s":  # bounded by the agreement rule only
            continue
        observed = spread(run_set[name])
        if observed > entry["bound"] * margin:
            problems.append(
                f"{name}: spread {observed:.4f} > "
                f"{margin:.2f} x bound {entry['bound']}"
            )
    return problems


def check_pair(spec: dict, first: dict, second: dict) -> list:
    """Violations of the agreement rule between two run sets."""
    problems = []
    for entry in spec["end_to_end"]:
        name = entry["name"]
        change = worse_by(
            statistics.median(first[name]),
            statistics.median(second[name]),
            entry["better"],
        )
        if change > entry["bound"]:
            problems.append(
                f"{name}: second median worse by {change:.4f} > "
                f"bound {entry['bound']}"
            )
    return problems


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(workload: str, seed: int, seconds: int,
             trace: int = 0) -> dict:
    """One run's metrics: ``{name: value}``, or with ``trace=1``
    ``{name: (value, unit)}``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if trace:
        return {name: (m["value"], m["unit"])
                for name, m in result["metrics"].items()}
    return {name: m["value"] for name, m in result["metrics"].items()}


def counts_repeat(workload: str, seed: int) -> list:
    """Differences between the counts of two traced runs of one seed."""
    first, second = (run_once(workload, seed, 2, trace=1) for _ in "12")
    return [
        f"{workload} seed {seed}: {name} {value} != {second[name][0]}"
        for name, (value, unit) in first.items()
        if unit in ("count", "bytes") and second[name][0] != value
    ]


def collect(spec: dict, workload: str, seeds: list[int]) -> dict:
    run_set = {entry["name"]: [] for entry in spec["end_to_end"]}
    for seed in seeds:
        values = run_once(workload, seed, spec["run_seconds"])
        for name in run_set:
            run_set[name].append(values[name])
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{name}={values[name]:.4g}" for name in run_set
        ), flush=True)
    return run_set


def report(spec: dict, workload: str, run_set: dict) -> list:
    print(f"\n{workload}: metric, median, spread, bound")
    for entry in spec["end_to_end"]:
        name = entry["name"]
        print(f"  {name:18s} {statistics.median(run_set[name]):12.4f} "
              f"{spread(run_set[name]):8.4f} {entry['bound']:6.3f}")
    problems = check_run_set(spec, run_set, MARGIN)
    for problem in problems:
        print(f"  NOT STEADY {problem}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2)
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    workloads = (
        [w["name"] for w in spec["workloads"]]
        if args.all or args.counts and not args.workload
        else args.workload
    )
    if args.counts:
        problems = [
            problem
            for workload in workloads
            for seed in parse_seeds(args.seeds)
            for problem in counts_repeat(workload, seed)
        ]
        print("\n".join(problems) or "every count repeats exactly")
        return 1 if problems else 0
    if args.compare:
        first, second = (json.loads(Path(p).read_text())
                         for p in args.compare)
        problems = []
        for workload in first:
            for problem in check_pair(spec, first[workload],
                                      second[workload]):
                problems.append(f"{workload}: {problem}")
        print("\n".join(problems) or "run sets agree")
        return 1 if problems else 0
    sets, problems = {}, []
    for workload in workloads:
        sets[workload] = collect(spec, workload, parse_seeds(args.seeds))
        problems += report(spec, workload, sets[workload])
    if args.save:
        Path(args.save).write_text(json.dumps(sets, indent=1))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
