"""Shared helpers of the benchmark: paths, the pinned hash seed and
CPU, the percentile helper, the machine-speed gauge and the result
line.

The benchmark lives beside the program it measures: ``ROOT`` is the
checkout that holds both, ``SRC`` the program's package directory and
``OUT`` the scratch directory every run writes into (spans, journals).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Every process the benchmark launches runs with this string hash
#: seed, so set and dict orders, and with them every work count, repeat
#: exactly from run to run.
HASH_SEED = "0"


def pinned_env() -> dict:
    """The environment for a launched process: the pinned hash seed and
    the program's sources on the import path."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def pin_one_cpu() -> None:
    """Pin this process, and so every process it launches, to one CPU.

    Each workload keeps one request in flight, so its processes never
    run in parallel; on one CPU they also never wait for a wake-up on
    another CPU or migrate between CPUs, which made the wire workloads'
    latencies swing from second to second on a 2-CPU machine."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def use_sources() -> None:
    """Put the program's sources first on this process's import path."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class PercentileError(ValueError):
    """A percentile was asked of too few samples to support it."""


def percentile(values, q: float) -> dict:
    """The ``q``-quantile (0 < q < 1) of ``values`` by linear
    interpolation between closest ranks, with its sample count.

    Returns ``{"value": ..., "samples": n}``.  Raises
    :class:`PercentileError` for an empty sample.
    """
    data = sorted(values)
    if not data:
        raise PercentileError("percentile of an empty sample")
    if not 0 < q < 1:
        raise ValueError(f"q must be in (0, 1), got {q!r}")
    position = q * (len(data) - 1)
    low = math.floor(position)
    high = min(low + 1, len(data) - 1)
    fraction = position - low
    value = data[low] + (data[high] - data[low]) * fraction
    return {"value": value, "samples": len(data)}


#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10


def supported(samples: int, q: float) -> bool:
    """Whether ``samples`` values put at least :data:`TAIL_SAMPLES` of
    them above the ``q``-quantile — the rule for reporting a tail
    percentile."""
    return samples * (1 - q) + 1e-9 >= TAIL_SAMPLES


# ----------------------------------------------------------------------
# The machine-speed gauge
# ----------------------------------------------------------------------

#: Milliseconds the reference work takes on a machine the benchmark
#: calls nominal: end-to-end times are reported as they would read on
#: it (see :class:`SpeedGauge`).
NOMINAL_REFERENCE_MS = 1.0


def reference_work() -> int:
    """A fixed piece of pure-Python work that uses nothing of the
    program: exact fraction arithmetic, then building and probing a dict
    of a few thousand fresh objects — the kinds of work the program does
    (a warm evaluation is mostly the first kind, compiling a circuit
    much of the second).  About 1 ms on a 2 GHz Xeon vCPU."""
    total = Fraction(0)
    third = Fraction(1, 3)
    for i in range(1, 60):
        total += third * i / (i + 7)
    table = {i * 7919 % 16001: (i, str(i)) for i in range(2500)}
    hits = sum(1 for key in range(0, 16001, 5) if key in table)
    return hits + total.denominator % 7


class SpeedGauge:
    """Reads the machine's current speed by timing :func:`reference_work`.

    The virtual CPUs the benchmark was sized on run the same code 1.5 to
    2 times slower for stretches of a second to minutes, with no steal
    time (so CPU-time clocks slow down as much as the wall clock).  The
    reference work slows with the program: a workload probes it between
    operations, every :data:`PROBE_EVERY_S`, and an operation's time is
    scaled by ``NOMINAL_REFERENCE_MS`` over the median probe of its
    :data:`SLICE_S` slice: the time it would take on the nominal
    machine.  Speed changes within a second, so probes are spread over
    each slice and not pooled across slices.  The reference uses nothing
    of the program, so a change to the program moves the scaled figures
    exactly as it moves the raw ones; raw figures are logged beside
    them.
    """

    SLICE_S = 0.5
    PROBE_EVERY_S = 0.05

    def __init__(self):
        self.probes: list[float] = []  #: reference ms, one per probe
        self._due = 0.0

    def probe(self) -> float:
        """Time the reference work once; returns the seconds it took."""
        started = time.perf_counter()
        reference_work()
        done = time.perf_counter()
        self.probes.append((done - started) * 1e3)
        self._due = done + self.PROBE_EVERY_S
        return done - started

    def between(self) -> float:
        """Probe if the last probe is :data:`PROBE_EVERY_S` old; call it
        between operations.  Returns the seconds spent probing."""
        if time.perf_counter() < self._due:
            return 0.0
        return self.probe()

    def scale_between(self, first: int, end: int) -> float:
        """Nominal over the median of probes ``first`` to ``end - 1``."""
        return NOMINAL_REFERENCE_MS / median(self.probes[first:end])


#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36
#: How long :func:`end_children` waits before it kills what is left.
CHILD_GRACE_S = 20.0


def adopt_orphans() -> None:
    """Make every descendant this process leaves orphaned its child, so
    that :func:`end_children` can wait for it.  The processes backend
    starts a ``multiprocessing`` resource tracker in each worker and in
    the process that owns the workers; each tracker ends only after its
    owner has, so without this they outlive the process that waited for
    their owner."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def child_pids() -> list[int]:
    pids = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as children:
                pids += [int(pid) for pid in children.read().split()]
        except FileNotFoundError:
            pass
    return pids


def end_children(grace_s: float = CHILD_GRACE_S) -> None:
    """Stop this process's resource tracker, then wait until every child
    (after :func:`adopt_orphans`, every descendant) has ended; kill any
    still running after ``grace_s``."""
    import signal
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def status_kb(pid: int, field: str) -> int:
    """A ``/proc/<pid>/status`` memory field (``VmRSS``, ``VmHWM``) in
    kB; 0 once the process has exited."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except FileNotFoundError:
        pass
    return 0


def median(values) -> float:
    return percentile(values, 0.5)["value"]


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    """The result: one JSON object, printed as the last line of output."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        },
        sort_keys=True,
    )


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def log(*parts) -> None:
    """Progress goes to stderr; stdout carries only the result line."""
    print(*parts, file=sys.stderr, flush=True)

