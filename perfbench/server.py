"""The gateway process of the wire workloads.

Run as ``python3 perfbench/server.py``, with the program's sources on
``PYTHONPATH``.  It speaks a line protocol on stdin/stdout with the
benchmark process that launched it:

1. after its imports it prints ``{"ready": true}``, so that start-up of
   the interpreter and imports stays outside the set-up timing;
2. it reads one JSON line of settings, starts a ``ShardedService`` and a
   ``GatewayServer`` on an ephemeral local port and prints
   ``{"port": ...}``;
3. ``rss`` prints ``{"peak_rss_mb": ...}``: the peak resident set of
   this process plus that of its worker processes;
4. ``stop`` or end of input stops the gateway and the service (which
   joins its workers), waits for every process it started, down to the
   workers' resource trackers, to end, and exits.
"""

from __future__ import annotations

import json
import multiprocessing
import sys

from repro.serving import GatewayServer, ShardedService

from common import adopt_orphans, end_children, status_kb


def reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    adopt_orphans()
    reply({"ready": True})
    settings = json.loads(sys.stdin.readline())
    service = ShardedService(
        shards=settings["shards"], backend=settings["backend"]
    )
    gateway_kwargs = {}
    if settings.get("journal_path"):
        gateway_kwargs = {
            "journal_path": settings["journal_path"],
            "journal_fsync": settings["journal_fsync"],
            "journal_auto_compact_dead": settings["journal_auto_compact"],
        }
    server = GatewayServer(service, **gateway_kwargs)
    try:
        server.start()
        reply({"port": server.port})
        for line in sys.stdin:
            command = line.strip()
            if command == "rss":
                pids = [multiprocessing.current_process().pid] + [
                    child.pid for child in multiprocessing.active_children()
                ]
                total = sum(status_kb(pid, "VmHWM") for pid in pids)
                reply({"peak_rss_mb": total / 1024, "processes": len(pids)})
            elif command == "stop":
                break
    finally:
        server.stop()
        service.close()
        end_children()
    return 0


if __name__ == "__main__":
    sys.exit(main())
