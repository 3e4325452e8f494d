"""The benchmark's side of the wire: the gateway process and a
JSON-lines client over one TCP connection."""

from __future__ import annotations

import json
import socket
import subprocess
import sys
from pathlib import Path

from common import ROOT, pinned_env

SERVER = Path(__file__).resolve().parent / "server.py"


class ServerError(RuntimeError):
    """The gateway process died or answered out of protocol."""


class ServerProcess:
    """The gateway in its own process (see ``server.py``).  Construction
    returns once the process has finished its imports; :meth:`start`
    then starts the service and the gateway."""

    def __init__(self):
        self._process = subprocess.Popen(
            [sys.executable, str(SERVER)],
            cwd=ROOT,
            env=pinned_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self._expect("ready")
        except BaseException:
            self.stop()
            raise

    def _send(self, line: str) -> None:
        self._process.stdin.write(line + "\n")
        self._process.stdin.flush()

    def _expect(self, key: str) -> dict:
        line = self._process.stdout.readline()
        if not line:
            self._process.wait(timeout=30)
            raise ServerError(
                f"gateway process exited with {self._process.returncode}"
            )
        payload = json.loads(line)
        if key not in payload:
            raise ServerError(f"expected {key!r}, got {payload!r}")
        return payload

    def start(self, settings: dict) -> int:
        self._send(json.dumps(settings))
        return self._expect("port")["port"]

    def peak_rss_mb(self) -> float:
        self._send("rss")
        return self._expect("peak_rss_mb")["peak_rss_mb"]

    def stop(self) -> None:
        """Stop the gateway and wait for the process (and so its
        workers) to end."""
        if self._process.poll() is None:
            try:
                self._send("stop")
                self._process.stdin.close()
            except BrokenPipeError:
                pass
            try:
                self._process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait(timeout=30)
        self._process.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class Client:
    """A blocking JSON-lines client: one request in flight at a time,
    which is the closed loop the wire workloads model."""

    def __init__(self, port: int):
        self._sock = socket.create_connection(("127.0.0.1", port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def call(self, line: bytes) -> dict:
        self._sock.sendall(line)
        reply = self._reader.readline()
        if not reply:
            raise ServerError("gateway closed the connection")
        return json.loads(reply)

    def close(self) -> None:
        self._reader.close()
        self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def query_line(name: str, wire_query: str, message_id: int,
               budget: dict | None = None) -> bytes:
    """A wire ``query``; ``wire_query`` is the query's JSON, encoded once
    per query rather than per request."""
    extra = "" if budget is None else ',"budget":' + json.dumps(budget)
    return (
        f'{{"op":"query","id":{message_id},"instance":"{name}",'
        f'"query":{wire_query}{extra}}}\n'
    ).encode()


def ping_line(message_id: int) -> bytes:
    return f'{{"op":"ping","id":{message_id}}}\n'.encode()


def stats_line(message_id: int) -> bytes:
    return f'{{"op":"stats","id":{message_id}}}\n'.encode()
