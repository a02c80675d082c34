"""The service process handle and the closed-loop load generator."""

from __future__ import annotations

import json
import os
import select
import selectors
import socket
import subprocess
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seconds to wait for any single answer from the service process.
DEADLINE = 60.0


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer)."""


class ServerProcess:
    """One service process started from ``perfbench/server.py``."""

    def __init__(self, root: str, work: str, spec: Dict[str, Any],
                 label: str) -> None:
        spec_path = os.path.join(work, f"spec-{label}.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self._log = open(os.path.join(work, f"server-{label}.log"), "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"), spec_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            cwd=root, env=env, bufsize=0)
        ready = self.read_line()
        if not ready.startswith("READY "):
            self.kill()
            raise BenchError(f"service did not start: {ready!r}")
        _, port, outcomes = ready.split(" ", 2)
        self.port = int(port)
        self.restore_outcomes: Dict[str, str] = json.loads(outcomes)

    def read_line(self) -> str:
        out = self.proc.stdout
        assert out is not None
        line = b""
        end = time.monotonic() + DEADLINE
        while not line.endswith(b"\n"):
            left = end - time.monotonic()
            if left <= 0 or not select.select([out], [], [], left)[0]:
                raise BenchError("service process did not answer in time")
            chunk = out.readline()
            if not chunk:
                raise BenchError("service process exited; see its log in "
                                 f"{self._log.name}")
            line += chunk
        return line.decode().strip()

    def command(self, text: str, expect: str) -> str:
        assert self.proc.stdin is not None
        self.proc.stdin.write((text + "\n").encode())
        line = self.read_line()
        if not line.startswith(expect):
            raise BenchError(f"service answered {line!r} to {text!r}")
        return line[len(expect):].strip()

    def stop(self) -> Dict[str, Any]:
        """Graceful stop (final checkpoint); returns the exit report."""
        try:
            report = json.loads(self.command("STOP", "STOPPED"))
            self.proc.wait(timeout=DEADLINE)
        finally:
            self.kill()
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()
        self._log.close()


class Connection:
    """A blocking newline-delimited JSON connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=DEADLINE)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def lines(self) -> List[bytes]:
        """Read what is available; return the complete lines in it."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise BenchError("service closed the connection")
        self.buffer += chunk
        *done, self.buffer = self.buffer.split(b"\n")
        return done

    def request(self, data: bytes) -> Dict[str, Any]:
        self.sock.sendall(data)
        while True:
            done = self.lines()
            if done:
                if len(done) > 1 or self.buffer:
                    raise BenchError("more than one answer to one frame")
                return json.loads(done[0])

    def close(self) -> None:
        self.sock.close()


#: One request: (kind, tenant index, argument, wire bytes).
Op = Tuple[str, int, Any, bytes]


def closed_loop(conns: List[Connection], ops: List[Iterator[Op]],
                seconds: float,
                record: Callable[[Op, Dict[str, Any], float], None]
                ) -> Dict[str, float]:
    """Drive every connection closed loop for ``seconds``.

    Each connection sends its next op only after the answer to the
    previous one. No new op starts after the deadline; answers still
    outstanding are awaited. ``record(op, answer, latency_s)`` sees
    every answer. Returns when it started, the wall time from the first
    send to the last answer and the share of it the generator spent off
    ``select``.
    """
    sel = selectors.DefaultSelector()
    pending: Dict[int, Tuple[Op, float]] = {}
    idle = 0.0
    started = time.perf_counter()
    deadline = started + seconds

    def send(index: int) -> None:
        op = next(ops[index], None)
        if op is None:
            sel.unregister(conns[index].sock)
            return
        pending[index] = (op, time.perf_counter())
        conns[index].sock.sendall(op[3])

    for index, conn in enumerate(conns):
        sel.register(conn.sock, selectors.EVENT_READ, index)
        send(index)
    while pending:
        waited = time.perf_counter()
        events = sel.select(DEADLINE)
        now = time.perf_counter()
        idle += now - waited
        if not events:
            raise BenchError("no answer from the service in time")
        for key, _ in events:
            index = key.data
            for line in conns[index].lines():
                op, sent = pending.pop(index)
                record(op, json.loads(line), now - sent)
                if now < deadline:
                    send(index)
                else:
                    sel.unregister(conns[index].sock)
    sel.close()
    wall = time.perf_counter() - started
    return {"started": started, "wall_s": wall,
            "busy_share": 1.0 - idle / wall}
