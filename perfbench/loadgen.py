"""HTTP/1.1 load generator: one process, asyncio, keep-alive.

``run_schedule`` is the open loop: requests are sent on a schedule fixed
before the run.  At most ``connections``
requests are in flight; a request due while every connection is busy waits
for one, and that wait shows as lateness and in its latency, because latency
is measured from the scheduled send time.  Nothing is retried: a failed
request is recorded as failed.  An ``on_idle`` callback runs only while no
request is queued or in flight and the next one is at least ``IDLE_GAP_S``
away, so whatever it does (calibration slices) delays no request.
``run_closed`` is the closed loop: one connection, each request sent when the
previous one has been answered, timed from its send.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

#: ``on_idle`` runs only when the next request is due at least this far ahead.
IDLE_GAP_S = 0.015


@dataclass
class Request:
    at: float  # seconds after the schedule starts
    path: str
    body: dict
    timed: bool = True  # False for warm-up traffic, which is checked but not timed


@dataclass
class Outcome:
    request: Request
    scheduled: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: Optional[dict] = None
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.scheduled) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.scheduled) * 1e3


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str, body: Optional[dict] = None):
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        data = json.dumps(body).encode() if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + data)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await self._reader.readexactly(length) if length else b""
        return status, raw

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = self._reader = None


async def _drive(host: str, port: int, schedule: list[Request], connections: int,
                 on_idle: Optional[Callable[[], None]]) -> list[Outcome]:
    queue: asyncio.Queue = asyncio.Queue()
    outcomes: list[Outcome] = []
    pending = 0  # queued or in flight
    idle = asyncio.Event()
    start = time.perf_counter() + 0.05

    async def wait_idle(due: float) -> None:
        """Run ``on_idle`` once if nothing gets pending before ``due``'s gap."""
        while due - time.perf_counter() > IDLE_GAP_S:
            if pending == 0:
                on_idle()
                return
            idle.clear()
            try:
                await asyncio.wait_for(idle.wait(), due - time.perf_counter() - IDLE_GAP_S)
            except asyncio.TimeoutError:
                return

    async def feeder() -> None:
        nonlocal pending
        for request in schedule:
            due = start + request.at
            if on_idle is not None:
                await wait_idle(due)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome = Outcome(request, due)
            outcomes.append(outcome)
            pending += 1
            queue.put_nowait(outcome)
        for _ in range(connections):
            queue.put_nowait(None)

    async def sender() -> None:
        nonlocal pending
        conn = Connection(host, port)
        try:
            while True:
                outcome = await queue.get()
                if outcome is None:
                    return
                outcome.sent = time.perf_counter()
                try:
                    status, raw = await conn.request("POST", outcome.request.path, outcome.request.body)
                    outcome.status = status
                    outcome.payload = json.loads(raw) if raw else None
                except (OSError, ConnectionError, asyncio.IncompleteReadError, ValueError) as exc:
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    await conn.close()
                outcome.done = time.perf_counter()
                pending -= 1
                if pending == 0:
                    idle.set()
        finally:
            await conn.close()

    tasks = [asyncio.create_task(sender()) for _ in range(connections)]
    await feeder()
    await asyncio.gather(*tasks)
    return outcomes


def run_schedule(url: str, schedule: list[Request], connections: int,
                 on_idle: Optional[Callable[[], None]] = None) -> list[Outcome]:
    host, port = url.rsplit("//", 1)[1].rsplit(":", 1)
    return asyncio.run(_drive(host, int(port), schedule, connections, on_idle))


async def _closed(host: str, port: int, requests: Iterable[Request], seconds: float,
                  between: Optional[Callable[[], None]]) -> list[Outcome]:
    outcomes: list[Outcome] = []
    conn = Connection(host, port)
    deadline = time.perf_counter() + seconds
    try:
        for request in requests:
            if time.perf_counter() >= deadline:
                break
            if between is not None:
                between()
            outcome = Outcome(request, time.perf_counter())
            outcome.sent = outcome.scheduled
            try:
                status, raw = await conn.request("POST", request.path, request.body)
                outcome.status = status
                outcome.payload = json.loads(raw) if raw else None
            except (OSError, ConnectionError, asyncio.IncompleteReadError, ValueError) as exc:
                outcome.error = f"{type(exc).__name__}: {exc}"
                await conn.close()
            outcome.done = time.perf_counter()
            outcomes.append(outcome)
    finally:
        await conn.close()
    return outcomes


def run_closed(url: str, requests: Iterable[Request], seconds: float = float("inf"),
               between: Optional[Callable[[], None]] = None) -> list[Outcome]:
    """Send ``requests`` one after another until they run out or ``seconds`` pass.

    ``between`` runs before each send, while nothing is in flight.
    """
    host, port = url.rsplit("//", 1)[1].rsplit(":", 1)
    return asyncio.run(_closed(host, int(port), requests, seconds, between))


def get_json(url: str, path: str, timeout: float = 30.0) -> tuple[int, Any]:
    """One blocking GET outside the timed phase (readiness, /stats)."""
    import http.client

    host, port = url.rsplit("//", 1)[1].rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    try:
        return response.status, json.loads(body)
    except ValueError:
        return response.status, body.decode("utf-8", "replace")
