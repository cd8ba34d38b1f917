"""Closed-loop HTTP/1.1 load over raw keep-alive sockets.

The client is kept cheap so that it never becomes the bottleneck on
the hot workload: requests are encoded once, before timing, and a
response is parsed only as far as its status line, its
``Content-Length`` and the body the caller checks.  Several
connections are served by one thread through a selector; each
connection sends its next request only after the previous reply has
fully arrived (a closed loop), taking the next index from the shared
list.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

#: a reply that does not arrive within this many seconds is a failure
REPLY_TIMEOUT_S = 60.0

#: ``check(index, status, body)`` returns a complaint or ``None``
Check = Callable[[int, int, bytes], Optional[str]]


def encode_post(path: str, body: bytes) -> bytes:
    """The complete wire form of one POST request."""
    head = (f"POST {path} HTTP/1.1\r\nHost: perfbench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("ascii") + body


def _take_reply(buf: bytes
                ) -> Tuple[Optional[Tuple[int, bytes, bool]], bytes]:
    """Split one whole reply, ``(status, body, server_closes)``, off
    the front of ``buf``; ``(None, buf)`` while it is incomplete."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None, buf
    head = buf[:end].lower()
    at = head.find(b"\r\ncontent-length:")
    if at < 0:
        raise ConnectionError("reply without Content-Length")
    stop = head.find(b"\r\n", at + 2)
    length = int(head[at + 17:stop if stop >= 0 else len(head)])
    total = end + 4 + length
    if len(buf) < total:
        return None, buf
    closes = b"\r\nconnection: close" in head
    return (int(buf[9:12]), buf[end + 4:total], closes), buf[total:]


@dataclass
class LoadResult:
    """Per-request outcome of one closed-loop phase."""

    #: client latency per request, seconds (None when it failed in
    #: transport before any reply)
    latency_s: List[Optional[float]]
    #: (index, complaint) for every failed request
    failures: List[Tuple[int, str]] = field(default_factory=list)
    wall_s: float = 0.0
    #: CPU seconds of this (client) process over the phase
    client_cpu_s: float = 0.0

    @property
    def ok(self) -> int:
        return len(self.latency_s) - len(self.failures)


class _Conn:
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port),
                                             timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""
        self.index = -1
        self.sent = 0.0

    def close(self) -> None:
        self.sock.close()


def run_closed_loop(host: str, port: int, wires: Sequence[bytes],
                    check: Check, connections: int = 1) -> LoadResult:
    """Send every request in ``wires`` over ``connections`` keep-alive
    connections, each waiting for its reply before sending again."""
    result = LoadResult(latency_s=[None] * len(wires))
    sel = selectors.DefaultSelector()
    next_index = 0

    def start(conn: _Conn) -> bool:
        nonlocal next_index
        if next_index >= len(wires):
            return False
        conn.index = next_index
        next_index += 1
        conn.sent = time.perf_counter()
        conn.sock.sendall(wires[conn.index])
        return True

    def reconnect(conn: _Conn) -> _Conn:
        sel.unregister(conn.sock)
        conn.close()
        fresh = _Conn(host, port)
        sel.register(fresh.sock, selectors.EVENT_READ, fresh)
        live[live.index(conn)] = fresh
        return fresh

    live: List[_Conn] = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for _ in range(min(connections, len(wires))):
        conn = _Conn(host, port)
        sel.register(conn.sock, selectors.EVENT_READ, conn)
        live.append(conn)
    active = sum(1 for conn in live if start(conn))
    try:
        while active:
            events = sel.select(REPLY_TIMEOUT_S)
            if not events:
                for conn in live:
                    if conn.index >= 0:
                        result.failures.append((conn.index,
                                                "reply timed out"))
                break
            for key, _ in events:
                conn = key.data
                try:
                    data = conn.sock.recv(1 << 16)
                except OSError as err:
                    data, why = b"", f"transport error: {err}"
                else:
                    why = "connection closed by server"
                if not data:
                    result.failures.append((conn.index, why))
                    conn = reconnect(conn)
                    if not start(conn):
                        active -= 1
                    continue
                reply, conn.buf = _take_reply(conn.buf + data)
                if reply is None:
                    continue
                done = time.perf_counter()
                status, body, closes = reply
                result.latency_s[conn.index] = done - conn.sent
                complaint = check(conn.index, status, body)
                if complaint is not None:
                    result.failures.append((conn.index, complaint))
                if closes:
                    conn = reconnect(conn)
                if not start(conn):
                    conn.index = -1
                    active -= 1
    finally:
        result.wall_s = time.perf_counter() - t0
        result.client_cpu_s = time.process_time() - cpu0
        result.failures.extend((i, "not sent: load aborted")
                               for i in range(next_index, len(wires)))
        for conn in live:
            conn.close()
        sel.close()
    return result
