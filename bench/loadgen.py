"""Closed-loop HTTP load generator over raw sockets.

One process, one thread per keep-alive connection; each thread sends its
next request only after the previous reply is complete (callers wait for
replies).  The client is a minimal HTTP/1.1 implementation on a plain
``socket`` with **default socket options** — no ``TCP_NODELAY`` or
``TCP_QUICKACK`` — so it pays whatever the server's framing costs a real
client.  Three timestamps are kept per request (send, first byte, last
byte); response bodies are kept as bytes and decoded only after timing.

No ``repro`` imports: the program under test sees only bytes on a socket.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = ["HttpConnection", "Sample", "run_pass"]


@dataclass
class Sample:
    """One request as the client saw it (times from ``perf_counter_ns``)."""

    index: int  # which distinct request of the pool this was
    send_ns: int
    first_ns: int
    last_ns: int
    status: int  # 0 on a transport error
    body: bytes
    request_id: int = -1  # set by the runner on traced passes

    @property
    def latency_s(self) -> float:
        return (self.last_ns - self.send_ns) / 1e9

    @property
    def ok(self) -> bool:
        return self.status == 200


class HttpConnection:
    """One keep-alive HTTP/1.1 connection with default socket options."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host, self.port, self.timeout = host, port, timeout
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    @classmethod
    def from_url(cls, url: str) -> "HttpConnection":
        """A connection to ``http://host:port``."""
        host, __, port = url.rpartition("//")[2].partition(":")
        return cls(host, int(port))

    def _connect(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._buffer = b""
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, bytes, int, int, int]:
        """``(status, body, send_ns, first_byte_ns, last_byte_ns)``.

        Raises ``OSError``/``ValueError`` on a transport or framing error;
        the connection is closed so the next request redials.
        """
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        try:
            sock = self._connect()
            send_ns = time.perf_counter_ns()
            sock.sendall(head + body)
            first_ns = 0
            data = self._buffer
            while b"\r\n\r\n" not in data:
                chunk = sock.recv(65536)
                if not first_ns:
                    first_ns = time.perf_counter_ns()
                if not chunk:
                    raise ConnectionError("server closed the connection")
                data += chunk
            header, __, rest = data.partition(b"\r\n\r\n")
            lines = header.split(b"\r\n")
            status = int(lines[0].split()[1])
            length = 0
            for line in lines[1:]:
                name, __, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value.strip())
            while len(rest) < length:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("server closed mid-body")
                rest += chunk
            last_ns = time.perf_counter_ns()
            self._buffer = rest[length:]
            return status, rest[:length], send_ns, first_ns or last_ns, last_ns
        except (OSError, ValueError, IndexError):
            self.close()
            raise


def run_pass(
    connections: Sequence[HttpConnection],
    sequences: Sequence[Sequence[int]],
    bodies: Sequence[bytes],
    path: str = "/search",
) -> Tuple[float, List[List[Sample]], float]:
    """One closed-loop pass: connection ``c`` sends ``sequences[c]``.

    Returns ``(wall_seconds, samples_per_connection,
    generator_cpu_seconds)``.  Threads
    start together behind a barrier; wall runs from the barrier to the
    last reply.
    """
    barrier = threading.Barrier(len(connections) + 1)
    per_thread: List[List[Sample]] = [[] for __ in connections]
    cpu: List[float] = [0.0] * len(connections)

    def worker(slot: int) -> None:
        connection, out = connections[slot], per_thread[slot]
        barrier.wait()
        cpu_start = time.thread_time()
        for index in sequences[slot]:
            try:
                status, body, send_ns, first_ns, last_ns = connection.request(
                    "POST", path, bodies[index]
                )
            except (OSError, ValueError, IndexError):
                now = time.perf_counter_ns()
                out.append(Sample(index, now, now, now, 0, b""))
                continue
            out.append(Sample(index, send_ns, first_ns, last_ns, status, body))
        cpu[slot] = time.thread_time() - cpu_start

    threads = [
        threading.Thread(target=worker, args=(slot,), daemon=True)
        for slot in range(len(connections))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return wall, per_thread, sum(cpu)
