"""The live server under test and the two load generators driving it.

The server is the real ``python -m repro.cli serve`` in its own process;
the benchmark talks to it only over HTTP.
"""

from __future__ import annotations

import http.client
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from counters import threads

clock = time.perf_counter

SERVE_ARGS = ("-m", "repro.cli", "serve", "--port", "0", "--jobs", "2")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 120.0
SETTLE_TIMEOUT_S = 10.0
IDLE_WINDOW_S = 0.05
_PORT = re.compile(r"serving on http://[^:]+:(\d+) ")


class ServerError(RuntimeError):
    """The server did not start, answer, or stop as expected."""


@dataclass
class Sample:
    """One request as the client saw it.

    ``scheduled`` is when the request was due: the previous answer in a
    closed loop, the arrival instant in an open loop.  Latency counts
    from there, so a stalled generator shows up in it.
    """

    scheduled: float
    sent: float
    done: float
    status: int
    cache: Optional[str]
    session: Optional[str]
    request_sha: Optional[str]
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.scheduled

    @property
    def round_trip(self) -> float:
        return self.done - self.sent

    @property
    def lag(self) -> float:
        return self.sent - self.scheduled


class ServerProcess:
    """One ``serve`` subprocess on an ephemeral port.

    ``spawned`` is taken just before the process is created, so
    ``wait_healthy() - spawned`` is the server's start-up time.
    """

    def __init__(self, root: str, work_dir: str, name: str,
                 access_log: Optional[str] = None) -> None:
        args = [sys.executable, *SERVE_ARGS]
        if access_log is not None:
            args += ["--access-log", access_log]
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        env["PYTHONUNBUFFERED"] = "1"
        # The server stamps provenance with `git rev-parse`; keep git
        # from looking above the checkout it runs in.
        env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(root)
        self.stderr_path = os.path.join(work_dir, f"{name}.stderr")
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        self.spawned = clock()
        self.proc = subprocess.Popen(
            args, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._stderr, text=True)
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        match = _PORT.search(line)
        if match is None:
            raise ServerError(f"server did not report its port "
                              f"(stdout {line!r}, stderr "
                              f"{self.stderr_path})")
        return int(match.group(1))

    def wait_healthy(self) -> float:
        """Poll ``/healthz`` until it answers 200; return that instant."""
        deadline = self.spawned + START_TIMEOUT_S
        while True:
            connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S)
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return clock()
            except OSError:
                pass
            finally:
                connection.close()
            if clock() > deadline or self.proc.poll() is not None:
                raise ServerError("server never answered /healthz")
            time.sleep(0.005)

    def thread_count(self) -> int:
        """How many threads the server runs right now."""
        return len(threads(self.proc.pid))

    def idle_threads(self) -> int:
        """The server's thread count once the last handler has ended.

        Call with no request in flight: the fewest threads seen over
        :data:`IDLE_WINDOW_S`.
        """
        fewest = self.thread_count()
        deadline = clock() + IDLE_WINDOW_S
        while clock() < deadline:
            time.sleep(0.001)
            fewest = min(fewest, self.thread_count())
        return fewest

    def settle(self, idle_threads: int) -> None:
        """Wait until the server is back to ``idle_threads`` threads.

        A request's handler thread ends just after its answer is sent;
        its instructions reach an :class:`InstructionCounter` only then.
        """
        deadline = clock() + SETTLE_TIMEOUT_S
        while self.thread_count() > idle_threads:
            if clock() > deadline:
                raise ServerError(f"server still runs more than "
                                  f"{idle_threads} threads after "
                                  f"{SETTLE_TIMEOUT_S:g} s")
            time.sleep(0.001)

    def vm_hwm_mb(self) -> float:
        """The server's peak resident set so far (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait, and return the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()
        return self.proc.returncode

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def post(port: int, path: str, body: bytes, scheduled: float) -> Sample:
    """POST ``body`` on a fresh connection, like a simple HTTP client.

    One connection per request (``Connection: close``), as ``curl`` and
    ``urllib`` clients do.  A transport failure scores as status 0.
    """
    sent = clock()
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=HTTP_TIMEOUT_S)
    try:
        connection.request("POST", path, body=body,
                           headers={"Content-Type": "application/json",
                                    "Connection": "close"})
        response = connection.getresponse()
        data = response.read()
    except (OSError, http.client.HTTPException):
        return Sample(scheduled, sent, clock(), 0, None, None, None, b"")
    finally:
        connection.close()
    return Sample(scheduled, sent, clock(), response.status,
                  response.getheader("X-BC-Cache"),
                  response.getheader("X-BC-Session"),
                  response.getheader("X-BC-Request-SHA256"), data)


OnSample = Callable[[int, Sample], None]


def closed_loop(port: int, next_request: Callable[[int],
                                                  Tuple[str, bytes]],
                seconds: float, count: int,
                on_sample: Optional[OnSample] = None
                ) -> Tuple[List[Sample], float, float]:
    """One client: send, wait for the answer, send the next.

    Runs until ``seconds`` have passed *and* ``count`` requests are
    done.  Returns the samples and the start and end instants.
    """
    samples: List[Sample] = []
    start = clock()
    scheduled = start
    while len(samples) < count or scheduled - start < seconds:
        index = len(samples)
        path, body = next_request(index)
        sample = post(port, path, body, scheduled)
        samples.append(sample)
        if on_sample is not None:
            on_sample(index, sample)
        scheduled = sample.done
    return samples, start, scheduled


def open_loop(port: int, path: str, bodies: Sequence[bytes],
              offsets: Sequence[float], senders: int,
              on_sample: Optional[OnSample] = None
              ) -> Tuple[List[Sample], float, float]:
    """Send ``bodies[k]`` at ``start + offsets[k]`` whatever the answers.

    A fixed crew of sender threads claims arrivals in order; when every
    sender is busy the next arrival goes out late and its latency still
    counts from its due instant.
    """
    samples: List[Optional[Sample]] = [None] * len(offsets)
    cursor_lock = threading.Lock()
    cursor = [0]
    start = clock()

    def send() -> None:
        while True:
            with cursor_lock:
                index = cursor[0]
                if index >= len(offsets):
                    return
                cursor[0] = index + 1
            scheduled = start + offsets[index]
            delay = scheduled - clock()
            if delay > 0.0:
                time.sleep(delay)
            sample = post(port, path, bodies[index], scheduled)
            samples[index] = sample
            if on_sample is not None:
                on_sample(index, sample)

    crew = [threading.Thread(target=send, name=f"e2e-sender-{i}")
            for i in range(senders)]
    try:
        for thread in crew:
            thread.start()
    finally:
        for thread in crew:
            if thread.ident is not None:
                thread.join()
    if any(sample is None for sample in samples):
        raise ServerError("a sender thread died before its arrivals")
    done = [sample for sample in samples if sample is not None]
    return done, start, max(sample.done for sample in done)
