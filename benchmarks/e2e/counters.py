"""Hardware instruction counts of a process, through perf_event_open(2).

On a shared host the wall time of identical work moves by tens of
percent within a minute (other tenants contend for caches and memory
bandwidth), while the number of instructions it retires repeats to
within half a percent.  The end-to-end gate therefore counts the
server's retired user-space instructions per request; wall-clock
latency is printed beside it.
"""

from __future__ import annotations

import ctypes
import errno
import fcntl
import os
import platform
import struct
import time
from typing import List

#: perf_event_open's system call number per machine.
_SYSCALL = {"x86_64": 298, "aarch64": 241}

_PERF_TYPE_HARDWARE = 0
_PERF_COUNT_HW_INSTRUCTIONS = 1
_ATTR_SIZE = 128
# perf_event_attr flag bits: disabled, inherit, exclude_kernel, exclude_hv.
_FLAGS = (1 << 0) | (1 << 1) | (1 << 5) | (1 << 6)
_IOC_ENABLE = 0x2400
_IOC_RESET = 0x2403


_ATTEMPTS = 100


class CounterError(RuntimeError):
    """The host gives no access to a hardware instruction counter."""


class _ThreadGone(CounterError):
    """The thread to count ended before its counter opened."""


def _perf_event_open(tid: int) -> int:
    number = _SYSCALL.get(platform.machine())
    if number is None:
        raise CounterError(f"perf_event_open unknown on "
                           f"{platform.machine()!r}")
    attr = bytearray(_ATTR_SIZE)
    struct.pack_into("IIQ", attr, 0, _PERF_TYPE_HARDWARE, _ATTR_SIZE,
                     _PERF_COUNT_HW_INSTRUCTIONS)
    struct.pack_into("Q", attr, 40, _FLAGS)
    buffer = ctypes.create_string_buffer(bytes(attr), _ATTR_SIZE)
    libc = ctypes.CDLL(None, use_errno=True)
    # syscall(2) is variadic, so each argument carries its C type.
    libc.syscall.restype = ctypes.c_long
    fd = libc.syscall(ctypes.c_long(number), buffer, ctypes.c_int(tid),
                      ctypes.c_int(-1), ctypes.c_int(-1), ctypes.c_ulong(0))
    if fd < 0:
        code = ctypes.get_errno()
        kind = _ThreadGone if code == errno.ESRCH else CounterError
        raise kind(f"perf_event_open(thread {tid}): {os.strerror(code)}")
    return int(fd)


def threads(pid: int) -> List[int]:
    """The thread ids of process ``pid``."""
    return sorted(int(name) for name in os.listdir(f"/proc/{pid}/task"))


class InstructionCounter:
    """User-space instructions retired by one process since it was made.

    One counter per thread that exists when it is made, each inherited
    by the threads that thread starts later.  An inherited counter adds
    its count to its parent's when its thread exits, so :meth:`read`
    includes a short-lived thread only once it has ended; read while the
    process is idle.
    """

    def __init__(self, pid: int) -> None:
        self._fds: List[int] = []
        try:
            self._open(pid)
            for fd in self._fds:
                fcntl.ioctl(fd, _IOC_RESET, 0)
            for fd in self._fds:
                fcntl.ioctl(fd, _IOC_ENABLE, 0)
        except BaseException:
            self.close()
            raise

    def _open(self, pid: int) -> None:
        # A thread that ends between listing and opening (the last
        # request's handler) makes the open fail; list again.
        for _ in range(_ATTEMPTS):
            tids = threads(pid)
            try:
                for tid in tids:
                    self._fds.append(_perf_event_open(tid))
            except _ThreadGone:
                self.close()
                time.sleep(0.01)
                continue
            if threads(pid) == tids:
                return
            self.close()
        raise CounterError(f"the threads of process {pid} kept changing "
                           f"while their counters opened")

    def read(self) -> int:
        """Instructions retired so far, summed over every counter."""
        return sum(struct.unpack("Q", os.read(fd, 8))[0] for fd in self._fds)

    def close(self) -> None:
        for fd in self._fds:
            os.close(fd)
        self._fds = []

    def __enter__(self) -> "InstructionCounter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
