"""The instruction counter the end-to-end gate rests on."""

import gc
import os
import subprocess
import sys
import threading

import pytest

from counters import CounterError, InstructionCounter, threads


def _work(rounds):
    total = 0
    for value in range(rounds):
        total += value * value % 7
    return total


def _counted(counter, function):
    # A garbage collection inside the call would add millions.
    gc.disable()
    try:
        before = counter.read()
        function()
        return counter.read() - before
    finally:
        gc.enable()


@pytest.fixture
def counter():
    try:
        instance = InstructionCounter(os.getpid())
    except CounterError as error:
        pytest.skip(f"no instruction counter here: {error}")
    with instance:
        yield instance


def test_the_same_work_counts_the_same(counter):
    counts = sorted(_counted(counter, lambda: _work(200_000))
                    for _ in range(7))
    # One call in a few also pays a one-off interpreter cost of a few
    # percent (its first call, for one); the middle ones agree closely.
    middle = counts[2:5]
    assert middle[0] > 0
    assert (middle[-1] - middle[0]) / middle[0] < 0.001


def test_twice_the_work_counts_about_twice(counter):
    once = _counted(counter, lambda: _work(200_000))
    twice = _counted(counter, lambda: _work(400_000))
    assert 1.8 < twice / once < 2.2


def test_a_thread_started_later_counts_once_it_ends(counter):
    alone = _counted(counter, lambda: _work(1000))

    def in_a_thread():
        worker = threading.Thread(target=_work, args=(400_000,))
        worker.start()
        worker.join()

    with_thread = _counted(counter, in_a_thread)
    reference = _counted(counter, lambda: _work(400_000))
    assert with_thread - alone > 0.8 * reference


def test_counts_another_process():
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import sys\n"
         "sys.stdin.readline()\n"
         "sum(i * i for i in range(300000))\n"
         "sys.stdin.readline()\n"],
        stdin=subprocess.PIPE, text=True)
    try:
        try:
            counter = InstructionCounter(child.pid)
        except CounterError as error:
            pytest.skip(f"no instruction counter here: {error}")
        with counter:
            assert threads(child.pid) == [child.pid]
            idle = counter.read()
            child.stdin.write("\n")
            child.stdin.flush()
            child.stdin.write("\n")
            child.stdin.close()
            child.wait(30)
            assert counter.read() - idle > 10_000_000
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
