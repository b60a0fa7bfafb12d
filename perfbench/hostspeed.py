"""Host-speed probe: scale measured times to a fixed nominal host speed.

On a small shared VM the speed of a pure-Python loop drifts by up to
1.5-1.8x over tens of seconds, and it decorrelates within about 100 ms.
Raw medians of two sets of runs of identical code differed by up to 31%
there.  So every timed span of the benchmark is bracketed by probes: a
fixed loop of the benchmark's own, with no code of the system under
test, timed right before and right after the span.  The span is then scaled by
``NOMINAL_PROBE_S / probe``, i.e. reported as the time it would have
taken on a host that runs the probe in exactly ``NOMINAL_PROBE_S``.
Units stay seconds; raw values are kept beside the scaled ones.
"""

from __future__ import annotations

import gc
import json
import socket
import statistics
import time
from collections import deque
from typing import Dict, Generator, List

#: Probe time of the nominal host, in seconds (about this loop's median
#: on a 2-vCPU x86-64 VM running CPython 3.11).
NOMINAL_PROBE_S = 0.0005

#: Probe samples per reading; the median drops a sample hit by preemption.
SAMPLES = 3


class _Slot:
    __slots__ = ("key", "count")

    def __init__(self, key: str) -> None:
        self.key = key
        self.count = 0

    def bump(self, by: int) -> int:
        self.count += by
        return self.count


def _accumulate() -> Generator[int, int, None]:
    total = 0
    while True:
        total += yield total


_MESSAGE = {"kind": "write", "obj": "n12.o34", "value": 123456, "req": 789}


def _loop(near: socket.socket, far: socket.socket) -> float:
    """One probe sample, in four parts of about equal time: dict,
    attribute and call traffic; JSON encoding and decoding; generator
    switching from a run queue; and small messages over a local socket
    pair.  That is the operation mix a request path over loopback TCP is
    made of; a tight loop of one kind alone tracks the workloads' speed
    worse."""
    slots: Dict[str, _Slot] = {f"k{i}": _Slot(f"k{i}") for i in range(64)}
    queue = deque(_accumulate() for _ in range(8))
    for gen in queue:
        next(gen)
    started = time.perf_counter()
    acc = 0
    for i in range(250):
        slot = slots["k%d" % (i & 63)]
        acc += slot.bump(i & 7) & 15
    for _ in range(15):
        acc += len(json.loads(json.dumps(_MESSAGE, separators=(",", ":"))))
    for i in range(800):
        gen = queue.popleft()
        acc += gen.send(i & 7) & 1
        queue.append(gen)
    for _ in range(35):
        near.send(b"q" * 64)
        acc += len(far.recv(256))
        far.send(b"r" * 32)
        acc += len(near.recv(256))
    return time.perf_counter() - started


def probe() -> float:
    """One probe reading in seconds: the median of a few samples, taken
    with the garbage collector paused so the reading does not depend on
    how much the process has allocated."""
    enabled = gc.isenabled()
    gc.disable()
    near, far = socket.socketpair()
    try:
        return statistics.median(_loop(near, far) for _ in range(SAMPLES))
    finally:
        near.close()
        far.close()
        if enabled:
            gc.enable()


class Scaler:
    """Probe readings around consecutive timed spans.

    :meth:`add` a :func:`probe` reading between spans (and once before
    the first one);
    :meth:`factor` then gives the scale of the span between the last two
    readings, from the mean of its bracketing probes.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []

    def add(self, reading: float) -> float:
        self.readings.append(reading)
        return reading

    def factor(self) -> float:
        before, after = self.readings[-2], self.readings[-1]
        return NOMINAL_PROBE_S / ((before + after) / 2.0)

    def summary(self) -> Dict[str, float]:
        """Probe readings in microseconds, for the printed report."""
        values = self.readings or [float("nan")]
        return {
            "probes": len(self.readings),
            "nominal_us": NOMINAL_PROBE_S * 1e6,
            "median_us": statistics.median(values) * 1e6,
            "min_us": min(values) * 1e6,
            "max_us": max(values) * 1e6,
        }
