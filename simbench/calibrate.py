"""Host-speed calibration.

A shared host changes speed by up to 2x for seconds to minutes at a
time (other tenants on the same cores), and such a phase slows the
whole machine, so no statistic over one run's own timings can remove
it.  The benchmark therefore times two fixed pure-Python
discrete-event kernels next to every execution and expresses host
time in *reference seconds*: the seconds the same work would take on a
host where the kernels run at the reference rates below.

The kernels use nothing from ``repro``, so a change to the simulator
never moves them: a faster simulator shows as more simulated seconds
per reference second.  One kernel is small and cache-resident (a ring
of eight nodes); the other is wide (256 stations, a deep event heap,
per-flow dictionaries).  Slow phases hit the two differently, and the
geometric mean of their speeds tracks the simulator's own slowdown
better than either alone.

Slow phases are per CPU (on a 2-vCPU VM one vCPU often runs at half
speed while the other does not, and they swap every few seconds), so a
calibration must run where the work runs: an in-process workload is
pinned to one CPU and calibrated there; a worker pool is calibrated on
each of its CPUs (:func:`calibrate_cpus`).
"""

from __future__ import annotations

import heapq
import math
import os
import random
import time
from collections import deque
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Events each kernel executes per calibration.
EVENTS = 30_000
#: Kernel events per second on the reference host, uncontended: a
#: 2-vCPU Intel Xeon VM running CPython 3.11.
REFERENCE_RATES = {"ring": 1.0e6, "stations": 6.0e5}


class Speed:
    """One calibration: the host's speed relative to the reference
    host, by wall time and by CPU time (1.0 = reference speed)."""

    __slots__ = ("wall", "cpu")

    def __init__(self, wall: float, cpu: float):
        self.wall = wall
        self.cpu = cpu

    @staticmethod
    def between(before: "Speed", after: "Speed") -> "Speed":
        """The speed over an interval calibrated at both ends."""
        return Speed(math.sqrt(before.wall * after.wall),
                     math.sqrt(before.cpu * after.cpu))


def _ring(events: int) -> None:
    """Frames bouncing between eight nodes through a small heap."""
    rng = random.Random(7)
    heap: List[Tuple[float, int, Callable[..., None], Any]] = []
    seq = 0
    inboxes: List[List[Tuple[int, int, float]]] = [[] for _ in range(8)]
    totals: Dict[int, int] = {}

    def deliver(node: int, frame: Tuple[int, int, float], _now: float
                ) -> None:
        inbox = inboxes[node]
        inbox.append(frame)
        if len(inbox) > 4:
            inbox.pop(0)
        totals[node] = totals.get(node, 0) + frame[1]

    def send(node: int, _frame: Any, now: float) -> None:
        nonlocal seq
        frame = (node, rng.randrange(40, 1500), now)
        seq += 1
        heapq.heappush(heap, (now + rng.random() * 1e-3, seq, deliver,
                              ((node + 3) % 8, frame)))
        seq += 1
        heapq.heappush(heap, (now + rng.expovariate(1e3), seq, send,
                              (node, None)))

    for node in range(8):
        seq += 1
        heapq.heappush(heap, (rng.random(), seq, send, (node, None)))
    for _ in range(events):
        now, _, fn, (node, frame) = heapq.heappop(heap)
        fn(node, frame, now)


class _Station:
    __slots__ = ("sid", "queue", "received", "peers")

    def __init__(self, sid: int):
        self.sid = sid
        self.queue: deque = deque()
        self.received: Dict[int, int] = {}
        self.peers: List["_Station"] = []


def _stations(events: int) -> None:
    """Poisson arrivals and backoff-timed transmissions at 256
    stations, with per-flow accounting."""
    rng = random.Random(11)
    stations = [_Station(i) for i in range(256)]
    for station in stations:
        station.peers = [stations[rng.randrange(256)] for _ in range(4)]
    heap: List[Tuple[float, int, Callable[..., None], _Station]] = []
    flows: Dict[Tuple[int, int], List[float]] = {}
    seq = 0

    def push(at: float, fn: Callable[..., None], station: _Station
             ) -> None:
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (at, seq, fn, station))

    def arrive(station: _Station, now: float) -> None:
        station.queue.append((station.peers[seq & 3],
                              rng.randrange(40, 1500), now))
        if len(station.queue) > 32:
            station.queue.popleft()
        push(now + rng.expovariate(200.0), arrive, station)
        if len(station.queue) == 1:
            push(now + (rng.randrange(16) + 1) * 9e-6, transmit, station)

    def transmit(station: _Station, now: float) -> None:
        if not station.queue:
            return
        dst, size, born = station.queue.popleft()
        flow = flows.get((station.sid, dst.sid))
        if flow is None:
            flow = flows[(station.sid, dst.sid)] = [0, 0, 0.0]
        flow[0] += 1
        flow[1] += size
        flow[2] += now - born
        dst.received[station.sid] = \
            dst.received.get(station.sid, 0) + size
        if station.queue:
            push(now + size * 8e-8 + (rng.randrange(16) + 1) * 9e-6,
                 transmit, station)

    for station in stations:
        push(rng.random() * 1e-2, arrive, station)
    for _ in range(events):
        now, _, fn, station = heapq.heappop(heap)
        fn(station, now)


_KERNELS = {"ring": _ring, "stations": _stations}


def calibrate() -> Speed:
    """Run both kernels once; the geometric mean of their speeds."""
    wall = cpu = 1.0
    for name, kernel in _KERNELS.items():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        kernel(EVENTS)
        reference_s = EVENTS / REFERENCE_RATES[name]
        wall *= reference_s / (time.perf_counter() - wall0)
        cpu *= reference_s / (time.process_time() - cpu0)
    return Speed(math.sqrt(wall), math.sqrt(cpu))



def calibrate_cpus(cpus: Sequence[int]) -> Speed:
    """Calibrate each CPU of ``cpus`` in turn, pinned to it, then
    restore the affinity: their mean speed, for work spread over them.
    In turn, not at once: two kernels running together on SMT sibling
    vCPUs slow each other far more than the simulator's workers do."""
    allowed = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append(calibrate())
    finally:
        os.sched_setaffinity(0, allowed)
    return Speed(sum(s.wall for s in speeds) / len(speeds),
                 sum(s.cpu for s in speeds) / len(speeds))
