"""Host-speed monitor: times a fixed pure-Python loop on one CPU.

    python3 perfbench/hostspeed.py --cpu N [--interval S]

Pinned to CPU ``N``, it runs a burst of ``Calibration`` work (about
1 ms) every ``--interval`` seconds and prints one
``BURST <start> <small> <large>`` line per burst: the seconds the two
halves took, ``start`` on the ``perf_counter`` clock (system-wide
monotonic on Linux, so comparable with the times other processes
report).  It stops when its standard input closes.

The benchmark runs on a few CPUs of a shared host whose speed changes
by up to 1.7x over spells of seconds to minutes, with the program
unchanged.  The loop's time while a unit of work runs says how slow the
CPU was then; the harness divides the unit's time by that slowdown
(``run.py``, ``HostMonitor``).  A burst runs under the real-time
``SCHED_FIFO`` policy, so the work sharing the CPU never preempts it
(where the policy is not allowed, at normal priority); at a 0.1 s
interval the bursts take about 1% of the CPU.

Between bursts the monitor spins under ``SCHED_IDLE``: it runs only
when nothing else wants the CPU, and any woken task preempts it at
once.  It keeps the virtual CPU from halting while the work waits, so a
wake-up costs a context switch instead of a trip through the
hypervisor.  The service's client and server wake each other about
2,500 times a second; with the CPU left to idle between requests, the
median request latency moved by 11-36% between runs (interquartile
range over median, five runs), by 3% with the spinning.
"""

from __future__ import annotations

import argparse
import os
import random
import select
import sys
from time import perf_counter


class Calibration:
    """Fixed pure-Python work in two halves: integer arithmetic with small
    dict and list churn, and pointer chasing plus dict lookups over a
    structure of a few tens of MB.

    Against repeated identical Figure-4 searches on the same CPU, burst
    times of the first half alone moved as the searches' time to the
    power 0.73 (the host's fast spells sped the small loop up more than
    the verifier), of the second half alone to the power 1.17, of the
    two together to the power 0.99.  Over five windows of ten searches
    each, the windows' medians moved by 3% (interquartile range over
    median) divided by the combined burst, 11% divided by the first half
    alone and 10% raw; single searches moved by 11%, 15% and 26%.  The
    service's cold hits (0.25-0.5 ms of interpreter dispatch on a small
    working set) go the other way: their median moved with the first
    half alone.  So the halves are timed separately.
    """

    SIZE = 200_000
    STEP = 300

    def __init__(self) -> None:
        rng = random.Random(1)
        self.nodes = [Node(index) for index in range(self.SIZE)]
        order = list(range(self.SIZE))
        rng.shuffle(order)
        for node, target in zip(self.nodes, order):
            node.next = self.nodes[target]
        self.table = {
            (index * 2654435761) & 0xFFFFFFF: index for index in range(self.SIZE)
        }
        self.keys = list(self.table)
        rng.shuffle(self.keys)
        self.cursor = 0

    @staticmethod
    def small() -> int:
        """The first half: a small working set, all interpreter dispatch."""
        table: dict[int, int] = {}
        items: list[tuple[int, int]] = []
        acc = 0
        for i in range(1000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[acc & 1023] = i
            items.append((i, acc))
            if len(items) > 64:
                items.clear()
        return acc

    def large(self) -> int:
        """The second half: memory-bound walks over the big structure."""
        acc = 0
        node = self.nodes[self.cursor]
        for _ in range(self.STEP):
            acc += node.value
            node = node.next
        table = self.table
        for key in self.keys[self.cursor:self.cursor + self.STEP]:
            acc += table[key]
        self.cursor = (self.cursor + self.STEP) % (self.SIZE - self.STEP)
        return acc


class Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next: Node = self


def set_policy(policy: int) -> None:
    priority = 1 if policy == os.SCHED_FIFO else 0
    try:
        os.sched_setscheduler(0, policy, os.sched_param(priority))
    except OSError:
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--interval", type=float, default=0.1)
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    calibration = Calibration()
    print("READY", flush=True)
    next_burst = perf_counter()
    while True:
        set_policy(os.SCHED_FIFO)
        start = perf_counter()
        calibration.small()
        middle = perf_counter()
        calibration.large()
        end = perf_counter()
        print(f"BURST {start:.9f} {middle - start:.9f} {end - middle:.9f}", flush=True)
        set_policy(os.SCHED_IDLE)
        next_burst += args.interval
        while perf_counter() < next_burst:
            readable, _, _ = select.select([sys.stdin], [], [], 0)
            if readable and not sys.stdin.readline():
                return


if __name__ == "__main__":
    main()
