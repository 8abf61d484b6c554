"""CPU-speed probe: how fast each CPU runs right now.

On a shared virtual machine the speed of a vCPU swings by tens of percent
over seconds to minutes, with no steal reported, and CPU time swings with
it.  One probe process per CPU the caller may run on, pinned to that CPU,
times a fixed pure-Python loop (about 1.7 ms) every ``PERIOD_S`` (about 3 %
of the CPU) and adds the loop's thread CPU time to a shared counter.
Between two readings, the mean loop time on each CPU, weighted by how busy
``/proc/stat`` says each CPU was, is the loop time on the CPUs the measured
code ran on.  :func:`normalise` rescales a CPU time by it to a CPU on which
the loop takes ``REF_LOOP_S``.  The flows' CPU time grows faster than the
loop's when the host slows down (their memory traffic suffers more), so
the rescaling uses the loop time to the power ``LOOP_EXPONENT``.

The probes are forked children of the measurement process, started while
it runs no other thread; callers must leave their pids out of anything that
counts child processes.  Each probe publishes its counters in an anonymous
shared memory map under a sequence number (odd while it writes), so the
reader never sees a count from one loop with a sum from another.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import os
import struct
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

LOOP_N = 20000
PERIOD_S = 0.05
# Loop time that defines the reference speed: what the loop took on the
# 2-vCPU Xeon host the benchmark was tuned on, in a calm period.
REF_LOOP_S = 1.6e-3
# Fitted on that host: across passes of one run, log flow CPU time against
# log loop time has slope 1.36 (tdp_xl), 1.03 (dmp4_xl_pool) and 1.48
# (suite_mini).  One exponent for all keeps every workload's run-to-run
# spread lowest.
LOOP_EXPONENT = 1.25


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


# Per probe: sequence number, loops run, summed loop time in ns.
SLOT = struct.Struct("qqq")


def _probe_main(cpu: int, shared: mmap.mmap, offset: int) -> None:  # pragma: no cover - probe process
    os.sched_setaffinity(0, {cpu})
    seq = loops = total_ns = 0
    while True:
        start = time.thread_time_ns()
        _spin(LOOP_N)
        total_ns += time.thread_time_ns() - start
        loops += 1
        SLOT.pack_into(shared, offset, seq + 1, loops - 1, total_ns)  # odd: being written
        seq += 2
        SLOT.pack_into(shared, offset, seq, loops, total_ns)
        time.sleep(PERIOD_S)


def busy_ticks() -> Dict[int, int]:
    """Busy jiffies (user, nice, system, irq, softirq) per CPU from ``/proc/stat``."""
    busy = {}
    with open("/proc/stat") as handle:
        for line in handle:
            name, *fields = line.split()
            if not name.startswith("cpu") or name == "cpu":
                continue
            user, nice, system, _idle, _iowait, irq, softirq = map(int, fields[:7])
            busy[int(name[3:])] = user + nice + system + irq + softirq
    return busy


@dataclass(frozen=True)
class Reading:
    loops: Dict[int, Tuple[int, int]]  # cpu -> (loops run, summed loop ns)
    busy: Dict[int, int]


class SpeedProbe:
    """Start one probe per usable CPU on entry; stop and reap them on exit."""

    def __init__(self) -> None:
        self._ctx = mp.get_context("fork")
        self._cpus = sorted(os.sched_getaffinity(0))
        self._shared = mmap.mmap(-1, SLOT.size * len(self._cpus))
        self._procs: List[mp.Process] = []

    @property
    def pids(self) -> List[int]:
        return [proc.pid for proc in self._procs]

    def __enter__(self) -> "SpeedProbe":
        try:
            for index, cpu in enumerate(self._cpus):
                proc = self._ctx.Process(
                    target=_probe_main, args=(cpu, self._shared, index * SLOT.size), daemon=True
                )
                proc.start()
                self._procs.append(proc)
            deadline = time.monotonic() + 60.0
            while any(loops == 0 for loops, _ns in self.reading().loops.values()):
                if time.monotonic() > deadline or not all(p.is_alive() for p in self._procs):
                    raise RuntimeError("the CPU-speed probes did not start")
                time.sleep(0.01)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._procs.clear()

    def reading(self) -> Reading:
        loops = {}
        for index, cpu in enumerate(self._cpus):
            while True:
                seq, count, total_ns = SLOT.unpack_from(self._shared, index * SLOT.size)
                if seq % 2 == 0 and SLOT.unpack_from(self._shared, index * SLOT.size)[0] == seq:
                    break
            loops[cpu] = (count, total_ns)
        return Reading(loops, busy_ticks())

    def loop_seconds_since(self, start: Reading) -> float:
        """Probe loop time since ``start``, waiting for a loop if none has ended yet."""
        deadline = time.monotonic() + 10.0
        while True:
            loop_s = loop_seconds(start, self.reading())
            if loop_s is not None:
                return loop_s
            if time.monotonic() > deadline:
                raise RuntimeError("no CPU-speed probe loop ended")
            time.sleep(0.005)


def loop_seconds(start: Reading, end: Reading) -> Optional[float]:
    """Busy-weighted mean probe loop time between two readings (None if no loop ran)."""
    weighted = weights = unweighted = 0.0
    cpus = 0
    for cpu, (loops_end, ns_end) in end.loops.items():
        loops_start, ns_start = start.loops[cpu]
        if loops_end == loops_start:
            continue
        mean_s = (ns_end - ns_start) / (loops_end - loops_start) / 1e9
        busy = end.busy.get(cpu, 0) - start.busy.get(cpu, 0)
        weighted += busy * mean_s
        weights += busy
        unweighted += mean_s
        cpus += 1
    if cpus == 0:
        return None
    return weighted / weights if weights > 0 else unweighted / cpus


def normalise(cpu_s: float, loop_s: float) -> float:
    """``cpu_s`` rescaled to a CPU on which the probe loop takes ``REF_LOOP_S``."""
    return cpu_s * (REF_LOOP_S / loop_s) ** LOOP_EXPONENT
