"""Host-speed probe: how fast the CPU ran, sampled all through a solve.

The benchmark's host is shared. Other tenants make the same work take up
to 1.5 times as long, in episodes that last from seconds to minutes: a
fixed pure-Python loop takes 25 ms one moment and 38 ms the next, and a
whole solve slows down with it. Averaging over a longer run does not
remove this: the loop's mean over 60 s windows still spreads 0.08-0.10.

So every process of a repetition, the main one and each pool worker it
forks, times a fixed loop (``LOOP`` iterations) after every ``INTERVAL_S``
of its own CPU time. Each process adds up, in its slot of a shared memory
block, the CPU time it sampled and the same time scaled by ``REF_S`` over
the loop's duration at that moment. ``stop`` returns the CPU-weighted
speed of the whole repetition: reference seconds per second. A solve's
wall time times that speed is its time at the reference speed, a host on
which the loop takes exactly ``REF_S``. The loop costs about 1% of the
CPU time, in every repetition alike.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import time

INTERVAL_S = 0.1  # CPU seconds between samples, in each process
LOOP = 10_000  # iterations of the fixed loop: about 1 ms
REF_S = 0.001  # the loop's duration at the reference speed
SLOTS = 1024  # processes that can be sampled: the main one and its workers
_SLOT = struct.Struct("dd")  # CPU seconds sampled, and the same in reference seconds

_shared = None
_hooked = False
_next = 0  # the slot of the next process forked; counted in the process that forks
_slot = 0
_last_cpu = 0.0


def _loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return time.perf_counter() - t0


def _sample(signum, frame) -> None:
    global _last_cpu
    spent = time.process_time() - _last_cpu
    took = _loop()
    _last_cpu = time.process_time()
    offset = _slot * _SLOT.size
    cpu, ref = _SLOT.unpack_from(_shared, offset)
    _SLOT.pack_into(_shared, offset, cpu + spent, ref + spent * REF_S / took)


def _before_fork() -> None:
    global _next
    _next += 1


def _arm() -> None:
    """Start sampling this process in slot ``_next``."""
    global _slot, _last_cpu
    if _shared is None or _next >= SLOTS:
        return
    _slot = _next
    _last_cpu = time.process_time()
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def start() -> None:
    """Sample this process from now on, and every process it forks."""
    global _shared, _hooked, _next
    _shared = mmap.mmap(-1, SLOTS * _SLOT.size)  # anonymous and shared, so forks write to it
    _next = 0
    signal.signal(signal.SIGPROF, _sample)
    if not _hooked:
        os.register_at_fork(before=_before_fork, after_in_child=_arm)
        _hooked = True
    _arm()


def slots() -> list:
    """(CPU seconds sampled, the same in reference seconds) of each process
    sampled since ``start``, the main process first."""
    return [_SLOT.unpack_from(_shared, i * _SLOT.size) for i in range(min(_next + 1, SLOTS))]


def stop() -> float:
    """Stop sampling, here and in processes forked later; the speed over every
    process sampled since ``start``, or 1.0 if none ran long enough to take a
    sample."""
    global _shared
    signal.setitimer(signal.ITIMER_PROF, 0, 0)
    signal.signal(signal.SIGPROF, signal.SIG_IGN)
    taken = slots()
    _shared = None
    cpu = sum(c for c, _ in taken)
    return sum(r for _, r in taken) / cpu if cpu else 1.0
