"""Pause the cyclic garbage collector around the analysis pipeline.

The analysis allocates heavily and briefly: IR instructions, interned
taints, compiled-kernel opcode tuples. CPython's generational collector
reacts to that allocation burst by running collections mid-phase, and
on the bench workloads those pauses account for 20-30% of wall time
(they also land unpredictably inside whatever phase happens to be
running, skewing per-phase timings). Almost none of it is garbage: the
IR and the programs stay live until the report is built.

:func:`gc_paused` disables collection for the duration of a pipeline
run and reclaims the cyclic garbage created while paused (IR
functions, blocks and instructions reference each other) once the
*last* active pipeline exits. The guard is re-entrant and thread-safe
— the driver's entry points nest, and the analysis daemon runs
pipelines concurrently. If the embedding application already disabled
gc, the guard leaves it disabled on exit.

Collection on exit is *amortized* for high-request-rate serving: a
full ``gc.collect()`` scans every live object (the interpreter, the
loaded corpus, pycparser's tables) and costs milliseconds even when
the run allocated almost nothing — on the fleet's warm trivial
requests it was ~60% of per-request latency. Because gc stays
disabled while paused, everything a run allocates sits in generation
0, so a generation-0 collection reclaims that run's cyclic garbage at
a cost proportional to the run, not the heap. Cycles whose members
were already promoted (long-lived caches) are rarer and are caught by
a periodic full collection every :data:`FULL_COLLECT_INTERVAL`
seconds. A process's very first exit is always past the interval, so
it performs the full collection.

A one-shot ``safeflow analyze`` process has no use for that first full
collection: the IR it would free dies with the process a moment later.
The command runs under :func:`collector_off`, so the guard finds a
caller-disabled collector and skips its closing collection, and the
process entry freezes the heap before exiting so interpreter teardown
does not walk it either (:func:`repro.cli.console_main`).
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager

_LOCK = threading.Lock()
_DEPTH = 0
_WE_DISABLED = False
#: monotonic time of the last full (all-generations) exit collection;
#: 0.0 means "never", so a process's first guarded run collects fully
_LAST_FULL = 0.0

#: seconds between full exit collections; generation-0 collections
#: (proportional to the run's own allocations) cover the gaps
FULL_COLLECT_INTERVAL = 5.0


@contextmanager
def gc_paused():
    """Context manager: pause gc while any guarded region is active."""
    global _DEPTH, _WE_DISABLED, _LAST_FULL
    with _LOCK:
        _DEPTH += 1
        if _DEPTH == 1:
            _WE_DISABLED = gc.isenabled()
            if _WE_DISABLED:
                gc.disable()
    try:
        yield
    finally:
        full = False
        with _LOCK:
            _DEPTH -= 1
            reenable = _DEPTH == 0 and _WE_DISABLED
            if reenable:
                _WE_DISABLED = False
                now = time.monotonic()
                if now - _LAST_FULL >= FULL_COLLECT_INTERVAL:
                    _LAST_FULL = now
                    full = True
        if reenable:
            gc.enable()
            if full:
                gc.collect()
            else:
                gc.collect(0)


@contextmanager
def collector_off():
    """Context manager: the collector off, never a collection.

    On exit the caller's setting comes back and the region's cyclic
    garbage is left to the next automatic collection, or to process
    exit when nothing runs after it. :func:`gc_paused` regions nested
    inside see a caller-disabled collector and do not collect.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
