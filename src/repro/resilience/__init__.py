"""Crash isolation for the SafeFlow analysis fleet.

The paper's premise is that a trusted core must survive misbehaving
peers; this package holds the analyzer to the same standard. It is the
supervision layer shared by the parallel batch driver
(:mod:`repro.perf.batch`) and the daemon's worker pool
(:mod:`repro.server.pool`):

- :mod:`~repro.resilience.supervisor` — ``BrokenProcessPool``
  detection with transparent executor rebuilds, plus crash attribution
  and quarantine (:class:`CrashLedger`), so one crash costs one
  result, never the batch or the daemon;
- :mod:`~repro.resilience.guards` — per-worker ``setrlimit`` caps and
  a cooperative in-analysis deadline, so runaway inputs degrade into a
  structured ``resource_exhausted`` diagnostic;
- :mod:`~repro.resilience.faults` — deterministic, env-driven fault
  injection (kill/slow/boom a worker on a named job, corrupt or tear
  cache entries on disk);
- :mod:`~repro.resilience.chaos` — the ``safeflow chaos`` harness:
  run a generated workload under a fault schedule and assert the final
  verdicts are byte-identical to a fault-free run.

:func:`worker_harness` is the one entry point worker functions wrap a
job in: it fires scheduled faults, applies rlimits (only inside a real
worker process — rlimits are irreversible), and arms the thread-local
analysis deadline.

The supervisor is imported on first use: a one-shot analysis needs
only the fault hooks and the deadline, and ``concurrent.futures`` is a
noticeable share of ``import repro.cli``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from . import faults
from .guards import ResourceGuards, apply_rlimits, check_deadline, deadline_scope


def __getattr__(name: str):
    if name in ("CrashLedger", "SupervisedExecutor"):
        from . import supervisor

        return getattr(supervisor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@contextmanager
def worker_harness(job_name: str, guards: Optional[ResourceGuards] = None):
    """Per-job worker preamble: faults, rlimits, deadline."""
    faults.on_job_start(job_name)
    if guards is not None and guards.has_rlimits() and faults.in_worker():
        apply_rlimits(guards)
    with deadline_scope(
        guards.deadline_seconds if guards is not None else None
    ):
        yield


__all__ = [
    "CrashLedger",
    "ResourceGuards",
    "SupervisedExecutor",
    "apply_rlimits",
    "check_deadline",
    "deadline_scope",
    "faults",
    "worker_harness",
]
