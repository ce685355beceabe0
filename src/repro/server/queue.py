"""Per-request state machine and admission errors.

A :class:`PendingJob` is the server-side handle of one ``analyze``
request: it moves ``QUEUED → RUNNING → DONE`` exactly once, carries
the absolute deadline, and resolves to either a result payload or an
(error code, message) pair. The connection handler blocks on
:meth:`PendingJob.wait`; a runner thread of the worker pool drives the
transition; ``cancel`` may resolve it early from any thread. All
transitions are guarded so exactly one resolution wins — a job whose
deadline fires while a cancel races it still produces exactly one
response.

The bounded buffer between handlers and runners is
:class:`repro.qos.FairQueue`; it raises :class:`QueueFullError` above
capacity (the daemon answers ``queue_full`` instead of building an
unbounded backlog) and :class:`QueueClosedError` once draining.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional, Tuple

from .protocol import CANCELLED, SHUTTING_DOWN

QUEUED = "queued"
RUNNING = "running"
DONE = "done"


class QueueFullError(Exception):
    """Raised when admitting into a full queue."""


class QueueClosedError(Exception):
    """Raised when admitting into a closed (draining) queue."""


class PendingJob:
    """One in-flight analysis request."""

    def __init__(self, job_id: str, spec: Dict[str, Any],
                 deadline: Optional[float] = None,
                 tenant: Optional[str] = None):
        #: externally visible id (``cancel`` targets this)
        self.id = job_id
        #: picklable description handed to the worker function
        self.spec = spec
        #: absolute ``time.monotonic()`` deadline, or None
        self.deadline = deadline
        #: accounting identity; None = the default tenant
        self.tenant = tenant
        self.created = time.monotonic()
        #: set by the QoS fair queue at admission: fired (at most once,
        #: popped under the job lock) when the job is cancelled while
        #: still queued, refunding the tenant's rate token. A job that
        #: reaches RUNNING keeps its charge — start() and the refunding
        #: cancel() are mutually exclusive on the QUEUED state.
        self._qos_refund = None
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self.state = QUEUED
        self.cancelled = False
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[Tuple[int, str]] = None
        #: optional structured detail attached to a failure response
        self.error_data: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline; None when unbounded."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def start(self) -> bool:
        """QUEUED → RUNNING; False when already resolved/cancelled."""
        with self._lock:
            if self.state != QUEUED or self.cancelled:
                return False
            self.state = RUNNING
            return True

    def finish(self, result: Dict[str, Any]) -> bool:
        with self._lock:
            if self.state == DONE:
                return False
            if self.cancelled:
                # the cancel already owns the resolution
                self.state = DONE
                self.error = (CANCELLED, "request cancelled")
                self._finished.set()
                return False
            self.state = DONE
            self.result = result
            self._finished.set()
            return True

    def fail(self, code: int, message: str,
             data: Optional[Dict[str, Any]] = None) -> bool:
        with self._lock:
            if self.state == DONE:
                return False
            self.state = DONE
            self.error = (code, message)
            self.error_data = data
            self._finished.set()
            return True

    def cancel(self) -> bool:
        """Request cancellation; True when this call decided the fate.

        A still-QUEUED job resolves immediately (the queue will skip
        it); a RUNNING job is flagged and the runner resolves it at its
        next poll point without waiting for the worker process.
        """
        refund = None
        with self._lock:
            if self.state == DONE:
                return False
            self.cancelled = True
            if self.state == QUEUED:
                self.state = DONE
                self.error = (CANCELLED, "request cancelled while queued")
                # pop the refund hook under the job lock so exactly one
                # cancel wins the token back (see FairQueue._arm_refund)
                refund, self._qos_refund = self._qos_refund, None
                self._finished.set()
        if refund is not None:
            refund()
        return True

    @property
    def done(self) -> bool:
        return self._finished.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._finished.wait(timeout)
