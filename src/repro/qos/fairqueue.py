"""Weighted deficit-round-robin admission queue.

The daemon's bounded request queue, with per-tenant isolation (with
no tenants declared it behaves as one FIFO):

- *lanes*: each tenant's pending jobs wait in their own FIFO; the
  runner-facing :meth:`get` serves lanes by deficit round robin with
  per-lane quantum proportional to the tenant's weight, so a tenant
  with weight 4 drains four jobs for every one of a weight-1 tenant —
  and a tenant that floods its lane delays only itself;
- *admission quotas*: each lane is gated by the tenant's token bucket
  (``rate``/``burst`` from the :class:`~repro.qos.tenants.TenantTable`);
  an over-rate request is rejected with :class:`RateLimitedError`
  carrying the exact ``retry_after_s`` the bucket computed;
- *bounded backlog, per tenant*: besides the global ``capacity``,
  each lane is capped at its weight-proportional share, so one hot
  tenant can fill its own share but never the whole queue — the
  others always have admission headroom (``queue_full`` for them
  remains impossible while their share has room);
- *refund on cancel*: the bucket charge travels with the job; a job
  cancelled while still queued refunds its token exactly once — a
  cancelled request never consumes its tenant's quota.

With a bare default table (no tenants declared) every request lands
in one lane with quantum 1, an unlimited bucket, and a share equal to
the full capacity: byte-for-byte the old FIFO behavior.

The scheduling is work-conserving: deficit state persists across
:meth:`get` calls, empty lanes leave the rotation (their deficit
resets so idleness is not bankable), and jobs cancelled between
enqueue and dispatch are dropped here without costing their lane any
deficit.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Dict, Optional

from .tenants import TenantTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..server.queue import PendingJob

# NOTE: runtime imports of repro.server are deferred into the methods
# that need them: the server package imports repro.qos at init, so a
# module-level import here would be circular whenever repro.qos loads
# first (e.g. in the qos unit tests).


class RateLimitedError(Exception):
    """Admission rejected by the tenant's token bucket."""

    def __init__(self, tenant: str, retry_after_s: float):
        super().__init__(
            f"tenant {tenant!r} is over its request rate; "
            f"retry in {retry_after_s:.3f}s")
        self.tenant = tenant
        self.retry_after_s = retry_after_s


class _Lane:
    """One tenant's FIFO plus its DRR/quota state."""

    __slots__ = ("name", "jobs", "deficit", "quantum", "share", "bucket")

    def __init__(self, name: str, quantum: float, share: int, bucket):
        self.name = name
        self.jobs: deque = deque()
        self.deficit = 0.0
        self.quantum = quantum
        self.share = share
        self.bucket = bucket


class FairQueue:
    """Bounded multi-tenant queue between handlers and runners.

    The worker pool and the daemon's drain logic drive it through
    ``put_nowait`` / ``get`` / ``close`` / ``depth`` / ``closed`` /
    ``finished`` / ``capacity``.
    """

    def __init__(self, capacity: int,
                 tenants: Optional[TenantTable] = None,
                 clock=None):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.tenants = tenants or TenantTable()
        self._clock = clock
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._lanes: Dict[str, _Lane] = {}
        self._rotation: deque = deque()   # lane names awaiting a turn
        self._current: Optional[str] = None  # lane mid-turn
        self._size = 0                    # total queued (incl. dead jobs)
        self._closed = False
        self._drain = True

    # ------------------------------------------------------------------
    # lanes
    # ------------------------------------------------------------------

    def _lane(self, tenant: str) -> _Lane:
        lane = self._lanes.get(tenant)
        if lane is None:
            spec = self.tenants.lookup(tenant)
            declared = len(self.tenants.specs)
            if declared <= 1:
                share = self.capacity  # single-tenant: the old FIFO bound
            else:
                share = max(1, int(self.capacity * spec.weight
                                   / self.tenants.total_weight))
            lane = _Lane(tenant, quantum=spec.weight, share=share,
                         bucket=spec.bucket(clock=self._clock))
            self._lanes[tenant] = lane
        return lane

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def put_nowait(self, job: "PendingJob") -> None:
        """Admit ``job`` into its tenant's lane.

        Raises :class:`QueueClosedError` when draining,
        :class:`QueueFullError` past the global capacity or the lane's
        weighted share, and :class:`RateLimitedError` (with the
        bucket's ``retry_after_s``) past the tenant's request rate.
        """
        from ..server.queue import QueueClosedError, QueueFullError
        tenant = getattr(job, "tenant", None) or self.tenants.default.name
        with self._not_empty:
            if self._closed:
                raise QueueClosedError("queue is draining")
            lane = self._lane(tenant)
            if self._size >= self.capacity:
                raise QueueFullError(
                    f"queue full ({self.capacity} requests waiting)")
            if len(lane.jobs) >= lane.share:
                raise QueueFullError(
                    f"tenant {tenant!r} backlog full "
                    f"({lane.share} of {self.capacity} slots)")
            retry_after = lane.bucket.try_acquire()
            if retry_after > 0:
                raise RateLimitedError(tenant, retry_after)
            self._arm_refund(job, lane)
            was_empty = not lane.jobs
            lane.jobs.append(job)
            self._size += 1
            if was_empty and lane.name != self._current:
                self._rotation.append(lane.name)
            self._not_empty.notify()

    def _arm_refund(self, job: "PendingJob", lane: _Lane) -> None:
        """Attach the bucket refund to the job. At-most-once is free:
        ``PendingJob.cancel`` pops the hook under the job lock and only
        when it wins the QUEUED state — mutually exclusive with
        ``start()`` dispatching the job — so a cancelled-while-queued
        job refunds exactly once and a dispatched job never does."""
        job._qos_refund = lane.bucket.refund

    # ------------------------------------------------------------------
    # dispatch (DRR)
    # ------------------------------------------------------------------

    def get(self, timeout: float = 0.1) -> Optional["PendingJob"]:
        """Next live job by weighted deficit round robin, or None on
        timeout / closed-and-empty. Jobs cancelled while queued are
        dropped here (their lane's deficit is not charged) and never
        handed to a runner."""
        with self._not_empty:
            while True:
                job = self._pop_next()
                if job is not None:
                    return job
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None

    def _pop_next(self) -> Optional["PendingJob"]:
        """One DRR step under the lock; None when nothing is ready."""
        while self._current is not None or self._rotation:
            if self._current is None:
                name = self._rotation.popleft()
                lane = self._lanes[name]
                lane.deficit += lane.quantum
                self._current = name
            lane = self._lanes[self._current]
            if not lane.jobs:
                # emptied mid-turn: leave the rotation, forfeit the
                # unused deficit (idleness is not bankable)
                lane.deficit = 0.0
                self._current = None
                continue
            if lane.deficit < 1.0:
                # turn exhausted: to the back of the rotation
                self._rotation.append(lane.name)
                self._current = None
                continue
            job = lane.jobs.popleft()
            self._size -= 1
            if job.done or job.cancelled:
                continue  # dead job: free drop, deficit untouched
            lane.deficit -= 1.0
            return job
        return None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop admission. ``drain=False`` also resolves every queued
        job with ``shutting_down``."""
        from ..server.protocol import SHUTTING_DOWN
        with self._not_empty:
            self._closed = True
            self._drain = drain
            if not drain:
                for lane in self._lanes.values():
                    while lane.jobs:
                        job = lane.jobs.popleft()
                        self._size -= 1
                        job.fail(SHUTTING_DOWN, "server shutting down")
                self._rotation.clear()
                self._current = None
            self._not_empty.notify_all()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def depth(self) -> int:
        with self._lock:
            return sum(1 for lane in self._lanes.values()
                       for j in lane.jobs if not j.done)

    def depth_by_tenant(self) -> Dict[str, int]:
        with self._lock:
            return {
                name: depth for name, lane in sorted(self._lanes.items())
                if (depth := sum(1 for j in lane.jobs if not j.done)) or True
            }

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def finished(self) -> bool:
        """Closed and emptied — runners may exit."""
        with self._lock:
            return self._closed and self._size == 0

    def saturation(self) -> float:
        """Queued fraction of capacity — the brownout trip signal."""
        with self._lock:
            return self._size / self.capacity if self.capacity else 0.0
