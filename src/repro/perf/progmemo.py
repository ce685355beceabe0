"""In-memory reuse of front-ended programs (the memory tier above
:class:`repro.perf.ircache.IRCache`).

A disk hit still unpickles a whole ``Program`` and a miss rebuilds it,
even when the request differs from a program this process holds in one
function body. Repeated analyses of one loaded ``Program`` are a
supported pattern, so a process-wide pool keeps recently used programs
under their IR-cache content keys and hands them out: as is on an
exact hit (:meth:`ProgramMemo.acquire`), else, on a miss, the newest
pooled program of the request's *lineage* (the same unit names and
front-end config, any content) patched into the requested one by
:mod:`repro.frontend.patch` (:meth:`ProgramMemo.derive`). A patch
consumes its neighbour, so a run of one-off variants keeps one program
pooled, not one per variant; the pool is bounded by program count.

Leases are *exclusive*: a program is popped out of the pool, so two
threads (the daemon's in-process fallback pool) never analyze one
object graph concurrently. Staleness mirrors the disk cache: an exact
hit re-checks the digest of every file the program was built from (an
edited ``#include`` is a miss). A patch re-reads every input, so it
needs no such check. The memo is report-preserving and never part of a
cache key (``AnalysisConfig.frontend_memo`` is a ``CACHE_ONLY_FIELDS``
entry).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from .fingerprint import file_digest

#: default bound on pooled programs across all keys (process-wide)
DEFAULT_CAPACITY = 32

_Deps = List[Tuple[str, str]]


class ProgramMemo:
    """Bounded LRU pool of front-ended programs, exclusive-lease."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = max(0, capacity)
        self._lock = threading.Lock()
        #: key → (lineage, pooled [(program, deps)]); OrderedDict gives
        #: key-level LRU
        self._pools: "OrderedDict[str, Tuple[Optional[str], list]]" = \
            OrderedDict()
        self._size = 0
        self._leased: Dict[int, Tuple[str, _Deps]] = {}
        #: keys whose program a patch turned into another version
        self._patched_away: "OrderedDict[str, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stale_evictions = 0

    # ------------------------------------------------------------------

    def acquire(self, key: Optional[str]):
        """Pop a fresh pooled program for ``key``, or ``None``.

        The caller owns the returned object until it hands it back via
        :meth:`release` (typically in a ``finally``).
        """
        if key is None or self.capacity == 0:
            return None
        with self._lock:
            entry = self._pop(key)
            while entry is not None:
                program, deps = entry
                if self._deps_fresh(deps):
                    self._leased[id(program)] = (key, deps)
                    self.hits += 1
                    return program
                self.stale_evictions += 1
                entry = self._pop(key)
            self.misses += 1
            return None

    def derive(self, key: Optional[str], lineage: Optional[str],
               plan: Callable, apply: Callable):
        """After a miss for ``key``: pop the newest pooled program of
        ``lineage`` and patch it into the requested one. Returns
        ``(program, re-lowered definition names)``, or ``None``.

        ``plan(program)`` checks the edit without touching the program
        (``None``: outside the envelope, and the program goes back to
        the pool); ``apply(program, plan)`` patches it and returns the
        re-lowered names (``None``: half patched, and it is dropped).
        A neighbour is passed over when it and the request were both
        patched away before: two versions that keep coming back are
        each pooled rather than patched into each other per request.
        """
        if key is None or lineage is None or self.capacity == 0:
            return None
        with self._lock:
            recurring = key in self._patched_away
            other = next((k for k, (line, _) in reversed(self._pools.items())
                          if line == lineage
                          and not (recurring and k in self._patched_away)),
                         None)
            entry = self._pop(other) if other is not None else None
        if entry is None:
            return None
        program, deps = entry
        steps = plan(program)
        if steps is None:
            self._pool(other, lineage, program, deps)
            return None
        relowered = apply(program, steps)
        if relowered is None:
            return None
        with self._lock:
            self._patched_away[other] = None
            self._patched_away.move_to_end(other)
            while len(self._patched_away) > self.capacity:
                self._patched_away.popitem(last=False)
        return program, tuple(relowered)

    def release(self, key: Optional[str], program,
                lineage: Optional[str] = None) -> bool:
        """Return a program to the pool under ``key`` (a patch may
        later pick it as a neighbour for ``lineage``); False when not
        memoizable."""
        if key is None or program is None or self.capacity == 0:
            return False
        with self._lock:
            lease = self._leased.pop(id(program), None)
        deps = lease[1] if lease is not None else self._compute_deps(program)
        if deps is None:
            return False
        self._pool(key, lineage, program, deps)
        return True

    # ------------------------------------------------------------------

    def _pool(self, key: str, lineage: Optional[str], program,
              deps: _Deps) -> None:
        with self._lock:
            pool = self._pools.setdefault(key, (lineage, []))[1]
            self._pools.move_to_end(key)
            pool.append((program, deps))
            self._size += 1
            while self._size > self.capacity:
                oldest_key, (_, oldest_pool) = next(iter(self._pools.items()))
                oldest_pool.pop(0)
                self._size -= 1
                if not oldest_pool:
                    del self._pools[oldest_key]

    def _pop(self, key: str):
        """Pop the newest ``(program, deps)`` of ``key`` (lock held)."""
        pooled = self._pools.get(key)
        if pooled is None:
            return None
        entry = pooled[1].pop()
        self._size -= 1
        if not pooled[1]:
            del self._pools[key]
        return entry

    @staticmethod
    def _deps_fresh(deps: _Deps) -> bool:
        return all(file_digest(path) == digest for path, digest in deps)

    @staticmethod
    def _compute_deps(program) -> Optional[_Deps]:
        """``(path, digest)`` of every real file behind ``program``;
        ``None`` (not memoizable) when one cannot be read. Mirrors
        :meth:`repro.perf.ircache.IRCache.store`."""
        deps: _Deps = []
        seen = set()
        for unit in getattr(program, "units", []):
            for path in getattr(unit.source, "files", []):
                if path in seen or not os.path.isfile(path):
                    continue
                seen.add(path)
                digest = file_digest(path)
                if digest is None:
                    return None
                deps.append((path, digest))
        return deps

    # ------------------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._pools.clear()
            self._leased.clear()
            self._patched_away.clear()
            self._size = 0

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stale_evictions": self.stale_evictions,
                "pooled": self._size,
            }


#: the process-wide memo every SafeFlow instance shares
_MEMO = ProgramMemo()


def program_memo() -> ProgramMemo:
    return _MEMO
