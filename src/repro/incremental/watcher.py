"""The incremental analysis session and the ``safeflow watch`` loop.

:class:`IncrementalSession` keeps the whole front-end state of one
program alive between verdicts:

- per-unit parse results keyed by content digest — an unchanged file is
  never re-preprocessed or re-parsed, and a verdict over *all*-unchanged
  digests short-circuits to a memoized copy of the last report without
  touching any phase;
- the lowered :class:`~repro.frontend.driver.Program`, patched in place
  by :mod:`repro.frontend.patch` when the edit allows
  it: only the definitions whose body text changed are re-parsed and
  re-lowered into their live function objects, so every other
  definition's IR (and with it the per-function fingerprint
  memoization) survives untouched. Any edit outside the patch envelope
  (signature, annotation or global change, new or deleted file or
  definition, degraded unit) re-parses the changed units and re-lowers
  everything from the cached parse trees;
- the long-lived :class:`~repro.incremental.segments.SegmentStore`,
  injected into every verdict so the value-flow phase replays intact
  segments and re-analyzes only the dirty cone.

:class:`WatchLoop` polls mtimes (content hashes confirm real changes),
re-verdicts on change, and holds the :func:`repro.perf.gcpause.
gc_paused` guard across a re-verdict burst, releasing it only after the
loop has been idle — the guard's exit collection is a large fraction of
a sub-100ms re-verdict budget, so it must not run between back-to-back
edits.
"""

from __future__ import annotations

import os
import time
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import AnalysisConfig
from ..core.driver import SafeFlow
from ..core.results import AnalysisReport
from ..degrade import DegradedUnit
from ..errors import ParseError, PreprocessorError
from ..frontend.driver import Program, _finish, _merge_counts
from ..frontend.parser import ParsedUnit
from ..frontend.patch import apply_patch, plan_patch
from ..frontend.preprocessor import ExtractedAnnotation
from ..frontend.recovery import frontend_unit, unit_lost
from ..perf.fingerprint import text_digest
from .segments import SegmentStore


class _UnitState:
    """Cached front-end state of one translation unit."""

    __slots__ = ("path", "digest", "unit", "annotations", "degraded",
                 "recovery_attempts", "recovery_successes")

    def __init__(self, path: str, digest: str,
                 unit: Optional[ParsedUnit],
                 annotations: List[ExtractedAnnotation],
                 degraded: List[DegradedUnit]):
        self.path = path
        self.digest = digest
        self.unit = unit
        self.annotations = list(annotations)
        self.degraded = list(degraded)
        #: per-tier recovery-ladder counters for this unit (empty
        #: unless the session runs with ``recover_tiers``); folded
        #: into every full re-lower's Program so watch verdicts report
        #: the same recovery stats as a cold ``safeflow analyze``
        self.recovery_attempts: Dict[str, int] = {}
        self.recovery_successes: Dict[str, int] = {}


class IncrementalSession:
    """Front-end + analysis state shared by successive verdicts."""

    def __init__(self, paths: Sequence[str],
                 config: Optional[AnalysisConfig] = None,
                 name: str = "program",
                 store: Optional[SegmentStore] = None,
                 store_root: Optional[str] = None):
        self.config = config or AnalysisConfig()
        self.name = name
        self.driver = SafeFlow(self.config)
        self._paths: List[str] = list(paths)
        self._units: Dict[str, _UnitState] = {}
        self.program: Optional[Program] = None
        self.store = store if store is not None \
            else self._make_store(store_root)
        #: integrity evictions the store counted while *loading* (a
        #: stale/corrupt store on cold start evicts and recomputes);
        #: folded into the first verdict's stats
        self._pending_integrity = (
            self.store.integrity_evictions if self.store is not None else 0)
        self.verdicts = 0
        self.swaps = 0
        self.full_relowers = 0
        #: verdicts answered from the previous report because no input
        #: digest moved (editor touch/save-without-change events)
        self.memo_verdicts = 0
        self.last_changed: Tuple[str, ...] = ()
        #: function names the last patch actually re-lowered
        self.last_swap_defs: Tuple[str, ...] = ()
        #: new digests of changed paths not yet patched or re-parsed
        self._pending: Dict[str, str] = {}
        self._last_report: Optional[AnalysisReport] = None

    def _make_store(self, root: Optional[str]) -> Optional[SegmentStore]:
        config = self.config
        if root is None:
            # segments replay summary bodies, which only exist in
            # context-sensitive summary mode
            if (not config.cache_dir or not config.summary_mode
                    or not config.context_sensitive):
                return None
            from ..perf.fingerprint import config_fingerprint

            root = os.path.join(
                config.cache_dir,
                f"segments-{config_fingerprint(config)[:16]}",
            )
        return SegmentStore(root)

    # ------------------------------------------------------------------
    # file set
    # ------------------------------------------------------------------

    @property
    def paths(self) -> List[str]:
        return list(self._paths)

    def set_paths(self, paths: Sequence[str]) -> None:
        """Replace the watched file set (new/deleted files)."""
        self._paths = list(paths)

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------

    def verdict(self) -> AnalysisReport:
        """Re-read inputs, refresh the front end as narrowly as the
        edit allows, and run the full analysis pipeline over it."""
        from ..perf.gcpause import gc_paused

        with gc_paused():
            frontend_started = perf_counter()
            changed, added, removed = self._refresh_units()
            self.last_changed = tuple(changed)
            if (self.program is not None and self._last_report is not None
                    and not changed and not added and not removed):
                # nothing's content digest moved: the pipeline is a
                # pure function of its inputs, so the previous report
                # *is* this verdict — answer from memory
                self.memo_verdicts += 1
                self.verdicts += 1
                return self._memoized_report(
                    perf_counter() - frontend_started)
            patched = False
            if self.program is None or added or removed:
                self._full_frontend()
            elif changed:
                patched = self._patch(changed)
                if not patched:
                    self._full_frontend()
            frontend_seconds = perf_counter() - frontend_started
            report = self.driver.analyze_program(
                self.program, name=self.name,
                frontend_seconds=frontend_seconds,
                summary_store=self.store,
            )
            if patched:
                report.stats.frontend_derived = 1
                report.stats.definitions_relowered = len(
                    self.last_swap_defs)
        if self._pending_integrity:
            report.stats.cache_integrity_evictions += self._pending_integrity
            self._pending_integrity = 0
        self.verdicts += 1
        self._last_report = report
        return report

    def _memoized_report(self, frontend_seconds: float) -> AnalysisReport:
        """The previous report re-issued for a no-change verdict, with
        the per-run counters reset to what this (empty) run did."""
        import copy

        report = copy.copy(self._last_report)
        report.stats = stats = copy.copy(report.stats)
        stats.phase_timings = {"frontend": frontend_seconds,
                               "total": frontend_seconds}
        stats.functions_reanalyzed = 0
        stats.dirty_cone_size = 0
        stats.segment_evictions = 0
        stats.segment_fallbacks = 0
        stats.cache_integrity_evictions = 0
        return report

    # ------------------------------------------------------------------
    # front end refresh
    # ------------------------------------------------------------------

    def _refresh_units(self):
        """Re-read every watched file; parse the added ones.

        Returns ``(changed, added, removed)`` path lists. A changed
        path keeps its old :class:`_UnitState` until a patch or a full
        re-lower consumed the edit (``_pending`` holds its new digest
        until then).
        """
        changed: List[str] = []
        added: List[str] = []
        removed: List[str] = []
        for path in self._paths:
            try:
                with open(path, "rb") as f:
                    raw = f.read()
            except OSError:
                if path in self._units:
                    removed.append(path)
                    del self._units[path]
                continue
            digest = text_digest(raw.decode("utf-8", errors="replace"))
            state = self._units.get(path)
            if state is not None and state.digest == digest:
                continue
            if state is None:
                added.append(path)
                self._units[path] = self._frontend_unit(
                    path, digest, self._recover())
            else:
                changed.append(path)
                self._pending[path] = digest
        for path in [p for p in self._units if p not in self._paths]:
            removed.append(path)
            del self._units[path]
        return changed, added, removed

    def _recover(self) -> bool:
        return bool(self.config.degraded_mode or self.config.recover_tiers)

    def _patch(self, changed: List[str]) -> bool:
        """Patch the live program to the edited text
        (:mod:`repro.frontend.patch`); False when the
        edit is outside the patch envelope."""
        plan = plan_patch(
            self.program, dict.fromkeys(changed), self.config.include_dirs,
            self.config.defines, self._recover())
        relowered = None if plan is None else apply_patch(self.program, plan)
        if relowered is None:
            return False
        for unit in self.program.units:
            if unit.name in changed:
                old = self._units[unit.name]
                state = _UnitState(unit.name, self._pending.pop(unit.name),
                                   unit, unit.source.annotations, [])
                state.recovery_attempts = old.recovery_attempts
                state.recovery_successes = old.recovery_successes
                self._units[unit.name] = state
        self.swaps += 1
        self.last_swap_defs = relowered
        return True

    def _frontend_unit(self, path: str, digest: str,
                       recover: bool) -> _UnitState:
        try:
            with open(path, "r") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            exc = PreprocessorError(f"cannot read {path}: {exc}")
            if not recover:
                raise exc
            return _UnitState(path, digest, None, [],
                              [unit_lost(path, exc)])
        try:
            result = frontend_unit(
                text, path,
                include_dirs=self.config.include_dirs,
                defines=self.config.defines,
                recover=recover,
                tiers=self.config.recover_tiers,
            )
        except (PreprocessorError, ParseError, RecursionError) as exc:
            if not recover:
                raise
            return _UnitState(path, digest, None, [],
                              [unit_lost(path, exc)])
        state = _UnitState(path, digest, result.unit, result.annotations,
                           result.degraded)
        state.recovery_attempts = dict(result.attempts)
        state.recovery_successes = dict(result.successes)
        return state

    def _promote_pending(self) -> None:
        for path, digest in list(self._pending.items()):
            self._units[path] = self._frontend_unit(
                path, digest, self._recover())
            del self._pending[path]

    def _full_frontend(self) -> None:
        """Re-lower everything from the cached parse trees."""
        self._promote_pending()
        units: List[ParsedUnit] = []
        annotation_groups: List[List[ExtractedAnnotation]] = []
        degraded: List[DegradedUnit] = []
        attempts: Dict[str, int] = {}
        successes: Dict[str, int] = {}
        for path in self._paths:
            state = self._units.get(path)
            if state is None:
                continue
            degraded.extend(state.degraded)
            _merge_counts(attempts, state.recovery_attempts)
            _merge_counts(successes, state.recovery_successes)
            if state.unit is not None:
                units.append(state.unit)
                annotation_groups.append(state.annotations)
        self.program = _finish(
            units, annotation_groups, self.config.verify_ir,
            recover=self._recover(),
            degraded=degraded,
            recovery_attempts=attempts,
            recovery_successes=successes,
        )
        self.full_relowers += 1


class WatchLoop:
    """mtime/content-hash polling around an :class:`IncrementalSession`.

    ``roots`` may mix files and directories; directories are rescanned
    every poll for ``*.c`` files, so new and deleted files become
    front-end changes. ``clock``/``sleep`` are injectable for tests.
    The loop enters :func:`gc_paused` before the first verdict of a
    burst and exits it only after ``idle_release`` seconds without a
    change, so back-to-back re-verdicts never pay the guard's exit
    collection.
    """

    def __init__(self, session: IncrementalSession,
                 roots: Optional[Sequence[str]] = None,
                 interval: float = 0.2,
                 idle_release: float = 2.0,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 on_report=None):
        self.session = session
        self.roots = list(roots) if roots is not None else session.paths
        self.interval = interval
        self.idle_release = idle_release
        self.clock = clock
        self.sleep = sleep
        self.on_report = on_report
        self._mtimes: Dict[str, Tuple[float, int]] = {}
        self._pause = None
        self._ran = False
        self._last_activity: Optional[float] = None

    # -- gc pause across bursts ----------------------------------------

    def _enter_pause(self) -> None:
        if self._pause is None:
            from ..perf.gcpause import gc_paused

            self._pause = gc_paused()
            self._pause.__enter__()

    def _release_pause(self) -> None:
        if self._pause is not None:
            pause, self._pause = self._pause, None
            pause.__exit__(None, None, None)

    @property
    def gc_pause_held(self) -> bool:
        return self._pause is not None

    # -- scanning ------------------------------------------------------

    def _targets(self) -> List[str]:
        targets: List[str] = []
        for root in self.roots:
            if os.path.isdir(root):
                for dirpath, _, filenames in sorted(os.walk(root)):
                    for fname in sorted(filenames):
                        if fname.endswith(".c"):
                            targets.append(os.path.join(dirpath, fname))
            else:
                targets.append(root)
        return targets

    def _scan(self) -> bool:
        """True when any watched file's (mtime, size) moved."""
        targets = self._targets()
        stamped: Dict[str, Tuple[float, int]] = {}
        for path in targets:
            try:
                st = os.stat(path)
                stamped[path] = (st.st_mtime, st.st_size)
            except OSError:
                continue
        moved = stamped != self._mtimes
        self._mtimes = stamped
        if moved:
            self.session.set_paths(targets)
        return moved

    # -- driving -------------------------------------------------------

    def poll_once(self) -> Optional[AnalysisReport]:
        """One poll: re-verdict if anything moved (always on the first
        call); otherwise maybe release the gc pause. Returns the report
        when a verdict ran."""
        moved = self._scan()
        if moved or not self._ran:
            self._ran = True
            self._enter_pause()
            report = self.session.verdict()
            self._last_activity = self.clock()
            if self.on_report is not None:
                self.on_report(report)
            return report
        if (self._pause is not None and self._last_activity is not None
                and self.clock() - self._last_activity >= self.idle_release):
            self._release_pause()
        return None

    def run(self, max_verdicts: Optional[int] = None,
            duration: Optional[float] = None,
            once: bool = False) -> int:
        """Poll until ``max_verdicts`` verdicts ran, ``duration``
        seconds elapsed, or (``once``) the first verdict. Returns the
        number of verdicts."""
        verdicts = 0
        started = self.clock()
        try:
            while True:
                report = self.poll_once()
                if report is not None:
                    verdicts += 1
                    if once or (max_verdicts is not None
                                and verdicts >= max_verdicts):
                        break
                if duration is not None \
                        and self.clock() - started >= duration:
                    break
                self.sleep(self.interval)
        finally:
            self._release_pause()
        return verdicts
