"""In-memory spans around the public functions of each analyzer layer.

The benchmark does not edit the program to trace it. :func:`install`
replaces each layer's entry function (looked up by module path) with a
wrapper that records a span while a verdict is open, and leaves the
original untouched otherwise. A span is ``(name, start, end, parent,
verdict)``; times are ``time.perf_counter`` seconds, which is
CLOCK_MONOTONIC on Linux and so comparable across processes — the
cold workload joins spans its analyzer child recorded to the launch and
exit times the parent took.

A layer's self time is its span's duration minus the part its child
spans cover. Container spans (the verdict itself, ``cli.main``,
``core.analyze_program``) only give structure: their self time is what
no layer accounts for, and it is reported as unattributed.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
import types
from typing import Dict, List, Optional, Sequence, Tuple

#: (module, attribute path, span name) of every wrapped entry point.
#: A name imported into another module is wrapped there too, because
#: callers look it up in their own namespace.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cli", "main", "cli.main"),
    ("repro.frontend.driver", "frontend_unit", "frontend.parse"),
    ("repro.incremental.watcher", "frontend_unit", "frontend.parse"),
    ("repro.frontend.driver", "lower_units", "frontend.lower"),
    ("repro.frontend.lower", "ModuleLowerer.lower_unit", "frontend.lower"),
    ("repro.frontend.lower", "build_ssa", "ir.ssa"),
    ("repro.frontend.driver", "verify_module", "ir.verify"),
    ("repro.incremental.watcher", "verify_function", "ir.verify"),
    ("repro.core.driver", "SafeFlow.analyze_program", "core.analyze_program"),
    ("repro.shm.propagation", "ShmAnalysis.run", "shm.run"),
    ("repro.restrictions.checker", "check_restrictions", "restrictions.check"),
    ("repro.valueflow.monitor_lint", "lint_monitors", "valueflow.lint"),
    ("repro.valueflow.engine", "ValueFlowAnalysis.run", "valueflow.run"),
    ("repro.incremental.segments", "SegmentStore.flush", "incremental.flush"),
    ("repro.incremental.watcher", "IncrementalSession.verdict",
     "incremental.refresh"),
    ("repro.cli", "_report_json", "reporting.encode"),
    ("repro.core.results", "AnalysisReport.render", "reporting.encode"),
)

#: spans that only give structure; their self time is unattributed
CONTAINERS = frozenset({"verdict", "cli.main", "core.analyze_program"})

#: every layer a span can be named after (per-layer metric stems)
LAYER_NAMES = ("process.import", "frontend.parse", "frontend.lower",
               "ir.ssa", "ir.verify", "perf.gc_collect", "shm.run",
               "restrictions.check", "valueflow.lint", "valueflow.run",
               "reporting.encode", "incremental.refresh",
               "incremental.flush")


class Tracer:
    """Collects spans of one process; nothing is written until the end."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, verdict id]``
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.verdict: Optional[int] = None
        #: entry points :func:`install` could not find (renamed layers)
        self.missing: List[str] = []

    def begin(self, verdict: int, start: Optional[float] = None) -> None:
        """Open the root span of one verdict."""
        self.verdict = verdict
        self._stack = [self._open("verdict", start)]

    def end(self, stop: Optional[float] = None) -> None:
        self._close(self._stack[0], stop)
        self._stack = []
        self.verdict = None

    def _open(self, name: str, start: Optional[float] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() if start is None
                           else start, None, parent, self.verdict])
        return len(self.spans) - 1

    def _close(self, index: int, stop: Optional[float] = None) -> None:
        self.spans[index][2] = time.perf_counter() if stop is None else stop

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.verdict is None:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            tracer._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer._close(index)

        return traced

    def install(self, layers: Sequence[Tuple[str, str, str]] = LAYERS) -> None:
        """Wrap every layer entry point, and ``gc.collect`` as called by
        the GC pause guard (the collection the pipeline's phase
        timings leave out)."""
        for module_name, path, name in layers:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(fn, name))
        gcpause = importlib.import_module("repro.perf.gcpause")
        gcpause.gc = types.SimpleNamespace(
            isenabled=gc.isenabled, enable=gc.enable, disable=gc.disable,
            collect=self.wrap(gc.collect, "perf.gc_collect"))


def check_nesting(spans: Sequence[list]) -> List[str]:
    """Every span closed, inside its parent, and in its parent's verdict."""
    problems = []
    for i, (name, start, end, parent, verdict) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} {name} not closed")
            continue
        if parent < 0:
            if name != "verdict":
                problems.append(f"span {i} {name} has no parent")
            continue
        p_name, p_start, p_end, _, p_verdict = spans[parent]
        if p_verdict != verdict:
            problems.append(f"span {i} {name} crosses verdicts")
        if start < p_start or p_end is None or end > p_end:
            problems.append(f"span {i} {name} outside parent {p_name}")
    return problems


def self_times(spans: Sequence[list]) -> Dict[int, Dict[str, float]]:
    """Per verdict: layer name -> summed self time, plus ``wall`` (the
    root span) and ``.count.<name>`` span counts."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[int, Dict[str, float]] = {}
    for i, (name, start, end, parent, verdict) in enumerate(spans):
        row = out.setdefault(verdict, {})
        if name == "verdict":
            row["wall"] = end - start
        if name in CONTAINERS:
            continue
        row[name] = row.get(name, 0.0) + (end - start) - covered[i]
        key = ".count." + name
        row[key] = row.get(key, 0) + 1
    return out


def summarize(spans: Sequence[list]) -> Dict[str, float]:
    """Mean per-verdict self time of every layer, the mean span counts,
    and the unattributed share of wall time across all verdicts."""
    rows = list(self_times(spans).values())
    n = max(1, len(rows))
    out = {name: sum(r.get(name, 0.0) for r in rows) / n
           for name in LAYER_NAMES}
    out["frontend.units"] = sum(
        r.get(".count.frontend.parse", 0) for r in rows) / n
    out["ir.ssa_functions"] = sum(
        r.get(".count.ir.ssa", 0) for r in rows) / n
    wall = sum(r.get("wall", 0.0) for r in rows)
    attributed = sum(r.get(name, 0.0) for r in rows for name in LAYER_NAMES)
    out["unattributed_share"] = (wall - attributed) / wall if wall else 0.0
    return out
