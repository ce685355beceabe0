"""The watch-edit workload, run in its own process.

Usage: ``python3 child_watch.py SPEC_JSON OUT_JSON`` with ``src`` on
``PYTHONPATH``. One :class:`IncrementalSession` (summary mode, segment
store under the run's cache dir, as ``safeflow watch`` configures it)
follows a seeded sequence of one-function body edits. Each sample is
timed from the start of the file write to the return of
``IncrementalSession.verdict()``; the watch loop's poll interval is not
part of it. The process is the analyzer under test, so its peak RSS is
what the parent reads from ``ru_maxrss`` of its children.
"""

import json
import os
import statistics
import sys
import time

from inputs import draw_program, edit_body, watch_plan
from spans import Tracer

from repro.core.config import AnalysisConfig
from repro.incremental import IncrementalSession


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _session(spec, program, k):
    """A fresh source tree, cache dir and session; returns it with the
    seconds its construction plus first (cold) verdict took."""
    src = os.path.join(spec["work"], f"src{k}")
    paths = program.write_to(src)
    config = AnalysisConfig(summary_mode=True,
                            cache_dir=os.path.join(spec["work"], f"cache{k}"))
    started = time.perf_counter()
    session = IncrementalSession(paths, config=config)
    report = session.verdict()
    return session, src, report, time.perf_counter() - started


def _sample(session, report, wall, kind, swaps_before, expected):
    stats = report.stats.to_json()
    return {
        "wall": wall,
        "kind": kind,
        "swap": session.swaps > swaps_before,
        "mismatch": expected.mismatch(report.counts()),
        "stats": {k: stats.get(k) for k in (
            "contexts_analyzed", "functions_reanalyzed", "segment_fallbacks",
            "summary_cache_hits", "summary_cache_misses",
            "frontend_cache_hits", "frontend_cache_misses",
            "kernel_counters")},
    }


def run(spec) -> dict:
    program = draw_program("watch", spec["seed"], spec["scale"])
    expected = program.expected.shifted(spec["reference_shift"])
    setups = []
    failures = []
    for k in range(spec["setups"]):
        session, src, report, seconds = _session(spec, program, k)
        setups.append(seconds)
        if expected.mismatch(report.counts()):
            failures.append(f"setup {k}: {expected.mismatch(report.counts())}")
    texts = dict(program.files)
    plan = watch_plan(spec["seed"], program)
    tracer = Tracer()
    samples = []
    tag = 0

    def phase(seconds: float, traced: bool) -> float:
        nonlocal tag
        started = time.perf_counter()
        first = len(samples)
        while len(samples) == first or time.perf_counter() - started < seconds:
            fname, function = next(plan)
            kind = "core" if fname == "core.c" else "filler"
            tag += 1
            texts[fname] = edit_body(texts[fname], function, tag)
            swaps = session.swaps
            t0 = time.perf_counter()
            if traced:
                tracer.begin(len(samples), start=t0)
            try:
                _write(os.path.join(src, fname), texts[fname])
                report = session.verdict()
            except Exception as exc:  # a failed verdict is a measured failure
                failures.append(f"verdict {len(samples)}: "
                                f"{type(exc).__name__}: {exc}")
                report = None
            t1 = time.perf_counter()
            if traced:
                tracer.end(t1)
            if report is None:
                samples.append({"wall": t1 - t0, "kind": kind,
                                "traced": traced, "error": True})
                continue
            sample = _sample(session, report, t1 - t0, kind, swaps, expected)
            sample["traced"] = traced
            samples.append(sample)
        return time.perf_counter() - started

    seconds = spec["seconds"]
    phases = {}
    if spec["trace"]:
        phases["untraced"] = phase(seconds / 2, False)
        tracer.install()
        phases["traced"] = phase(seconds / 2, True)
    else:
        phases["untraced"] = phase(seconds, False)
    return {
        "program": {"knobs": program.knobs, "loc": program.loc,
                    "files": len(program.files)},
        "setups": setups,
        "setup_s": statistics.median(setups),
        "samples": samples,
        "phases": phases,
        "failures": failures,
        "session": {"swaps": session.swaps,
                    "full_relowers": session.full_relowers,
                    "verdicts": session.verdicts},
        "spans": tracer.spans,
        "missing": tracer.missing,
    }


if __name__ == "__main__":
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    result = run(spec)
    with open(sys.argv[2], "w") as f:
        json.dump(result, f)
