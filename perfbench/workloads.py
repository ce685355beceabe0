"""The three workloads: cold analyze, warm daemon, watch edit.

Each ``run_*`` function takes a :class:`Context` and returns a
:class:`Outcome`: verdict wall times of the untraced phase, set-up
times, the per-layer numbers of the traced phase (when ``--trace 1``),
failures, and what the inputs were. Load comes from this one process:
one closed-loop client for ``cold-analyze`` and ``watch-edit``,
``nproc`` (at most 2) closed-loop client threads for ``serve-warm``.
Under ``--trace 1`` half of the measuring time runs untraced and half
traced, so the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from inputs import (SERVE_GENERATED, corpus_reference, draw_program,
                    edit_body, serve_plan)
from spans import LAYER_NAMES, check_nesting, summarize

from repro.server import SafeFlowClient

HERE = Path(__file__).resolve().parent

#: set-ups per run; ``setup_s`` is their median
SETUPS = {"cold-analyze": 9, "serve-warm": 3, "watch-edit": 3}

#: per-process wall-clock cap on one analyzer call or child
CHILD_TIMEOUT = 150.0


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    scale: float
    #: added to every reference warning count (the smoke test of the
    #: reference check feeds a wrong expectation this way)
    reference_shift: int = 0

    def env(self) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("SAFEFLOW_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["SAFEFLOW_CACHE_DIR"] = str(self.work / "default-cache")
        return env

    def phases(self) -> List[tuple]:
        """``(seconds, traced)`` of each measured phase."""
        if self.trace:
            return [(self.seconds / 2, False), (self.seconds / 2, True)]
        return [(self.seconds, False)]


@dataclass
class Outcome:
    walls: List[float] = field(default_factory=list)
    phase_seconds: float = 0.0
    loc_verdicted: int = 0
    setups: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    traced_walls: List[float] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    span_problems: List[str] = field(default_factory=list)
    unwrapped: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)
    #: every span of the traced phase (cold-analyze and watch-edit)
    spans: List[list] = field(default_factory=list)


def _counter_layers(stats_list: List[dict]) -> Dict[str, float]:
    """Per-layer counters the program reports in each verdict's stats."""
    def total(key, kernel=False):
        return sum(int(((s.get("kernel_counters") or {}) if kernel else s)
                       .get(key, 0) or 0) for s in stats_list)

    def ratio(num, den):
        return num / den if den else 0.0

    n = max(1, len(stats_list))
    compiled = total("kernel_compiled_bodies", True)
    solver_hits = total("solver_cache_hits", True)
    fe_hits = total("frontend_cache_hits")
    summary_hits = total("summary_cache_hits")
    return {
        "valueflow.contexts": total("contexts_analyzed") / n,
        "valueflow.compiled_share": ratio(
            compiled, compiled + total("kernel_fallback_bodies", True)),
        "restrictions.solver_hit_ratio": ratio(
            solver_hits, solver_hits + total("solver_cache_misses", True)),
        "perf.frontend_hit_ratio": ratio(
            fe_hits, fe_hits + total("frontend_cache_misses")),
        "incremental.summary_hit_ratio": ratio(
            summary_hits, summary_hits + total("summary_cache_misses")),
        "incremental.functions_reanalyzed":
            total("functions_reanalyzed") / n,
        "incremental.segment_fallbacks": total("segment_fallbacks"),
    }


def _span_layers(out: Outcome, spans: list) -> None:
    out.span_problems.extend(check_nesting(spans))
    summary = summarize(spans)
    for name in LAYER_NAMES:
        out.layers[name + "_s"] = summary[name]
    out.layers["frontend.units"] = summary["frontend.units"]
    out.layers["ir.ssa_functions"] = summary["ir.ssa_functions"]
    out.layers["trace.unattributed_share"] = summary["unattributed_share"]


# ----------------------------------------------------------------------
# cold-analyze
# ----------------------------------------------------------------------

def run_cold(ctx: Context) -> Outcome:
    """A fresh ``safeflow analyze --no-cache --json`` process per verdict.

    Fresh processes keep the process-global taint, solver and
    fingerprint caches cold, so no cache, memo or serving layer takes
    part: a gain in one of them must show no change here.
    """
    out = Outcome()
    program = draw_program("cold", ctx.seed, ctx.scale)
    expected = program.expected.shifted(ctx.reference_shift)
    paths = program.write_to(str(ctx.work / "cold"))
    out.info.update(knobs=program.knobs, loc=program.loc,
                    files=len(program.files))
    py, env = sys.executable, ctx.env()
    for _ in range(SETUPS["cold-analyze"]):
        # captured output makes run() wait on the pipes, not poll the
        # child on a backoff of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run([py, "-c", "import repro.cli"], env=env, check=True,
                       timeout=CHILD_TIMEOUT, capture_output=True)
        out.setups.append(time.perf_counter() - t0)
    analyze = ["analyze", "--no-cache", "--json", *paths]
    stats_list, spans = [], []
    for seconds, traced in ctx.phases():
        started = time.perf_counter()
        count = 0
        while count == 0 or time.perf_counter() - started < seconds:
            count += 1
            out.attempted += 1
            span_file = ctx.work / "spans.json"
            if traced:
                cmd = [py, str(HERE / "child_analyze.py"), str(span_file)]
            else:
                cmd = [py, "-m", "repro.cli"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd + analyze, env=env, timeout=CHILD_TIMEOUT,
                                  capture_output=True, text=True)
            t1 = time.perf_counter()
            if proc.returncode not in (0, 1):
                out.failures.append(f"analyze exited {proc.returncode}: "
                                    f"{proc.stderr.strip()[-300:]}")
                continue
            report = json.loads(proc.stdout)
            bad = expected.mismatch(report["counts"])
            if bad:
                out.failures.append(f"cold verdict: {bad}")
                continue
            if not traced:
                out.walls.append(t1 - t0)
                out.loc_verdicted += program.loc
                continue
            out.traced_walls.append(t1 - t0)
            stats_list.append(report["stats"])
            child = json.loads(span_file.read_text())
            out.unwrapped = child["missing"]
            base, verdict = len(spans), len(out.traced_walls) - 1
            imported = child["spans"][0][1]
            for name, start, end, parent, _ in child["spans"]:
                spans.append([name, start, end,
                              parent + base if parent >= 0 else -1, verdict])
            spans[base][1:3] = [t0, t1]
            spans.append(["process.import", t0, imported, base, verdict])
        if not traced:
            out.phase_seconds = time.perf_counter() - started
    if ctx.trace:
        out.spans = spans
        _span_layers(out, spans)
        out.layers.update(_counter_layers(stats_list))
    return out


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------

class _Daemon:
    """One ``safeflow serve`` process with its own cache dir."""

    def __init__(self, ctx: Context, name: str):
        self.cache = ctx.work / name
        self.log = ctx.work / f"{name}.log"
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--cache-dir", str(self.cache)],
                stdout=log, stderr=subprocess.STDOUT, env=ctx.env())
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            match = re.search(r"listening on [\d.]+:(\d+) ",
                              self.log.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.proc.kill()
        self.proc.wait()
        raise RuntimeError(f"daemon did not start: {self.log.read_text()}")

    def stop(self) -> None:
        """Drain and stop; the wait collects the workers' rusage."""
        if self.proc.poll() is None:
            try:
                with SafeFlowClient(port=self.port, retries=0) as client:
                    client.shutdown(drain=True)
            except Exception:  # already dying: fall through to the kill
                self.proc.terminate()
        try:
            self.proc.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _serve_request(kind, index, function, tag, generated, corpus):
    """``(analyze kwargs, reference, non-blank lines)`` of one request."""
    if kind in corpus:
        files, expected, loc = corpus[kind]
        return dict(files=files, name=kind), expected, loc
    program = generated[index]
    text = program.source()
    if kind == "variant":
        text = edit_body(text, function, tag)
    return (dict(source=text, name=f"gen{index}", filename=f"gen{index}.c"),
            program.expected, program.loc)


def run_serve(ctx: Context) -> Outcome:
    """Two closed-loop clients against a primed ``safeflow serve``."""
    out = Outcome()
    generated = [draw_program("serve", ctx.seed, ctx.scale, index=i)
                 for i in range(SERVE_GENERATED)]
    corpus = corpus_reference()
    for key in corpus:
        files, expected, loc = corpus[key]
        corpus[key] = (files, expected.shifted(ctx.reference_shift), loc)
    for program in generated:
        program.expected = program.expected.shifted(ctx.reference_shift)
    out.info.update(knobs=[p.knobs for p in generated],
                    loc=[p.loc for p in generated])
    primes = [(key, 0, "") for key in corpus] + [
        ("gen", i, "") for i in range(len(generated))]
    clients = min(2, os.cpu_count() or 1)
    daemon: Optional[_Daemon] = None
    records: List[dict] = []
    lock = threading.Lock()
    try:
        for k in range(SETUPS["serve-warm"]):
            if daemon is not None:
                daemon.stop()
            t0 = time.perf_counter()
            daemon = _Daemon(ctx, f"serve{k}")
            with SafeFlowClient(port=daemon.port) as client:
                for kind, index, function in primes:
                    out.attempted += 1
                    kwargs, expected, _ = _serve_request(
                        kind, index, function, 0, generated, corpus)
                    bad = expected.mismatch(client.analyze(**kwargs)["counts"])
                    if bad:
                        out.failures.append(f"priming {kind}: {bad}")
            out.setups.append(time.perf_counter() - t0)

        retries = [0] * clients
        tags = [0] * clients

        def loop(c: int, seconds: float, traced: bool, plan) -> None:
            with SafeFlowClient(port=daemon.port, request_timeout=120.0) \
                    as client:
                started = time.perf_counter()
                count = 0
                while count == 0 or time.perf_counter() - started < seconds:
                    count += 1
                    kind, index, function = next(plan)
                    tags[c] += 1
                    kwargs, expected, loc = _serve_request(
                        kind, index, function, c * 10 ** 6 + tags[c],
                        generated, corpus)
                    rec = {"kind": kind, "traced": traced, "loc": loc}
                    t0 = time.perf_counter()
                    try:
                        result = client.analyze(**kwargs)
                    except Exception as exc:  # error, refusal or timeout
                        rec["error"] = f"{type(exc).__name__}: {exc}"
                    rec["wall"] = time.perf_counter() - t0
                    if "error" not in rec:
                        rec["mismatch"] = expected.mismatch(result["counts"])
                        rec["stats"] = result["report"]["stats"]
                    with lock:
                        records.append(rec)
                retries[c] += client.stats["retries"]

        plans = [serve_plan(ctx.seed, c, generated) for c in range(clients)]
        for seconds, traced in ctx.phases():
            threads = [threading.Thread(target=loop,
                                        args=(c, seconds, traced, plans[c]))
                       for c in range(clients)]
            started = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if not traced:
                out.phase_seconds = time.perf_counter() - started
        with SafeFlowClient(port=daemon.port) as client:
            metrics = client.metrics()
    finally:
        if daemon is not None:
            daemon.stop()

    stats_list = []
    analysis, overhead, unattributed, traced_wall = [], [], 0.0, 0.0
    phase_sums = {"frontend": 0.0, "shm": 0.0, "restrictions": 0.0,
                  "lint": 0.0, "valueflow": 0.0}
    for rec in records:
        out.attempted += 1
        problem = rec.get("error") or rec.get("mismatch")
        if problem:
            out.failures.append(f"serve {rec['kind']}: {problem}")
            continue
        if not rec["traced"]:
            out.walls.append(rec["wall"])
            out.loc_verdicted += rec["loc"]
            continue
        out.traced_walls.append(rec["wall"])
        stats_list.append(rec["stats"])
        timings = rec["stats"]["phase_timings"]
        total = timings["total"]
        analysis.append(total)
        overhead.append(rec["wall"] - total)
        for phase in phase_sums:
            phase_sums[phase] += timings.get(phase, 0.0)
        unattributed += total - sum(timings.get(p, 0.0) for p in phase_sums)
        traced_wall += rec["wall"]
    kinds = [rec["kind"] for rec in records]
    out.info["request_shares"] = {
        "repeat": round(1 - kinds.count("variant") / len(kinds), 4),
        "variant": round(kinds.count("variant") / len(kinds), 4)}
    out.info["p50_ms_by_kind"] = _p50_by_kind(records)
    if ctx.trace:
        n = max(1, len(out.traced_walls))
        # program-reported: the frontend phase (parse, lower and the
        # IR-cache/memo lookups together) and the analysis phases
        out.layers["frontend.parse_s"] = phase_sums["frontend"] / n
        out.layers["shm.run_s"] = phase_sums["shm"] / n
        out.layers["restrictions.check_s"] = phase_sums["restrictions"] / n
        out.layers["valueflow.lint_s"] = phase_sums["lint"] / n
        out.layers["valueflow.run_s"] = phase_sums["valueflow"] / n
        out.layers.update(_counter_layers(stats_list))
        out.layers["server.analysis_ms"] = _median_ms(analysis)
        out.layers["server.overhead_ms"] = _median_ms(overhead)
        out.layers["trace.unattributed_share"] = (
            unattributed / traced_wall if traced_wall else 0.0)
        out.info["program_reported"] = True
    rolling = (metrics.get("latency") or {}).get("rolling") or {}
    out.layers["server.handle_p50_ms"] = (rolling.get("p50_s") or 0.0) * 1000
    out.layers["server.worker_restarts"] = (
        metrics.get("resilience") or {}).get("worker_restarts", 0)
    out.layers["client.retries"] = sum(retries)
    return out


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1000 if values else 0.0


def _p50_by_kind(rows: List[dict]) -> Dict[str, float]:
    """Median untraced wall (ms) per input kind, for the report."""
    kinds: Dict[str, List[float]] = {}
    for row in rows:
        if not row["traced"] and not row.get("error"):
            kinds.setdefault(row["kind"], []).append(row["wall"])
    return {k: round(_median_ms(v), 3) for k, v in sorted(kinds.items())}


# ----------------------------------------------------------------------
# watch-edit
# ----------------------------------------------------------------------

def run_watch(ctx: Context) -> Outcome:
    """One in-process incremental session in a child process."""
    out = Outcome()
    spec = {"work": str(ctx.work), "seed": ctx.seed, "scale": ctx.scale,
            "seconds": ctx.seconds, "trace": ctx.trace,
            "setups": SETUPS["watch-edit"],
            "reference_shift": ctx.reference_shift}
    spec_file, result_file = ctx.work / "watch.json", ctx.work / "watch-out.json"
    spec_file.write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(HERE / "child_watch.py"),
                    str(spec_file), str(result_file)],
                   env=ctx.env(), check=True, timeout=CHILD_TIMEOUT)
    result = json.loads(result_file.read_text())
    out.setups = result["setups"]
    out.attempted = len(out.setups)
    out.failures = list(result["failures"])
    out.unwrapped = result["missing"]
    out.phase_seconds = result["phases"]["untraced"]
    loc = result["program"]["loc"]
    out.info.update(knobs=result["program"]["knobs"], loc=loc,
                    files=result["program"]["files"])
    traced_stats = []
    for sample in result["samples"]:
        out.attempted += 1
        problem = "verdict raised" if sample.get("error") \
            else sample["mismatch"]
        if problem:
            out.failures.append(f"watch {sample['kind']} edit: {problem}")
            continue
        if not sample["traced"]:
            out.walls.append(sample["wall"])
            out.loc_verdicted += loc
        else:
            out.traced_walls.append(sample["wall"])
            traced_stats.append(sample)
    samples = result["samples"]
    kinds = [s["kind"] for s in samples]
    swaps = [s.get("swap", False) for s in samples]
    out.info["edit_shares"] = {
        "filler": round(kinds.count("filler") / len(kinds), 4),
        "core": round(kinds.count("core") / len(kinds), 4),
        "unit_swap": round(swaps.count(True) / len(swaps), 4),
        "full_relower": round(swaps.count(False) / len(swaps), 4)}
    out.info["p50_ms_by_kind"] = _p50_by_kind(samples)
    if ctx.trace:
        out.spans = result["spans"]
        _span_layers(out, out.spans)
        out.layers.update(_counter_layers([s["stats"] for s in traced_stats]))
        out.layers["incremental.full_relower_share"] = (
            sum(1 for s in traced_stats if not s["swap"])
            / max(1, len(traced_stats)))
    return out


WORKLOADS = {
    "cold-analyze": run_cold,
    "serve-warm": run_serve,
    "watch-edit": run_watch,
}
