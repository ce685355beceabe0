"""SafeFlow end-to-end benchmark: cold analyze, warm daemon, watch edit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-analyze --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures the per-layer metrics (half the time untraced,
half traced). Every verdict is checked against a reference the analyzer
did not produce (see ``inputs.py``). The human-readable report goes to
stdout first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every verdict matched its reference and every span nested properly.

The program is run from this checkout's ``src`` — nothing needs to be
installed — and all scratch files live under ``.perfbench_work`` in the
checkout. ``RATIONALE.md`` explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: name -> unit of every end-to-end metric (``--trace 0``)
END_TO_END = {
    "verdict_p50_ms": "ms",
    "verdicts_per_s": "1/s",
    "loc_per_s": "LoC/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: name -> (unit, better) of every per-layer metric (``--trace 1``)
PER_LAYER = {
    "process.import_s": ("s", "lower"),
    "frontend.parse_s": ("s", "lower"),
    "frontend.units": ("count", "lower"),
    "frontend.lower_s": ("s", "lower"),
    "ir.ssa_s": ("s", "lower"),
    "ir.ssa_functions": ("count", "lower"),
    "ir.verify_s": ("s", "lower"),
    "perf.gc_collect_s": ("s", "lower"),
    "perf.frontend_hit_ratio": ("ratio", "higher"),
    "shm.run_s": ("s", "lower"),
    "restrictions.check_s": ("s", "lower"),
    "restrictions.solver_hit_ratio": ("ratio", "higher"),
    "valueflow.lint_s": ("s", "lower"),
    "valueflow.run_s": ("s", "lower"),
    "valueflow.contexts": ("count", "lower"),
    "valueflow.compiled_share": ("ratio", "higher"),
    "reporting.encode_s": ("s", "lower"),
    "incremental.refresh_s": ("s", "lower"),
    "incremental.flush_s": ("s", "lower"),
    "incremental.summary_hit_ratio": ("ratio", "higher"),
    "incremental.functions_reanalyzed": ("count", "lower"),
    "incremental.full_relower_share": ("ratio", "lower"),
    "incremental.segment_fallbacks": ("count", "lower"),
    "server.analysis_ms": ("ms", "lower"),
    "server.overhead_ms": ("ms", "lower"),
    "server.handle_p50_ms": ("ms", "lower"),
    "server.worker_restarts": ("count", "lower"),
    "client.retries": ("count", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

#: tail percentiles printed (not in the result line) once a run has at
#: least ten samples beyond them
TAILS = ((0.90, "verdict_p90_ms"), (0.99, "verdict_p99_ms"))


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-analyze", "serve-warm", "watch-edit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the stated size "
                             "(the smoke tests run tiny programs)")
    parser.add_argument("--reference-shift", type=int, default=0,
                        help="offset every reference warning count "
                             "(a wrong reference must fail the run)")
    return parser.parse_args(argv)


def _load_program():
    """Import the analyzer from this checkout's ``src`` or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "cli.py").is_file():
        print(f"perfbench: no SafeFlow sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(HERE), str(src)]
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not {src}", file=sys.stderr)
        sys.exit(2)
    # byte-compile once so no verdict pays for it
    compileall.compile_dir(str(src), quiet=1)


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _metrics(ctx, out):
    if ctx.trace:
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(out.layers)
        if out.walls and out.traced_walls:
            metrics["trace.overhead_share"] = (
                statistics.median(out.traced_walls)
                / statistics.median(out.walls) - 1)
        return {name: {"value": metrics[name], "unit": PER_LAYER[name][0]}
                for name in PER_LAYER}
    seconds = out.phase_seconds
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not out.walls:
        return {name: {"value": 0.0, "unit": unit}
                for name, unit in END_TO_END.items()}
    values = {
        "verdict_p50_ms": statistics.median(out.walls) * 1000,
        "verdicts_per_s": len(out.walls) / seconds,
        "loc_per_s": out.loc_verdicted / seconds,
        "setup_s": statistics.median(out.setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def _report(args, out, metrics) -> None:
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in out.info.items():
        print(f"  {key}: {json.dumps(value, sort_keys=True)}")
    print(f"  setups: {[round(s, 4) for s in out.setups]}")
    walls = out.walls
    print(f"  verdicts: {len(walls)} untraced, {len(out.traced_walls)} "
          f"traced; attempted {out.attempted}, failed {len(out.failures)}, "
          f"fail_share {len(out.failures) / max(1, out.attempted):.4f} ratio")
    for q, name in TAILS:
        if walls and len(walls) * (1 - q) >= 10:
            print(f"  {name}: {_percentile(walls, q) * 1000:.3f} ms "
                  f"({len(walls)} samples)")
    for problem in (out.failures + out.span_problems)[:20]:
        print(f"  FAIL {problem}")
    if out.unwrapped:
        print(f"  not traced (entry point missing): {out.unwrapped}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:14.6f} {m['unit']}")


def main(argv=None) -> int:
    args = _arguments(argv)
    if args.seconds <= 0 or args.scale <= 0:
        print("perfbench: --seconds and --scale must be positive",
              file=sys.stderr)
        return 2
    _load_program()
    from workloads import WORKLOADS, Context

    # a polite kill still runs the finally blocks that stop the daemon
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(root=ROOT, work=work, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  scale=args.scale, reference_shift=args.reference_shift)
    try:
        out = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not out.walls:
        out.failures.append("no untraced verdict succeeded")
    metrics = _metrics(ctx, out)
    _report(args, out, metrics)
    if out.spans:
        spans_out = base / f"spans-{args.workload}-{args.seed}.json"
        spans_out.write_text(json.dumps(out.spans))
        print(f"  spans written to {spans_out}")
    failed = len(out.failures)
    correct = failed == 0 and not out.span_problems
    print(json.dumps({"correct": correct, "attempted": max(1, out.attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
