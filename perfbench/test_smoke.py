"""Smoke tests of the benchmark itself, at tiny input sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from inputs import draw_program, edit_body, serve_plan, watch_plan  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from spans import Tracer, check_nesting, summarize  # noqa: E402

WORKLOADS = ("cold-analyze", "serve-warm", "watch-edit")
TINY = ["--seed", "3", "--seconds", "2", "--scale", "0.05"]


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc, lines = _run("--workload", workload, "--trace", trace, *TINY)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = END_TO_END if trace == "0" else {
        name: unit for name, (unit, _) in PER_LAYER.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    text = "\n".join(lines[:-1])
    for name, unit in names.items():
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit)
                   for line in text.splitlines()), name
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_fails_the_run(workload):
    proc, lines = _run("--workload", workload, "--reference-shift", "1",
                       *TINY)
    assert proc.returncode != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _run("--workload", "cold-analyze", *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_inputs_are_seeded():
    a, b = draw_program("cold", 5), draw_program("cold", 5)
    assert a.files == b.files and a.knobs == b.knobs
    assert draw_program("cold", 6).files != a.files
    assert abs(a.loc - 10000) <= 150
    plan = [next(p) for p in [serve_plan(5, 0, [a])] for _ in range(20)]
    assert plan == [next(p) for p in [serve_plan(5, 0, [a])]
                    for _ in range(20)]
    assert sum(kind == "variant" for kind, _, _ in plan) == 2
    edits = watch_plan(5, a)
    assert [next(edits) for _ in range(10)] == [
        next(e) for e in [watch_plan(5, a)] for _ in range(10)]


def test_body_edit_changes_one_literal_of_one_function():
    program = draw_program("watch", 5, 0.05)
    for fname, text in program.files:
        for function in program.filler_names + program.chain_names:
            if f"double {function}(" not in text:
                continue
            edited = edit_body(text, function, 42)
            changed = [(x, y) for x, y in zip(text.splitlines(),
                                              edited.splitlines()) if x != y]
            assert len(changed) == 1 and "425" in changed[0][1]


def test_spans_nest_and_self_times_add_up():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "ir.ssa")
    outer = tracer.wrap(lambda: inner(), "frontend.lower")
    outer()  # no verdict open: not recorded
    assert tracer.spans == []
    for verdict in range(2):
        tracer.begin(verdict)
        outer()
        inner()
        tracer.end()
    assert check_nesting(tracer.spans) == []
    summary = summarize(tracer.spans)
    assert summary["ir.ssa_functions"] == 2
    walls = [s[2] - s[1] for s in tracer.spans if s[0] == "verdict"]
    selves = sum(summary[name] for name in ("ir.ssa", "frontend.lower"))
    assert selves * 2 <= sum(walls)
    broken = [list(s) for s in tracer.spans]
    broken[1][2] = broken[0][2] + 1.0  # ends after its parent
    assert check_nesting(broken)
