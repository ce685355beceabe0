"""The ``safeflow`` process entry (``python -m repro.cli``) against the
in-process ``main()``: same reports, same exit codes, complete output
through pipes and files, and no gc state leaking into callers.

A one-shot ``analyze`` process skips the closing collection and the
interpreter's heap teardown, so everything here runs in a fresh
interpreter and checks what a user of the process sees.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.corpus import SYSTEM_KEYS, load_system
from repro.corpus.builder import generate_core
from tests.conftest import SRC

#: report fields that hold wall-clock measurements
TIMING_COUNTERS = ("kernel_compile_us", "kernel_execute_us")


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_cli(*argv, **kwargs):
    """``python -m repro.cli ARGV`` — the console entry's code path."""
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          env=_env(), capture_output=True, text=True,
                          timeout=120, **kwargs)


def run_main(*argv, extra=""):
    """``main(ARGV)`` called in-process in a fresh interpreter."""
    code = ("import sys\nfrom repro.cli import main\n"
            f"code = main({list(argv)!r})\n{extra}\nsys.exit(code)\n")
    return subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=120)


def without_timings(report_json):
    report = json.loads(report_json)
    stats = report["stats"]
    stats.pop("phase_timings")
    for counter in TIMING_COUNTERS:
        stats["kernel_counters"].pop(counter)
    return report


@pytest.fixture(scope="module")
def big_source(tmp_path_factory):
    """A core component whose ``-v`` report is larger than 64 KiB."""
    path = tmp_path_factory.mktemp("big") / "big.c"
    path.write_text(generate_core(data_error_regions=20,
                                  control_fp_regions=20).source)
    return str(path)


@pytest.fixture
def clean_source(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text("int add(int a, int b) { return a + b; }\n")
    return str(path)


@pytest.mark.parametrize("key", SYSTEM_KEYS)
def test_json_report_matches_in_process_main(key):
    files = [str(p) for p in load_system(key).core_files]
    argv = ("analyze", "--no-cache", "--json", *files)
    process, in_process = run_cli(*argv), run_main(*argv)
    assert process.returncode == in_process.returncode == 1
    assert process.stderr == in_process.stderr == ""
    assert without_timings(process.stdout) == without_timings(
        in_process.stdout)


def test_exit_codes(tmp_path, clean_source):
    ip = [str(p) for p in load_system(SYSTEM_KEYS[0]).core_files]
    assert run_cli("analyze", "--no-cache", clean_source).returncode == 0
    assert run_cli("analyze", "--no-cache", *ip).returncode == 1
    missing = run_cli("analyze", "--no-cache", str(tmp_path / "absent.c"))
    assert missing.returncode == 2
    assert missing.stderr.startswith("safeflow: error: cannot read")


def test_large_verbose_report_arrives_complete(big_source):
    process = run_cli("analyze", "--no-cache", "-v", big_source)
    in_process = run_main("analyze", "--no-cache", "-v", big_source)
    assert len(process.stdout.encode()) > 64 * 1024
    assert process.returncode == in_process.returncode == 1
    assert process.stdout == in_process.stdout


def test_dot_file_is_written_completely(tmp_path):
    files = [str(p) for p in load_system(SYSTEM_KEYS[0]).core_files]
    dot_cli, dot_main = tmp_path / "cli.dot", tmp_path / "main.dot"
    process = run_cli("analyze", "--no-cache", "--dot", str(dot_cli), *files)
    in_process = run_main("analyze", "--no-cache", "--dot", str(dot_main),
                          *files)
    assert process.returncode == in_process.returncode == 1
    assert process.stdout.endswith(f"value flow graph written to {dot_cli}\n")
    text = dot_cli.read_text()
    assert text == dot_main.read_text()
    assert text.startswith("digraph") and text.rstrip().endswith("}")


def test_in_process_main_leaves_gc_as_it_found_it(clean_source):
    probe = run_main("analyze", "--no-cache", clean_source, extra=(
        "import gc\n"
        "print('gc', gc.isenabled(), gc.get_freeze_count(), file=sys.stderr)"
    ))
    assert probe.returncode == 0
    assert probe.stderr == "gc True 0\n"


def test_in_process_analyze_skips_the_closing_collection():
    """The pause guard's first exit would run a full collection over the
    dead IR; under ``cmd_analyze`` the collector is off, so it does not."""
    files = [str(p) for p in load_system(SYSTEM_KEYS[0]).core_files]
    code = (
        "import gc, sys\nfrom repro.cli import main\n"
        "full = []\n"
        "def seen(phase, info):\n"
        "    if phase == 'start' and info['generation'] == 2:\n"
        "        full.append(1)\n"
        "gc.callbacks.append(seen)\n"
        f"code = main({['analyze', '--no-cache', *files]!r})\n"
        "gc.callbacks.remove(seen)\n"
        "print('full', len(full), file=sys.stderr)\n"
        "sys.exit(code)\n")
    probe = subprocess.run([sys.executable, "-c", code], env=_env(),
                           capture_output=True, text=True, timeout=120)
    assert probe.returncode == 1
    assert probe.stderr == "full 0\n"


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("report,read_lines", [("large", 2), ("large", 0),
                                               ("small", 0)])
def test_closed_stdout_keeps_the_verdict_code(big_source, report,
                                              read_lines, unbuffered):
    """``safeflow analyze -v ... | head -2``: no traceback, exit code of
    the verdict, whether the pipe breaks mid-report or, for a report
    that fits the stdout buffer, at the flush before exit."""
    if report == "large":
        argv = ["-v", big_source]
    else:
        argv = [str(p) for p in load_system(SYSTEM_KEYS[0]).core_files]
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "analyze", "--no-cache", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(read_lines):
        proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert stderr == ""


@pytest.mark.parametrize("argv", [["table1"], ["corpus", "ip"], ["demo"],
                                  ["gen", "--filler", "400"]])
def test_every_command_survives_a_closed_stdout(argv):
    """``safeflow CMD | head -1`` with unbuffered output: the pipe breaks
    on an early write, and the command still exits with the code it has
    without a broken pipe, and prints nothing to stderr."""
    env = _env()
    env["PYTHONUNBUFFERED"] = "1"
    expected = run_cli(*argv).returncode
    proc = subprocess.Popen([sys.executable, "-m", "repro.cli", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == expected
    assert stderr == ""
