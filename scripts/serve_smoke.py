#!/usr/bin/env python3
"""End-to-end smoke test of ``safeflow serve`` as a real subprocess.

Starts the daemon via ``python -m repro.cli serve`` (ephemeral port,
metrics snapshot on exit), round-trips every corpus system through
``SafeFlowClient``, checks each response is byte-identical to the
in-process cold analysis, scrapes the metrics plane, asks the daemon
to shut down over RPC, and verifies a clean exit plus a well-formed
``--metrics-json`` file. Exits nonzero on the first discrepancy.

Run via ``make serve-smoke``.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.core.config import AnalysisConfig          # noqa: E402
from repro.core.driver import SafeFlow                # noqa: E402
from repro.corpus import SYSTEM_KEYS, load_system     # noqa: E402
from repro.server import SafeFlowClient               # noqa: E402

LISTEN_RE = re.compile(r"listening on .*?:(\d+)")


def fail(message):
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    tmp = Path(tempfile.mkdtemp(prefix="safeflow-smoke-"))
    metrics_path = tmp / "metrics.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--workers", "2",
         "--cache-dir", str(tmp / "cache"),
         "--metrics-json", str(metrics_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(REPO_ROOT),
    )
    try:
        line = proc.stdout.readline()
        match = LISTEN_RE.search(line)
        if not match:
            proc.kill()
            fail(f"no listening banner, got: {line!r}")
        port = int(match.group(1))
        print(f"serve-smoke: daemon up on port {port} (pid {proc.pid})")

        with SafeFlowClient(port=port, request_timeout=120.0) as client:
            if not client.ping():
                fail("ping did not answer")
            for key in SYSTEM_KEYS:
                system = load_system(key)
                files = [str(p) for p in system.core_files]
                cold = SafeFlow(AnalysisConfig()) \
                    .analyze_files(files, name=key)
                result = client.analyze(files=files, name=key)
                if result["render"] != cold.render():
                    fail(f"{key}: served report differs from cold analysis")
                print(f"serve-smoke: {key}: byte-identical "
                      f"({'PASS' if result['passed'] else 'FAIL'} as expected)")
            # warm repeat must show up in the metrics plane
            client.analyze(
                files=[str(p) for p in load_system("ip").core_files],
                name="ip")
            metrics = client.metrics()
            if metrics["cache"]["frontend_hits"] < 1:
                fail("no cache hits after a warm repeat")
            if metrics["analyses"]["completed"] != len(SYSTEM_KEYS) + 1:
                fail(f"unexpected completion count: {metrics['analyses']}")
            print(f"serve-smoke: metrics ok "
                  f"(completed={metrics['analyses']['completed']}, "
                  f"frontend_hits={metrics['cache']['frontend_hits']})")
            client.shutdown(drain=True)

        try:
            rc = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("daemon did not exit after shutdown RPC")
        if rc != 0:
            fail(f"daemon exited with {rc}:\n{proc.stdout.read()}")
        snapshot = json.loads(metrics_path.read_text())
        if snapshot["analyses"]["completed"] != len(SYSTEM_KEYS) + 1:
            fail("metrics snapshot file disagrees with scraped metrics")
        print("serve-smoke: clean shutdown, metrics snapshot written — OK")
    finally:
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    main()
