"""Traced ``safeflow analyze``: one cold verdict with layer spans.

Usage: ``python3 child_analyze.py SPANS_OUT analyze ARGS...`` with
``src`` on ``PYTHONPATH``. Imports the CLI, wraps the layers, then
calls the CLI ``main`` exactly as ``python3 -m repro.cli`` would; the
report goes to stdout as usual and the spans to ``SPANS_OUT`` once the
verdict is done. The first span starts when ``import repro.cli`` has
returned, so the parent can split interpreter start and import off as
their own layer.
"""

import sys
import time

import repro.cli

IMPORTED = time.perf_counter()

import json  # noqa: E402

from spans import Tracer  # noqa: E402


def run() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin(0, start=IMPORTED)
    try:
        code = repro.cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.end()
    with open(out, "w") as f:
        json.dump({"spans": tracer.spans, "missing": tracer.missing}, f)
    return code


if __name__ == "__main__":
    sys.exit(run())
