"""A daemon patching pooled programs answers exactly as cold runs do.

The request sequence moves one worker's pooled program back and forth
between a base program and one-function variants, with a corpus system
in between, under both the process pool and the in-process pool.
"""

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.corpus import generate_core, load_system
from repro.perf.progmemo import program_memo

from tests.frontend.test_patch import without_perf
from tests.server.test_daemon import client_for, start_server

BASE = generate_core(filler_functions=3, chain_depth=2).source
MARKER = "return acc + "


def _variant(tag):
    assert MARKER in BASE
    return BASE.replace(MARKER, f"{MARKER}{tag}.0 + ", 1)


@pytest.mark.parametrize("use_processes", [True, False])
def test_patched_responses_equal_cold_reports(tmp_path, use_processes):
    program_memo().clear()
    ip_files = [str(p) for p in load_system("ip").core_files]
    sequence = [("base", BASE), ("A", _variant(1)), ("base", BASE),
                ("B", _variant(2)), ("ip", None), ("A", _variant(1))]
    server = start_server(
        tmp_path, config=AnalysisConfig(cache_dir=str(tmp_path / "cache")),
        workers=1, use_processes=use_processes)
    derived = []
    try:
        with client_for(server) as client:
            for label, text in sequence:
                if text is None:
                    got = client.analyze(files=ip_files, name=label,
                                         verbose=True)
                    cold = SafeFlow().analyze_files(ip_files, name=label)
                else:
                    got = client.analyze(source=text, filename="gen.c",
                                         name=label, verbose=True)
                    cold = SafeFlow().analyze_source(
                        text, filename="gen.c", name=label)
                assert got["render"] == cold.render(verbose=True), label
                derived.append(got["report"]["stats"].get(
                    "frontend_derived", 0))
                assert without_perf(got["report"]) == without_perf(
                    cold.to_json()), label
            cache = client.metrics()["cache"]
    finally:
        server.stop()
        program_memo().clear()
    # after the first build, every generated-program request patches
    # the pooled neighbour (the corpus system has a lineage of its own)
    assert derived == [0, 1, 1, 1, 0, 1]
    assert cache["derived_programs"] == 4
    assert cache["relowered_definitions"] == 4
