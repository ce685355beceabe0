"""Concurrent server use: many clients, one daemon, one shared cache.

The acceptance bar of the serving layer: N parallel clients hammering
a single daemon over a shared cache directory must observe (a) no
corrupted cache entries, (b) responses byte-identical to sequential
cold-path reports, and (c) cancellation of one request never
disturbing its siblings — even while the victim's worker process is
genuinely mid-analysis.
"""

import threading

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.corpus import generate_core, load_system
from repro.server import SafeFlowClient, ServerError
from repro.server import protocol

from tests.perf.test_cache_correctness import SIMPLE
from tests.server.test_daemon import client_for, start_server, _wait_until

N_CLIENTS = 8
ROUNDS = 3


def _variants(count):
    """Distinct programs so concurrent requests mix cache keys."""
    return [SIMPLE.replace("a * 2.0", f"a * {i + 2}.0") for i in range(count)]


def test_parallel_clients_match_sequential_cold_reports(tmp_path):
    """Each variant has a file name of its own, so each is built, and
    stored on disk, in its own lineage."""
    _hammer(tmp_path, one_lineage=False)


def test_parallel_clients_patching_one_lineage_match_cold_reports(tmp_path):
    """All variants share one file name: workers patch pooled programs
    into each other and never write a patched one to the disk cache."""
    _hammer(tmp_path, one_lineage=True)


def _hammer(tmp_path, one_lineage):
    sources = _variants(4)
    names = ["<source>"] * 4 if one_lineage else [
        f"prog{i}.c" for i in range(4)]
    expected = [
        SafeFlow(AnalysisConfig(summary_mode=True)).analyze_source(
            src, filename=names[i], name=f"prog{i}").render(verbose=True)
        for i, src in enumerate(sources)
    ]

    server = start_server(tmp_path, workers=4, queue_size=64)
    try:
        failures = []
        lock = threading.Lock()

        def hammer(client_index):
            try:
                with client_for(server) as client:
                    for round_index in range(ROUNDS):
                        i = (client_index + round_index) % len(sources)
                        result = client.analyze(
                            source=sources[i], name=f"prog{i}",
                            filename=names[i], verbose=True,
                        )
                        if result["render"] != expected[i]:
                            raise AssertionError(
                                f"client {client_index} round {round_index}: "
                                f"response diverged from the cold report"
                            )
            except Exception as exc:
                with lock:
                    failures.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,), daemon=True)
                   for i in range(N_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures[0]

        with client_for(server) as client:
            metrics = client.metrics()
        assert metrics["analyses"]["completed"] == N_CLIENTS * ROUNDS
        assert metrics["analyses"]["failed"] == 0
        # the shared cache actually served warm requests
        assert metrics["cache"]["frontend_hits"] > 0
        if not one_lineage:
            assert metrics["cache"]["derived_programs"] == 0
    finally:
        server.stop()

    # (a) nothing in the shared cache directory was corrupted: a fresh
    # analyzer reading the same cache still reproduces the cold report
    # and, for programs that were built rather than patched, still
    # gets hits (memo off, so each hit is read from disk)
    for i, src in enumerate(sources):
        config = AnalysisConfig(summary_mode=True, frontend_memo=False,
                                cache_dir=str(tmp_path / "cache"))
        flow = SafeFlow(config)
        report = flow.analyze_source(src, filename=names[i],
                                     name=f"prog{i}")
        assert report.render(verbose=True) == expected[i]
        assert report.stats.cache_integrity_evictions == 0
        if not one_lineage:
            assert report.stats.frontend_cache_hits == 1


def test_cancel_mid_analysis_leaves_siblings_untouched(tmp_path):
    """Cancel a request whose worker process is really analyzing."""
    big = generate_core(monitored_regions=2, chain_depth=6,
                        filler_functions=60)
    small = load_system("ip")
    small_files = [str(p) for p in small.core_files]
    expected_small = SafeFlow(AnalysisConfig(summary_mode=True)).analyze_files(
        small_files, name="ip").render()

    server = start_server(tmp_path, workers=2, queue_size=16)
    try:
        outcomes = {}

        def run_victim():
            with client_for(server) as client:
                try:
                    outcomes["victim"] = client.analyze(
                        source=big.source, name="victim", job_id="victim")
                except ServerError as exc:
                    outcomes["victim"] = exc

        victim_thread = threading.Thread(target=run_victim, daemon=True)
        victim_thread.start()
        assert _wait_until(lambda: server.pool.running_count() >= 1,
                           timeout=10)

        with client_for(server) as client:
            sibling = client.analyze(files=small_files, name="ip")
            cancel = client.cancel("victim")
            sibling_after = client.analyze(files=small_files, name="ip")

        victim_thread.join(timeout=30)
        assert cancel["found"] and cancel["cancelled"]
        assert isinstance(outcomes["victim"], ServerError)
        assert outcomes["victim"].code == protocol.CANCELLED
        # siblings before and after the cancellation are pristine
        assert sibling["render"] == expected_small
        assert sibling_after["render"] == expected_small

        with client_for(server) as client:
            health = client.health()
            metrics = client.metrics()
        assert health["status"] == "ok"
        assert metrics["analyses"]["cancelled"] == 1
    finally:
        server.stop()
