"""Checksum-framed cache entries: corruption is detected, evicted, and
silently recomputed — never trusted, never fatal."""

import os
import pickle

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.incremental import IncrementalSession
from repro.perf.integrity import HEADER_LEN, MAGIC, IntegrityError, seal, unseal
from repro.resilience import faults

from tests.perf.test_cache_correctness import SIMPLE


class TestSealUnseal:
    def test_roundtrip(self):
        payload = b"x" * 1000
        blob = seal(payload)
        assert blob.startswith(MAGIC)
        assert len(blob) == HEADER_LEN + len(payload)
        assert unseal(blob) == payload

    def test_flipped_payload_byte_is_detected(self):
        blob = bytearray(seal(b"hello cache"))
        blob[-1] ^= 0xFF
        with pytest.raises(IntegrityError):
            unseal(bytes(blob))

    def test_flipped_digest_byte_is_detected(self):
        blob = bytearray(seal(b"hello cache"))
        blob[len(MAGIC)] ^= 0xFF
        with pytest.raises(IntegrityError):
            unseal(bytes(blob))

    def test_truncation_is_detected(self):
        blob = seal(b"a longer payload that will be torn")
        with pytest.raises(IntegrityError):
            unseal(blob[: len(blob) // 2])

    def test_legacy_unframed_entry_is_rejected(self):
        # entries written before the checksum frame are raw pickles:
        # no magic, so they fail closed and get recomputed
        with pytest.raises(IntegrityError):
            unseal(pickle.dumps({"legacy": True}))


class TestIRCacheSelfHeal:
    def _config(self, tmp_path):
        # memo off: these tests corrupt the *disk* tier and assert its
        # self-healing, which an in-memory program hit would mask
        return AnalysisConfig(cache_dir=str(tmp_path / "cache"),
                              frontend_memo=False)

    def test_corrupt_entry_is_evicted_and_recomputed(self, tmp_path):
        config = self._config(tmp_path)
        cold = SafeFlow(config).analyze_source(SIMPLE)
        assert cold.stats.cache_integrity_evictions == 0

        assert faults.corrupt_ir_entry(config.cache_dir) is not None
        healed = SafeFlow(config).analyze_source(SIMPLE)
        assert healed.render(verbose=True) == cold.render(verbose=True)
        assert healed.stats.cache_integrity_evictions >= 1
        assert healed.stats.frontend_cache_hits == 0

        # the eviction rewrote the entry: the next run hits again
        warm = SafeFlow(config).analyze_source(SIMPLE)
        assert warm.render(verbose=True) == cold.render(verbose=True)
        assert warm.stats.frontend_cache_hits >= 1
        assert warm.stats.cache_integrity_evictions == 0

    def test_truncated_entry_is_evicted_and_recomputed(self, tmp_path):
        config = self._config(tmp_path)
        cold = SafeFlow(config).analyze_source(SIMPLE)
        assert faults.truncate_ir_entry(config.cache_dir) is not None
        healed = SafeFlow(config).analyze_source(SIMPLE)
        assert healed.render(verbose=True) == cold.render(verbose=True)
        assert healed.stats.cache_integrity_evictions >= 1

    def test_legacy_raw_pickle_entry_is_evicted(self, tmp_path):
        config = self._config(tmp_path)
        cold = SafeFlow(config).analyze_source(SIMPLE)
        ir_dir = os.path.join(config.cache_dir, "ir")
        names = [n for n in os.listdir(ir_dir) if n.endswith(".pkl")]
        assert names
        path = os.path.join(ir_dir, names[0])
        with open(path, "rb") as f:
            payload = unseal(f.read())
        with open(path, "wb") as f:
            f.write(payload)  # strip the frame: pre-upgrade entry
        healed = SafeFlow(config).analyze_source(SIMPLE)
        assert healed.render(verbose=True) == cold.render(verbose=True)
        assert healed.stats.cache_integrity_evictions >= 1


class TestSummaryStoreSelfHeal:
    def test_torn_store_is_evicted_and_recomputed(self, tmp_path):
        src = tmp_path / "prog.c"
        src.write_text(SIMPLE)
        config = AnalysisConfig(
            summary_mode=True, cache_dir=str(tmp_path / "cache"))

        def verdict():
            # a fresh session per verdict: the segment log is reopened
            return IncrementalSession([str(src)], config=config).verdict()

        cold = verdict()
        # tear the segment log mid-file (a partial-disk write)
        (log,) = (tmp_path / "cache").glob("segments-*/segments.log")
        with open(log, "r+b") as f:
            f.truncate(max(1, os.path.getsize(log) // 2))
        healed = verdict()
        assert healed.render(verbose=True) == cold.render(verbose=True)
        assert healed.stats.cache_integrity_evictions >= 1
        assert healed.stats.summary_cache_hits == 0

        # the store heals: a further run replays summaries again
        warm = verdict()
        assert warm.render(verbose=True) == cold.render(verbose=True)
        assert warm.stats.summary_cache_hits >= 1
