"""Performance layer: content-hashed caching + parallel batch driver.

Three cooperating pieces, all strictly behavior-preserving (every
cached or parallel path renders a report byte-identical to the
sequential cold path):

- :class:`IRCache` — on-disk cache of front-ended programs keyed by
  input content hashes + front-end config (:mod:`repro.perf.ircache`);
- :class:`BodyRecord` — the persistable form of one ESP-summary body
  run, keyed by transitive IR fingerprints and replayed by the
  incremental segment store (:mod:`repro.perf.summary_store`);
- :func:`run_batch` — process-parallel fan-out over independent
  programs with crash supervision (:mod:`repro.perf.batch`,
  :mod:`repro.resilience`);
- :func:`seal` / :func:`unseal` — the checksum frame every on-disk
  cache entry carries, so torn or rotted entries are evicted and
  recomputed instead of trusted (:mod:`repro.perf.integrity`);
- :class:`BatchJournal` / :func:`run_journaled` — durable batch
  checkpoint/resume over an append-only, checksum-framed WAL
  (:mod:`repro.perf.journal`, framed by :mod:`repro.perf.framelog`).
"""

import importlib

#: public name → defining submodule. Submodules load on first use, so
#: importing one light module (``repro.perf.gcpause``) does not pull
#: in the batch driver's ``multiprocessing`` and ``concurrent.futures``.
_EXPORTS = {
    "BatchJob": "batch",
    "BatchOutcome": "batch",
    "BatchResult": "batch",
    "resolve_mp_context": "batch",
    "run_batch": "batch",
    "SCHEMA_VERSION": "fingerprint",
    "config_fingerprint": "fingerprint",
    "file_digest": "fingerprint",
    "function_fingerprint": "fingerprint",
    "FlowFingerprints": "fingerprint",
    "text_digest": "fingerprint",
    "IntegrityError": "integrity",
    "seal": "integrity",
    "unseal": "integrity",
    "IRCache": "ircache",
    "BatchJournal": "journal",
    "JournalReplay": "journal",
    "job_fingerprint": "journal",
    "run_journaled": "journal",
    "BodyRecord": "summary_store",
    "BodyRecorder": "summary_store",
    "CellNamer": "summary_store",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
