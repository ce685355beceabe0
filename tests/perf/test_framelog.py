"""The shared append-only frame log under the journal and segment log.

One reader serves both logs, so one damage matrix covers both: a torn
tail, a flipped payload byte and an oversize length field each stop the
read at the last intact frame, and each log recovers its own way — the
journal truncates and counts a truncated record, the segment store
truncates and counts an integrity eviction. Everything before the
damage survives.
"""

import os

import pytest

from repro.incremental.segments import SegmentStore
from repro.perf import framelog
from repro.perf.journal import BatchJournal, run_journaled
from repro.perf.summary_store import BodyRecord

from tests.perf.test_journal import _config, _write_jobs


def _torn(blob: bytes) -> bytes:
    return blob[:-16]


def _flipped(blob: bytes) -> bytes:
    damaged = bytearray(blob)
    damaged[-8] ^= 0xFF  # inside the sealed payload
    return bytes(damaged)


def _oversize(blob: bytes) -> bytes:
    length = (framelog.MAX_FRAME + 1).to_bytes(4, "big")
    return framelog.FRAME_MAGIC + length + blob[framelog.HEADER_LEN:]


def _journal(tmp_path):
    """A journal of 3 results: ``(path, recover, survivors)``, where
    ``recover`` replays it and returns how many records survived."""
    path = str(tmp_path / "batch.journal")
    run_journaled(_write_jobs(tmp_path), _config(), path, max_workers=1)

    def recover():
        replay = BatchJournal(path).replay()
        assert replay.truncated_records == 1
        return len(replay.results)

    return path, recover, 3


def _segments(tmp_path):
    """A segment log holding 2 segments; same contract."""
    root = str(tmp_path / "segments")
    store = SegmentStore(root)
    store.begin_run({"f": "fp-f", "g": "fp-g"})
    for function in ("f", "g"):
        key = store.entry_key(function, "summary", f"fp-{function}", (), ())
        store.stage(key, BodyRecord(ret="safe"))
    store.flush()

    def recover():
        reopened = SegmentStore(root)
        assert reopened.integrity_evictions == 1
        return len(reopened)

    return store.path, recover, 2


@pytest.mark.parametrize("damage", [_torn, _flipped, _oversize],
                         ids=["torn-tail", "flipped-byte", "oversize-length"])
@pytest.mark.parametrize("log", [_journal, _segments],
                         ids=["journal", "segments"])
def test_damaged_frame_stops_the_read_at_the_last_intact_frame(
        tmp_path, log, damage):
    path, recover, survivors = log(tmp_path)
    intact_records, intact_size, damaged = framelog.read_frames(path)
    assert not damaged and intact_size == os.path.getsize(path)

    with open(path, "ab") as f:
        f.write(damage(framelog.frame(("segment", "k", None))))
    records, good_offset, damaged = framelog.read_frames(path)
    assert damaged
    assert good_offset == intact_size
    assert len(records) == len(intact_records)

    assert recover() == survivors
    # the damaged tail is physically gone
    assert os.path.getsize(path) == intact_size
