"""Append-only framed logs: one frame layout, one append, one reader.

The batch journal (:mod:`repro.perf.journal`) and the incremental
segment log (:mod:`repro.incremental.segments`) both persist a sequence
of independently verifiable records::

    FRAME_MAGIC (4 bytes) + big-endian u32 length + sealed payload

where ``sealed`` is :func:`repro.perf.integrity.seal` over a pickled
record — the ``SFCK1`` checksum framing the on-disk caches use, so a
torn write, bit rot, or a crash mid-append is detected before a single
byte reaches ``pickle``.

Appends are sequential and flushed + fsynced, so everything before the
first damaged frame is intact by construction. :func:`read_frames`
therefore stops at the first bad frame (short header, bad magic,
oversize or overrunning length, checksum mismatch, unpicklable payload)
and reports the byte offset of the last intact frame boundary; what the
caller does with the damaged tail (truncate, evict) is its own policy.
"""

from __future__ import annotations

import os
import pickle
import struct
from typing import List, Tuple

from .integrity import seal, unseal

#: per-frame magic — detects a seek into garbage before length parsing
FRAME_MAGIC = b"SFJ1"
_LEN = struct.Struct(">I")
HEADER_LEN = len(FRAME_MAGIC) + _LEN.size
#: refuse absurd frame lengths (corrupt length field) without trying
#: to allocate them
MAX_FRAME = 1 << 30


def frame(obj) -> bytes:
    """One sealed, length-prefixed frame holding pickled ``obj``."""
    sealed = seal(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    return FRAME_MAGIC + _LEN.pack(len(sealed)) + sealed


def append(fileobj, blob: bytes) -> None:
    """Durably append ``blob`` (one or more frames): write, flush,
    fsync. ``OSError`` propagates to the caller."""
    fileobj.write(blob)
    fileobj.flush()
    os.fsync(fileobj.fileno())


def read_frames(path: str) -> Tuple[List[object], int, bool]:
    """``(records, good_offset, damaged)`` for the log at ``path``.

    ``records`` are the unpickled payloads of every intact frame up to
    the first damaged one; ``good_offset`` is the byte offset just past
    the last intact frame; ``damaged`` says whether anything followed
    it. A missing or unreadable file reads as an empty, undamaged log.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError:
        return [], 0, False
    records: List[object] = []
    offset = 0
    size = len(raw)
    while offset < size:
        start = offset + HEADER_LEN
        if start > size or not raw.startswith(FRAME_MAGIC, offset):
            return records, offset, True
        (length,) = _LEN.unpack_from(raw, offset + len(FRAME_MAGIC))
        if length > MAX_FRAME or start + length > size:
            return records, offset, True
        try:
            records.append(pickle.loads(unseal(raw[start:start + length])))
        except Exception:  # IntegrityError, unpickling garbage
            return records, offset, True
        offset = start + length
    return records, offset, False


def truncate(path: str, offset: int) -> None:
    """Cut the log back to ``offset`` in place (``OSError`` propagates)."""
    with open(path, "r+b") as f:
        f.truncate(offset)
