"""Bitset encoding of the taint lattice.

:class:`RegionInterner` assigns each distinct :class:`TaintSource` a
dense bit index, so a whole :class:`Taint` becomes one Python int —
the low ``width`` bits carry *data* provenance, the next ``width``
bits carry *control* provenance — and the lattice operations collapse
to integer arithmetic:

- ``join``        → ``a | b``
- ``unsafe(x)``   → ``enc & data_mask != 0``
- ``as_control``  → ``((enc | enc >> width) & data_mask) << width``
- placeholder strip (summary mode) → ``enc & keep_mask``

``encode``/``decode`` are total inverses over interned taints:
``decode(encode(t)) is t`` (decoding re-enters the :class:`Taint`
intern table, so identity-keyed memos in the engine stay sound), and
distinct taints never share an encoding.

The interner is capped at ``width`` distinct sources. Interning the
``width + 1``-th source raises :class:`KernelOverflow`; the compiled
kernel catches it and falls back to the object-domain body (see
``kernel.py`` — every compiled effect is an idempotent, monotone join,
so re-running a partially executed body in the object domain converges
to the identical fixpoint). The cap bounds interner memory, not
integer size: encodings are ordinary Python ints and stay small while
few bits are set, which is the common case.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .taint import EMPTY_SOURCES, SAFE, Taint, TaintSource

#: interner capacity: programs with more distinct taint sources than
#: this fall back to the object kernel (report-preserving)
DEFAULT_WIDTH = 256

#: summary-mode parameter placeholders (must match the engine's
#: ``_PLACEHOLDER_PREFIX``; asserted in the engine at kernel start-up)
PLACEHOLDER_PREFIX = "\x00arg:"


class KernelOverflow(Exception):
    """The bitset domain ran out of width; caller must fall back."""


class RegionInterner:
    """Dense bit indices for taint sources, plus encode/decode memos."""

    __slots__ = (
        "width", "data_mask", "keep_mask",
        "_bit_of", "_source_of", "_enc_memo", "_dec_memo",
    )

    def __init__(self, width: Optional[int] = None):
        self.width = max(1, int(DEFAULT_WIDTH if width is None else width))
        self.data_mask = (1 << self.width) - 1
        #: AND-mask dropping every placeholder bit (both halves);
        #: recomputed whenever a placeholder source is interned
        self.keep_mask = -1
        self._bit_of: Dict[TaintSource, int] = {}
        self._source_of: List[TaintSource] = []
        #: id(taint) -> encoding. Sound because the Taint intern table
        #: holds strong references: ids of interned taints never recycle.
        self._enc_memo: Dict[int, int] = {id(SAFE): 0}
        self._dec_memo: Dict[int, Taint] = {0: SAFE}

    def __len__(self) -> int:
        return len(self._source_of)

    def bit(self, source: TaintSource) -> int:
        index = self._bit_of.get(source)
        if index is None:
            index = len(self._source_of)
            if index >= self.width:
                raise KernelOverflow(
                    f"taint-source interner exceeded width {self.width}"
                )
            self._bit_of[source] = index
            self._source_of.append(source)
            if source.region.startswith(PLACEHOLDER_PREFIX):
                mask = 1 << index
                self.keep_mask &= ~(mask | mask << self.width)
        return index

    def encode(self, taint: Taint) -> int:
        enc = self._enc_memo.get(id(taint))
        if enc is not None:
            return enc
        bit = self.bit
        data = 0
        for source in taint.data:
            data |= 1 << bit(source)
        control = 0
        for source in taint.control:
            control |= 1 << bit(source)
        enc = data | control << self.width
        self._enc_memo[id(taint)] = enc
        self._dec_memo.setdefault(enc, taint)
        return enc

    def decode(self, enc: int) -> Taint:
        taint = self._dec_memo.get(enc)
        if taint is not None:
            return taint
        source_of = self._source_of
        data = enc & self.data_mask
        control = enc >> self.width
        data_sources = (
            frozenset(
                source_of[i] for i in range(data.bit_length())
                if data >> i & 1
            )
            if data else EMPTY_SOURCES
        )
        control_sources = (
            frozenset(
                source_of[i] for i in range(control.bit_length())
                if control >> i & 1
            )
            if control else EMPTY_SOURCES
        )
        taint = Taint(data_sources, control_sources)
        self._dec_memo[enc] = taint
        # the decoded taint round-trips to the same bits by construction
        self._enc_memo.setdefault(id(taint), enc)
        return taint

    def as_control(self, enc: int) -> int:
        """Bitset mirror of :meth:`Taint.as_control`."""
        return ((enc | enc >> self.width) & self.data_mask) << self.width
