"""Basic blocks and control-flow-graph edges."""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..errors import IRError
from .instructions import CondBranch, Instruction, Jump, Phi, Ret


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str, parent=None):
        self.name = name
        self.parent = parent  # Function
        self.instructions: List[Instruction] = []

    # -- construction -------------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated:
            raise IRError(
                f"appending {inst.opname()} to already-terminated block {self.name}"
            )
        inst.parent = self
        self.instructions.append(inst)
        if inst.IS_TERMINATOR and self.parent is not None:
            # new CFG edges: a memoized predecessor map is stale
            self.parent.invalidate_analyses()
        return inst

    def insert_phi(self, phi: Phi) -> Phi:
        phi.parent = self
        self.instructions.insert(0, phi)
        return phi

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None

    # -- structure ----------------------------------------------------

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].IS_TERMINATOR:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if isinstance(term, Jump):
            return [term.target]
        if isinstance(term, CondBranch):
            if term.true_block is term.false_block:
                return [term.true_block]
            return [term.true_block, term.false_block]
        if isinstance(term, Ret) or term is None:
            return []
        return []

    def predecessors(self) -> List["BasicBlock"]:
        """Blocks branching here, in the function's block order."""
        if self.parent is None:
            return []
        return list(self.parent.predecessor_map().get(self, ()))

    def phis(self) -> Iterator[Phi]:
        for inst in self.instructions:
            if isinstance(inst, Phi):
                yield inst
            else:
                break

    def non_phi_instructions(self) -> Iterator[Instruction]:
        for inst in self.instructions:
            if not isinstance(inst, Phi):
                yield inst

    def __repr__(self) -> str:
        return f"<block {self.name} ({len(self.instructions)} insts)>"
