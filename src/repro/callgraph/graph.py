"""Call graph over IR functions.

SafeFlow's phase 1 propagates shared-memory pointers bottom-up and
top-down over the strongly connected components of the call graph
(§3.3); this module supplies the graph and both traversal orders.

Indirect calls are resolved conservatively: a call through a function
pointer may target any *address-taken* function whose signature has the
same arity. The corpus systems use direct calls only, so this matters
only for user programs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir import Call, Function, Module
from .scc import strongly_connected_components


class CallSite:
    """One call instruction and its resolved possible targets."""

    __slots__ = ("call", "caller", "targets")

    def __init__(self, call: Call, caller: Function, targets: Tuple[Function, ...]):
        self.call = call
        self.caller = caller
        self.targets = targets

    def __repr__(self) -> str:
        names = ",".join(t.name for t in self.targets) or "<external>"
        return f"<callsite {self.caller.name} -> {names}>"


class CallGraph:
    """Whole-program call graph with SCC condensation."""

    def __init__(self, module: Module):
        self.module = module
        self.edges: Dict[Function, Set[Function]] = {}
        self.reverse_edges: Dict[Function, Set[Function]] = {}
        self.call_sites: List[CallSite] = []
        self.external_calls: List[Tuple[Function, Call]] = []
        self._build()
        self._sccs: Optional[List[List[Function]]] = None

    def _build(self) -> None:
        address_taken = self._address_taken_functions()
        for func in self.module.defined_functions():
            self.edges.setdefault(func, set())
            for call in func.calls():
                targets = self._resolve(call, address_taken)
                defined = tuple(t for t in targets if not t.is_declaration)
                if defined:
                    self.call_sites.append(CallSite(call, func, defined))
                    for target in defined:
                        self.edges[func].add(target)
                        self.reverse_edges.setdefault(target, set()).add(func)
                else:
                    self.external_calls.append((func, call))
        for func in self.module.defined_functions():
            self.reverse_edges.setdefault(func, set())

    def _address_taken_functions(self) -> List[Function]:
        taken: List[Function] = []
        for func in self.module.defined_functions():
            for inst in func.instructions():
                for op in inst.operands:
                    if isinstance(op, Function) and not (
                        isinstance(inst, Call) and inst.callee is op
                    ):
                        if op not in taken:
                            taken.append(op)
        # function names in global initializers escape into memory just
        # like a stored operand; resolve by name, so a re-lowered body
        # (watch-mode swap) is the one that gets called
        for name in sorted(self.module.initializer_functions):
            func = self.module.get_function(name)
            if func is not None and func not in taken:
                taken.append(func)
        return taken

    def _resolve(self, call: Call, address_taken: List[Function]) -> List[Function]:
        if isinstance(call.callee, Function):
            return [call.callee]
        if isinstance(call.callee, str):
            target = self.module.get_function(call.callee)
            return [target] if target is not None else []
        # indirect call: all address-taken functions of matching arity
        arity = len(call.operands)
        return [
            f
            for f in address_taken
            if len(f.ftype.params) == arity or f.ftype.varargs
        ]

    # ------------------------------------------------------------------

    def callees(self, func: Function) -> Set[Function]:
        return self.edges.get(func, set())

    def callers(self, func: Function) -> Set[Function]:
        return self.reverse_edges.get(func, set())

    def sites_in(self, func: Function) -> Iterable[CallSite]:
        return (site for site in self.call_sites if site.caller is func)

    def sccs(self) -> List[List[Function]]:
        """SCCs in reverse topological order (callees before callers)."""
        if self._sccs is None:
            nodes = list(self.edges.keys())
            succ = {f: sorted(self.edges[f], key=lambda g: g.name) for f in nodes}
            self._sccs = strongly_connected_components(nodes, succ)
        return self._sccs

    def bottom_up_order(self) -> List[List[Function]]:
        """SCC groups, every callee group before its caller groups."""
        return self.sccs()

    def top_down_order(self) -> List[List[Function]]:
        """SCC groups, every caller group before its callee groups."""
        return list(reversed(self.sccs()))

    def reachable_from(self, roots: Iterable[Function]) -> Set[Function]:
        seen: Set[Function] = set()
        work = list(roots)
        while work:
            func = work.pop()
            if func in seen:
                continue
            seen.add(func)
            work.extend(self.edges.get(func, ()))
        return seen

    @property
    def root(self) -> Optional[Function]:
        main = self.module.get_function("main")
        if main is not None and not main.is_declaration:
            return main
        return None
