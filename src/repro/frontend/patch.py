"""Patch a front-ended program instead of rebuilding it.

:func:`plan_patch` and :func:`apply_patch` turn a held program into a
build of edited sources in place: only the top-level definitions whose
body text changed are re-parsed, and each is re-lowered into its live
:class:`~repro.ir.Function` (:meth:`ModuleLowerer.relower`), so call
operands elsewhere stay bound. The result equals a cold build. An edit
outside the envelope makes :func:`plan_patch` return ``None`` and
leaves the program as it was; a body whose re-lowering could differ
from a cold build makes :func:`apply_patch` return ``None`` and leaves
it half patched. Either way the caller rebuilds.

The envelope, checked per unit before anything is mutated: no degraded
or recovered unit; identical annotations and files read; identical
text outside function bodies, every token at the same line and column,
with the same line provenance; the same definitions in the same order,
each re-parsed head digesting equal to the old one. A definition is
parsed alone, padded to its line and column behind ``typedef`` stubs
for the typedef names in scope, so its coordinates match a whole-unit
parse.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import pycparser
from pycparser import c_ast

from ..errors import SafeFlowError
from ..perf.fingerprint import forget_function, text_digest
from .parser import PRELUDE_LINES, ParsedUnit
from .preprocessor import PreprocessedSource, Preprocessor
from .recovery import function_spans

_Span = Tuple[str, int, int, int]


def plan_patch(program, texts: Dict[str, Optional[str]],
               include_dirs: Sequence[str] = (),
               defines: Optional[Dict[str, str]] = None,
               recover: bool = False) -> Optional[list]:
    """How to make ``program`` a build of ``texts`` (unit name → new
    source text, ``None`` to read the file of that name; units not
    named keep theirs), preprocessed as :func:`frontend_unit` would.
    ``program`` is not touched; ``None`` when the edit is outside the
    envelope."""
    if (getattr(program, "lowerer", None) is None or program.degraded
            or not set(texts) <= {unit.name for unit in program.units}):
        return None
    plan = []
    try:
        for index, unit in enumerate(program.units):
            if unit.name not in texts:
                continue
            text = texts[unit.name]
            if text is None:
                with open(unit.name, "r") as f:
                    text = f.read()
            pp = Preprocessor(include_dirs=list(include_dirs),
                              predefined=dict(defines or {}),
                              recover=recover)
            step = _plan_unit(unit, pp.process_text(text, unit.name))
            if step is None:
                return None
            plan.append((index, step))
    except (OSError, UnicodeDecodeError, SafeFlowError, RecursionError):
        return None
    return plan


def apply_patch(program, plan: list) -> Optional[Tuple[str, ...]]:
    """Apply a :func:`plan_patch` result: the re-lowered definition
    names, or ``None`` (the program is half patched; drop it)."""
    relowered: List[str] = []
    for index, (unit, funcdefs) in plan:
        for funcdef in funcdefs:
            if not program.lowerer.relower(funcdef, unit):
                return None
            relowered.append(funcdef.decl.name)
            forget_function(program.module.get_function(relowered[-1]))
        program.units[index] = unit
    return tuple(relowered)


def _plan_unit(old: ParsedUnit, source: PreprocessedSource):
    """``(new unit, definitions to re-lower)``, or ``None``."""
    old_source = old.source
    if (source.degraded or old.extra_prelude_lines
            or source.annotations != old_source.annotations
            or source.files != old_source.files):
        return None
    old_text, text = old_source.text, source.text
    if text == old_text:
        return (old, []) if source.line_map == old_source.line_map else None
    names = [ext.decl.name for ext in old.ast.ext
             if isinstance(ext, c_ast.FuncDef)]
    old_spans, spans = function_spans(old_text), function_spans(text)
    if ([s[0] for s in old_spans] != names
            or [s[0] for s in spans] != names):
        return None
    # equal skeletons give both texts one row count up to their last
    # token (rows past it carry nothing); the maps compare over all those
    rows = text.rstrip().count("\n") + 1
    if (_skeleton(text, spans) != _skeleton(old_text, old_spans)
            or source.line_map[:rows] != old_source.line_map[:rows]):
        return None
    ext = list(old.ast.ext)
    changed = []
    typedefs: List[str] = []
    k = 0
    for i, node in enumerate(old.ast.ext):
        if isinstance(node, c_ast.Typedef):
            typedefs.append(node.name)
        if not isinstance(node, c_ast.FuncDef):
            continue
        (_, _, old_brace, old_close), (_, _, brace, close) = \
            old_spans[k], spans[k]
        k += 1
        if old_text[old_brace:old_close + 1] == text[brace:close + 1]:
            continue
        funcdef = _parse_definition(text, spans, k - 1, typedefs, old.name)
        if funcdef is None or _head_digest(funcdef) != _head_digest(node):
            return None
        if ast_digest(funcdef) != ast_digest(node):
            ext[i] = funcdef
            changed.append(funcdef)
    return ParsedUnit(c_ast.FileAST(ext, old.ast.coord), source,
                      old.name), changed


def _skeleton(text: str, spans: List[_Span]) -> str:
    """``text`` with each body reduced to its line count, and to the
    width of its last line when code follows on that line: equal
    skeletons put every token outside the bodies at the same line and
    column."""
    parts = []
    prev = 0
    for _, _, brace, close in spans:
        body = text[brace:close + 1]
        width = len(body) - body.rfind("\n") - 1
        if not text[close + 1:text.find("\n", close) + 1 or None].strip():
            width = -1
        parts.append(text[prev:brace])
        parts.append(f"\x00{body.count(chr(10))}:{width}\x00")
        prev = close + 1
    parts.append(text[prev:].rstrip())
    return "".join(parts)


def _parse_definition(text: str, spans: List[_Span], k: int,
                      typedefs: List[str], name: str):
    """Parse definition ``k`` alone, at its whole-unit coordinates."""
    lo = spans[k - 1][3] + 1 if k else 0
    _, name_at, _, close = spans[k]
    start = max(lo - 1, text.rfind(";", lo, name_at),
                text.rfind("}", lo, name_at)) + 1
    while text[start] in " \t\n":
        start += 1
    line = text.count("\n", 0, start)
    column = start - text.rfind("\n", 0, start) - 1
    snippet = ("".join(f"typedef int {t};" for t in typedefs)
               + "\n" * (PRELUDE_LINES + line) + " " * column
               + text[start:close + 1])
    try:
        last = pycparser.CParser().parse(snippet, filename=name).ext[-1]
    except Exception:  # any parse failure: outside the envelope
        return None
    return last if isinstance(last, c_ast.FuncDef) else None


def _head_digest(funcdef: c_ast.FuncDef) -> str:
    return ast_digest(c_ast.FuncDef(funcdef.decl, funcdef.param_decls,
                                    None, funcdef.coord))


def ast_digest(node) -> str:
    """Digest of an AST subtree, coordinates included: equal digests
    lower to identical IR."""
    parts: List[str] = []
    stack = [("", node)]
    while stack:
        slot, n = stack.pop()
        coord = n.coord and (n.coord.line, n.coord.column)
        parts.append(f"{slot}:{type(n).__name__}:{coord}:"
                     f"{[getattr(n, a, None) for a in n.attr_names]!r}")
        stack.extend(reversed(n.children()))
    return text_digest("\x00".join(parts))
