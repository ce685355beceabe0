"""Patched programs against cold builds (repro.frontend.patch).

A program the memo patches from a pooled neighbour must analyze to the
same report as a cold run over the same sources: the verbose render and
the JSON report minus the fields that observe the performance layer
(timings, cache counters, process-global cache statistics). Every
function definition of each corpus system and of two generated programs
is edited in turn; edits outside the patch envelope must take the full
path and still match.
"""

import re
import shutil

import pytest
from pycparser import c_ast

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.corpus import (SYSTEM_KEYS, generate_core, generate_core_files,
                          load_system)
from repro.frontend.driver import load_files, load_source
from repro.frontend.patch import apply_patch, plan_patch
from repro.perf.progmemo import program_memo

#: stats fields that observe the performance layer, not the verdict
PERF_FIELDS = ("phase_timings", "frontend_cache_hits",
               "frontend_cache_misses", "summary_cache_hits",
               "summary_cache_misses", "cache_integrity_evictions",
               "frontend_derived", "definitions_relowered")
PERF_KERNEL = re.compile(r"kernel_(compile|execute)_us|taint_|solver_")


def without_perf(payload):
    """A JSON report minus the fields that observe the performance
    layer."""
    stats = payload["stats"]
    for key in PERF_FIELDS:
        stats.pop(key, None)
    stats["kernel_counters"] = {
        k: v for k, v in stats.get("kernel_counters", {}).items()
        if not PERF_KERNEL.match(k)}
    return payload


def comparable(report):
    """``(verbose render, JSON report minus performance fields)``."""
    return report.render(verbose=True), without_perf(report.to_json())


@pytest.fixture(autouse=True)
def clean_memo():
    program_memo().clear()
    yield
    program_memo().clear()


def literal_edits(program, texts):
    """Per definition, ``(name, file, offset, old, new)`` of the first
    plain numeric literal of its body that appears in the original
    text (macro expansions move columns: the nearest match counts)."""
    edits = []
    for unit in program.units:
        for ext in unit.ast.ext:
            if not isinstance(ext, c_ast.FuncDef):
                continue
            for node in _walk(ext.body):
                if not (isinstance(node, c_ast.Constant)
                        and re.fullmatch(r"\d+(\.\d+)?", node.value)):
                    continue
                loc = unit.origin(node.coord)
                text = texts.get(loc.filename)
                if text is None:
                    continue
                start = sum(len(row) for row in
                            text.splitlines(keepends=True)[:loc.line - 1])
                row = text.splitlines()[loc.line - 1]
                hits = [m.start() for m in re.finditer(
                    rf"(?<![\w.]){re.escape(node.value)}(?![\w.])", row)]
                if not hits:
                    continue
                column = min(hits, key=lambda h: abs(h - loc.column + 1))
                new = (node.value + "7" if "." in node.value
                       else str(int(node.value) + 1))
                edits.append((ext.decl.name, loc.filename, start + column,
                              node.value, new))
                break
    return edits


def _walk(node):
    yield node
    for _, child in node.children():
        yield from _walk(child)


def _copy_system(key, tmp_path):
    system = load_system(key)
    core_dir = system.core_files[0].parent
    dest = tmp_path / key
    shutil.copytree(core_dir, dest)
    return [str(dest / p.name) for p in system.core_files]


def _check_every_definition(tmp_path, paths=None, source=None):
    """Edit each definition's first literal in turn; each warm report
    must equal a cold one and come from a patch."""
    warm = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "cache")))
    cold = SafeFlow()
    if source is not None:
        originals = {"gen.c": source}
        edits = literal_edits(load_source(source, filename="gen.c"),
                              originals)
    else:
        originals = {}
        for path in paths:
            with open(path) as f:
                originals[path] = f.read()
        edits = literal_edits(load_files(paths), originals)

    def run(texts):
        if source is not None:
            return (warm.analyze_source(texts["gen.c"], filename="gen.c"),
                    cold.analyze_source(texts["gen.c"], filename="gen.c"))
        for path, text in texts.items():
            with open(path, "w") as f:
                f.write(text)
        return warm.analyze_files(paths), cold.analyze_files(paths)

    run(originals)
    assert len(edits) >= 5
    derived = 0
    for name, filename, offset, old, new in edits:
        texts = dict(originals)
        text = texts[filename]
        texts[filename] = text[:offset] + new + text[offset + len(old):]
        got, want = run(texts)
        assert comparable(got) == comparable(want), name
        derived += got.stats.frontend_derived
        assert got.stats.definitions_relowered <= 2
    assert derived == len(edits)


@pytest.mark.parametrize("key", SYSTEM_KEYS)
def test_corpus_definition_edits_match_cold(tmp_path, key):
    _check_every_definition(tmp_path, paths=_copy_system(key, tmp_path))


def test_generated_core_definition_edits_match_cold(tmp_path):
    source = generate_core(chain_depth=3, call_fanout=2, pipeline_stages=3,
                           filler_functions=3).source
    _check_every_definition(tmp_path, source=source)


def test_generated_files_definition_edits_match_cold(tmp_path):
    paths = generate_core_files(
        filler_units=2, fillers_per_unit=2, chain_depth=3,
        pipeline_stages=2).write_to(str(tmp_path / "prog"))
    _check_every_definition(tmp_path, paths=paths)


# ----------------------------------------------------------------------
# edits outside the envelope take the full path
# ----------------------------------------------------------------------

BASE = """
typedef struct { double v; int flag; } R;
R *nc;
int limit = 3;
void emit(double v);

void initShm(void)
/***SafeFlow Annotation shminit /***/
{
    nc = (R *) shmat(shmget(7, sizeof(R), 0666), 0, 0);
    /***SafeFlow Annotation
        assume(shmvar(nc, sizeof(R)));
        assume(noncore(nc)) /***/
}

double helper(double a) { return a + 1.0; }

int main(void)
{
    double y;
    initShm();
    y = helper(nc->v);
    /***SafeFlow Annotation assert(safe(y)); /***/
    emit(y);
    return 0;
}
"""

OUTSIDE = {
    "signature": ("double helper(double a) { return a + 1.0; }",
                  "double helper(float a) { return a + 1.0; }"),
    "annotation": ("assume(noncore(nc)) /***/", "/***/"),
    "global": ("int limit = 3;", "int limit = 4;"),
    "typedef": ("int flag; } R;", "long flag; } R;"),
    "added definition": ("int main(void)",
                         "double extra(void) { return 2.0; }\nint main(void)"),
    "deleted definition": ("double helper(double a) { return a + 1.0; }",
                           "double helper(double a);"),
    "line shift": ("{ return a + 1.0; }", "{\n    return a + 1.0;\n}"),
}


@pytest.mark.parametrize("edit", sorted(OUTSIDE))
def test_out_of_envelope_edit_rebuilds(tmp_path, edit):
    old, new = OUTSIDE[edit]
    assert old in BASE
    text = BASE.replace(old, new)
    warm = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "cache")))
    warm.analyze_source(BASE, filename="m.c")
    got = warm.analyze_source(text, filename="m.c")
    assert got.stats.frontend_derived == 0
    assert comparable(got) == comparable(
        SafeFlow().analyze_source(text, filename="m.c"))


def test_new_string_literal_is_patched(tmp_path):
    """A string literal lowers to a constant operand, not module state,
    so a body gaining one stays inside the envelope."""
    text = BASE.replace("emit(y);", 'emit(y); printf("y=%f", y);')
    warm = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "cache")))
    warm.analyze_source(BASE, filename="m.c")
    got = warm.analyze_source(text, filename="m.c")
    assert got.stats.frontend_derived == 1
    assert comparable(got) == comparable(
        SafeFlow().analyze_source(text, filename="m.c"))


@pytest.mark.parametrize("tiers", [(), ("salvage",)])
def test_degraded_or_recovered_program_rebuilds(tmp_path, tiers):
    good = tmp_path / "good.c"
    bad = tmp_path / "bad.c"
    good.write_text(BASE)
    bad.write_text("int broken(void) { return 1 +; }\n")
    config = dict(degraded_mode=True, recover_tiers=tiers)
    warm = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "cache"),
                                   **config))
    paths = [str(good), str(bad)]
    first = warm.analyze_files(paths)
    assert first.degraded
    good.write_text(BASE.replace("a + 1.0", "a + 2.0"))
    got = warm.analyze_files(paths)
    assert got.stats.frontend_derived == 0
    assert comparable(got) == comparable(
        SafeFlow(AnalysisConfig(**config)).analyze_files(paths))


# ----------------------------------------------------------------------
# module state a body creates
# ----------------------------------------------------------------------

FORWARD = """
double first(double a) { return second(a) + 1.0; }
double second(double a) { return a * 2.0; }
int counter = 1;
double later(double a) { return a; }
int main(void) { return (int) first(1.0); }
"""


def _patch(text, new_text):
    program = load_source(text, filename="f.c")
    plan = plan_patch(program, {"f.c": new_text})
    relowered = None if plan is None else apply_patch(program, plan)
    return program, relowered


def _module_text(program):
    from repro.ir.printer import module_to_text

    return module_to_text(program.module)


def test_same_implicit_declaration_is_patched():
    # first() declares second() implicitly, before and after the edit
    new = FORWARD.replace("second(a) + 1.0", "second(a) + 3.0")
    program, relowered = _patch(FORWARD, new)
    assert relowered == ("first",)
    assert _module_text(program) == _module_text(
        load_source(new, filename="f.c"))
    call = next(i for i in program.module.get_function("first").calls())
    assert call.callee is program.module.get_function("second")


@pytest.mark.parametrize("old,new", [
    # a new implicit declaration changes the module's function order
    ("return a * 2.0;", "return third(a) * 2.0;"),
    # the old body's implicit declaration goes away
    ("second(a) + 1.0", "a + 1.0"),
    # a function defined only after the body: a cold build declares it
    # implicitly here, with another type
    ("second(a) + 1.0", "second(a) + later(1.0)"),
    # a global declared only after the body: a cold build rejects it
    ("second(a) + 1.0", "second(a) + counter"),
])
def test_changed_module_state_is_outside_the_envelope(old, new):
    assert old in FORWARD
    _, relowered = _patch(FORWARD, FORWARD.replace(old, new))
    assert relowered is None


def test_comment_only_edit_relowers_nothing():
    new = FORWARD.replace("return a * 2.0;", "return a * 2.0; /* x */")
    program, relowered = _patch(FORWARD, new)
    assert relowered == ()
    assert _module_text(program) == _module_text(
        load_source(new, filename="f.c"))


def test_call_to_a_later_retyped_declaration_is_outside_the_envelope():
    # a cold build lowers g(1) against the prototype's type (no
    # parameters: the int argument stays int); g's definition retypes
    # the declaration only after first()'s body
    text = """
double g();
double first(void) { return g(1) + 1.0; }
double g(double x) { return x * 2.0; }
"""
    _, relowered = _patch(text, text.replace("+ 1.0", "+ 2.0"))
    assert relowered is None


def test_struct_defined_in_a_head_is_outside_the_envelope():
    # parsed alone from after the struct's closing brace, the head
    # would lose its return type; the head digest catches it
    text = """
struct P { int a; } *make(struct P *p, int v) { p->a = v + 1; return p; }
int main(void) { struct P q; make(&q, 2); return q.a; }
"""
    _, relowered = _patch(text, text.replace("v + 1", "v + 2"))
    assert relowered is None


@pytest.mark.parametrize("text,old,new", [
    # an enum constant registered after the body: a cold build of the
    # edited body rejects the identifier
    ("int first(void) { return 1; }\nenum color { RED = 3 } c;\n"
     "int main(void) { return first() + RED; }\n", "return 1;",
     "return RED;"),
    # the old body created a struct tag, the new one does not
    ("int first(void) { struct Q { int z; } q; q.z = 1; return q.z; }\n"
     "int main(void) { return first(); }\n",
     "struct Q { int z; } q; q.z = 1; return q.z;", "return 1;"),
    # a directive line moves the body in the original file although the
    # preprocessed text keeps its shape: the line provenance differs
    ("int x;\nint first(void) { return 1; }\n"
     "int main(void) { return first(); }\n",
     "int x;\nint first(void) { return 1; }",
     "int x;\n#define UNUSED 1\nint first(void) { return 2; }"),
])
def test_state_a_cold_build_would_see_differently_is_outside(text, old, new):
    assert old in text
    _, relowered = _patch(text, text.replace(old, new))
    assert relowered is None


def test_directive_line_below_the_skeleton_rows_is_outside(tmp_path):
    # the skeleton folds each multi-line body into one row, so it has
    # far fewer rows than the text; a directive line added near the end
    # shifts the origin of every later line and must be seen there too
    text = "".join(
        f"int f{i}(int a)\n{{\n    int b = a + {i};\n    return b;\n}}\n"
        for i in range(6)) + "int main(void) { return f5(1); }\n"
    new = text.replace("a + 0;", "a + 9;").replace(
        "int f5(int a)", "#define UNUSED 1\nint f5(int a)")
    _, relowered = _patch(text, new)
    assert relowered is None
    warm = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "cache")))
    warm.analyze_source(text, filename="f.c")
    got = warm.analyze_source(new, filename="f.c")
    assert got.stats.frontend_derived == 0
    assert comparable(got) == comparable(
        SafeFlow().analyze_source(new, filename="f.c"))
