"""The memoized predecessor map against the per-query block scan it
replaced: same predecessors, same order, never stale."""

import pytest

from repro.corpus import SYSTEM_KEYS, load_system
from repro.corpus.builder import generate_core
from repro.frontend.driver import load_files, load_source
from repro.ir import Function, FunctionType, Jump, Ret
from repro.ir import types as T


def scanned_predecessors(block):
    """The definition: every block of the function branching here."""
    return [b for b in block.parent.blocks if block in b.successors()]


def assert_module_matches(module):
    functions = list(module.defined_functions())
    assert functions
    for func in functions:
        for block in func.blocks:
            assert block.predecessors() == scanned_predecessors(block), (
                func.name, block.name)


@pytest.mark.parametrize("key", SYSTEM_KEYS)
def test_corpus_functions_match_the_scan(key):
    system = load_system(key)
    program = load_files([str(p) for p in system.core_files])
    assert_module_matches(program.module)


def test_generated_program_matches_the_scan():
    generated = generate_core(data_error_regions=2, control_fp_regions=2,
                              monitored_regions=2, filler_functions=6,
                              chain_depth=3, call_fanout=2,
                              pipeline_stages=2)
    assert_module_matches(load_source(generated.source).module)


def test_map_is_rebuilt_after_the_cfg_changes():
    func = Function("f", FunctionType(T.VOID, []))
    entry = func.new_block("entry")
    exit_ = func.new_block("exit")
    assert exit_.predecessors() == []  # memoized before the edge exists
    entry.append(Jump(exit_))
    assert exit_.predecessors() == [entry]
    late = func.new_block("late")
    assert late.predecessors() == []
    exit_.append(Ret())
    func.drop_body()
    assert func.predecessor_map() == {}


def test_predecessors_are_a_fresh_list():
    func = Function("f", FunctionType(T.VOID, []))
    entry = func.new_block("entry")
    body = func.new_block("body")
    entry.append(Jump(body))
    body.append(Ret())
    body.predecessors().clear()
    assert body.predecessors() == [entry]
