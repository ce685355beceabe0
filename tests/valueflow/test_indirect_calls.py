"""Indirect calls: sound target resolution and complete witnesses.

An indirect call resolves to every address-taken function of matching
arity. A function named only in a global initializer — a dispatch
table, or a function pointer initialized at file scope — is address-
taken too, even though no instruction operand mentions it; missing it
would resolve ``table[k]()`` to no target and drop a real flow. The
witness of a flow through such a call must walk into the target that
carried the taint, exactly like its direct-call twin.
"""

import pytest

from repro import AnalysisConfig
from repro.callgraph import CallGraph
from tests.conftest import analyze, front

HEADER = r"""
typedef struct { double v; } R;
R *nc;
void emit(double v);
void initShm(void)
/***SafeFlow Annotation shminit /***/
{
    nc = (R *) shmat(shmget(7, sizeof(R), 0666), 0, 0);
    /***SafeFlow Annotation
        assume(shmvar(nc, sizeof(R)));
        assume(noncore(nc)) /***/
}
double getRaw(void) { return nc->v; }
double getZero(void) { return 0.0; }
"""

MAIN = r"""
int main(void)
{
    double output;
    int k;
    initShm();
    k = 0;
    SETUP
    output = CALL;
    /***SafeFlow Annotation assert(safe(output)); /***/
    emit(output);
    return 0;
}
"""

#: shape → (file-scope declaration, setup in main, the call)
SHAPES = {
    "table": ("double (*table[2])(void) = { getRaw, getZero };", "",
              "table[k]()"),
    "pointer": ("double (*gfp)(void) = getRaw;", "", "gfp()"),
    "stored-table": ("double (*slots[2])(void);",
                     "slots[0] = getRaw; slots[1] = getZero;",
                     "slots[k]()"),
    "direct": ("", "", "getRaw()"),
}

KERNELS = ["object", "compiled"]


def _source(shape: str) -> str:
    decl, setup, call = SHAPES[shape]
    main = MAIN.replace("SETUP", setup).replace("CALL", call)
    return HEADER + decl + "\n" + main


def _chain(error):
    """The witness as (kind, label) steps, locations dropped."""
    return [step.split(" @ ")[0].rstrip(" ->") for step in error.witness]


@pytest.mark.parametrize("shape", ["table", "pointer"])
def test_initializer_named_functions_are_address_taken(shape):
    cg = CallGraph(front(_source(shape)).module)
    main = cg.module.get_function("main")
    assert "getRaw" in {f.name for f in cg.callees(main)}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("shape", ["table", "pointer"])
def test_flow_through_initializer_dispatch_is_reported(shape, kernel):
    config = AnalysisConfig(kernel=kernel)
    report = analyze(_source(shape), config)
    twin = analyze(_source("direct"), config)
    assert len(twin.errors) == 1
    assert len(report.errors) == len(twin.errors)
    assert report.errors[0].variable == "output"


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("shape", ["table", "stored-table"])
def test_indirect_witness_walks_into_the_target(shape, kernel):
    config = AnalysisConfig(kernel=kernel)
    (error,) = analyze(_source(shape), config).errors
    (twin,) = analyze(_source("direct"), config).errors
    chain, twin_chain = _chain(error), _chain(twin)
    # source -> load in getRaw -> return of getRaw -> call -> sink,
    # exactly the direct twin's chain but for the call instruction
    assert len(chain) == len(twin_chain) == 5
    assert chain[0] == "[source] noncore read nc"
    assert chain[1].startswith("[value] getRaw::load@")
    assert chain[2] == "[value] return of getRaw"
    assert chain[3].startswith("[value] main::call@")
    assert chain[4] == "[sink] assert safe(output)"
    assert chain[:3] == twin_chain[:3]
