"""The compiled kernel must be invisible in results.

The bitset lattice (:mod:`repro.valueflow.bitdomain`) and the opcode
programs (:mod:`repro.valueflow.kernel`) are pure performance work: the
object-domain engine stays the oracle, and every observable report must
be byte-identical between ``kernel="object"`` and ``kernel="compiled"``
— including past the interner's width cap, where the compiled kernel
falls back to the object domain mid-analysis.

Covers: randomized algebraic laws of the bitset encoding against the
interned ``Taint`` lattice, whole-report differential sweeps (kernel x
fixpoint, the bundled corpus, degraded inputs), the kernel counters and
their daemon aggregation, and cache fingerprinting (summaries recorded
under one kernel are never replayed into the other).
"""

import gc
import json
import random

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.corpus import generate_core, load_all
from repro.frontend import load_source
from repro.perf.fingerprint import config_fingerprint
from repro.incremental.segments import SegmentStore
from repro.perf.gcpause import gc_paused
from repro.shm.propagation import ShmAnalysis
from repro.valueflow import bitdomain
from repro.valueflow.bitdomain import (
    DEFAULT_WIDTH,
    KernelOverflow,
    PLACEHOLDER_PREFIX,
    RegionInterner,
)
from repro.valueflow.engine import ValueFlowAnalysis
from repro.valueflow.taint import SAFE, Taint, TaintSource


def _source(i: int, placeholder: bool = False) -> TaintSource:
    region = f"{PLACEHOLDER_PREFIX}{i}" if placeholder else f"region{i}"
    return TaintSource(region=region, function="f", filename="t.c", line=i)


def _random_taint(rng: random.Random, pool) -> Taint:
    data = frozenset(rng.sample(pool, rng.randint(0, 4)))
    control = frozenset(rng.sample(pool, rng.randint(0, 4)))
    return Taint(data, control)


# ----------------------------------------------------------------------
# bitset lattice laws (randomized against the object lattice)
# ----------------------------------------------------------------------

class TestBitdomain:
    def test_encode_decode_round_trips_to_the_same_object(self):
        rng = random.Random(11)
        interner = RegionInterner(32)
        pool = [_source(i) for i in range(8)]
        for _ in range(200):
            t = _random_taint(rng, pool)
            enc = interner.encode(t)
            assert interner.decode(enc) is t

    def test_join_is_bitwise_or(self):
        rng = random.Random(12)
        interner = RegionInterner(32)
        pool = [_source(i) for i in range(8)]
        for _ in range(200):
            a = _random_taint(rng, pool)
            b = _random_taint(rng, pool)
            joined = interner.decode(
                interner.encode(a) | interner.encode(b))
            assert joined is a.join(b)

    def test_as_control_mirrors_object_lattice(self):
        rng = random.Random(13)
        interner = RegionInterner(32)
        pool = [_source(i) for i in range(8)]
        for _ in range(200):
            t = _random_taint(rng, pool)
            mirrored = interner.decode(
                interner.as_control(interner.encode(t)))
            assert mirrored is t.as_control()

    def test_distinct_taints_get_distinct_encodings(self):
        rng = random.Random(14)
        interner = RegionInterner(64)
        pool = [_source(i) for i in range(10)]
        seen = {}
        for _ in range(300):
            t = _random_taint(rng, pool)
            enc = interner.encode(t)
            assert seen.setdefault(enc, t) is t

    def test_keep_mask_strips_exactly_the_placeholder_bits(self):
        interner = RegionInterner(16)
        real = _source(1)
        ph = _source(2, placeholder=True)
        t = Taint(frozenset({real, ph}), frozenset({ph}))
        stripped = interner.decode(
            interner.encode(t) & interner.keep_mask)
        assert stripped is Taint(frozenset({real}))
        # a placeholder-only taint strips to SAFE
        only = Taint(frozenset({ph}))
        assert interner.decode(
            interner.encode(only) & interner.keep_mask) is SAFE

    def test_safe_is_zero(self):
        interner = RegionInterner(8)
        assert interner.encode(SAFE) == 0
        assert interner.decode(0) is SAFE

    def test_interning_past_the_width_cap_raises(self):
        interner = RegionInterner(4)
        for i in range(4):
            interner.bit(_source(i))
        with pytest.raises(KernelOverflow):
            interner.bit(_source(99))
        # the encode path hits the same cap
        fat = Taint(frozenset({_source(100 + i) for i in range(5)}))
        with pytest.raises(KernelOverflow):
            RegionInterner(4).encode(fat)

    def test_exactly_at_the_width_cap_still_works(self):
        width = 6
        interner = RegionInterner(width)
        sources = [_source(i) for i in range(width)]
        t = Taint(frozenset(sources), frozenset(sources[:2]))
        assert interner.decode(interner.encode(t)) is t
        assert len(interner) == width

    def test_default_width_matches_config_default(self):
        program = load_source(SUMMARY_PROGRAM, filename="prog.c")
        config = AnalysisConfig(kernel="compiled")
        vf = ValueFlowAnalysis(program, ShmAnalysis(program, config).run(),
                               config)
        assert vf._kernel.interner.width == DEFAULT_WIDTH


# ----------------------------------------------------------------------
# differential byte-identity: compiled vs object, sparse vs dense
# ----------------------------------------------------------------------

def _signature(report):
    return (
        report.render(verbose=True),
        json.dumps(report.witness_graphs, sort_keys=True, default=str),
        report.stats.contexts_analyzed,
        json.dumps(
            {k: v for k, v in report.to_json().items() if k != "stats"},
            sort_keys=True, default=str,
        ),
    )


def _sweep_configs(**overrides):
    for kernel in ("object", "compiled"):
        for sparse in (True, False):
            yield AnalysisConfig(
                kernel=kernel, sparse_fixpoint=sparse, **overrides)


WORKLOADS = [
    dict(data_error_regions=2, control_fp_regions=1,
         benign_read_regions=1, monitored_regions=2,
         filler_functions=12, chain_depth=4, call_fanout=2,
         pipeline_stages=4),
    dict(data_error_regions=1, control_fp_regions=2,
         benign_read_regions=2, monitored_regions=1,
         filler_functions=6, chain_depth=3, loops=False,
         call_fanout=3, pipeline_stages=6),
]


class TestDifferentialParity:
    @pytest.mark.parametrize("params", WORKLOADS)
    def test_generated_workloads(self, params):
        source = generate_core(**params).source
        signatures = {
            _signature(SafeFlow(cfg).analyze_source(source, name="w"))
            for cfg in _sweep_configs()
        }
        assert len(signatures) == 1

    @pytest.mark.parametrize("extra", [
        dict(summary_mode=True),
        dict(context_sensitive=False),
        dict(track_control_dependence=False),
    ])
    def test_generated_workload_config_axes(self, extra):
        source = generate_core(**WORKLOADS[0]).source
        signatures = {
            _signature(SafeFlow(cfg).analyze_source(source, name="w"))
            for cfg in _sweep_configs(**extra)
        }
        assert len(signatures) == 1

    def test_bundled_corpus(self):
        for system in load_all():
            signatures = {
                _signature(system.analyze(cfg))
                for cfg in _sweep_configs()
            }
            assert len(signatures) == 1, system.key

    def test_degraded_inputs(self, tmp_path):
        good = tmp_path / "good.c"
        good.write_text(generate_core(**WORKLOADS[0]).source)
        bad = tmp_path / "bad.c"
        bad.write_text("int broken( { this is not C }\n")
        signatures = set()
        for cfg in _sweep_configs(degraded_mode=True):
            report = SafeFlow(cfg).analyze_files(
                [str(good), str(bad)], name="deg")
            assert report.stats.degraded_units > 0
            signatures.add(_signature(report))
        assert len(signatures) == 1

    def test_width_cap_fallback_is_byte_identical(self, monkeypatch):
        source = generate_core(**WORKLOADS[0]).source
        oracle = _signature(
            SafeFlow(AnalysisConfig(kernel="object"))
            .analyze_source(source, name="w"))
        monkeypatch.setattr(bitdomain, "DEFAULT_WIDTH", 1)
        capped_cfg = AnalysisConfig(kernel="compiled")
        capped = SafeFlow(capped_cfg).analyze_source(source, name="w")
        assert _signature(capped) == oracle
        counters = capped.stats.kernel_counters
        assert counters["kernel_fallbacks"] > 0
        assert counters["kernel_fallback_bodies"] > 0


# ----------------------------------------------------------------------
# kernel counters and their daemon aggregation
# ----------------------------------------------------------------------

class TestKernelCounters:
    def test_compiled_run_exposes_kernel_counters(self):
        source = generate_core(**WORKLOADS[0]).source
        report = SafeFlow(
            AnalysisConfig(kernel="compiled")
        ).analyze_source(source, name="w")
        counters = report.stats.kernel_counters
        assert counters["kernel_compiled_bodies"] > 0
        assert counters["kernel_compiled_programs"] > 0
        assert counters["kernel_opcode_dispatches"] > 0
        assert counters["kernel_passes"] >= counters[
            "kernel_compiled_bodies"]
        assert counters["kernel_interner_bits"] > 0
        assert counters["kernel_compile_us"] >= 0
        assert counters["kernel_execute_us"] >= 0
        assert counters["kernel_fallbacks"] == 0
        # per-opcode histogram entries sum to the dispatch total
        per_op = sum(v for k, v in counters.items()
                     if k.startswith("kernel_op_"))
        assert per_op == counters["kernel_opcode_dispatches"]

    def test_object_run_has_no_kernel_counters(self):
        source = generate_core(**WORKLOADS[0]).source
        report = SafeFlow(
            AnalysisConfig(kernel="object")
        ).analyze_source(source, name="w")
        assert "kernel_compiled_bodies" not in report.stats.kernel_counters

    def test_server_metrics_fold_kernel_counters(self):
        from repro.server.metrics import ServerMetrics

        source = generate_core(**WORKLOADS[0]).source
        report = SafeFlow(
            AnalysisConfig(kernel="compiled")
        ).analyze_source(source, name="w")
        metrics = ServerMetrics()
        stats_json = report.stats.to_json()
        metrics.observe_analysis(stats_json)
        metrics.observe_analysis(stats_json)
        block = metrics.snapshot()["kernel"]
        assert block["kernel_compiled_bodies"] == 2 * (
            report.stats.kernel_counters["kernel_compiled_bodies"])
        assert block["kernel_opcode_dispatches"] == 2 * (
            report.stats.kernel_counters["kernel_opcode_dispatches"])


# ----------------------------------------------------------------------
# cache fingerprints: kernel mode separates summary namespaces
# ----------------------------------------------------------------------

SUMMARY_PROGRAM = r"""
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

double leaf(double a) { return a * 2.0; }
double helper(double a) { return leaf(a) + 1.0; }

int main(void)
{
    double x;
    double y;
    initShm();
    x = nc->v;
    y = helper(x);
    /***SafeFlow Annotation assert(safe(y)); /***/
    emit(y);
    return 0;
}
"""


def _run_with_store(kernel: str, store_root) -> ValueFlowAnalysis:
    """One validating-replay run over the segment store namespaced by
    the config fingerprint, the way a watch session lays it out."""
    config = AnalysisConfig(summary_mode=True, kernel=kernel)
    program = load_source(SUMMARY_PROGRAM, filename="prog.c")
    shm = ShmAnalysis(program, config).run()
    root = store_root / f"segments-{config_fingerprint(config)[:16]}"
    store = SegmentStore(str(root), trust_replay=False)
    return ValueFlowAnalysis(program, shm, config,
                             summary_store=store).run()


def _outcomes(vf: ValueFlowAnalysis, wanted: str):
    return {func for func, _, outcome in vf.summary_events
            if outcome == wanted}


class TestKernelFingerprinting:
    def test_kernel_mode_changes_the_config_fingerprint(self):
        fp_object = config_fingerprint(AnalysisConfig(kernel="object"))
        fp_compiled = config_fingerprint(AnalysisConfig(kernel="compiled"))
        assert fp_object != fp_compiled

    def test_compiled_fingerprint_tracks_opcode_format_version(self):
        from repro.valueflow import opcodes

        fp_before = config_fingerprint(AnalysisConfig(kernel="compiled"))
        original = opcodes.OPCODE_FORMAT_VERSION
        opcodes.OPCODE_FORMAT_VERSION = original + 1
        try:
            fp_after = config_fingerprint(
                AnalysisConfig(kernel="compiled"))
        finally:
            opcodes.OPCODE_FORMAT_VERSION = original
        assert fp_before != fp_after

    def test_report_preserving_knobs_are_cache_only(self):
        base = config_fingerprint(AnalysisConfig())
        assert config_fingerprint(
            AnalysisConfig(sparse_fixpoint=False)) == base

    def test_kernel_flip_never_replays_recorded_summaries(self, tmp_path):
        store_path = tmp_path
        cold = _run_with_store("compiled", store_path)
        assert _outcomes(cold, "hit") == set()
        recorded = _outcomes(cold, "miss")
        assert {"main", "helper", "leaf"} <= recorded

        # same kernel: everything replays
        warm = _run_with_store("compiled", store_path)
        assert _outcomes(warm, "miss") == set()
        assert _outcomes(warm, "hit") == recorded

        # flipped kernel: nothing recorded under "compiled" is reused
        flipped = _run_with_store("object", store_path)
        assert _outcomes(flipped, "hit") == set()
        assert _outcomes(flipped, "miss") == recorded

        # and the object-mode records now coexist with the compiled ones
        warm_object = _run_with_store("object", store_path)
        assert _outcomes(warm_object, "miss") == set()
        warm_compiled = _run_with_store("compiled", store_path)
        assert _outcomes(warm_compiled, "miss") == set()


# ----------------------------------------------------------------------
# gc pause guard
# ----------------------------------------------------------------------

class TestGcPause:
    def test_nested_guards_restore_gc_once(self):
        assert gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # outer region still active
        assert gc.isenabled()

    def test_exception_still_restores_gc(self):
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_respects_externally_disabled_gc(self):
        gc.disable()
        try:
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # not ours to re-enable
        finally:
            gc.enable()
