"""The in-memory Program memo (the tier above the disk IR cache):
exclusive leases, staleness against edited file dependencies,
LRU bounds, cache-dir scoping, and report byte-identity through the
driver. The disk tier's own correctness suite is
tests/perf/test_cache_correctness.py."""

from types import SimpleNamespace

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.perf.progmemo import ProgramMemo, program_memo

SIMPLE = """
int source(void);
void sink(int x);
int main(void) {
    int v = source();
    if (v > 0) sink(v);
    return 0;
}
"""


def fake_program(paths=()):
    """Just enough object graph for dependency extraction."""
    unit = SimpleNamespace(source=SimpleNamespace(files=list(paths)))
    return SimpleNamespace(units=[unit])


@pytest.fixture(autouse=True)
def clean_global_memo():
    program_memo().clear()
    yield
    program_memo().clear()


class TestLease:
    def test_acquire_empty_is_miss(self):
        memo = ProgramMemo()
        assert memo.acquire("k") is None
        assert memo.counters()["misses"] == 1

    def test_release_then_acquire_returns_same_object(self):
        memo = ProgramMemo()
        prog = fake_program()
        assert memo.release("k", prog) is True
        assert memo.acquire("k") is prog
        assert memo.counters() == {
            "hits": 1, "misses": 0, "stale_evictions": 0, "pooled": 0}

    def test_lease_is_exclusive(self):
        # a pooled program is handed to exactly one acquirer
        memo = ProgramMemo()
        memo.release("k", fake_program())
        assert memo.acquire("k") is not None
        assert memo.acquire("k") is None

    def test_none_key_is_never_memoized(self):
        memo = ProgramMemo()
        assert memo.release(None, fake_program()) is False
        assert memo.acquire(None) is None

    def test_zero_capacity_disables(self):
        memo = ProgramMemo(capacity=0)
        assert memo.release("k", fake_program()) is False
        assert memo.acquire("k") is None


class TestStaleness:
    def test_edited_dependency_is_evicted(self, tmp_path):
        dep = tmp_path / "dep.h"
        dep.write_text("#define LIMIT 10\n")
        memo = ProgramMemo()
        memo.release("k", fake_program([str(dep)]))
        dep.write_text("#define LIMIT 99\n")
        assert memo.acquire("k") is None
        assert memo.counters()["stale_evictions"] == 1

    def test_unchanged_dependency_is_served(self, tmp_path):
        dep = tmp_path / "dep.h"
        dep.write_text("#define LIMIT 10\n")
        memo = ProgramMemo()
        prog = fake_program([str(dep)])
        memo.release("k", prog)
        assert memo.acquire("k") is prog

    def test_unreadable_dependency_is_not_memoizable(self, tmp_path):
        memo = ProgramMemo()
        prog = fake_program([str(tmp_path / "gone.h")])
        (tmp_path / "gone.h").write_text("int x;")
        (tmp_path / "gone.h").unlink()
        # missing files are skipped (inline-source temp paths), so the
        # program pools with no deps; a file that exists but cannot be
        # hashed would return None — exercised via digest failure
        assert memo.release("k", prog) is True


class TestBounds:
    def test_capacity_evicts_least_recently_used_key(self):
        memo = ProgramMemo(capacity=2)
        a, b, c = fake_program(), fake_program(), fake_program()
        memo.release("a", a)
        memo.release("b", b)
        memo.release("c", c)  # evicts the oldest key's entry ("a")
        assert memo.counters()["pooled"] == 2
        assert memo.acquire("a") is None
        assert memo.acquire("b") is b
        assert memo.acquire("c") is c

    def test_clear_empties_pools(self):
        memo = ProgramMemo()
        memo.release("k", fake_program())
        memo.clear()
        assert memo.counters()["pooled"] == 0
        assert memo.acquire("k") is None


class TestDriverIntegration:
    def test_warm_repeat_is_a_frontend_hit(self, tmp_path):
        hits_before = program_memo().counters()["hits"]
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        cold = flow.analyze_source(SIMPLE, filename="m.c")
        warm = flow.analyze_source(SIMPLE, filename="m.c")
        assert warm.render() == cold.render()
        assert program_memo().counters()["hits"] > hits_before

    def test_memo_is_report_preserving(self, tmp_path):
        memo_on = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "on")))
        first = memo_on.analyze_source(SIMPLE, filename="m.c")
        second = memo_on.analyze_source(SIMPLE, filename="m.c")
        memo_off = SafeFlow(AnalysisConfig(
            cache_dir=str(tmp_path / "off"), frontend_memo=False))
        reference = memo_off.analyze_source(SIMPLE, filename="m.c")
        assert first.render() == second.render() == reference.render()

    def test_disjoint_cache_dirs_do_not_share_programs(self, tmp_path):
        SafeFlow(AnalysisConfig(
            cache_dir=str(tmp_path / "one"))).analyze_source(
                SIMPLE, filename="m.c")
        hits_before = program_memo().counters()["hits"]
        SafeFlow(AnalysisConfig(
            cache_dir=str(tmp_path / "two"))).analyze_source(
                SIMPLE, filename="m.c")
        assert program_memo().counters()["hits"] == hits_before

    def test_edited_file_misses_through_the_driver(self, tmp_path):
        unit = tmp_path / "unit.c"
        unit.write_text(SIMPLE)
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        before = flow.analyze_files([str(unit)], name="unit")
        assert before.stats.functions == 1
        unit.write_text("int helper(void) { return 1; }\n" + SIMPLE)
        edited = flow.analyze_files([str(unit)], name="unit")
        assert edited.stats.functions == 2, \
            "memo must not serve the stale program"

    def test_disabled_by_config(self, tmp_path):
        hits_before = program_memo().counters()["hits"]
        flow = SafeFlow(AnalysisConfig(
            cache_dir=str(tmp_path / "c"), frontend_memo=False))
        flow.analyze_source(SIMPLE, filename="m.c")
        flow.analyze_source(SIMPLE, filename="m.c")
        counters = program_memo().counters()
        assert counters["hits"] == hits_before and counters["pooled"] == 0


def _patch_to(names):
    """``(plan, apply)`` callbacks of a patch that re-lowers ``names``."""
    return (lambda program: "plan"), (lambda program, plan: names)


class TestLineage:
    def test_neighbour_is_patched_and_consumed(self):
        memo = ProgramMemo()
        base = fake_program()
        memo.release("base", base, lineage="L")
        assert memo.acquire("variant") is None
        assert memo.derive("variant", "L", *_patch_to(["f"])) == (
            base, ("f",))
        assert memo.counters()["pooled"] == 0
        # pooled again under its own key
        memo.release("variant", base, lineage="L")
        assert memo.acquire("variant") is base

    def test_other_lineages_and_exact_hits_are_kept(self):
        # unrelated programs under one file name are content-keyed:
        # each is served as is while it stays pooled
        memo = ProgramMemo()
        a, b, c = fake_program(), fake_program(), fake_program()
        memo.release("a", a, lineage="L")
        memo.release("b", b, lineage="L")
        memo.release("c", c, lineage="M")
        assert memo.derive("x", "N", *_patch_to(["f"])) is None
        for key, program in (("a", a), ("b", b), ("a", a), ("c", c)):
            assert memo.acquire(key) is program
            memo.release(key, program, lineage="L" if key != "c" else "M")
        assert memo.counters()["pooled"] == 3

    def test_edit_outside_the_envelope_keeps_the_neighbour(self):
        memo = ProgramMemo()
        base = fake_program()
        memo.release("base", base, lineage="L")
        assert memo.derive("variant", "L", lambda p: None,
                           lambda p, plan: ("f",)) is None
        assert memo.acquire("base") is base

    def test_half_applied_patch_drops_the_neighbour(self):
        memo = ProgramMemo()
        memo.release("base", fake_program(), lineage="L")
        assert memo.derive("variant", "L", *_patch_to(None)) is None
        assert memo.counters()["pooled"] == 0

    def test_alternating_versions_end_up_pooled_side_by_side(self):
        # A, B, A, B...: the first round patches each into the other,
        # then both are kept and served as exact hits
        memo = ProgramMemo()
        memo.release("A", fake_program(), lineage="L")
        served = []
        for key in "BABABA":
            program = memo.acquire(key)
            how = "hit"
            if program is None:
                derived = memo.derive(key, "L", *_patch_to(["f"]))
                program, how = (derived[0], "patch") if derived else (
                    fake_program(), "build")
            served.append(how)
            memo.release(key, program, lineage="L")
        assert served == ["patch", "patch", "build", "hit", "hit", "hit"]
        assert memo.counters()["pooled"] == 2

    def test_unrelated_programs_under_one_name_stay_exact_hits(
            self, tmp_path):
        # inline requests default to one file name; a failed patch
        # attempt must leave the other program pooled
        other = "int main(void) { return 3; }\n"
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        for text in (SIMPLE, other):
            flow.analyze_source(text)
        hits_before = program_memo().counters()["hits"]
        for _ in range(2):
            for text in (SIMPLE, other):
                report = flow.analyze_source(text)
                assert report.stats.frontend_derived == 0
                assert report.stats.frontend_cache_hits == 1
        assert program_memo().counters()["hits"] == hits_before + 4

    def test_one_off_variants_do_not_accumulate(self, tmp_path):
        """100 distinct one-function variants of one program: one pooled
        program for the lineage, and flat memory over the last 50."""
        import gc
        import tracemalloc

        from repro.corpus import generate_core

        source = generate_core(filler_functions=4).source
        marker = "return acc + "
        assert marker in source
        flow = SafeFlow(AnalysisConfig(cache_dir=str(tmp_path / "c")))
        flow.analyze_source(source, filename="v.c")
        traced = []
        try:
            for i in range(100):
                variant = source.replace(marker, f"{marker}{i}.0 + ", 1)
                report = flow.analyze_source(variant, filename="v.c")
                assert report.stats.frontend_derived == 1
                assert report.stats.definitions_relowered == 1
                assert program_memo().counters()["pooled"] == 1
                if i in (49, 74, 99):
                    gc.collect()
                    if i == 49:
                        tracemalloc.start()
                    else:
                        traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        # what the last 25 variants left allocated is no more than what
        # the 25 before them left
        assert traced[1] <= traced[0] * 1.05 + 64 * 1024
