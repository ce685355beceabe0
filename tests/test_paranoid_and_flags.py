"""Paranoid mode, CLI flags, and config interplay."""

import pytest

from repro import AnalysisConfig, SafeFlow
from repro.cli import main as cli_main
from tests.conftest import analyze

SOURCE = """
typedef struct { double v; } R;
R *trusted;   /* declared core: no noncore annotation */
R *hostile;
void emit(double v);
void initShm(void)
/***SafeFlow Annotation shminit /***/
{
    char *cursor;
    cursor = (char *) shmat(shmget(7, 2 * sizeof(R), 0666), 0, 0);
    trusted = (R *) cursor;
    hostile = (R *) (cursor + sizeof(R));
    /***SafeFlow Annotation
        assume(shmvar(trusted, sizeof(R)));
        assume(shmvar(hostile, sizeof(R)));
        assume(noncore(hostile)) /***/
}
int main(void) {
    double a;
    double b;
    initShm();
    a = trusted->v;
    /***SafeFlow Annotation assert(safe(a)); /***/
    emit(a);
    b = hostile->v;
    /***SafeFlow Annotation assert(safe(b)); /***/
    emit(b);
    return 0;
}
"""


class TestParanoidMode:
    def test_default_trusts_core_declarations(self):
        report = analyze(SOURCE)
        failing = {e.variable for e in report.errors}
        assert failing == {"b"}
        assert len(report.warnings) == 1

    def test_paranoid_distrusts_everything(self):
        config = AnalysisConfig(unannotated_shm_is_core=False)
        report = analyze(SOURCE, config)
        failing = {e.variable for e in report.errors}
        assert failing == {"a", "b"}
        assert len(report.warnings) == 2

    def test_paranoid_is_strictly_more_conservative_on_corpus(self):
        from repro.corpus import load_all
        for system in load_all():
            normal = system.analyze()
            paranoid = system.analyze(
                AnalysisConfig(unannotated_shm_is_core=False)
            )
            assert len(paranoid.warnings) >= len(normal.warnings)
            assert len(paranoid.errors) >= len(normal.errors)


class TestCliFlags:
    def _write(self, tmp_path):
        path = tmp_path / "core.c"
        path.write_text(SOURCE)
        return str(path)

    def test_paranoid_flag(self, tmp_path, capsys):
        path = self._write(tmp_path)
        cli_main(["analyze", path, "--json", "--paranoid"])
        import json
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["warnings"] == 2

    def test_no_lint_flag(self, tmp_path, capsys):
        vacuous = """
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
            double mon(R *r)
            /***SafeFlow Annotation assume(core(r, 0, sizeof(R))) /***/
            { return r->v; }
            int main(void) { initShm(); emit(mon(nc)); return 0; }
        """
        path = tmp_path / "vac.c"
        path.write_text(vacuous)
        cli_main(["analyze", str(path)])
        out_with = capsys.readouterr().out
        assert "monitors nothing" in out_with
        cli_main(["analyze", str(path), "--no-lint"])
        out_without = capsys.readouterr().out
        assert "monitors nothing" not in out_without
