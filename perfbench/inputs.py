"""Seeded inputs and their independent reference verdicts.

Everything a workload feeds the analyzer is drawn here from the run's
``--seed``: the generator knobs, the serve request sequence with its
variant picks, and the watch edit schedule. The reference verdict of a
generated program is the generator's own ``expected_*`` counts; the
reference of a corpus system is its hand-written Table 1 ``PaperRow``.
No analyzer run ever serves as a reference.

Sizes are held steady across seeds on purpose: the structural knobs
are drawn within about +/-5% of each workload's stated configuration,
and the core unit's filler count is then solved so the program lands
within +/-1% of the stated line count. Seeds therefore vary the program
shape without turning the run-to-run spread of a time into a spread of
input size.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.corpus import generate_core, generate_core_files, load_system

#: generator configuration per program kind: the stated size (non-blank
#: lines), the filler-unit layout, and the structural knobs the seed
#: perturbs. ``cold`` sits near the ``xlarge`` knobs of the kernel bench.
PROGRAMS = {
    "cold": dict(target_loc=10000, filler_units=6, fillers_per_unit=50,
                 knobs=dict(chain_depth=16, call_fanout=4,
                            pipeline_stages=22, monitored_regions=2)),
    "watch": dict(target_loc=9000, filler_units=8, fillers_per_unit=40,
                  knobs=dict(chain_depth=14, call_fanout=3,
                             pipeline_stages=16, monitored_regions=2)),
    "serve": dict(target_loc=3000, filler_units=0, fillers_per_unit=0,
                  knobs=dict(chain_depth=8, call_fanout=2,
                             pipeline_stages=10, monitored_regions=2)),
}

CORPUS_KEYS = ("ip", "generic_simplex", "double_ip")

#: one block of serve requests per client: the composition is fixed,
#: the order and the picks inside it are seeded (9 repeats, 1 variant)
SERVE_BLOCK = ("ip", "ip", "generic_simplex", "generic_simplex",
               "double_ip", "double_ip", "gen", "gen", "gen", "variant")

#: one block of watch edits: four filler-unit bodies, one core chain body
WATCH_BLOCK = ("filler", "filler", "filler", "filler", "core")

#: distinct generated 3k-line programs in the serve mix
SERVE_GENERATED = 2


def rng_for(seed: int, *labels: object) -> random.Random:
    """An independent, reproducible stream per (seed, purpose)."""
    return random.Random(":".join([str(seed)] + [str(x) for x in labels]))


def nonblank_lines(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())


@dataclass
class Expected:
    """A reference verdict: counts that every verdict must reproduce."""

    warnings: int
    errors: int
    false_positives: int
    annotation_lines: int = -1  # -1: not part of the reference

    def shifted(self, delta: int) -> "Expected":
        """A deliberately wrong reference (smoke test of the check)."""
        return Expected(self.warnings + delta, self.errors,
                        self.false_positives, self.annotation_lines)

    def mismatch(self, counts: Dict[str, int]) -> str:
        """'' when ``counts`` (a report's ``counts()``) match, else why."""
        want = {"warnings": self.warnings, "errors": self.errors,
                "false_positives": self.false_positives}
        if self.annotation_lines >= 0:
            want["annotation_lines"] = self.annotation_lines
        if counts.get("violations", 0):
            return f"{counts['violations']} restriction violations"
        bad = [f"{k}={counts.get(k)} (expected {v})"
               for k, v in want.items() if counts.get(k) != v]
        return ", ".join(bad)


@dataclass
class Program:
    """One generated program: files, reference, and how it was drawn."""

    files: List[Tuple[str, str]]
    expected: Expected
    knobs: Dict[str, int]
    loc: int = 0
    filler_names: List[str] = field(default_factory=list)
    chain_names: List[str] = field(default_factory=list)

    def write_to(self, directory: str) -> List[str]:
        """Write the units under ``directory`` (created); returns paths."""
        os.makedirs(directory)
        paths = []
        for fname, text in self.files:
            paths.append(os.path.join(directory, fname))
            with open(paths[-1], "w") as f:
                f.write(text)
        return paths

    def source(self) -> str:
        """The whole program as one unit (single-file programs only)."""
        if len(self.files) != 1:
            raise ValueError("multi-file program has no single source")
        return self.files[0][1]


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, round(value * scale))


def draw_program(kind: str, seed: int, scale: float = 1.0,
                 index: int = 0) -> Program:
    """Draw one program of ``kind`` from ``seed``.

    ``scale`` shrinks the stated size (the smoke tests use tiny
    programs); ``index`` separates several programs of one kind.
    """
    spec = PROGRAMS[kind]
    rng = rng_for(seed, "program", kind, index)
    knobs = {}
    for name, base in spec["knobs"].items():
        floor = 2 if name != "call_fanout" else 1
        value = _scaled(base, min(1.0, scale * 4), floor)
        if name != "monitored_regions":
            value = max(floor, round(value * rng.uniform(0.95, 1.05)))
        knobs[name] = value
    units = spec["filler_units"]
    per_unit = 0
    if units:
        per_unit = max(2, round(_scaled(spec["fillers_per_unit"], scale, 2)
                                * rng.uniform(0.95, 1.05)))
    target = spec["target_loc"] * scale * rng.uniform(0.99, 1.01)

    def build(fillers: int):
        if units:
            return generate_core_files(filler_units=units,
                                       fillers_per_unit=per_unit,
                                       filler_functions=fillers, **knobs)
        return generate_core(filler_functions=fillers, **knobs)

    def loc_of(generated) -> int:
        if units:
            return sum(nonblank_lines(src) for _, src in generated.files)
        return nonblank_lines(generated.source)

    base_loc = loc_of(build(0))
    per_filler = loc_of(build(1)) - base_loc
    # at least two fillers: serve variants edit a filler body
    fillers = max(2, round((target - base_loc) / per_filler))
    generated = build(fillers)
    knobs.update(filler_functions=fillers, filler_units=units,
                 fillers_per_unit=per_unit)
    if units:
        files = list(generated.files)
    else:
        files = [(f"gen{index}.c", generated.source)]
    text = "\n".join(src for _, src in files)
    return Program(
        files=files,
        expected=Expected(generated.expected_warnings,
                          generated.expected_errors,
                          generated.expected_false_positives),
        knobs=knobs,
        loc=loc_of(generated),
        filler_names=re.findall(r"^double (filler\d+)\(double x\)$", text,
                                re.M),
        chain_names=re.findall(r"^double (chain\d+)\(Region \*r, double fb\)$",
                               text, re.M),
    )


def corpus_reference() -> Dict[str, Tuple[List[str], Expected, int]]:
    """``key -> (core files, Table 1 reference, non-blank lines)``."""
    out = {}
    for key in CORPUS_KEYS:
        system = load_system(key)
        paper = system.paper
        files = [str(p) for p in system.core_files]
        loc = sum(nonblank_lines(p.read_text()) for p in system.core_files)
        out[key] = (files, Expected(paper.warnings, paper.error_dependencies,
                                    paper.false_positives,
                                    paper.annotation_lines), loc)
    return out


# ----------------------------------------------------------------------
# one-function body edits
# ----------------------------------------------------------------------

_FILLER_RETURN = re.compile(r"^(    return acc \+ )(\d+)\.\d+;$", re.M)
_CHAIN_GUARD = re.compile(r"^(    if \(v > )[0-9.]+( \|\| v < -100\.0\) \{)$",
                          re.M)


def edit_body(text: str, function: str, tag: int) -> str:
    """Change one literal in ``function``'s body to a value unique to
    ``tag``. The edit moves no line and touches no declaration, so the
    program's expected diagnosis is unchanged."""
    if function.startswith("filler"):
        header = f"double {function}(double x)\n"
        pattern = _FILLER_RETURN
        start = text.index(header)
        m = pattern.search(text, start)
        new = f"{m.group(1)}{m.group(2)}.{tag}5;"
    else:
        header = f"double {function}(Region *r, double fb)\n"
        pattern = _CHAIN_GUARD
        start = text.index(header)
        m = pattern.search(text, start)
        new = f"{m.group(1)}100.{tag}5{m.group(2)}"
    return text[:m.start()] + new + text[m.end():]


def _cycle(rng: random.Random, items) -> Iterator:
    """Endless seeded permutations of ``items``: every item comes up
    once per pass, so a short run still covers the pool evenly."""
    items = list(items)
    if not items:
        raise ValueError("nothing to pick from")
    while True:
        rng.shuffle(items)
        yield from items


def serve_plan(seed: int, client: int, programs: List[Program]
               ) -> Iterator[Tuple[str, int, str]]:
    """Endless request sequence of one serve client.

    Yields ``(kind, program index, function)``: ``kind`` is a corpus
    key, ``gen`` (a repeat of a generated program) or ``variant`` (a
    generated program with one filler body edited, new on every pick).
    """
    rng = rng_for(seed, "serve-plan", client)
    repeats = _cycle(rng, range(len(programs)))
    variants = _cycle(rng, [(i, f) for i, p in enumerate(programs)
                            for f in p.filler_names])
    while True:
        block = list(SERVE_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "variant":
                yield (kind, *next(variants))
            elif kind == "gen":
                yield kind, next(repeats), ""
            else:
                yield kind, 0, ""


def watch_plan(seed: int, program: Program) -> Iterator[Tuple[str, str]]:
    """Endless edit schedule: ``(file name, function)`` pairs."""
    rng = rng_for(seed, "watch-plan")
    owner: Dict[str, str] = {}
    for fname, src in program.files:
        for name in re.findall(r"^double (\w+)\(", src, re.M):
            owner[name] = fname
    pools = {
        "filler": _cycle(rng, [f for f in program.filler_names
                               if owner[f] != "core.c"]),
        "core": _cycle(rng, program.chain_names),
    }
    while True:
        block = list(WATCH_BLOCK)
        rng.shuffle(block)
        for kind in block:
            function = next(pools[kind])
            yield owner[function], function
