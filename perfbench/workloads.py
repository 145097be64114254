"""The benchmark's workloads: CLI jobs, their output checks, and set-up specs.

Every workload is a fixed list of ``corrclass`` invocations.  Inputs are
fixed except where a workload says otherwise; the benchmark seed drives the
``ordered`` context files and the ``venn`` seed.  ``WHY`` records why each
workload exists; the layers each one stresses are listed in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import setpart

WHY = {
    "antichain": "Level III label enumeration, the type_set oracle and "
                 "catalog JSON dominate (2^15-1 labels per job); the Level I "
                 "build is under 0.1 s",
    "lattice7": "Level I at n=7 (877 partitions) and principal ideals "
                "dominate; 7 chain labels each, so Level III work is nil",
    "verify": "invariant checks that classify skips: classes_equal pairs, "
              "principal-label lemmas, the n=4 ideal universe, venn families",
    "ordered": "general orders: parse_ideal, 346x346 containment matrices, "
               "and label enumeration over seeded mixed custom contexts",
}

# Seeded custom contexts for ``ordered``: FILES files at n = ORDERED_N, each
# of CONTEXT_SIZE distinct ideals, each ideal the down-closure of 1-3 random
# partitions.  Only contexts whose label count lies in LABEL_BAND are kept,
# so the work per run does not depend on the seed.
ORDERED_N = 5
FILES = 4
CONTEXT_SIZE = 16
LABEL_BAND = (3800, 4200)

VENN_FAMILIES = 20000

Check = Callable[[object, bytes], list]


@dataclass
class Job:
    args: list[str]
    check: Check

    @property
    def name(self) -> str:
        return " ".join(self.args)


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    setup: list[list]  # steps for setup_child.py
    notes: list[str] = field(default_factory=list)


@dataclass
class ContextFile:
    lines: list[str]
    shape: str
    labels: int


def generate_context(rng: random.Random) -> ContextFile:
    """Draw contexts until one has its label count inside LABEL_BAND."""
    universe = setpart.partitions(ORDERED_N)
    while True:
        ideals: list[frozenset] = []
        while len(ideals) < CONTEXT_SIZE:
            gens = rng.sample(universe, rng.randint(1, 3))
            ideal = setpart.down_closure(universe, gens)
            if ideal not in ideals:
                ideals.append(ideal)
        labels = setpart.count_upsets(ideals)
        if LABEL_BAND[0] <= labels <= LABEL_BAND[1]:
            lines = [", ".join(setpart.fmt(p)
                               for p in setpart.maximal(universe, ideal))
                     for ideal in ideals]
            return ContextFile(lines, setpart.order_shape(ideals), labels)


def generate_contexts(seed: int) -> list[ContextFile]:
    rng = random.Random(f"ordered-{seed}")
    return [generate_context(rng) for _ in range(FILES)]


def _classify(n: int, context: str) -> list[str]:
    return ["classify", "--n", str(n), "--context", context,
            "--output", "json"]


def _pinned(args: list[str]) -> Job:
    return Job(args, partial(checks.check_pinned, " ".join(args)))


def _verify(args: list[str], expected) -> Job:
    return Job(args, partial(checks.check_verify, expected=expected))


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The jobs of one workload; ``workdir`` receives generated inputs."""
    if name == "antichain":
        jobs = [Job(_classify(6, "atoms"),
                    partial(checks.check_catalog_counts, classes=16,
                            empties=2 ** 15 - 1 - 16, covered=16)),
                _pinned(_classify(5, "coatoms"))]
        setup = [["context", 6, "atoms"], ["context", 5, "coatoms"]]
        return Workload(name, jobs, setup)
    if name == "lattice7":
        chain = partial(checks.check_catalog_counts, classes=7, empties=0,
                        covered=len(setpart.partitions(7)))
        jobs = [Job(["lattice", "--n", "7", "--output", "dot"],
                    partial(checks.check_dot, n=7)),
                Job(_classify(7, "k_part"), chain),
                Job(_classify(7, "k_prod"), chain),
                _verify(["verify", "--n", "7", "--context", "k_prod"],
                        checks.verify_expectation(7, "k_prod"))]
        setup = [["context", 7, "k_part"], ["context", 7, "k_prod"]]
        return Workload(name, jobs, setup)
    if name == "verify":
        jobs = [_verify(["verify", "--n", "5"], checks.verify_expectation(5)),
                _verify(["verify", "--n", "4"], checks.verify_expectation(4)),
                _verify(["verify", "--n", "3", "--exhaustive"],
                        checks.verify_expectation(3, exhaustive=True)),
                _verify(["verify", "--venn", "--seed", str(seed),
                         "--families", str(VENN_FAMILIES)],
                        checks.venn_expectation(VENN_FAMILIES))]
        setup = [[step, n, kind] for n in (5, 4, 3)
                 for step, kind in (("context", "k_part"),
                                    ("context", "k_prod"),
                                    ("context", "atoms"),
                                    ("context", "coatoms"))]
        setup += [["universe", 4, None], ["universe", 3, None],
                  ["context", 3, "full"]]
        return Workload(name, jobs, setup)
    if name == "ordered":
        jobs = [_pinned(_classify(4, "full"))]
        setup = [["context", 4, "full"]]
        notes = []
        for i, ctx in enumerate(generate_contexts(seed)):
            path = workdir / f"ordered-{i}.txt"
            path.write_text("\n".join(ctx.lines) + "\n", encoding="utf-8")
            args = ["classify", "--n", str(ORDERED_N), "--context", "custom",
                    "--context-file", str(path), "--output", "json"]
            jobs.append(Job(args, partial(checks.check_custom, n=ORDERED_N,
                                          context_lines=ctx.lines,
                                          labels=ctx.labels)))
            setup.append(["custom", ORDERED_N, str(path)])
            notes.append(f"context file {path.name}: {len(ctx.lines)} "
                         f"ideals, {ctx.shape} order, {ctx.labels} labels")
        return Workload(name, jobs, setup, notes)
    raise ValueError(f"unknown workload {name!r}")
