"""Output checks for the benchmark's CLI jobs.

Each check takes a job's exit code and standard output and returns a list
of problems; an empty list means the output is correct.  Expected values
are derived here from ``setpart``, independently of the package, or pinned
as sha256 digests of outputs recorded when the benchmark was defined.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import combinations
from math import comb

import setpart

# sha256 of the stdout of fixed-input jobs at n <= 5.  The catalog JSON at
# n <= 5 must stay byte-identical across changes.
PINNED_SHA256 = {
    "classify --n 5 --context coatoms --output json":
        "6278c71f481b0ae27ff774c97318d89a5768ebff254a9508e4f1102c3d33959b",
    "classify --n 4 --context full --output json":
        "c7a38bf8a9080972f1c0475c6c320b7e1a85179abbda8c875955030824501bb5",
}

VERIFY_LINE = re.compile(r"^(PASS|FAIL) (\S+)(?: \((.*)\))?$")


def exit_ok(rc) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}"]


def check_pinned(key: str, rc, out: bytes) -> list[str]:
    problems = exit_ok(rc)
    digest = hashlib.sha256(out).hexdigest()
    if digest != PINNED_SHA256[key]:
        problems.append(f"stdout sha256 {digest} differs from the pinned one")
    return problems


def _load_catalog(rc, out: bytes) -> tuple[dict | None, list[str]]:
    problems = exit_ok(rc)
    try:
        return json.loads(out), problems
    except ValueError as exc:
        return None, problems + [f"stdout is not JSON: {exc}"]


def check_catalog_counts(rc, out: bytes, classes: int, empties: int,
                         covered: int) -> list[str]:
    """Class and empty-label counts, and type sets that are disjoint,
    nonempty and cover ``covered`` partitions in total."""
    data, problems = _load_catalog(rc, out)
    if data is None:
        return problems
    if data["class_count"] != classes or len(data["classes"]) != classes:
        problems.append(f"{len(data['classes'])} classes, expected {classes}")
    if (data["empty_label_count"] != empties
            or len(data["empty_labels"]) != empties):
        problems.append(f"{len(data['empty_labels'])} empty labels, "
                        f"expected {empties}")
    seen: set[str] = set()
    total = 0
    for record in data["classes"]:
        types = record["type_set"]
        if not types:
            problems.append(f"class {record['label']} has no types")
        total += len(types)
        seen.update(types)
    if total != len(seen):
        problems.append("a partition appears in two classes")
    if total != covered:
        problems.append(f"{total} types in all classes, expected {covered}")
    return problems


def check_dot(rc, out: bytes, n: int) -> list[str]:
    """Level I Hasse diagram: every partition once, every cover once."""
    problems = exit_ok(rc)
    text = out.decode("utf-8", "replace")
    nodes = dict(re.findall(r'^  n(\d+) \[label="([^"]*)"\];$', text, re.M))
    edges = re.findall(r"^  n(\d+) -> n(\d+);$", text, re.M)
    expected = {setpart.fmt(p) for p in setpart.partitions(n)}
    if set(nodes.values()) != expected or len(nodes) != len(expected):
        problems.append(f"{len(nodes)} nodes, expected the {len(expected)} "
                        f"partitions of {n}")
        return problems
    covers = sum(comb(len(p), 2) for p in setpart.partitions(n))
    if len(set(edges)) != covers or len(edges) != covers:
        problems.append(f"{len(edges)} edges, expected {covers} covers")
    for lo, hi in edges:
        a, b = setpart.parse(nodes[lo]), setpart.parse(nodes[hi])
        if not (setpart.refines(a, b) and len(a) == len(b) + 1):
            problems.append(f"edge {nodes[lo]} -> {nodes[hi]} is no cover")
            break
    return problems


def verify_expectation(n: int, context: str = "all",
                       exhaustive: bool = False) -> list[tuple[str, int | None]]:
    """The check lines ``corrclass verify`` prints, with their counts."""
    bipartitions = 2 ** (n - 1) - 1
    filters = {"k_part": n, "k_prod": n,
               "atoms": 2 ** comb(n, 2) - 1,
               "coatoms": 2 ** bipartitions - 1}
    kinds = [k for k in filters if context in ("all", k)]
    lines = [("partition_count", len(setpart.partitions(n))),
             ("chains_part_prod", None), ("principal_ideal_meets", None)]
    for kind in kinds:
        lines += [(f"oracle.{kind}", filters[kind]), (f"lemmas.{kind}", None)]
    if exhaustive:
        universe = setpart.partitions(n)
        ideals = {setpart.down_closure(universe, gens)
                  for r in range(1, len(universe) + 1)
                  for gens in combinations(universe, r)}
        lines += [("oracle.full", setpart.count_upsets(list(ideals))),
                  ("lemmas.full", None)]
    return lines


def venn_expectation(families: int) -> list[tuple[str, int | None]]:
    return [("venn.random_families", families),
            ("venn.generic_three_label", None),
            ("venn.counterexample", None)]


def check_verify(rc, out: bytes,
                 expected: list[tuple[str, int | None]]) -> list[str]:
    """Exit code 0, every line PASS, the expected checks in order, and the
    count each line states (its detail's leading number)."""
    problems = exit_ok(rc)
    lines = out.decode("utf-8", "replace").splitlines()
    if len(lines) != len(expected):
        problems.append(f"{len(lines)} lines, expected {len(expected)}")
    for line, (name, count) in zip(lines, expected):
        m = VERIFY_LINE.match(line)
        if m is None or m.group(1) != "PASS" or m.group(2) != name:
            problems.append(f"line {line!r}, expected PASS {name}")
            continue
        if count is not None:
            stated = re.match(r"(\d+) ", m.group(3) or "")
            if stated is None or int(stated.group(1)) != count:
                problems.append(f"line {line!r}, expected count {count}")
    return problems


def _ideal_members(universe, text: str) -> frozenset:
    text = text.strip()
    if text.startswith("↓{") and text.endswith("}"):
        text = text[2:-1]
    gens = [setpart.parse(tok) for tok in text.split(",") if tok.strip()]
    return setpart.down_closure(universe, gens)


def check_custom(rc, out: bytes, n: int, context_lines: list[str],
                 labels: int) -> list[str]:
    """Independent signature check of a custom classification.

    Group the partitions by the set of context ideals containing them.  The
    distinct nonempty groups are the classes: each reported class must be
    one group, with the group as its type set and the group's signature as
    its label (the up-closure of the reported minimal ideals); and the
    reported empty labels must make up the rest of the ``labels`` filters.
    """
    data, problems = _load_catalog(rc, out)
    if data is None:
        return problems
    universe = setpart.partitions(n)
    ideals = [_ideal_members(universe, line) for line in context_lines]
    groups: dict[frozenset, set] = {}
    for i, p in enumerate(universe):
        signature = frozenset(k for k, ideal in enumerate(ideals) if i in ideal)
        if signature:
            groups.setdefault(signature, set()).add(setpart.fmt(p))
    expected = {frozenset(types): sig for sig, types in groups.items()}
    reported = {}
    for record in data["classes"]:
        types = frozenset(setpart.fmt(setpart.parse(t))
                          for t in record["type_set"])
        minimal = [_ideal_members(universe, t) for t in record["label"]]
        if any(ideal not in ideals for ideal in minimal):
            problems.append(f"label {record['label']} names an ideal "
                            "outside the context")
            continue
        reported[types] = frozenset(k for k, ideal in enumerate(ideals)
                                    if any(low <= ideal for low in minimal))
    if len(reported) != len(data["classes"]):
        problems.append("two reported classes share a type set")
    if set(reported) != set(expected):
        problems.append(f"{len(reported)} reported type sets differ from "
                        f"the {len(expected)} signature groups")
    else:
        for types, signature in expected.items():
            if reported[types] != signature:
                problems.append(f"class {sorted(types)} has the wrong label")
    if data["class_count"] != len(expected):
        problems.append(f"class_count {data['class_count']}, "
                        f"expected {len(expected)}")
    if data["empty_label_count"] + data["class_count"] != labels:
        problems.append(f"{data['empty_label_count']} empty labels and "
                        f"{data['class_count']} classes, expected {labels} "
                        "labels in all")
    return problems
