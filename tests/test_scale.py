"""The README's scale contract, through the CLI.

Bell(8) = 4140 partitions.  The budgets are loose on purpose; they fail
when Level I falls back to a quadratic build (about 25 s at n = 8, where
the one-walk build read through byte tables takes about 0.03 s and its
covers about 0.05 s), or when ``verify --n 5`` (every label checked by
``type_set`` and the lemma, about 0.3 s), ``verify --n 6 --context
atoms`` (2^15 - 1 labels, about 0.26 s) or the atoms catalog at n = 6
(about 0.3 s) grows several times slower.  ``type_set`` tests only its candidate partitions, and both
checks read a label's member and complement masks from the context's
byte tables (``PropertyContext.split``), about one lookup per 8 ideals.
``verify --n 8 --context k_prod`` takes about 0.47 s; the linear
call count of its principal-meet check is pinned in
``test_pair_masks.py``.  ``verify --venn --seed 0 --families 20000``
takes about 0.14 s: each random family holds its label order as
inclusion rows and builds no ``Poset``.
"""

import json
import re
import time
from math import comb

import pytest

from corrclass.cli import EXIT_OK, main

N = 8
BELL_8 = 4140
BUDGET_S = 10
VERIFY_N5_BUDGET_S = 5
VERIFY_ATOMS_N6_BUDGET_S = 5
ATOMS_N6_BUDGET_S = 5
VENN_BUDGET_S = 5


def stirling2(n, k):
    """Partitions of n labels into k blocks, by the triangle recurrence."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def run_timed(capsys, *argv):
    t0 = time.monotonic()
    code = main(list(argv))
    elapsed = time.monotonic() - t0
    return code, capsys.readouterr().out, elapsed


def test_lattice_dot_n8(capsys):
    code, out, elapsed = run_timed(capsys, "lattice", "--n", str(N),
                                   "--output", "dot")
    assert code == EXIT_OK
    labels = re.findall(r'^  n\d+ \[label="([^"]*)"\];$', out, re.M)
    edges = re.findall(r"^  n\d+ -> n\d+;$", out, re.M)
    assert len(labels) == len(set(labels)) == BELL_8
    # each partition with k blocks is covered by merging two of them
    assert len(edges) == sum(comb(k, 2) * stirling2(N, k)
                             for k in range(1, N + 1))
    assert elapsed < BUDGET_S


@pytest.mark.parametrize("kind", ["k_part", "k_prod"])
def test_chain_catalog_n8(capsys, kind):
    code, out, elapsed = run_timed(capsys, "classify", "--n", str(N),
                                   "--context", kind, "--output", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["class_count"] == len(doc["classes"]) == N
    assert doc["empty_label_count"] == 0 and doc["empty_labels"] == []
    types = [t for c in doc["classes"] for t in c["type_set"]]
    assert len(types) == len(set(types)) == BELL_8
    assert elapsed < BUDGET_S


def test_verify_k_prod_n8(capsys):
    code, out, elapsed = run_timed(capsys, "verify", "--n", str(N),
                                   "--context", "k_prod")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 5 and all(line.startswith("PASS ") for line in lines)
    assert "PASS principal_ideal_meets" in lines
    assert elapsed < BUDGET_S


def test_verify_n5(capsys):
    code, out, elapsed = run_timed(capsys, "verify", "--n", "5")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 11 and all(line.startswith("PASS ") for line in lines)
    oracle = re.findall(r"^PASS oracle\.(\w+) \((\d+) filters\)$", out, re.M)
    assert oracle == [("k_part", "5"), ("k_prod", "5"), ("atoms", "1023"),
                      ("coatoms", "32767")]
    assert elapsed < VERIFY_N5_BUDGET_S


def test_verify_atoms_n6(capsys):
    code, out, elapsed = run_timed(capsys, "verify", "--n", "6",
                                   "--context", "atoms")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "PASS partition_count (203 partitions)",
        "PASS chains_part_prod",
        "PASS principal_ideal_meets",
        "PASS oracle.atoms (32767 filters)",
        "PASS lemmas.atoms",
    ]
    assert elapsed < VERIFY_ATOMS_N6_BUDGET_S


def test_atoms_catalog_n6(capsys):
    code, out, elapsed = run_timed(capsys, "classify", "--n", "6",
                                   "--context", "atoms", "--output", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["class_count"] == len(doc["classes"]) == 16
    assert (doc["empty_label_count"] == len(doc["empty_labels"])
            == 2 ** 15 - 1 - 16)
    assert elapsed < ATOMS_N6_BUDGET_S


def test_verify_venn_20000_families(capsys):
    code, out, elapsed = run_timed(capsys, "verify", "--venn", "--seed", "0",
                                   "--families", "20000")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "PASS venn.random_families (20000 families, seed 0)",
        "PASS venn.generic_three_label",
        "PASS venn.counterexample",
    ]
    assert elapsed < VENN_BUDGET_S
