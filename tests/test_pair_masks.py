"""Level I built from label-pair masks, against the partition-level reference.

``PartitionLattice`` derives its order from pair masks and its meet from
``pairs[i] & pairs[j]``.  These tests rebuild the order from
``Partition.refines`` and the meet and join from ``Partition.meet`` and
``Partition.join`` (kept here only as the reference), pin the n = 7 CLI
outputs recorded before the pair masks, and check that a wrong meet fails
``verify``.  ``Poset.by_inclusion`` builds every inclusion order without
``Poset._validate``; the validated path is run here instead, on each such
order the CLI builds.
"""

import hashlib
import json

import pytest

from corrclass import catalogs
from corrclass import ideals as idl
from corrclass.catalogs import class_record, class_report_jsonl
from corrclass.classify import Filter, describe_class, enumerate_filters
from corrclass.cli import EXIT_INVARIANT, EXIT_OK, main
from corrclass.partitions import PartitionLattice, enumerate_partitions
from corrclass.poset import OrderViolation, Poset
from corrclass.venn import LabeledFamily


def refines_relation(lattice):
    """below[i] from the quadratic Partition.refines loop."""
    ps = lattice.partitions
    below = [0] * len(ps)
    for i, xi in enumerate(ps):
        for j, zeta in enumerate(ps):
            if zeta.refines(xi):
                below[i] |= 1 << j
    return below


@pytest.mark.parametrize("n", range(1, 7))
def test_order_matches_refines(n):
    lattice = enumerate_partitions(n)
    below = refines_relation(lattice)
    assert lattice.poset.below == below
    above = [0] * len(below)
    for i, mask in enumerate(below):
        for j in range(len(below)):
            if (mask >> j) & 1:
                above[j] |= 1 << i
    assert lattice.poset.above == above


CONTEXTS = (idl.k_partitionability_context, idl.k_producibility_context,
            idl.atom_context, idl.coatom_context)


def inclusion_posets(n):
    """The inclusion orders built at n: Level I (n <= 7), every built-in
    context (2 <= n <= 6), the ideal universe (n <= 4) and the
    ``lattice --level III`` label order (n = 3)."""
    lattice = enumerate_partitions(n)
    yield lattice.poset
    if 2 <= n <= 6:
        for build in CONTEXTS:
            yield build(lattice).poset
    if n <= 4:
        universe = idl.enumerate_ideals(lattice)
        yield universe.poset
        if n == 3:
            yield Poset.by_inclusion(
                [f.members for f in enumerate_filters(universe)])


@pytest.mark.parametrize("n", range(1, 8))
def test_validated_path_agrees(n):
    for p in inclusion_posets(n):
        q = Poset.from_leq(p.below)
        assert q.below == p.below
        assert q.above == p.above


def test_inclusion_orders_are_not_validated(monkeypatch):
    def refuse(self):
        raise OrderViolation("validation ran")

    monkeypatch.setattr(Poset, "_validate", refuse)
    for n in range(1, 8):
        assert all(len(p) for p in inclusion_posets(n))
    assert LabeledFamily.from_subsets(3, [0b001, 0b011, 0b110]).labels.leq(
        0, 1)
    with pytest.raises(OrderViolation, match="validation ran"):
        Poset.from_pairs(2, [(0, 1), (1, 0)])


@pytest.mark.parametrize("n", range(1, 7))
def test_meet_join_match_partitions(n):
    # the meet on every pair, since verify checks it only on coatom pairs;
    # the join to n = 5
    lattice = enumerate_partitions(n)
    ps, index = lattice.partitions, lattice.index
    for i, a in enumerate(ps):
        for j, b in enumerate(ps):
            assert lattice.meet_index(i, j) == index[a.meet(b)]
            if n <= 5:
                assert lattice.poset.join(i, j) == index[a.join(b)]


def quadratic_meets_ok(lattice):
    """Reference: ↓i ∩ ↓j == ↓meet(i, j) on every pair of partitions."""
    below = lattice.poset.below
    m = len(lattice)
    return all(below[i] & below[j] == below[lattice.meet_index(i, j)]
               for i in range(m) for j in range(i, m))


@pytest.mark.parametrize("n", range(1, 7))
def test_principal_meet_check_matches_quadratic(n):
    lattice = enumerate_partitions(n)
    rep = idl.principal_meet_check(lattice)
    assert rep["ok"] is quadratic_meets_ok(lattice) is True
    assert rep["coatoms"] == (2 ** (n - 1) - 1 if n > 1 else 0)


def coatom_pair_mutations(lattice):
    """Wrong meets, each wrong on some pair that holds a coatom."""
    right = lattice.meet_index
    bottom, top = lattice.bottom_index, lattice.top_index
    coatom = lattice.poset.coatoms().bit_length() - 1
    other = next(i for i in range(len(lattice))
                 if not lattice.poset.leq(i, coatom))

    def one_pair(i, j):
        if {i, j} == {other, coatom}:
            return bottom
        return right(i, j)

    return {
        "lower_index": lambda i, j: min(i, j),
        "first_argument": lambda i, j: i,
        "always_bottom": lambda i, j: bottom,
        "always_top": lambda i, j: top,
        "one_pair": one_pair,
    }


@pytest.mark.parametrize("n", range(3, 7))
def test_principal_meet_check_matches_quadratic_on_wrong_meets(n):
    lattice = enumerate_partitions(n)
    for name, wrong in coatom_pair_mutations(lattice).items():
        lattice.meet_index = wrong
        assert idl.principal_meet_check(lattice)["ok"] is False, name
        assert quadratic_meets_ok(lattice) is False, name
        del lattice.meet_index


def test_verify_meet_calls_linear(monkeypatch, capsys):
    calls = 0
    meet_index = PartitionLattice.meet_index

    def counted(self, i, j):
        nonlocal calls
        calls += 1
        return meet_index(self, i, j)

    monkeypatch.setattr(PartitionLattice, "meet_index", counted)
    code = main(["verify", "--n", "7", "--context", "k_prod"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS principal_ideal_meets" in out.splitlines()
    # B_7 partitions times 2^6 - 1 coatoms; every pair would be 385 003
    assert 0 < calls <= 877 * 63


def test_wrong_meet_fails_verify(monkeypatch, capsys):
    # right only when the lower-indexed partition refines the other
    monkeypatch.setattr(PartitionLattice, "meet_index",
                        lambda self, i, j: min(i, j))
    code = main(["verify", "--n", "4"])
    out = capsys.readouterr().out
    assert code == EXIT_INVARIANT
    assert "FAIL principal_ideal_meets" in out.splitlines()


# sha256 of the stdout of `corrclass ARGS`, recorded before Level I was
# built from pair masks.
N7_SHA256 = {
    "lattice --n 7 --output dot":
        "a44de831d9861542dbf8247cc967281a9d3f90c8f729a922b6285773763cc386",
    "classify --n 7 --context k_part --output json":
        "e6da97b37029a91800a259e943aa68a7a8d588c5d985dd9ae0258629a06d0520",
    "classify --n 7 --context k_prod --output json":
        "5e257744a2b969a771c7cb6e8811e892a3a9344fc3e80e1c99fe18ac5ad1ae46",
    "verify --n 7 --context k_prod":
        "05f427d2d08fb97238981341c11cc4100c4f5287f155e23a45fcd2572e6a9d18",
}


@pytest.mark.parametrize("args", sorted(N7_SHA256))
def test_n7_outputs_pinned(capsys, args):
    code = main(args.split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == N7_SHA256[args]


@pytest.mark.parametrize("kind,n", [("atoms", 4), ("coatoms", 4),
                                    ("full", 3)])
def test_jsonl_empty_records_match_describe_class(capsys, kind, n):
    catalog = catalogs.catalog_for(kind, enumerate_partitions(n))
    assert catalog.empties
    context = catalog.context
    empties = [Filter(context, context.poset.up_closure(mins))
               for mins in catalog.empties]
    for f in empties:
        assert class_record(describe_class(f, 0)) == class_record(
            describe_class(f))
    reference = "".join(class_report_jsonl(
        catalog.classes + [describe_class(f) for f in empties]))
    code = main(["classify", "--n", str(n), "--context", kind,
                 "--output", "jsonl"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == reference
    records = [json.loads(line) for line in out.splitlines()]
    assert sum(r["exists"] for r in records) == len(catalog.classes)
