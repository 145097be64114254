"""Level I built from label-pair masks, against the partition-level reference.

``PartitionLattice`` derives its order from pair masks and its meet from
``pairs[i] & pairs[j]``.  These tests rebuild the order from
``Partition.refines`` and the meet and join from ``Partition.meet`` and
``Partition.join`` (the test-side reference in ``partition_reference``),
rebuild the pair masks label by label, pin the n = 7 CLI outputs recorded
before the pair masks and the n = 8 ones recorded before the one-walk
build, and check that a wrong meet fails ``verify``.  ``Poset.by_inclusion`` builds every
inclusion order without ``Poset._validate``; the validated path is run
here instead, on each such order the CLI builds, and so are the covers.
"""

import hashlib
import json

import pytest

from corrclass import catalogs
from corrclass import ideals as idl
from corrclass.catalogs import class_record, class_report_jsonl
from corrclass.classify import Filter, describe_class, enumerate_filters
from corrclass.cli import EXIT_INVARIANT, EXIT_OK, main
from corrclass.partitions import (PartitionLattice, bell_number,
                                  enumerate_partitions)
from corrclass.poset import CapExceeded, OrderViolation, Poset, bits
from corrclass.venn import LabeledFamily

from partition_reference import all_partitions, partitions_of
from test_poset import brute_covers
from test_signature import oracle_types


def pair_mask(blocks):
    """The label pairs sharing a block: bit b(b-1)/2 + a for a < b."""
    mask = 0
    for block in blocks:
        members = list(bits(block))
        for x, b in enumerate(members):
            for a in members[:x]:
                mask |= 1 << (b * (b - 1) // 2 + a)
    return mask


@pytest.mark.parametrize("n", range(1, 8))
def test_walk_matches_pair_mask_and_validation(n):
    lattice = enumerate_partitions(n)
    assert len(lattice) == bell_number(n)
    ps = partitions_of(lattice)
    assert list(all_partitions(n)) == list(ps)
    for p, blocks, pairs in zip(ps, lattice.blocks, lattice.pairs,
                                strict=True):
        assert p.blocks == blocks
        assert pairs == pair_mask(p.blocks)


def refines_relation(lattice):
    """below[i] from the quadratic Partition.refines loop."""
    ps = partitions_of(lattice)
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


@pytest.mark.parametrize("n", range(1, 7))
def test_covers_match_brute_force(n):
    # Level I, every built-in context, and the ideal universe to n = 4
    for p in inclusion_posets(n):
        assert p.covers() == brute_covers(p)


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
    ps = partitions_of(lattice)
    index = {p: i for i, p in enumerate(ps)}
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
    # the coatoms are the two-block partitions
    bipartitions = sum(p.parts_count == 2 for p in partitions_of(lattice))
    assert rep["coatoms"] == bipartitions == (2 ** (n - 1) - 1 if n > 1 else 0)


def coatom_pair_mutations(lattice):
    """Wrong meets, each wrong on some pair that holds a coatom."""
    right = lattice.meet_index
    bottom, top = lattice.bottom_index, lattice.top_index
    coatom = max(i for i, p in enumerate(partitions_of(lattice))
                 if p.parts_count == 2)
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


# The same at n = 8, recorded before Level I was built in one walk and
# read from byte tables; its 28 pair bits leave the last run of 8 half full.
N8_SHA256 = {
    "lattice --n 8 --output dot":
        "d005aad42a0cf50f80b30024f18d3de038dba2036d50a3818a3dc7c435b9e1b2",
    "lattice --n 8 --output json":
        "a96912c2404abd5a51c6341258ebe77179fa256fb52ee30e2db685a671721d01",
    "classify --n 8 --context k_part --output json":
        "249282a06df64d23fad5ce74c4507d3144fc86b34c3805d0c9c08cba3d4d2c9f",
}


@pytest.mark.parametrize("args", sorted(N7_SHA256))
def test_n7_outputs_pinned(capsys, args):
    code = main(args.split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == N7_SHA256[args]


@pytest.mark.parametrize("args", sorted(N8_SHA256))
def test_n8_outputs_pinned(capsys, args):
    code = main(args.split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == N8_SHA256[args]


# Every built-in catalog at n <= 5 that lists empty labels: chains list
# none, nor do atoms and coatoms at n = 2, and full at n = 4 walks no
# labels.
EMPTY_LABEL_CASES = [("atoms", 3), ("atoms", 4), ("atoms", 5),
                     ("coatoms", 3), ("coatoms", 4), ("coatoms", 5),
                     ("full", 3)]


def test_empty_label_cases_are_every_such_catalog():
    found = []
    for kind in catalogs.KINDS:
        for n in range(2, 6):
            try:
                catalog = catalogs.catalog_for(kind, enumerate_partitions(n))
            except CapExceeded:
                continue
            if catalog.empties:
                found.append((kind, n))
    assert sorted(found) == sorted(EMPTY_LABEL_CASES)


@pytest.mark.parametrize("kind,n", EMPTY_LABEL_CASES)
def test_jsonl_empty_records_match_describe_class(capsys, kind, n):
    catalog = catalogs.catalog_for(kind, enumerate_partitions(n))
    assert catalog.empties
    context = catalog.context
    empties = [Filter(context, context.poset.up_closure(mins))
               for mins in catalog.empties]
    for f in empties:
        assert class_record(describe_class(f, 0)) == class_record(
            describe_class(f, oracle_types(f)))
    reference = "".join(class_report_jsonl(
        catalog.classes + [describe_class(f, oracle_types(f))
                           for f in empties]))
    code = main(["classify", "--n", str(n), "--context", kind,
                 "--output", "jsonl"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == reference
    records = [json.loads(line) for line in out.splitlines()]
    assert sum(r["exists"] for r in records) == len(catalog.classes)
