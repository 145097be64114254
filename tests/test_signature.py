"""Signature-first Level III against the filter-by-filter reference.

The antichain-style catalogs decide each label by looking up its signature
group.  These tests pin the catalog JSON bytes of every built-in kind and
the ``verify`` and ``jsonl`` outputs, and compare the signature path with
the old path (``describe_class`` on every filter, kept here only as the
reference) and with ``type_set``.  The labels' carried minimal ideals and
class masks are compared with the same values computed from scratch.
"""

import hashlib
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from corrclass import catalogs, classify, ideals
from corrclass.catalogs import (Catalog, catalog_for, catalog_json,
                                custom_catalog)
from corrclass.classify import (Filter, class_exists,
                                class_mask, complement_join_members,
                                describe_class, enumerate_filters,
                                meet_members, oracle_cross_check,
                                signature_groups, type_set)
from corrclass.cli import EXIT_INVARIANT, EXIT_OK, main
from corrclass.ideals import (PropertyContext, atom_context,
                              ideal_from_generators,
                              k_partitionability_context,
                              k_producibility_context)
from corrclass.partitions import enumerate_partitions
from corrclass.poset import Poset, bits

# sha256 of `corrclass classify --n N --context KIND --output json` stdout,
# recorded before the signature path replaced per-label describe_class.
CATALOG_JSON_SHA256 = {
    ("full", 3): "d2d8619d9cd947a93eeb6891fc80264b6d9c2b27b626fbaf9b02e245d0b890ad",
    ("full", 4): "c7a38bf8a9080972f1c0475c6c320b7e1a85179abbda8c875955030824501bb5",
    ("k_part", 3): "152f56999ce312939d8745883844ed43901ee182fd14a87a2dca5ad486a01f73",
    ("k_part", 4): "48b8a1f8c4b3dc709582561d097c3d68c9c64a0de4e65f1f964b96d8a1fbcfb9",
    ("k_part", 5): "94a092c64a9c230fca8258e233b44be894e8c024ebb6425642fe0a50762cb546",
    ("k_prod", 3): "152f56999ce312939d8745883844ed43901ee182fd14a87a2dca5ad486a01f73",
    ("k_prod", 4): "83c42112d335c042cdb7b12899d95d59a0a81d3291f56e6ce74cd2c1332039a8",
    ("k_prod", 5): "dccccb30a7f157203cb739b4fc31d191e80c3b1de3367e4d1786e13466bcdde3",
    ("atoms", 3): "8ccc0c2ce793cbc0dfda90b4a1141e9cd5d69149645fcf3861f6c80e5d79f007",
    ("atoms", 4): "2b69c2f21a18b1b4069c7c7fc8ab25e0879863b82e443fe0aba09d87a357893e",
    ("atoms", 5): "5d9be185adbea312fced2719360f8f0f1968962f2ae07bc3b3171c223c3bae0d",
    ("coatoms", 3): "43bba5658d381c0add96eb8b2c679c88fea55062745359f744010e47bbd7d7b3",
    ("coatoms", 4): "c3ed4f89c7f30157f3d20aa332f9178f0260a2947968246c57ed0f9356e32ba1",
    ("coatoms", 5): "6278c71f481b0ae27ff774c97318d89a5768ebff254a9508e4f1102c3d33959b",
    # recorded before the labels carried their class masks from the walk
    ("atoms", 6): "bdda89e7f568abdb1b4fe77a42ae2c76398075dfe4622dc87067c3fb8085a094",
}


@pytest.mark.parametrize("kind,n", sorted(CATALOG_JSON_SHA256))
def test_catalog_json_bytes_pinned(capsys, kind, n):
    code = main(["classify", "--n", str(n), "--context", kind,
                 "--output", "json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == CATALOG_JSON_SHA256[kind, n]


# sha256 of the stdout of `corrclass ARGS`, recorded before the catalogs and
# verify shared one cross-check routine.
CLI_SHA256 = {
    "verify --n 3": "938fd37e8a465aa27a1c05e6bfc0fff770cf4d3d752e589299a8ce353e72d228",
    "verify --n 4": "54b6d5b3bc89923195389bd74c85c5e40c8607384c969574ba672edfbc889c5b",
    "verify --n 5": "bf1848cfc85b258833553116fa8cae557defad1310a5db4c421cd39640fafcc2",
    "verify --n 3 --exhaustive": "79f3d3cb27d61061af400398d1dbb18721750dc7f089f80e311a4bd76ddaad44",
    "verify --n 4 --context coatoms": "3bc14f9e52eef285dce4cd8759c4c9b04b3ff2d674548fb2d997e7cfb389f1ee",
    "classify --n 4 --context atoms --output jsonl": "f34a37d5acc19f69e1c09cd674b3c210f3465c74c7ba800db1fd772a1b19b9c3",
    "classify --n 5 --context atoms --output jsonl": "5a2734c34a129b6602f931324a661aaabcbd043e07b95ef5e63bb0ce4850595f",
    "classify --n 4 --context coatoms --output jsonl": "ae59b56c06a9edad9f12c895f9f2c4638129a9041d636fc66a8f4e7c7c836d21",
    "classify --n 5 --context coatoms --output jsonl": "46c5afddcc2d098670cd582b4a54d534107d6016f183940659dad38a308a4783",
    # recorded before the labels carried their class masks from the walk
    "classify --n 6 --context atoms --output jsonl": "b0e29997a92e91e88b62f89519a70f2d70ed2cf7692940e9bb3290c75b5cb79a",
    "classify --n 6 --context atoms --output text": "ec632a053a5809e4caf82bd7ec6b0731c68d5900acc3aca7151b3b0b5e4ebbfc",
}


@pytest.mark.parametrize("args", sorted(CLI_SHA256))
def test_cli_outputs_pinned(capsys, args):
    code = main(args.split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_SHA256[args]


def reference_catalog(context: PropertyContext) -> Catalog:
    """The filter-by-filter path: describe_class on every label, each empty
    label kept as its minimal mask, computed from scratch."""
    classes, empties = [], []
    for f in enumerate_filters(context):
        d = describe_class(f)
        if d.exists:
            classes.append(d)
        else:
            empties.append(context.poset.minimal(f.members))
    return Catalog("custom", context, classes, empties, True)


@lru_cache(maxsize=None)
def _lattice(n):
    return enumerate_partitions(n)


@st.composite
def custom_contexts(draw):
    """Up to 7 distinct ideals at n = 3..5, each generated by 1-3 types."""
    lattice = _lattice(draw(st.integers(3, 5)))
    generators = st.lists(st.integers(0, len(lattice) - 1),
                          min_size=1, max_size=3)
    ideals = draw(st.lists(
        generators.map(lambda gens: ideal_from_generators(lattice, gens)),
        min_size=2, max_size=7, unique=True))
    return PropertyContext(lattice, ideals)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(custom_contexts())
def test_signature_catalog_matches_reference(context):
    assume(not context.is_chain())
    cat = custom_catalog(context)
    ref = reference_catalog(context)
    assert cat.kind == "custom"
    assert cat.discrepancies == []
    assert cat.classes == ref.classes
    assert list(cat.empties) == ref.empties
    assert list(cat.empties) == ref.empties  # a second walk, same labels
    assert len(cat.empties) == len(ref.empties)
    assert "".join(catalog_json(cat)) == "".join(catalog_json(ref))
    groups = signature_groups(context)
    for f in enumerate_filters(context):
        assert groups.get(f.members, 0) == type_set(f)


def _flipped(verdict):
    """The verdict with its existence inverted through its class mask: 0
    for a nonempty class, a nonzero mask for an empty one."""
    return replace(verdict, mask=0 if verdict.exists else 1)


def _flip_carried(monkeypatch, flip):
    """Make the label walk carry a nonempty class mask to each empty label
    whose member mask satisfies ``flip``, by dropping its complement join:
    the filter meet left over is never empty (every ideal holds the finest
    partition).  An empty label's verdict is its carried mask, so this
    reaches the catalog and, through ``enumerate_filters``, the oracle."""
    walk = Poset.weighted_upsets

    def flipped(self, weights, top):
        for members, mins, meet, join in walk(self, weights, top):
            if flip(members) and not meet & ~join:
                join = 0
            yield members, mins, meet, join

    monkeypatch.setattr(Poset, "weighted_upsets", flipped)


def _two_ideals(members):
    return members.bit_count() == 2


def test_empty_label_disagreement_recorded(monkeypatch, lat4):
    _flip_carried(monkeypatch, _two_ideals)
    cat = catalog_for("atoms", lat4)
    # the signature lookup still decides: 7 classes, and every two-atom
    # label (all empty) is reported as a disagreement
    assert len(cat.classes) == 7
    assert len(cat.discrepancies) == 15
    assert {d["kind"] for d in cat.discrepancies} == {"existence"}
    context = cat.context
    empties = [Filter(context, context.poset.up_closure(mins))
               for mins in cat.empties]
    assert sorted(d["labels"] for d in cat.discrepancies) == sorted(
        [str(f)] for f in empties if len(f) == 2)


def test_cli_fails_on_empty_label_disagreement(monkeypatch, capsys):
    main(["classify", "--n", "4", "--context", "atoms", "--output", "json"])
    clean = capsys.readouterr().out
    _flip_carried(monkeypatch, _two_ideals)
    code = main(["classify", "--n", "4", "--context", "atoms",
                 "--output", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_INVARIANT
    assert "oracle cross-check FAILED" in captured.err
    assert captured.out == clean


def _flip_singletons(f):
    """class_exists, with the verdict of every one-ideal label inverted."""
    verdict = class_exists(f)
    return _flipped(verdict) if len(f) == 1 else verdict


@pytest.mark.parametrize("kind,n", [("k_part", 4), ("full", 3)])
def test_cli_fails_on_class_disagreement(monkeypatch, capsys, kind, n):
    # the one-ideal label is a class in both contexts (the top ideal's
    # filter): its flipped verdict must fail the run on its own
    argv = ["classify", "--n", str(n), "--context", kind, "--output", "json"]
    main(argv)
    clean = capsys.readouterr().out
    monkeypatch.setattr(classify, "class_exists", _flip_singletons)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INVARIANT
    assert "oracle cross-check FAILED" in captured.err
    assert captured.out == clean


def _one_class_mask(f):
    """class_exists, with every nonempty class given the same class mask."""
    verdict = class_exists(f)
    return replace(verdict, mask=1) if verdict.exists else verdict


def test_shared_class_mask_recorded(monkeypatch, lat4):
    monkeypatch.setattr(classify, "class_exists", _one_class_mask)
    cat = catalog_for("atoms", lat4)
    groups = signature_groups(cat.context)
    expected = [{"kind": "mask", "labels": [str(d.label)]}
                for d in cat.classes if groups[d.label.members] != 1]
    assert expected
    assert cat.discrepancies == expected


def _widened_mask(f):
    """class_exists, with the top partition added to every nonempty class
    mask that lacks it."""
    verdict = class_exists(f)
    top = 1 << f.context.lattice.top_index
    if verdict.exists and not verdict.mask & top:
        return replace(verdict, mask=verdict.mask | top)
    return verdict


def test_widened_class_mask_recorded(monkeypatch, capsys, lat4):
    # the widened masks stay nonzero and pairwise distinct, so only the
    # comparison with each label's signature group can see them
    argv = ["classify", "--n", "4", "--context", "coatoms", "--output", "json"]
    main(argv)
    clean = capsys.readouterr().out
    monkeypatch.setattr(classify, "class_exists", _widened_mask)
    discrepancies = catalog_for("coatoms", lat4).discrepancies
    assert discrepancies
    assert {d["kind"] for d in discrepancies} == {"mask"}
    assert main(["verify", "--n", "4"]) == EXIT_INVARIANT
    out = capsys.readouterr().out
    assert "FAIL oracle.atoms" in out
    assert "FAIL oracle.coatoms" in out
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INVARIANT
    assert "oracle cross-check FAILED" in captured.err
    assert captured.out == clean


def _lowest_index_witness(f):
    """class_exists, with the lowest-index partition of the class mask as
    the witness: in the class, but not always refinement-minimal."""
    verdict = class_exists(f)
    if verdict.exists:
        low = (verdict.mask & -verdict.mask).bit_length() - 1
        return replace(verdict, witness=low)
    return verdict


def test_non_minimal_witness_recorded(monkeypatch, capsys, lat4):
    context = k_producibility_context(lat4)
    expected = sorted([str(f)] for f in enumerate_filters(context)
                      if _lowest_index_witness(f) != class_exists(f))
    assert expected
    monkeypatch.setattr(classify, "class_exists", _lowest_index_witness)
    for discrepancies in (
            custom_catalog(context).discrepancies,
            oracle_cross_check(context,
                               enumerate_filters(context))["discrepancies"]):
        assert {d["kind"] for d in discrepancies} == {"witness"}
        assert sorted(d["labels"] for d in discrepancies) == expected
    assert main(["verify", "--n", "4", "--context", "k_prod"]) == EXIT_INVARIANT
    assert "FAIL oracle.k_prod" in capsys.readouterr().out


@pytest.mark.parametrize("flipped", ["↑{↓{12|3}, ↓{13|2}, ↓{1|23}}",
                                     "↑{↓{12|3}, ↓{13|2}}"])
def test_catalog_and_oracle_record_alike(monkeypatch, lat3, flipped):
    # one realized and one empty label of the non-chain atom context at
    # n=3; each check path must report its flipped verdict the same way.
    # A class's verdict is its class_exists record, an empty label's the
    # class mask the walk carried to it.
    context = atom_context(lat3)
    target = next(f.members for f in enumerate_filters(context)
                  if str(f) == flipped)

    def flip_one(f):
        verdict = class_exists(f)
        return _flipped(verdict) if str(f) == flipped else verdict

    if target in signature_groups(context):
        monkeypatch.setattr(classify, "class_exists", flip_one)
    else:
        _flip_carried(monkeypatch, lambda members: members == target)
    expected = [{"kind": "existence", "labels": [flipped]}]
    assert custom_catalog(context).discrepancies == expected
    report = oracle_cross_check(context, enumerate_filters(context))
    assert report["discrepancies"] == expected


def _first_type_only(f):
    """type_set, cut down to its first type (the witness, for a chain)."""
    types = type_set(f)
    return types & -types


def test_type_set_disagreement_recorded(monkeypatch, capsys, lat4):
    # verdicts, masks and witnesses stay consistent; only the type sets of
    # the classes with several types now differ from their groups
    monkeypatch.setattr(classify, "type_set", _first_type_only)
    context = k_partitionability_context(lat4)
    expected = sorted([str(f)] for f in enumerate_filters(context)
                      if type_set(f).bit_count() > 1)
    assert len(expected) == 2
    discrepancies = oracle_cross_check(
        context, enumerate_filters(context))["discrepancies"]
    assert {d["kind"] for d in discrepancies} == {"type_set"}
    assert sorted(d["labels"] for d in discrepancies) == expected
    assert main(["verify", "--n", "4", "--context", "k_part"]) == EXIT_INVARIANT
    assert "FAIL oracle.k_part" in capsys.readouterr().out


def reference_upsets(poset):
    """``Poset.upsets`` as it was before the walk carried any values, kept
    here only as the reference emission order."""
    order = poset.upset_order()
    strict = {e: poset.above[e] & ~(1 << e) for e in order}
    stack = [(0, 0)]
    while stack:
        t, acc = stack.pop()
        if t == len(order):
            if acc:
                yield acc
            continue
        e = order[t]
        if strict[e] & acc == strict[e]:
            stack.append((t + 1, acc | (1 << e)))
        stack.append((t + 1, acc))


def assert_walk_carries(context):
    """The walked labels come in the reference order, and each carries its
    minimal ideals and its class mask as computed from scratch."""
    walked = list(enumerate_filters(context))
    assert [f.members for f in walked] == list(reference_upsets(context.poset))
    for f in walked:
        mins = context.poset.minimal(f.members)
        assert f.minimal_ideals() == tuple(context.ideals[i]
                                           for i in bits(mins))
        assert class_mask(f) == meet_members(f) & ~complement_join_members(f)
        assert str(f) == str(Filter(context, f.members))


BUILT_IN_CONTEXTS = {
    "full": lambda lat: ideals.full_context(ideals.enumerate_ideals(lat)),
    "k_part": ideals.k_partitionability_context,
    "k_prod": ideals.k_producibility_context,
    "atoms": ideals.atom_context,
    "coatoms": ideals.coatom_context,
}


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in BUILT_IN_CONTEXTS
                                    for n in range(2, 6)
                                    if kind != "full" or n <= 3])
def test_walk_carries_built_in_labels(kind, n):
    assert_walk_carries(BUILT_IN_CONTEXTS[kind](_lattice(n)))


@settings(max_examples=60, deadline=None)
@given(custom_contexts())
def test_walk_carries_custom_labels(context):
    assert_walk_carries(context)


@pytest.mark.parametrize("output", ["json", "jsonl", "text"])
def test_classify_runs_no_type_set(monkeypatch, capsys, output):
    # catalog classes take their types from their signature groups
    def refuse(f):
        raise AssertionError(f"type_set called on {f}")

    monkeypatch.setattr(classify, "type_set", refuse)
    for kind in BUILT_IN_CONTEXTS:
        assert main(["classify", "--n", "4", "--context", kind,
                     "--output", output]) == EXIT_OK
    capsys.readouterr()


def _corrupt_first_empty(monkeypatch):
    """Make the label walk carry a nonempty class mask to its first empty
    label, by dropping that label's complement join (the filter meet left
    over holds the finest partition)."""
    walk = Poset._closed_sets

    def corrupted(self, rel, order, include_empty, weights=None, top=0):
        done = weights is None
        for members, mins, meet, join in walk(self, rel, order,
                                              include_empty, weights, top):
            if not done and not meet & ~join:
                done = True
                join = 0
            yield members, mins, meet, join

    monkeypatch.setattr(Poset, "_closed_sets", corrupted)


def test_corrupted_walk_mask_recorded(monkeypatch, capsys, lat4):
    argv = ["classify", "--n", "4", "--context", "atoms", "--output", "json"]
    first_empty = next(str(f) for f in enumerate_filters(atom_context(lat4))
                       if not class_mask(f))
    main(argv)
    clean = capsys.readouterr().out
    _corrupt_first_empty(monkeypatch)
    cat = catalog_for("atoms", lat4)
    assert cat.discrepancies == [{"kind": "existence",
                                  "labels": [first_empty]}]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INVARIANT
    assert "oracle cross-check FAILED" in captured.err
    assert captured.out == clean
    assert main(["verify", "--n", "4", "--context", "atoms"]) == EXIT_INVARIANT
    assert "FAIL oracle.atoms" in capsys.readouterr().out
