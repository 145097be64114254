"""Signature-first Level III against the filter-by-filter reference.

The antichain-style catalogs decide each label by looking up its signature
group.  These tests pin the catalog JSON bytes of every built-in kind and
the ``verify``, ``jsonl`` and Level III outputs, and compare the
signature path with the old path (``describe_class`` on every filter with
its ``type_set``, kept here only as the reference) and with ``type_set``.
``verify`` holds the catalog that ``classify`` prints to ``type_set``;
mutants of the walk, the verdicts and the finished catalog must fail it.
The minimal ideals and class masks that the label walk yields are
compared with the same values computed from scratch.
"""

import hashlib
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from corrclass import catalogs, classify, ideals
from corrclass.catalogs import (Catalog, catalog_for, catalog_json,
                                custom_catalog)
from corrclass.classify import (ClassDescriptor, Filter, class_exists,
                                class_mask, describe_class,
                                enumerate_filters, label_walk,
                                signature_groups, type_set)
from corrclass.cli import EXIT_INVARIANT, EXIT_OK, main
from corrclass.ideals import (PropertyContext, atom_context,
                              ideal_from_generators,
                              k_partitionability_context,
                              k_producibility_context)
from corrclass.partitions import enumerate_partitions
from corrclass.poset import Poset

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
    # recorded before lattice --level III read the label walk directly
    "lattice --n 1 --level III --output text": "a9bf14d88337f02570f03fb8e017b670c6ac22299a190f1a176cd0608accd042",
    "lattice --n 1 --level III --output json": "f17376c29f6fcee2cd87f4f8e8014990f7ad25b22098a4775b75f65d16814250",
    "lattice --n 1 --level III --output dot": "1dbd7be2203f08c00d7bef4cf4a33bc9329790db1194a065beeb86bb1f573ed8",
    "lattice --n 2 --level III --output text": "6e2e7b11a71ffa0dc89e34964762d63f46ef1827bab95aebf9173940ce610e72",
    "lattice --n 2 --level III --output json": "981af9be3ff0fc38f4a6765cf3ddbdc7e4f82e288bbfc6179dc9e930faad7910",
    "lattice --n 2 --level III --output dot": "cd28f1c088f04446ec26289dc69a473780c7733082455c93f896ebd42912aec2",
    "lattice --n 3 --level III --output text": "3e76adb37d25235309ee823345f140aa4534d07df692c18fda20cb7b096b4691",
    "lattice --n 3 --level III --output json": "0ea447dff63c3ccdba2f2ee323265db5121462b055e6ac87f305f8c576c6a478",
    "lattice --n 3 --level III --output dot": "60c6a62c31052aa3c23fc2e4b777de55f3b7e0dd68e2259b9efbd656856e9db0",
}


@pytest.mark.parametrize("args", sorted(CLI_SHA256))
def test_cli_outputs_pinned(capsys, args):
    code = main(args.split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_SHA256[args]


def oracle_types(f: Filter) -> int:
    """The label's ``type_set``, from its split."""
    return type_set(f.context.split(f.members))


def assert_catalog_meets_oracle(catalog: Catalog) -> None:
    """What ``verify`` holds a catalog to: no discrepancy, each class's
    ``type_set`` equal to its types, and each listed empty label's 0."""
    context = catalog.context
    assert catalog.discrepancies == []
    for d in catalog.classes:
        assert type_set(context.split(d.label.members)) == d.types
    for mins in catalog.empties:
        assert type_set(context.split(context.poset.up_closure(mins))) == 0


def reference_catalog(context: PropertyContext) -> Catalog:
    """The filter-by-filter path: describe_class on every label with its
    type_set, each empty label kept as its minimal mask, computed from
    scratch."""
    classes, empties = [], []
    for f in enumerate_filters(context):
        d = describe_class(f, oracle_types(f))
        if d.exists:
            classes.append(d)
        else:
            empties.append(context.poset.minimal(f.members))
    return Catalog("custom", context, classes, empties, True, [])


def fields(d: ClassDescriptor) -> tuple:
    """A record's fields, in constructor order, for comparing records."""
    return d.label, d.mask, d.witness, d.types


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
    assert list(map(fields, cat.classes)) == list(map(fields, ref.classes))
    assert list(cat.empties) == ref.empties
    assert list(cat.empties) == ref.empties  # read again, same labels
    assert len(cat.empties) == len(ref.empties)
    assert "".join(catalog_json(cat)) == "".join(catalog_json(ref))
    assert_catalog_meets_oracle(cat)
    groups = signature_groups(context)
    for f in enumerate_filters(context):
        assert groups.get(f.members, 0) == oracle_types(f)


def _flipped(verdict):
    """The verdict with its existence inverted through its class mask: 0
    for a nonempty class, a nonzero mask for an empty one."""
    return ClassDescriptor(verdict.label, 0 if verdict.exists else 1,
                           verdict.witness, verdict.types)


def _flip_carried(monkeypatch, flip, realized=False):
    """Make the label walk yield a nonempty class mask, every partition,
    for each empty label whose member mask satisfies ``flip``, or with
    ``realized`` the class mask 0 for each such realized label.  The
    catalog holds every carried mask to the label's signature group, so
    this reaches ``classify`` and, through its catalog, ``verify``."""
    walk = Poset.weighted_upsets

    def flipped(self, weights, top):
        for labels in walk(self, weights, top):
            out = []
            for members, mins, mask in labels:
                if flip(members) and bool(mask) == realized:
                    mask = 0 if realized else top
                out.append((members, mins, mask))
            yield out

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


def test_realized_label_disagreement_recorded(monkeypatch, capsys, lat4):
    # each one-atom label is realized; the walk carries it the class mask
    # 0, while its class record, built from scratch, stays right
    argv = ["classify", "--n", "4", "--context", "atoms", "--output", "json"]
    main(argv)
    clean = capsys.readouterr().out
    _flip_carried(monkeypatch, lambda members: members.bit_count() == 1,
                  realized=True)
    cat = catalog_for("atoms", lat4)
    assert len(cat.classes) == 7
    assert sorted(d["labels"] for d in cat.discrepancies) == sorted(
        [str(d.label)] for d in cat.classes if len(d.label) == 1)
    assert {d["kind"] for d in cat.discrepancies} == {"existence"}
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INVARIANT
    assert "oracle cross-check FAILED" in captured.err
    assert captured.out == clean
    assert main(["verify", "--n", "4", "--context", "atoms"]) == EXIT_INVARIANT
    assert "FAIL oracle.atoms (63 filters)" in capsys.readouterr().out


def _mutated_catalog(monkeypatch, mutate):
    """Make every catalog pass through ``mutate`` after its own
    cross-check, so only a later check can see the change."""
    build = catalogs.signature_catalog

    def mutated(kind, context):
        catalog = build(kind, context)
        mutate(catalog)
        return catalog

    monkeypatch.setattr(catalogs, "signature_catalog", mutated)


def _drop_a_type(catalog):
    """The last class record loses its lowest type."""
    d = catalog.classes[-1]
    d.types &= d.types - 1


def _realized_empty(catalog):
    """The first listed empty label becomes the first class's label."""
    poset = catalog.context.poset
    catalog.empties[0] = poset.minimal(catalog.classes[0].label.members)


@pytest.mark.parametrize("kind,mutate", [
    *((kind, _drop_a_type) for kind in ("k_part", "k_prod", "atoms",
                                        "coatoms")),
    ("atoms", _realized_empty), ("coatoms", _realized_empty)])
def test_verify_checks_the_printed_catalog(monkeypatch, capsys, kind, mutate):
    assert main(["verify", "--n", "4", "--context", kind]) == EXIT_OK
    clean = capsys.readouterr().out.splitlines()
    _mutated_catalog(monkeypatch, mutate)
    assert main(["verify", "--n", "4", "--context", kind]) == EXIT_INVARIANT
    lines = capsys.readouterr().out.splitlines()
    oracle = next(line for line in clean if line.startswith("PASS oracle."))
    assert lines == [line if line != oracle else "FAIL" + line[4:]
                     for line in clean]


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
    if verdict.exists:
        return ClassDescriptor(f, 1, verdict.witness, verdict.types)
    return verdict


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
        return ClassDescriptor(f, verdict.mask | top, verdict.witness,
                               verdict.types)
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
        return ClassDescriptor(f, verdict.mask, low, verdict.types)
    return verdict


def test_non_minimal_witness_recorded(monkeypatch, capsys, lat4):
    context = k_producibility_context(lat4)
    expected = sorted([str(f)] for f in enumerate_filters(context)
                      if fields(_lowest_index_witness(f))
                      != fields(class_exists(f)))
    assert expected
    monkeypatch.setattr(classify, "class_exists", _lowest_index_witness)
    discrepancies = custom_catalog(context).discrepancies
    assert {d["kind"] for d in discrepancies} == {"witness"}
    assert sorted(d["labels"] for d in discrepancies) == expected
    assert main(["verify", "--n", "4", "--context", "k_prod"]) == EXIT_INVARIANT
    assert "FAIL oracle.k_prod" in capsys.readouterr().out


@pytest.mark.parametrize("flipped", ["↑{↓{12|3}, ↓{13|2}, ↓{1|23}}",
                                     "↑{↓{12|3}, ↓{13|2}}"])
def test_catalog_and_oracle_record_alike(monkeypatch, capsys, lat3, flipped):
    # one realized and one empty label of the non-chain atom context at
    # n=3; the catalog must report its flipped verdict, and verify, which
    # checks that catalog, must fail.  A class's verdict is its
    # class_exists record, an empty label's the class mask the walk
    # carried to it.
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
    assert main(["verify", "--n", "3", "--context", "atoms"]) == EXIT_INVARIANT
    assert "FAIL oracle.atoms (7 filters)" in capsys.readouterr().out


def _first_type_only(split):
    """type_set, cut down to its first type (the witness, for a chain)."""
    types = type_set(split)
    return types & -types


def test_type_set_disagreement_recorded(monkeypatch, capsys, lat4):
    # verdicts, masks and witnesses stay consistent; only the type sets of
    # the classes with several types now differ from their groups
    monkeypatch.setattr(classify, "type_set", _first_type_only)
    context = k_partitionability_context(lat4)
    expected = sorted(str(f) for f in enumerate_filters(context)
                      if oracle_types(f).bit_count() > 1)
    assert len(expected) == 2
    cat = custom_catalog(context)
    assert cat.discrepancies == []
    assert sorted(str(d.label) for d in cat.classes if classify.type_set(
        context.split(d.label.members)) != d.types) == expected
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
    """The walk yields the labels in the reference order, each with its
    minimal ideals and its class mask as computed from scratch, and each
    walked filter carries that class mask."""
    walked = [label for labels in label_walk(context) for label in labels]
    filters = list(enumerate_filters(context))
    assert ([f.members for f in filters] == [u for u, *_ in walked]
            == list(reference_upsets(context.poset)))
    for f, (_, mins, mask) in zip(filters, walked):
        assert mins == context.poset.minimal(f.members)
        assert context.names_of(mins) == f.minimal_names()
        assert f.mask == mask == class_mask(f)


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
    def refuse(split):
        raise AssertionError(f"type_set called on {split}")

    monkeypatch.setattr(classify, "type_set", refuse)
    for kind in BUILT_IN_CONTEXTS:
        assert main(["classify", "--n", "4", "--context", kind,
                     "--output", output]) == EXIT_OK
    capsys.readouterr()


def _corrupt_first_empty(monkeypatch):
    """Make the label walk yield a nonempty class mask, every partition,
    for its first empty label."""
    walk = Poset._closed_sets

    def corrupted(self, rel, order, weights=None, top=0):
        done = weights is None
        for sets in walk(self, rel, order, weights, top):
            out = []
            for members, mins, mask in sets:
                if not done and not mask:
                    done = True
                    mask = top
                out.append((members, mins, mask))
            yield out

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
