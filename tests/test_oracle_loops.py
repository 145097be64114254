"""The per-label oracle and lemma functions against their generator forms,
and the byte tables they read.

``type_set`` and ``lemma_principal_check`` take a label's split: its
member and complement masks from ``PropertyContext.split``, which reads
them 8 ideals at a time from byte tables built from the context's
``masks``, with the filter meet, the complement join, the smallest member
ideal and the largest complement ideal.  ``verify`` splits each label
once and hands the split to both.  ``type_set`` tests only the partitions of
that smallest ideal outside that largest one, each by every membership.
The lemma tests each principal identity from its open side: only a
complement ideal can contain the meet, and only a member ideal can lie
inside the join.  ``meet_members`` and ``complement_join_members`` split
the masks in one pass of their own.  The references below are the same
functions written with ``bits`` walks over the member and complement
masks, every partition tested, and ``any()`` over the ideal tuples, kept
here only as references.  Every label must get identical results from
both, and every table entry must equal the plain loop over its ideals'
masks.
"""

from functools import lru_cache, reduce

import pytest
from hypothesis import given, settings

from corrclass import classify, ideals
from corrclass.cli import EXIT_INVARIANT, main
from corrclass.classify import (Filter, complement_join_members,
                                enumerate_filters, lemma_principal_check,
                                meet_members, type_set)
from corrclass.poset import bits

from test_signature import BUILT_IN_CONTEXTS, _lattice, custom_contexts


def reference_type_set(f):
    member_ideals = tuple(f.context.ideals[i] for i in bits(f.members))
    other_ideals = tuple(f.context.ideals[i] for i in bits(f.complement))
    out = 0
    for idx in range(len(f.context.lattice)):
        bit = 1 << idx
        if any(not ideal.members & bit for ideal in member_ideals):
            continue
        if any(ideal.members & bit for ideal in other_ideals):
            continue
        out |= bit
    return out


def reference_meet_members(f):
    ideals = f.context.ideals
    out = f.context.lattice.full_mask
    for i in bits(f.members):
        out &= ideals[i].members
    return out


def reference_complement_join_members(f):
    ideals = f.context.ideals
    out = 0
    for i in bits(f.complement):
        out |= ideals[i].members
    return out


def reference_lemma(f, universe=None):
    mf = reference_meet_members(f)
    jc = reference_complement_join_members(f)
    exists = mf & ~jc != 0
    up_in_context = 0
    down_in_context = 0
    for i, ideal in enumerate(f.context.ideals):
        if mf & ~ideal.members == 0:
            up_in_context |= 1 << i
        if ideal.members & ~jc == 0:
            down_in_context |= 1 << i
    report = {
        "exists": exists,
        "principal_up_matches": up_in_context == f.members,
        "principal_down_matches": down_in_context == f.complement,
    }
    ok = not exists or (report["principal_up_matches"]
                        and report["principal_down_matches"])
    if universe is not None:
        report["meet_in_universe"] = any(
            ideal.members == mf for ideal in universe.ideals)
        report["join_in_universe"] = jc == 0 or any(
            ideal.members == jc for ideal in universe.ideals)
        ok = (ok and report["meet_in_universe"]
              and report["join_in_universe"])
    report["ok"] = ok
    return report


@lru_cache(maxsize=None)
def _universe(n):
    """The ideal universe ``verify`` hands to the lemma (n <= 4)."""
    if n > ideals.FULL_ENUMERATION_MAX_N:
        return None
    return ideals.enumerate_ideals(_lattice(n))


def assert_loops_match(context, universe=None):
    """Every label gets the reference results.  Each label is rebuilt with
    a wrong class mask, which none of the functions may read."""
    full = context.lattice.full_mask
    for f in enumerate_filters(context):
        f = Filter._walked(context, f.members, full & ~f.mask)
        split = context.split(f.members)
        assert type_set(split) == reference_type_set(f)
        assert meet_members(f) == reference_meet_members(f)
        assert (complement_join_members(f)
                == reference_complement_join_members(f))
        assert (lemma_principal_check(split, universe)
                == reference_lemma(f, universe))


def assert_masks_are_the_ideals(context):
    """``masks`` holds each ideal's own member mask, by index."""
    assert type(context.masks) is tuple
    assert context.masks == tuple(i.members for i in context.ideals)
    assert all(mask is ideal.members
               for mask, ideal in zip(context.masks, context.ideals))


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in BUILT_IN_CONTEXTS
                                    for n in range(2, 6)
                                    if kind != "full" or n <= 4])
def test_masks_built_in(kind, n):
    assert_masks_are_the_ideals(BUILT_IN_CONTEXTS[kind](_lattice(n)))


@settings(max_examples=60, deadline=None)
@given(custom_contexts())
def test_masks_custom(context):
    assert_masks_are_the_ideals(context)


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in BUILT_IN_CONTEXTS
                                    for n in range(2, 6)
                                    if kind != "full" or n <= 3])
def test_loops_match_references_built_in(kind, n):
    assert_loops_match(BUILT_IN_CONTEXTS[kind](_lattice(n)), _universe(n))


@settings(max_examples=60, deadline=None)
@given(custom_contexts())
def test_loops_match_references_custom(context):
    assert_loops_match(context, _universe(context.lattice.n))


def assert_tables_are_the_loops(context):
    """Each entry of each run's byte table is the plain loop over the
    masks of the ideals in its byte."""
    full = context.lattice.full_mask
    masks = context.masks
    assert context._mask_tables is None
    tables = context._build_mask_tables()
    assert context._mask_tables is tables
    assert len(tables) == -(-len(masks) // 8)
    for chunk, table in enumerate(tables):
        run = masks[8 * chunk:8 * chunk + 8]
        assert len(table) == 1 << len(run)
        for byte, (got, meet, join, smallest, largest) in enumerate(table):
            want = tuple(run[i] for i in bits(byte))
            sizes = [mask.bit_count() for mask in want]
            assert got == want
            assert meet == reduce(int.__and__, want, full)
            assert join == reduce(int.__or__, want, 0)
            assert smallest.bit_count() == min(sizes,
                                               default=full.bit_count())
            assert largest.bit_count() == max(sizes, default=0)
            assert smallest in want or not want
            assert largest in want or not want


def assert_split_is_the_loop(context):
    """``split`` of every label is the plain loop over ``masks``."""
    for f in enumerate_filters(context):
        inside = tuple(context.masks[i] for i in bits(f.members))
        outside = tuple(context.masks[i] for i in bits(f.complement))
        got = context.split(f.members)
        assert got[:4] == (inside, outside, reference_meet_members(f),
                           reference_complement_join_members(f))
        assert got[4] in inside and got[5] in outside + (0,)
        assert got[4].bit_count() == min(m.bit_count() for m in inside)
        assert got[5].bit_count() == max((m.bit_count() for m in outside),
                                         default=0)


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in BUILT_IN_CONTEXTS
                                    for n in range(2, 6)
                                    if kind != "full" or n <= 4])
def test_tables_built_in(kind, n):
    assert_tables_are_the_loops(BUILT_IN_CONTEXTS[kind](_lattice(n)))


def test_tables_atoms_n7():
    """21 ideals: two full runs and a last run of 5, checked entry by
    entry without walking any label."""
    context = ideals.atom_context(_lattice(7))
    assert len(context) == 21
    assert_tables_are_the_loops(context)
    assert [len(t) for t in context._mask_tables] == [256, 256, 32]


@settings(max_examples=60, deadline=None)
@given(custom_contexts())
def test_tables_custom(context):
    assert_tables_are_the_loops(context)
    assert_split_is_the_loop(context)


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in BUILT_IN_CONTEXTS
                                    for n in range(2, 5)
                                    if kind != "full" or n <= 3])
def test_split_built_in(kind, n):
    assert_split_is_the_loop(BUILT_IN_CONTEXTS[kind](_lattice(n)))


def test_corrupt_table_entry_fails_verify(monkeypatch, capsys):
    """The signature groups catch an oracle that reads a wrong table: the
    entry of the first ideal alone is replaced by the empty byte's."""
    build = ideals.PropertyContext._build_mask_tables

    def corrupted(context):
        first, *rest = build(context)
        context._mask_tables = ((first[0], first[0], *first[2:]), *rest)
        return context._mask_tables

    monkeypatch.setattr(ideals.PropertyContext, "_build_mask_tables",
                        corrupted)
    code = main(["verify", "--n", "4", "--context", "atoms"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_INVARIANT
    assert "FAIL oracle.atoms (63 filters)" in lines


def test_verify_builds_tables_once_per_context(monkeypatch, capsys):
    """``verify --n 4`` splits the labels of four contexts (k_part,
    k_prod, atoms, coatoms); the ideal universe is looked up, never
    split."""
    build = ideals.PropertyContext._build_mask_tables
    built = []

    def counted(context):
        built.append(context)
        return build(context)

    monkeypatch.setattr(ideals.PropertyContext, "_build_mask_tables",
                        counted)
    assert main(["verify", "--n", "4"]) == 0
    capsys.readouterr()
    assert len(built) == len(set(map(id, built))) == 4


def test_verify_splits_each_label_once(monkeypatch, capsys):
    """``verify --n 4`` lists 4 + 4 + 63 + 127 labels (k_part, k_prod,
    atoms, coatoms), and hands each one's split to both ``type_set`` and
    the lemma."""
    counts = dict.fromkeys(["split", "type_set", "lemma"], 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ideals.PropertyContext, "split",
                        counted("split", ideals.PropertyContext.split))
    monkeypatch.setattr(classify, "type_set",
                        counted("type_set", classify.type_set))
    monkeypatch.setattr(classify, "lemma_principal_check",
                        counted("lemma", classify.lemma_principal_check))
    assert main(["verify", "--n", "4"]) == 0
    capsys.readouterr()
    assert counts == {"split": 198, "type_set": 198, "lemma": 198}
