"""The per-label oracle and lemma functions against their generator forms.

``type_set``, ``meet_members`` and ``complement_join_members`` split a
label's ideals into member and complement masks in one pass over the
context's ``masks`` and test them in plain loops; ``type_set`` tests only
the partitions of the smallest member ideal outside the largest
complement ideal.  ``lemma_principal_check`` no longer calls
``meet_members`` or ``complement_join_members``: it computes the filter
meet and the complement join itself, in one pass over the same masks.
The references below are the same functions written with ``bits`` walks
over the member and complement masks, every partition tested, and
``any()`` over the ideal tuples, kept here only as references.  Every
label must get identical results from both.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings

from corrclass import ideals
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
    if universe is not None:
        between = any(
            mf & ~ideal.members == 0 and ideal.members & ~jc == 0
            for ideal in universe.ideals)
        report["separated_in_universe"] = not between
        report["separation_consistent"] = (not between) == exists
    if exists:
        report["ok"] = (report["principal_up_matches"]
                        and report["principal_down_matches"]
                        and report.get("separation_consistent", True))
    else:
        report["ok"] = report.get("separation_consistent", True)
    return report


@lru_cache(maxsize=None)
def _universe(n):
    """The ideal universe ``verify`` hands to the lemma (n <= 4)."""
    if n > ideals.FULL_ENUMERATION_MAX_N:
        return None
    return ideals.enumerate_ideals(_lattice(n))


def assert_loops_match(context, universe=None):
    """Every label gets the reference results.  Each label is rebuilt with
    a wrong class mask, which the oracle and the lemma must not read."""
    full = context.lattice.full_mask
    for f in enumerate_filters(context):
        f = Filter._walked(context, f.members, full & ~f.mask)
        assert type_set(f) == reference_type_set(f)
        assert meet_members(f) == reference_meet_members(f)
        assert (complement_join_members(f)
                == reference_complement_join_members(f))
        assert (lemma_principal_check(f, universe)
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
