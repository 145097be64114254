"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single machine-greppable PASS/FAIL line.  Criterion 5
carries two deliberately failing assertions (marked xfail, strict): the
required closed form undercounts the atom-antichain classification, which
provably contains one extra nonempty class; the companion test pins the
computed truth.
"""

import random
import time
from math import comb

import pytest

from corrclass.catalogs import catalog_for
from corrclass.classify import (classes_equal, class_exists, describe_class,
                                enumerate_filters, make_filter,
                                lemma_principal_check, oracle_cross_check,
                                type_set)
from corrclass.ideals import (PropertyContext, enumerate_ideals, full_context,
                              principal_ideal)
from corrclass.partitions import Partition, enumerate_partitions
from corrclass.venn import (check_lemma_upset, counterexample_family,
                            generic_family, random_family,
                            three_label_posets)

SEED = 20260824


def report(num, ok, detail):
    print(f"criterion {num:>2} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def elapsed_ok(t0, bound):
    return time.monotonic() - t0 < bound


def test_criterion_01_partition_counts():
    t0 = time.monotonic()
    counts = [len(enumerate_partitions(n)) for n in range(1, 7)]
    ok = counts == [1, 2, 5, 15, 52, 203] and elapsed_ok(t0, 1)
    report(1, ok, f"partition counts n=1..6 are {counts}")


def test_criterion_02_finest_n3():
    t0 = time.monotonic()
    cat = catalog_for("full", enumerate_partitions(3))
    lattice = cat.lattice
    ok = len(cat.classes) == 5
    # labels are exactly the principal filters of principal ideals
    for d in cat.classes:
        mins = d.label.minimal_ideals()
        ok = ok and len(mins) == 1 and len(mins[0].maximal_partitions()) == 1
        ok = ok and d.types == mins[0].maximal_partitions()
    # pairwise unequal classes
    for i, a in enumerate(cat.classes):
        for b in cat.classes[i + 1:]:
            ok = ok and not classes_equal(a.label, b.label)
    shapes = sorted(d.types[0].shape() for d in cat.classes)
    ok = ok and shapes == [(1, 1, 1)] + [(2, 1)] * 3 + [(3,)]
    ok = ok and elapsed_ok(t0, 1)
    report(2, ok, "finest n=3: 5 classes, principal labels, 1+3+1 shapes")


def test_criterion_03_finest_n4():
    t0 = time.monotonic()
    cat = catalog_for("full", enumerate_partitions(4))
    by_shape = {}
    for d in cat.classes:
        assert len(d.types) == 1
        by_shape[d.types[0].shape()] = by_shape.get(d.types[0].shape(), 0) + 1
    ok = (len(cat.classes) == 15
          and by_shape == {(1, 1, 1, 1): 1, (2, 1, 1): 6, (2, 2): 3,
                           (3, 1): 4, (4,): 1}
          and elapsed_ok(t0, 10))
    report(3, ok, "finest n=4: 15 classes, 1+6+3+4+1 by shape")


def test_criterion_04_chain_catalogs():
    t0 = time.monotonic()
    ok = True
    for n in (3, 4, 5):
        lattice = enumerate_partitions(n)
        part = catalog_for("k_part", lattice)
        prod = catalog_for("k_prod", lattice)
        ok = ok and len(part.classes) == n and len(prod.classes) == n
    lattice = enumerate_partitions(4)
    part = catalog_for("k_part", lattice)
    prod = catalog_for("k_prod", lattice)
    # bottom-up: the 2-partitionable class is second from the top
    two_part = [d for d in part.classes
                if {p.parts_count for p in d.types} == {2}]
    ok = ok and len(two_part) == 1 and (
        sorted({p.shape() for p in two_part[0].types})
        == [(2, 2), (3, 1)])
    two_prod = [d for d in prod.classes
                if {p.max_part_size for p in d.types} == {2}]
    ok = ok and len(two_prod) == 1 and (
        sorted({p.shape() for p in two_prod[0].types})
        == [(2, 1, 1), (2, 2)])
    ok = ok and elapsed_ok(t0, 10)
    report(4, ok, "chains n=3,4,5: n classes each; n=4 type sets as listed")


@pytest.mark.xfail(
    strict=True,
    reason="the closed form misses one nonempty class: the label demanding "
           "every atom property at once is realized exactly by the finest "
           "partition, so the count is C(n,2)+1 and one multi-element "
           "label is nonempty")
def test_criterion_05_atom_antichain_literal():
    t0 = time.monotonic()
    ok = True
    for n in range(3, 7):
        cat = catalog_for("atoms", enumerate_partitions(n))
        ok = ok and len(cat.classes) == comb(n, 2)
        ok = ok and all(len(d.label) < 2 for d in cat.classes)
    ok = ok and elapsed_ok(t0, 30)
    report(5, ok, "atom antichain n=3..6: C(n,2) classes, all |label|>=2 empty")


def test_criterion_05_atom_antichain_computed():
    t0 = time.monotonic()
    ok = True
    for n in range(3, 7):
        cat = catalog_for("atoms", enumerate_partitions(n))
        singles = [d for d in cat.classes if len(d.label) == 1]
        full = [d for d in cat.classes if len(d.label) == comb(n, 2)]
        ok = ok and len(cat.classes) == comb(n, 2) + 1
        ok = ok and len(singles) == comb(n, 2) and len(full) == 1
        ok = ok and full[0].types == (Partition.bottom(n),)
        # every strictly intermediate label is empty
        ok = ok and all(len(d.label) in (1, comb(n, 2)) for d in cat.classes)
    ok = ok and elapsed_ok(t0, 30)
    report(5, ok, "atom antichain n=3..6 (computed): C(n,2)+1 classes; "
                  "only the all-properties label is nonempty beyond the "
                  "singletons")


def test_criterion_06_exhaustive_oracle_n3():
    t0 = time.monotonic()
    context = full_context(enumerate_ideals(enumerate_partitions(3)))
    filters = list(enumerate_filters(context))
    rep = oracle_cross_check(context, filters)
    ok = (rep["ok"] and rep["filters_checked"] == 20
          and elapsed_ok(t0, 60))
    report(6, ok, f"n=3 exhaustive: {rep['filters_checked']} filters, "
                  f"{len(rep['discrepancies'])} discrepancies")


def _random_subcontext(rng, ip):
    size = rng.randint(1, 8)
    chosen = rng.sample(range(len(ip.ideals)), size)
    return PropertyContext(ip.lattice, [ip.ideals[i] for i in chosen])


def _random_filter(rng, context):
    gens = rng.sample(range(len(context)),
                      rng.randint(1, min(3, len(context))))
    return make_filter(context, gens)


def test_criterion_07_sampled_oracle_n4(ip4):
    t0 = time.monotonic()
    discrepancies = 0
    filters_checked = 0
    nonempty_for_lemmas = []
    for kind in ("k_part", "k_prod", "atoms", "coatoms"):
        cat = catalog_for(kind, ip4.lattice)
        context = cat.context
        filters = list(enumerate_filters(context))
        rep = oracle_cross_check(context, filters)
        filters_checked += rep["filters_checked"]
        discrepancies += len(rep["discrepancies"])
    rng = random.Random(SEED)
    batch = 20
    while filters_checked < 10_000 + 63 + 127 + 4 + 4:
        context = _random_subcontext(rng, ip4)
        descriptors = [describe_class(_random_filter(rng, context))
                       for _ in range(batch)]
        filters_checked += batch
        for d in descriptors:
            if d.exists != bool(d.types):
                discrepancies += 1
            if d.exists and len(nonempty_for_lemmas) < 500:
                nonempty_for_lemmas.append(d.label)
        for i, a in enumerate(descriptors):
            for b in descriptors[i + 1:]:
                if classes_equal(a.label, b.label) != (a.types == b.types):
                    discrepancies += 1
    test_criterion_07_sampled_oracle_n4.nonempty = nonempty_for_lemmas
    ok = discrepancies == 0 and elapsed_ok(t0, 300)
    report(7, ok, f"n=4 sampled: {filters_checked} filters "
                  f"(4 catalogs + 10000 random), "
                  f"{discrepancies} discrepancies")


def test_criterion_08_lattice_identities(ip3, ip4):
    t0 = time.monotonic()
    failures = 0
    # principal-ideal intersections realize the meet, n <= 5
    for n in (2, 3, 4, 5):
        lattice = enumerate_partitions(n)
        principals = [principal_ideal(lattice, i)
                      for i in range(len(lattice))]
        for i in range(len(lattice)):
            for j in range(len(lattice)):
                k = lattice.meet_index(i, j)
                if (principals[i].members & principals[j].members
                        != principals[k].members):
                    failures += 1
    # ideal union/intersection are join/meet in the inclusion order
    def check_pair(ip, i, j):
        union = ip.ideals[i].members | ip.ideals[j].members
        inter = ip.ideals[i].members & ip.ideals[j].members
        return (ip.poset.join(i, j) == ip.index[union]
                and ip.poset.meet(i, j) == ip.index[inter])

    for i in range(len(ip3)):
        for j in range(len(ip3)):
            if not check_pair(ip3, i, j):
                failures += 1
    rng = random.Random(SEED)
    for _ in range(10_000):
        i = rng.randrange(len(ip4))
        j = rng.randrange(len(ip4))
        if not check_pair(ip4, i, j):
            failures += 1
    ok = failures == 0 and elapsed_ok(t0, 120)
    report(8, ok, f"meet/join identities: {failures} failures "
                  f"(principal pairs n<=5, ideal pairs n<=3 + 10000 random "
                  f"n=4)")


def test_criterion_09_principal_label_identities(ip3, ip4):
    t0 = time.monotonic()
    failures = 0
    checked = 0

    def check(f, universe):
        nonlocal failures, checked
        rep = lemma_principal_check(f, universe)
        if rep["exists"]:
            checked += 1
            if not rep["ok"]:
                failures += 1

    # every filter met in the n=3 exhaustive run
    ctx3 = full_context(ip3)
    for f in enumerate_filters(ctx3):
        check(f, ip3)
    # all four catalog contexts at n=3 and n=4
    for n, ip in ((3, ip3), (4, ip4)):
        for kind in ("k_part", "k_prod", "atoms", "coatoms"):
            cat = catalog_for(kind, ip.lattice)
            for f in enumerate_filters(cat.context):
                check(f, ip)
    # nonempty filters sampled during criterion 7
    sampled = getattr(test_criterion_07_sampled_oracle_n4, "nonempty", [])
    for f in sampled:
        check(f, ip4)
    ok = failures == 0 and checked > 0 and elapsed_ok(t0, 120)
    report(9, ok, f"principal-label identities: {checked} nonempty filters, "
                  f"{failures} failures (incl. {len(sampled)} sampled)")


def test_criterion_10_intersection_families():
    t0 = time.monotonic()
    failures = 0
    rng = random.Random(SEED)
    for _ in range(100):
        if not check_lemma_upset(random_family(rng))["ok"]:
            failures += 1
    posets = three_label_posets()
    if len(posets) != 5:
        failures += 1
    for p in posets:
        if not check_lemma_upset(generic_family(p))["ok"]:
            failures += 1
    fam = counterexample_family()
    witness_ok = (fam.labels.is_up_closed(0b001)
                  and fam.intersection_class(0b001) == 0
                  and check_lemma_upset(fam)["ok"])
    if not witness_ok:
        failures += 1
    ok = failures == 0 and elapsed_ok(t0, 10)
    report(10, ok, "intersection families: 100 random + 5 generic + "
                   "empty up-set-label witness")


def test_criterion_11_coatom_regression():
    t0 = time.monotonic()
    cat = catalog_for("coatoms", enumerate_partitions(4))
    rep = oracle_cross_check(cat.context,
                             (d.label for d in cat.classes))
    total = len(cat.classes) + len(cat.empties)
    ok = (total == 127 and rep["ok"]
          and len(cat.classes) == 14  # pinned regression value
          and elapsed_ok(t0, 10))
    report(11, ok, f"coatoms n=4: {total} filters examined, "
                   f"{len(cat.classes)} classes (pinned 14)")
