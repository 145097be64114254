"""Abstract intersection classes of labelled subset families.

A family assigns to every label of a finite poset a subset of an abstract
universe, such that the label order is exactly subset inclusion.  Every
subset of labels then names an intersection cell: the points inside all
chosen sets and outside all others.  Cells with non-up-closed labels are
empty for order reasons alone; up-closed labels can still be empty for
geometric reasons, which is what the counterexample family exhibits.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .poset import Poset, bits

RANDOM_MAX_UNIVERSE = 8  # points in a random_family universe, at most
RANDOM_MAX_LABELS = 4  # labels of a random_family, at most


class EmbeddingViolation(ValueError):
    """Label order and subset inclusion disagree."""


class LabeledFamily:
    """Subsets of a finite universe, labelled by the elements of a poset."""

    __slots__ = ("universe_size", "labels", "assign")

    def __init__(self, universe_size: int, labels: Poset,
                 assign: Sequence[int]):
        self._fill(universe_size, labels, assign)
        for y in range(labels.m):
            for x in range(labels.m):
                if labels.leq(y, x) != (self.assign[y] & ~self.assign[x] == 0):
                    raise EmbeddingViolation(
                        f"labels {y}, {x}: order and inclusion disagree")

    def _fill(self, universe_size: int, labels: Poset,
              assign: Sequence[int]) -> None:
        if len(assign) != labels.m:
            raise ValueError("one subset per label is required")
        full = (1 << universe_size) - 1
        for a in assign:
            if a < 0 or a & ~full:
                raise ValueError("subset exceeds the universe")
        self.universe_size = universe_size
        self.labels = labels
        self.assign = tuple(assign)

    @classmethod
    def from_subsets(cls, universe_size: int,
                     subsets: Sequence[int]) -> "LabeledFamily":
        """Derive the label order from inclusion; subsets must be distinct.

        The order is inclusion by construction, so it is not re-checked.
        """
        if len(set(subsets)) != len(subsets):
            raise EmbeddingViolation("duplicate subsets break antisymmetry")
        fam = object.__new__(cls)
        fam._fill(universe_size, Poset.by_inclusion(subsets), subsets)
        return fam

    @property
    def universe(self) -> int:
        return (1 << self.universe_size) - 1

    def covering(self) -> bool:
        out = 0
        for a in self.assign:
            out |= a
        return out == self.universe

    def intersection_class(self, label: int) -> int:
        """Points inside every chosen set and outside every other set.

        The empty intersection is the whole universe; in particular the
        all-labels cell needs no outside exclusion.  Cell by cell, this is
        the reference for the nonempty cells that :func:`check_lemma_upset`
        takes from the points' signatures.
        """
        if label < 0 or label >> self.labels.m:
            raise IndexError("label subset has bits outside the label poset")
        points = self.universe
        for x, a in enumerate(self.assign):
            if (label >> x) & 1:
                points &= a
            else:
                points &= ~a
        return points

def check_lemma_upset(fam: LabeledFamily) -> dict:
    """Every nonempty cell must carry an up-closed label.

    The nonempty cells are found point-first: a point's signature, the
    labels whose subset holds it, is the one label whose cell holds the
    point, so the nonempty labels are the distinct signatures, in
    ascending order.  The signatures and the union of the subsets come
    from one pass over the subsets, and a label is up-closed when it holds
    everything above each of its labels.  When the family covers the
    universe, the empty label is also ruled out.  Violations are
    collected, never expected.
    """
    signature = [0] * fam.universe_size
    union = 0
    for x, a in enumerate(fam.assign):
        union |= a
        while a:
            point = a & -a
            signature[point.bit_length() - 1] |= 1 << x
            a ^= point
    above = fam.labels.above
    violations = []
    nonempty = sorted(set(signature))
    covering = union == fam.universe
    for label in nonempty:
        for x, up in enumerate(above):
            if label >> x & 1 and up & ~label:
                violations.append({"label": label, "reason": "not an up-set"})
                break
        if covering and label == 0:
            violations.append({"label": label, "reason": "empty label covers"})
    return {
        "covering": covering,
        "nonempty_labels": nonempty,
        "violations": violations,
        "ok": not violations,
    }


def generic_family(p: Poset) -> LabeledFamily:
    """A family in general position: every up-set label gets its own point.

    Point k lies in exactly the sets whose label belongs to the k-th
    up-set; the empty up-set contributes an outside point, so the family
    never covers the universe.
    """
    upsets = [0, *p.upsets()]
    assign = [0] * p.m
    for k, u in enumerate(upsets):
        for x in bits(u):
            assign[x] |= 1 << k
    return LabeledFamily(len(upsets), p, assign)


def counterexample_family() -> LabeledFamily:
    """Three pairwise-incomparable labels with an up-set cell that is empty.

    The first set is covered by the union of the other two without being
    inside either, so the cell keeping only the first set has nowhere to
    live: empty, but not for order reasons.
    """
    # universe points 0..3; A = {0,1}, B = {0,2}, C = {1,3}
    return LabeledFamily.from_subsets(4, [0b0011, 0b0101, 0b1010])


def random_family(rng: random.Random) -> LabeledFamily:
    """A seeded random family; the label order is induced by inclusion."""
    # randrange(a, b + 1) is what randint(a, b) calls, so the stream of
    # families per seed is randint's, one call frame cheaper per draw
    universe_size = rng.randrange(1, RANDOM_MAX_UNIVERSE + 1)
    label_count = rng.randrange(
        1, min(RANDOM_MAX_LABELS, 1 << universe_size) + 1)
    subsets: list[int] = []
    while len(subsets) < label_count:
        s = rng.randrange(1 << universe_size)
        if s not in subsets:
            subsets.append(s)
    return LabeledFamily.from_subsets(universe_size, subsets)


def three_label_posets() -> list[Poset]:
    """All posets on three labels, one representative per isomorphism class.

    There are exactly five; generated by filtering all binary relations
    and canonicalizing under label permutations.
    """
    reps: dict[tuple[int, ...], Poset] = {}
    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    for chosen in itertools.chain.from_iterable(
            itertools.combinations(pairs, k) for k in range(len(pairs) + 1)):
        below = [1 << i for i in range(3)]
        for a, b in chosen:
            below[b] |= 1 << a
        try:
            p = Poset.from_leq(below)
        except ValueError:
            continue
        canon = min(
            tuple(sorted(_permuted(below, perm)))
            for perm in itertools.permutations(range(3)))
        if canon not in reps:
            reps[canon] = p
    out = list(reps.values())
    assert len(out) == 5
    return out


def _permuted(below: list[int], perm: tuple[int, ...]) -> list[int]:
    out = [0] * len(below)
    for i, mask in enumerate(below):
        for j in bits(mask):
            out[perm[i]] |= 1 << perm[j]
    return out
