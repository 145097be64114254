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
    """Subsets of a finite universe, labelled by the elements of a poset.

    The label order is held as rows, ``above[x]`` being the labels at or
    above label x; the checks read these rows.  A family made by
    :meth:`from_subsets` holds only the rows, and its :class:`Poset` is
    built from the subsets the first time :attr:`labels` is read.
    """

    __slots__ = ("universe_size", "assign", "above", "_labels")

    def __init__(self, universe_size: int, labels: Poset,
                 assign: Sequence[int]):
        self._fill(universe_size, assign, labels.above, labels)
        for y in range(labels.m):
            for x in range(labels.m):
                if labels.leq(y, x) != (self.assign[y] & ~self.assign[x] == 0):
                    raise EmbeddingViolation(
                        f"labels {y}, {x}: order and inclusion disagree")

    def _fill(self, universe_size: int, assign: Sequence[int],
              above: Sequence[int], labels: Poset | None) -> None:
        if len(assign) != len(above):
            raise ValueError("one subset per label is required")
        full = (1 << universe_size) - 1
        for a in assign:
            if a < 0 or a & ~full:
                raise ValueError("subset exceeds the universe")
        self.universe_size = universe_size
        self.assign = tuple(assign)
        self.above = above
        self._labels = labels

    @classmethod
    def from_subsets(cls, universe_size: int,
                     subsets: Sequence[int]) -> "LabeledFamily":
        """Derive the label order from inclusion; subsets must be distinct.

        The order is inclusion by construction, so it is not re-checked.
        It is held as inclusion rows, one pairwise pass over the subsets:
        label y is above label x when subset x lies inside subset y.  The
        :class:`Poset` is built on the first read of :attr:`labels`.
        """
        if len(set(subsets)) != len(subsets):
            raise EmbeddingViolation("duplicate subsets break antisymmetry")
        above = []
        for a in subsets:
            row = 0
            for y, b in enumerate(subsets):
                if not a & ~b:
                    row |= 1 << y
            above.append(row)
        fam = object.__new__(cls)
        fam._fill(universe_size, subsets, above, None)
        return fam

    @property
    def labels(self) -> Poset:
        """The label order as a :class:`Poset`, built on first read for a
        family made by :meth:`from_subsets`."""
        if self._labels is None:
            self._labels = Poset.by_inclusion(self.assign)
        return self._labels

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
        if label < 0 or label >> len(self.assign):
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
    everything above each of its labels, read from the family's order rows
    (``fam.above``), never from a :class:`Poset`.  Violations are
    collected, never expected.

    The lemma's other half, that a family covering the universe leaves the
    empty label's cell empty, needs no check: the empty label is a
    signature only when some point lies in no subset, and then the union
    misses that point, so the family does not cover.
    """
    signature = [0] * fam.universe_size
    union = 0
    for x, a in enumerate(fam.assign):
        union |= a
        while a:
            point = a & -a
            signature[point.bit_length() - 1] |= 1 << x
            a ^= point
    above = fam.above
    violations = []
    nonempty = sorted(set(signature))
    for label in nonempty:
        for x, up in enumerate(above):
            if label >> x & 1 and up & ~label:
                violations.append({"label": label, "reason": "not an up-set"})
                break
    return {
        "covering": union == fam.universe,
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
    # randint(a, b) is randrange(a, b + 1), which is a + _randbelow(b + 1 - a),
    # as is a + randrange(b + 1 - a): the stream of families per seed is
    # randint's, through one bound method
    randrange = rng.randrange
    universe_size = 1 + randrange(RANDOM_MAX_UNIVERSE)
    label_count = 1 + randrange(min(RANDOM_MAX_LABELS, 1 << universe_size))
    subsets: list[int] = []
    while len(subsets) < label_count:
        s = randrange(1 << universe_size)
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
