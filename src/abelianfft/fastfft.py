"""Fast group transforms: coset recursion over a subgroup tower, the radix-2 split, and the
in-place transform for (Z_2)^n, with exact tallies of complex multiplies and adds."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from typing import Sequence

import numpy as np

from .dense import _as_vector
from .groups import (
    AbelianGroup,
    Subgroup,
    _annihilated,
    _characters,
    _element_order,
    _orbit_min,
    character_phases,
    make_group,
)

_INV_SQRT2 = 1.0 / sqrt(2.0)


@dataclass(frozen=True)
class OpCountReport:
    """Exact tallies of the complex arithmetic performed, plus the predicted cost with constant 1."""

    complex_multiplies: int
    complex_adds: int
    predicted_bound: int


@dataclass(frozen=True)
class SubgroupTower:
    """A strictly decreasing chain of subgroups used to split the transform into cosets.

    levels[0] is a proper subgroup of the group, each later level a proper
    subgroup of its predecessor.  The trivial subgroup may appear as the final
    level; a tower of just the trivial subgroup reproduces the direct sum.
    """

    group: AbelianGroup
    levels: tuple[Subgroup, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a tower needs at least one level")
        previous_order = self.group.order
        previous = None
        for depth, level in enumerate(self.levels):
            if level.parent != self.group:
                raise ValueError(f"tower level {depth} belongs to a different group")
            if level.order >= previous_order:
                raise ValueError(f"tower level {depth} does not shrink: {level.order} >= {previous_order}")
            if previous is not None:
                found = previous[np.minimum(np.searchsorted(previous, level._indices), len(previous) - 1)]
                if not np.array_equal(found, level._indices):
                    raise ValueError(f"tower level {depth} is not contained in level {depth - 1}")
            previous_order = level.order
            previous = level._indices

    @property
    def indices(self) -> tuple[int, ...]:
        orders = [self.group.order] + [level.order for level in self.levels]
        return tuple(orders[i] // orders[i + 1] for i in range(len(self.levels)))


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            return p
        p += 2
    return n


def build_tower(group: AbelianGroup) -> SubgroupTower:
    """Peel one prime at a time from the leftmost unfinished factor, down to the trivial subgroup.

    Each level is d_1 Z_m1 x ... x d_r Z_mr for growing divisors d_i, found among the members
    of the level before it, so building the tower reads each coordinate column once per level
    only for the members still left.
    """
    if group.order == 1:
        raise ValueError("the trivial group has no proper subgroup chain")
    members = np.arange(group.order, dtype=np.int64)
    levels: list[Subgroup] = []
    for position, m in enumerate(group.moduli):
        column = group.coords_table[:, position]
        divisor = 1
        while divisor < m:
            divisor *= _smallest_prime_factor(m // divisor)
            members = members[column[members] % np.int64(divisor) == 0]
            levels.append(Subgroup(group, members))
    return SubgroupTower(group, tuple(levels))


def predict_cost(order: int, suborder: int) -> int:
    """The single-split cost |G| (|H| + |G|/|H|) with constant 1."""
    if order < 1 or suborder < 1:
        raise ValueError("orders must be positive")
    if order % suborder != 0:
        raise ValueError(f"subgroup order {suborder} does not divide group order {order}")
    return order * (suborder + order // suborder)


class _TowerPlan:
    """Everything the coset recursion needs that depends on the tower alone.

    Sub-transform outputs are indexed by the distinct restrictions of the
    group's characters to that level, i.e. by cosets of the level's
    annihilator in the label group.  Class representatives are minimal, and
    each class maps into the class of the next level that contains it.

    The recursion's nodes at depth d are the cosets of level d-1 (level -1
    being the group), node i's children being nodes i*R .. i*R + R - 1 for
    the R coset representatives of that level.  `base_gather` holds, row by
    node, the input indices each deepest node transforms.

    Each level is planned from the one above it alone.  The labels trivial on
    the level, one per class above, stand for the characters of (level above) /
    level: translating by them merges the classes above into the level's
    classes, and their phases on the members above tell the level's cosets
    apart.  So a level costs O(|level above|) translates and phases plus one
    O(|G|) relabelling, and nothing runs once per generator over the whole group.
    """

    def __init__(self, tower: SubgroupTower) -> None:
        group = tower.group
        everything = np.arange(group.order, dtype=np.int64)
        # The level above: its members, the least label of each of its classes (ascending, so a
        # class is numbered by its least label), and the class of every label.
        above, labels, class_of = everything, everything, everything
        # Per level: the minimal representative of each of its cosets in the level above, the
        # twiddles of those representatives, and the class below of each class above.
        self.reps: list[np.ndarray] = []
        self.twiddles: list[np.ndarray] = []
        self.child_class: list[np.ndarray] = []
        # Coset offsets of every node, one translate per level.
        shifts = np.zeros(1, dtype=np.int64)
        for level in tower.levels:
            index = len(above) // level.order
            trivial = _annihilated(group, level.generators(), labels)
            # least[c]: the least class above merged with class c so far.  Greedy generators of
            # the trivial labels (modulo the classes above) each merge classes along their cycles,
            # as coset_decompose does, and key the members above by their phases.
            least = np.arange(len(labels))
            coset = None
            trivial_classes = np.searchsorted(labels, trivial)
            while (pending := trivial_classes[least[trivial_classes] != 0]).size:
                gen = int(labels[pending[0]])
                step = class_of[group.translate(labels, gen)]
                least = _orbit_min(least, step, min(_element_order(group, gen), index))
                phase = character_phases(group, gen, above)
                coset = phase if coset is None else np.unique(coset * group.lcm + phase, return_inverse=True)[1]
            _, first = np.unique(coset, return_index=True)
            reps = above[np.sort(first)]
            is_least = least == np.arange(len(labels))
            child = (np.cumsum(is_least) - 1)[least]
            self.reps.append(reps)
            self.twiddles.append(_characters(group, group._coords(labels), group._coords(reps)))
            self.child_class.append(child)
            shifts = group.translate(shifts[:, None], reps[None, :]).reshape(-1)
            above, labels, class_of = level._indices, labels[is_least], child[class_of]

        self.base_gather = group.translate(shifts[:, None], above[None, :])
        self.base_table = _characters(group, group._coords(labels), group._coords(above))


# Upper bound on the entries of the (node, class, rep) block the upward pass combines at once.
_LEVEL_BLOCK_ENTRIES = 1 << 20


def fft_tower(
    group: AbelianGroup, tower: SubgroupTower, f: Sequence[complex] | np.ndarray
) -> tuple[np.ndarray, OpCountReport]:
    """Transform by the coset recursion down the tower, run one level at a time.

    Each level splits its domain into cosets of the next subgroup, transforms
    each restriction, and recombines sub-results with character twiddles; the
    overall 1/sqrt(|G|) scale is applied once at the end.  Everything that
    depends on the tower alone (coset offsets, label classes, twiddles) is
    planned first, once per call.  The transform then gathers the input onto
    the deepest cosets, transforms them all in one product with the base
    table, and climbs back up, combining the nodes of a level in blocks of
    bounded size in the order the recursion would.  The tallies count this
    execution, not the plan.
    """
    if tower.group != group:
        raise ValueError("tower belongs to a different group")
    vec = _as_vector(f, group.order)
    plan = _TowerPlan(tower)
    values = vec[plan.base_gather]
    k = values.shape[1]
    out = values @ plan.base_table.T
    mults = len(values) * k * k
    adds = len(values) * k * (k - 1)
    for twiddles, child_class in zip(reversed(plan.twiddles), reversed(plan.child_class)):
        classes, reps = twiddles.shape
        children = out.reshape(-1, reps, out.shape[1])
        out = np.empty((len(children), classes), dtype=np.complex128)
        step = max(1, _LEVEL_BLOCK_ENTRIES // twiddles.size)
        for start in range(0, len(children), step):
            # (node, class, rep): each twiddle sum runs along the unit-stride rep axis, as the recursion's did.
            block = children[start:start + step].transpose(0, 2, 1)[:, child_class]
            out[start:start + step] = np.sum(twiddles * block, axis=2)
        mults += out.size * reps
        adds += out.size * (reps - 1)

    spectrum = out[0] / sqrt(group.order)
    mults += group.order
    first = tower.levels[0].order
    report = OpCountReport(mults, adds, predict_cost(group.order, first))
    return spectrum, report


@lru_cache(maxsize=32)
def _twiddle_table(size: int) -> np.ndarray:
    # w^j for j < size/2 with w = exp(2 pi i / size), built by repeated multiplication
    # and renormalised every 64 steps to stop drift in the modulus.
    half = size // 2
    step = complex(np.exp(2j * np.pi / size))
    out = np.empty(half, dtype=np.complex128)
    current = 1.0 + 0.0j
    for j in range(half):
        if j and j % 64 == 0:
            current /= abs(current)
        out[j] = current
        current *= step
    out.setflags(write=False)
    return out


def fft_radix2(n: int, f: Sequence[complex] | np.ndarray) -> tuple[np.ndarray, OpCountReport]:
    """Size-2^n transform by the even/odd coset split, run as n butterfly stages.

    The input is permuted into bit-reversed order (a transpose of its n binary
    axes), where every run of 2^m entries holds the inputs of one size-2^m
    sub-transform; stage m then combines the two halves of every run at once.
    Both halves of the butterfly carry the 1/sqrt(2) of their level, so each
    stage performs exactly 2^n multiplies and 2^n adds.
    """
    if n < 0:
        raise ValueError(f"qubit count {n} must be nonnegative")
    vec = _as_vector(f, 1 << n)
    data = vec.reshape((2,) * n).transpose().flatten()
    mults = 0
    adds = 0
    for level in range(1, n + 1):
        size = 1 << level
        halves = data.reshape(-1, 2, size // 2)
        scaled_even = halves[:, 0] * _INV_SQRT2
        twisted_odd = halves[:, 1] * (_twiddle_table(size) * _INV_SQRT2)
        data = np.concatenate((scaled_even + twisted_odd, scaled_even - twisted_odd), axis=1)
        mults += data.size
        adds += data.size
    return data.reshape(-1), OpCountReport(mults, adds, n * (1 << n))


def walsh_hadamard(n: int, f: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Transform on (Z_2)^n: n stages of 2^n adds, one final scale.

    Each stage is the constant-geometry butterfly: the sums of the adjacent pairs fill the first
    half of the next array and their differences the second.  That moves the bit it combines from
    the bottom of the index to the top, so stage k combines input bit k, as the per-bit butterfly
    does, with the same adds; after n stages every bit is back in place.  The stages alternate
    between two buffers and write contiguously, so the caller's array is only read.
    """
    if n < 0:
        raise ValueError(f"bit count {n} must be nonnegative")
    vec = _as_vector(f, 1 << n)
    buffers = [np.empty_like(vec) for _ in range(min(n, 2))]
    half = vec.size // 2
    for stage in range(n):
        target = buffers[stage % 2]
        np.add(vec[0::2], vec[1::2], out=target[:half])
        np.subtract(vec[0::2], vec[1::2], out=target[half:])
        vec = target
    return np.divide(vec, sqrt(1 << n), out=vec if n else None)


def radix2_group(n: int) -> AbelianGroup:
    """The cyclic group of order 2^n."""
    return make_group([1 << n])


def boolean_group(n: int) -> AbelianGroup:
    """The product of n copies of Z_2 (the trivial group for n = 0)."""
    return make_group([2] * n if n else [1])
