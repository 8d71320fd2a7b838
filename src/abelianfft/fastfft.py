"""Fast group transforms: coset recursion over a subgroup tower, the radix-2 split as a
constant-geometry network whose bit reversal is one permutation of its output, and the
transform for (Z_2)^n, with exact tallies of complex multiplies and adds."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    _holds,
    _is_int,
    _orbit_min,
    _phases,
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
                if not _holds(previous, level._indices).all():
                    raise ValueError(f"tower level {depth} is not contained in level {depth - 1}")
            previous_order = level.order
            previous = level._indices

    @property
    def indices(self) -> tuple[int, ...]:
        orders = [self.group.order] + [level.order for level in self.levels]
        return tuple(orders[i] // orders[i + 1] for i in range(len(self.levels)))

    @cached_property
    def _plan(self) -> _TowerPlan:
        # The tower is immutable, so its plan is built on the first transform and shared after.
        return _TowerPlan(self)


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            return p
        p += 2
    return n


# build_tower keeps a tower only while |G| times the sum of its indices, which bounds the entries
# of its plan's twiddle tables, is at most this.
_HELD_ENTRIES = 1 << 21


def build_tower(group: AbelianGroup) -> SubgroupTower:
    """Peel one prime at a time from the leftmost unfinished factor, down to the trivial subgroup.

    Each level is d_1 Z_m1 x ... x d_r Z_mr for growing divisors d_i, found among the members
    of the level before it, so building the tower reads each coordinate column once per level
    only for the members still left.  The levels are subgroups by construction, so they skip
    Subgroup's closure check: their greedy generators are, in closed form, the d_i w_i with
    d_i < m_i (w_i the index weights) in ascending order, each the least member outside the
    closure of those before it.

    The towers of the last four small groups asked for are kept (the least recently used goes
    first), so a repeated group gets the same immutable tower back, with the plan fft_tower
    built on it.  A group is small when |G| times the sum of its tower's indices (the prime
    factors of its moduli) is at most 2^21: Z65536 and Z2^16 are, Z4093 is not.  A held tower
    with its plan takes at most about 16 B per unit of that product under tracemalloc (8.6 MiB
    for Z65536, 32 MiB for Z1447), so the four hold at most about 128 MiB.  A larger group's
    tower is built on every call and freed with the caller's last reference; a caller that
    keeps it still plans it once.
    """
    small = group.order <= _HELD_ENTRIES and group.order * _index_sum(group) <= _HELD_ENTRIES
    return _held_tower(group) if small else _peel_tower(group)


def _index_sum(group: AbelianGroup) -> int:
    # build_tower peels one prime at a time, so its indices are the moduli's prime factors.
    total = 0
    for m in group.moduli:
        while m > 1:
            p = _smallest_prime_factor(m)
            total, m = total + p, m // p
    return total


def _peel_tower(group: AbelianGroup) -> SubgroupTower:
    if group.order == 1:
        raise ValueError("the trivial group has no proper subgroup chain")
    members = np.arange(group.order, dtype=np.int64)
    levels: list[Subgroup] = []
    for position, m in enumerate(group.moduli):
        if m == 1:
            continue
        column = group.coords_table[:, position]
        # The factors after this one are whole (d_i = 1); their generators are the least.
        later = sorted(w for w, mi in zip(group.weights[position + 1:], group.moduli[position + 1:]) if mi > 1)
        divisor = 1
        while divisor < m:
            divisor *= _smallest_prime_factor(m // divisor)
            members = members[column[members] % np.int64(divisor) == 0]
            own = [divisor * group.weights[position]] if divisor < m else []
            levels.append(Subgroup._built(group, members, tuple(later + own)))
    return SubgroupTower(group, tuple(levels))


_held_tower = lru_cache(maxsize=4)(_peel_tower)


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
    each class maps into the class of the next level that contains it.  The
    classes are numbered, deepest level first, as (place in fibre) * below +
    child, below being the classes one level down and a fibre the classes over
    one of them, so every map is arange(classes) % below and a level's twiddles
    are (fibres, below, reps).  Only the top level, the labels, can end out of
    order: `spectrum_order` holds each label's place, the identity on every
    tower build_tower makes.

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
        level_reps, twiddles, class_below = [], [], []
        # Coset offsets of every node, one translate per level.
        shifts = np.zeros(1, dtype=np.int64)
        for level in tower.levels:
            index = len(above) // level.order
            # The labels trivial on the level, filtered one generator at a time: pairing every label
            # with every generator at once costs labels x rank x generators in int64 matmul.
            trivial_classes = np.searchsorted(labels, _annihilated(group, level.generators(), labels))
            # least[c]: the least class above merged with class c so far.  Greedy generators of
            # the trivial labels (modulo the classes above) each merge classes along their cycles,
            # as coset_decompose does, and key the members above by their phases.
            least = np.arange(len(labels))
            coset = None
            label_coords, above_coords = group._coords(labels), group._coords(above)
            while (pending := trivial_classes[least[trivial_classes] != 0]).size:
                gen = labels[pending[0]]
                step = class_of[group._shift(labels, gen)]
                least = _orbit_min(least, step, min(_element_order(group, gen), index))
                phase = _phases(group, above_coords, label_coords[pending[0]])
                coset = phase if coset is None else np.unique(coset * group.lcm + phase, return_inverse=True)[1]
            _, first = np.unique(coset, return_index=True)
            reps = above[np.sort(first)]
            is_least = least == np.arange(len(labels))
            child = (np.cumsum(is_least) - 1)[least]
            level_reps.append(reps)
            twiddles.append(_characters(group, label_coords, group._coords(reps)))
            class_below.append(child)
            shifts = group._shift(shifts[:, None], reps[None, :]).reshape(-1)
            above, labels, class_of = level._indices, labels[is_least], child[class_of]

        self.base_gather = group._shift(shifts[:, None], above[None, :])
        self.base_table = _characters(group, group._coords(labels), group._coords(above))
        # Renumber deepest first; a level whose map is already periodic keeps its twiddle table.
        place = everything[:len(labels)]
        for depth in reversed(range(len(twiddles))):
            child, below = place[class_below[depth]], len(place)
            place = everything[:len(child)]
            if not (child.reshape(-1, below) == place[:below]).all():
                order = np.argsort(child, kind="stable").reshape(below, -1).T.reshape(-1)
                place = np.argsort(order)
                twiddles[depth] = twiddles[depth][order]
            twiddles[depth] = twiddles[depth].reshape(-1, below, len(level_reps[depth]))
        # Every transform over the tower shares this plan, so none of it may be written.
        self.reps, self.twiddles, self.spectrum_order = tuple(level_reps), tuple(twiddles), place
        for array in (*self.reps, *self.twiddles, self.spectrum_order, self.base_gather, self.base_table):
            array.setflags(write=False)


# Upper bound on the entries of the (node, class, rep) block the upward pass combines at once.
_LEVEL_BLOCK_ENTRIES = 1 << 20
# Largest index whose level the upward pass combines rep by rep.  np.sum adds a row of up to three
# entries in order, but four or more pairwise, so only this far do both give the same bits.
_REP_BY_REP = 3


def fft_tower(
    group: AbelianGroup, tower: SubgroupTower, f: Sequence[complex] | np.ndarray
) -> tuple[np.ndarray, OpCountReport]:
    """Transform by the coset recursion down the tower, run one level at a time.

    Each level splits its domain into cosets of the next subgroup, transforms
    each restriction, and recombines sub-results with character twiddles; the
    overall 1/sqrt(|G|) scale is applied once at the end.  Everything that
    depends on the tower alone (coset offsets, label classes, twiddles) is
    planned first, once per tower: the plan is kept on the tower, read-only,
    and every later transform over it reads the same one.  The transform then
    gathers the input onto the deepest cosets, transforms them all in one
    product with the base table, and climbs back up, combining the nodes of a
    level in blocks of bounded size in the order the recursion would.  A
    class's child is its index modulo the classes below, so each level
    broadcasts its children against the twiddles, and one permutation puts
    the spectrum in label order.  The tallies count this execution, not the plan.
    """
    if tower.group != group:
        raise ValueError("tower belongs to a different group")
    vec = _as_vector(f, group.order)
    plan = tower._plan
    values = vec[plan.base_gather]
    k = values.shape[1]
    out = values @ plan.base_table.T
    mults = len(values) * k * k
    adds = len(values) * k * (k - 1)
    for twiddles in reversed(plan.twiddles):
        fibres, below, reps = twiddles.shape
        children = out.reshape(-1, reps, below)
        if reps <= _REP_BY_REP:
            # Add the reps' terms one at a time, in the order np.sum adds so few.
            out = twiddles[..., 0] * children[:, 0, None, :]
            for j in range(1, reps):
                out += twiddles[..., j] * children[:, j, None, :]
        else:
            out = np.empty((len(children), fibres, below), dtype=np.complex128)
            step = max(1, _LEVEL_BLOCK_ENTRIES // twiddles.size)
            for start in range(0, len(children), step):
                # (node, fibre, child, rep): each twiddle sum runs along the unit-stride rep axis, as the recursion's did.
                block = children[start:start + step].transpose(0, 2, 1)[:, None]
                out[start:start + step] = np.sum(twiddles * block, axis=3)
        mults += out.size * reps
        adds += out.size * (reps - 1)

    spectrum = out.reshape(-1)[plan.spectrum_order]
    spectrum /= sqrt(group.order)
    mults += group.order
    first = tower.levels[0].order
    report = OpCountReport(mults, adds, predict_cost(group.order, first))
    return spectrum, report


def _twiddle_table(size: int) -> np.ndarray:
    # w^j for j < size/2 with w = exp(2 pi i / size), built by repeated multiplication
    # and renormalised every 64 steps to stop drift in the modulus.  Not cached: the stage
    # tables below hold these values, and one cached form keeps the resident tables at
    # 16 B per entry of the largest transform.
    half = size // 2
    step = complex(np.exp(2j * np.pi / size))
    out = np.empty(half, dtype=np.complex128)
    current = 1.0 + 0.0j
    for j in range(half):
        if j and j % 64 == 0:
            current /= abs(current)
        out[j] = current
        current *= step
    return out


@lru_cache(maxsize=32)
def _stage_twiddles(stage: int) -> np.ndarray:
    # The odd half's factors of the size-2^(stage+1) butterflies, 1/sqrt(2) folded in, in
    # stage-bit-reversed order: the order in which the constant-geometry stage meets them.
    width = 1 << stage
    order = np.arange(width).reshape((2,) * stage).transpose().reshape(-1)
    out = (_twiddle_table(2 * width) * _INV_SQRT2)[order]
    out.setflags(write=False)
    return out


def fft_radix2(n: int, f: Sequence[complex] | np.ndarray) -> tuple[np.ndarray, OpCountReport]:
    """Size-2^n transform by the even/odd coset split, run as n butterfly stages.

    The stages form a constant-geometry network (Pease, J. ACM 15(2), 1968): stage k
    pairs the entries of the buffer's two contiguous halves, scales the first by
    1/sqrt(2) and the second by the twiddles of the size-2^(k+1) level (1/sqrt(2)
    folded in), and writes each pair's sum and difference side by side.  A twiddle
    depends only on the low k bits of its position, so one cached read-only table of
    2^k entries broadcasts over rows.  Each stage carries the combined bit from the
    top of the position to the bottom, so the input needs no permutation and the
    spectrum ends in bit-reversed order; one permutation of the output puts it back,
    as the compiled network's relabel mode defers its wire reversal to the end.  Every
    butterfly combines the operands of the textbook split (bit-reversed input, in-place
    butterflies) with the same arithmetic, so the spectrum has the same bytes, and each
    stage performs exactly 2^n multiplies and 2^n adds.  The stages alternate between
    two buffers, one of which returns as the spectrum; the caller's array is only read.
    """
    if not _is_int(n) or n < 0:
        raise ValueError(f"qubit count {n!r} must be a nonnegative integer")
    n = int(n)
    vec = _as_vector(f, 1 << n)
    half = vec.size // 2
    source, scaled, target = vec, np.empty_like(vec), np.empty_like(vec)
    for stage in range(n):
        rows = (-1, 1 << stage)
        np.multiply(source[:half], _INV_SQRT2, out=scaled[:half])
        np.multiply(source[half:].reshape(rows), _stage_twiddles(stage), out=scaled[half:].reshape(rows))
        np.add(scaled[:half], scaled[half:], out=target[0::2])
        np.subtract(scaled[:half], scaled[half:], out=target[1::2])
        # Every later stage scales its source where it lies: only stage 0 reads the caller's array.
        source, scaled, target = target, target, scaled
    np.copyto(target.reshape((2,) * n), source.reshape((2,) * n).transpose())
    return target, OpCountReport(n * vec.size, n * vec.size, n * vec.size)


def walsh_hadamard(n: int, f: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Transform on (Z_2)^n: n stages of 2^n adds, one final scale.

    Each stage is the constant-geometry butterfly: the sums of the adjacent pairs fill the first
    half of the next array and their differences the second.  That moves the bit it combines from
    the bottom of the index to the top, so stage k combines input bit k, as the per-bit butterfly
    does, with the same adds; after n stages every bit is back in place.  The stages alternate
    between two buffers and write contiguously, so the caller's array is only read.
    """
    if not _is_int(n) or n < 0:
        raise ValueError(f"bit count {n!r} must be a nonnegative integer")
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
