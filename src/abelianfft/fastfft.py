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
    annihilator,
    coset_decompose,
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
        previous_set = None
        for depth, level in enumerate(self.levels):
            if level.parent != self.group:
                raise ValueError(f"tower level {depth} belongs to a different group")
            if level.order >= previous_order:
                raise ValueError(f"tower level {depth} does not shrink: {level.order} >= {previous_order}")
            if previous_order % level.order != 0:
                raise ValueError(f"tower level {depth} order {level.order} does not divide {previous_order}")
            if previous_set is not None and not set(level.members) <= previous_set:
                raise ValueError(f"tower level {depth} is not contained in level {depth - 1}")
            previous_order = level.order
            previous_set = set(level.members)

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
    """Peel one prime at a time from the leftmost unfinished factor, down to the trivial subgroup."""
    if group.order == 1:
        raise ValueError("the trivial group has no proper subgroup chain")
    divisors = [1] * group.rank
    levels: list[Subgroup] = []
    while True:
        position = next((i for i, (d, m) in enumerate(zip(divisors, group.moduli)) if d < m), None)
        if position is None:
            break
        divisors[position] *= _smallest_prime_factor(group.moduli[position] // divisors[position])
        members = _multiples_subgroup(group, divisors)
        levels.append(Subgroup(group, members))
    return SubgroupTower(group, tuple(levels))


def _multiples_subgroup(group: AbelianGroup, divisors: Sequence[int]) -> tuple[int, ...]:
    # Member indices of the subgroup d_1 Z_m1 x ... x d_r Z_mr: each coordinate divisible by its d_i.
    divisible = np.all(group.coords_table % np.asarray(divisors, dtype=np.int64) == 0, axis=1)
    return tuple(np.flatnonzero(divisible).tolist())


def predict_cost(order: int, suborder: int) -> int:
    """The single-split cost |G| (|H| + |G|/|H|) with constant 1."""
    if order < 1 or suborder < 1:
        raise ValueError("orders must be positive")
    if order % suborder != 0:
        raise ValueError(f"subgroup order {suborder} does not divide group order {order}")
    return order * (suborder + order // suborder)


def _char_matrix(group: AbelianGroup, labels: Sequence[int], args: Sequence[int]) -> np.ndarray:
    # chi_label(arg) for each label row and arg column, from exact integer phases.
    table = group.coords_table
    weighted = table[np.asarray(labels, dtype=np.int64)] * np.asarray(group.char_weights, dtype=np.int64)
    phases = (weighted @ table[np.asarray(args, dtype=np.int64)].T) % group.lcm
    return np.exp((2j * np.pi / group.lcm) * phases)


class _TowerPlan:
    """Per-level bookkeeping for the coset recursion.

    Sub-transform outputs are indexed by the distinct restrictions of the
    group's characters to that level, i.e. by cosets of the level's
    annihilator in the label group.  Class representatives are minimal, and
    each class maps into the class of the next level that contains it.
    """

    def __init__(self, group: AbelianGroup, tower: SubgroupTower) -> None:
        self.depth = len(tower.levels)
        member_lists = [np.arange(group.order)] + [level.members for level in tower.levels]

        # Label classes per level: level 0 is the full group, one class per label.
        class_reps: list[np.ndarray] = [np.arange(group.order, dtype=np.int64)]
        class_of: list[np.ndarray] = [np.arange(group.order, dtype=np.int64)]
        for level in tower.levels:
            ann = annihilator(group, level)
            dec = coset_decompose(group, ann)
            class_reps.append(np.asarray(dec.representatives, dtype=np.int64))
            class_of.append(np.asarray(dec.coset_of))

        self.coset_reps: list[np.ndarray] = []
        self.twiddles: list[np.ndarray] = []
        self.child_class: list[np.ndarray] = []
        for j in range(self.depth):
            # Minimal representative of each coset of the child level inside level j.
            reps = np.asarray(coset_decompose(group, tower.levels[j]).representatives, dtype=np.int64)
            reps = reps[np.isin(reps, member_lists[j])]
            self.coset_reps.append(reps)
            self.twiddles.append(_char_matrix(group, class_reps[j], reps))
            self.child_class.append(class_of[j + 1][class_reps[j]])

        base = tower.levels[-1]
        self.base_members = np.asarray(base.members, dtype=np.int64)
        self.base_table = _char_matrix(group, class_reps[self.depth], base.members)


def fft_tower(
    group: AbelianGroup, tower: SubgroupTower, f: Sequence[complex] | np.ndarray
) -> tuple[np.ndarray, OpCountReport]:
    """Transform by recursing on coset restrictions down the tower.

    Each level splits its domain into cosets of the next subgroup, transforms
    each restriction, and recombines sub-results with character twiddles; the
    overall 1/sqrt(|G|) scale is applied once at the end.
    """
    if tower.group != group:
        raise ValueError("tower belongs to a different group")
    vec = _as_vector(f, group.order)
    plan = _TowerPlan(group, tower)
    mults = 0
    adds = 0

    def recurse(depth: int, shift: int) -> np.ndarray:
        nonlocal mults, adds
        if depth == plan.depth:
            values = vec[group.translate(plan.base_members, shift)]
            out = plan.base_table @ values
            k = len(values)
            mults += k * k
            adds += k * (k - 1)
            return out
        reps = plan.coset_reps[depth]
        children = np.stack([recurse(depth + 1, child) for child in group.translate(reps, shift)])
        gathered = children[:, plan.child_class[depth]]
        out = np.sum(plan.twiddles[depth] * gathered.T, axis=1)
        mults += out.size * len(reps)
        adds += out.size * (len(reps) - 1)
        return out

    spectrum = recurse(0, 0) / sqrt(group.order)
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
    """Size-2^n transform by the even/odd coset split.

    Both halves of the butterfly carry the 1/sqrt(2) of their level, so each
    level of size 2^m performs exactly 2^m multiplies and 2^m adds.
    """
    if n < 0:
        raise ValueError(f"qubit count {n} must be nonnegative")
    vec = _as_vector(f, 1 << n)
    mults = 0
    adds = 0

    def recurse(values: np.ndarray) -> np.ndarray:
        nonlocal mults, adds
        size = values.shape[0]
        if size == 1:
            return values.copy()
        even = recurse(values[0::2])
        odd = recurse(values[1::2])
        scaled_even = even * _INV_SQRT2
        twisted_odd = odd * (_twiddle_table(size) * _INV_SQRT2)
        mults += size
        adds += size
        return np.concatenate((scaled_even + twisted_odd, scaled_even - twisted_odd))

    spectrum = recurse(vec)
    return spectrum, OpCountReport(mults, adds, n * (1 << n))


def walsh_hadamard(n: int, f: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Transform on (Z_2)^n: n 2^n adds via the per-bit in-place butterfly, one final scale."""
    if n < 0:
        raise ValueError(f"bit count {n} must be nonnegative")
    vec = _as_vector(f, 1 << n).copy()
    for bit in range(n):
        shaped = vec.reshape(-1, 2, 1 << bit)
        upper = shaped[:, 0, :].copy()
        lower = shaped[:, 1, :].copy()
        shaped[:, 0, :] = upper + lower
        shaped[:, 1, :] = upper - lower
    return vec / sqrt(1 << n)


def radix2_group(n: int) -> AbelianGroup:
    """The cyclic group of order 2^n."""
    return make_group([1 << n])


def boolean_group(n: int) -> AbelianGroup:
    """The product of n copies of Z_2 (the trivial group for n = 0)."""
    return make_group([2] * n if n else [1])
