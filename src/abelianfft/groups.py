"""Finite abelian groups as products of cyclic factors: elements, characters, subgroups, cosets."""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm, prod
from typing import Iterable, Sequence

import numpy as np

Coords = tuple[int, ...]
Indices = int | Sequence[int] | np.ndarray

# Element indices must fit in a signed 64-bit integer so numpy index math stays exact.
MAX_ORDER = 2**63 - 1


@dataclass(frozen=True)
class AbelianGroup:
    """The product Z_m1 x ... x Z_mr with componentwise addition.

    Elements are coordinate tuples (a_1, ..., a_r) with 0 <= a_i < m_i.  The
    element index is mixed-radix with the FIRST factor most significant, so
    Z_2 x Z_3 orders its elements (0,0), (0,1), (0,2), (1,0), (1,1), (1,2).
    """

    moduli: Coords

    def __post_init__(self) -> None:
        if not isinstance(self.moduli, tuple):
            object.__setattr__(self, "moduli", tuple(self.moduli))
        if len(self.moduli) == 0:
            raise ValueError("a group needs at least one cyclic factor")
        for m in self.moduli:
            if not isinstance(m, int) or m < 1:
                raise ValueError(f"modulus {m!r} is not a positive integer")
        order = prod(self.moduli)
        if order > MAX_ORDER:
            raise ValueError(f"group order {order} exceeds the 64-bit index limit {MAX_ORDER}")

    @cached_property
    def order(self) -> int:
        return prod(self.moduli)

    @cached_property
    def rank(self) -> int:
        return len(self.moduli)

    @cached_property
    def weights(self) -> Coords:
        """Mixed-radix place value of each coordinate (first factor most significant)."""
        out = []
        acc = 1
        for m in reversed(self.moduli):
            out.append(acc)
            acc *= m
        return tuple(reversed(out))

    @cached_property
    def lcm(self) -> int:
        """Least common multiple of the factor orders: every character is an lcm-th root of unity."""
        return lcm(*self.moduli)

    @cached_property
    def char_weights(self) -> Coords:
        """Per-factor multiplier lcm/m_i used to express character phases over a common denominator."""
        return tuple(self.lcm // m for m in self.moduli)

    @cached_property
    def coords_table(self) -> np.ndarray:
        """Coordinates of every element by index, shape (order, rank).  Read-only."""
        table = self._coords(np.arange(self.order, dtype=np.int64))
        table.setflags(write=False)
        return table

    def validate_coords(self, a: Sequence[int]) -> Coords:
        a = tuple(a)
        if len(a) != self.rank:
            raise ValueError(f"element {a} has {len(a)} coordinates, expected {self.rank}")
        for x, m in zip(a, self.moduli):
            if not isinstance(x, (int, np.integer)) or not 0 <= x < m:
                raise ValueError(f"coordinate {x!r} out of range for modulus {m}")
        return tuple(int(x) for x in a)

    def index_of(self, a: Sequence[int]) -> int:
        a = self.validate_coords(a)
        return sum(x * w for x, w in zip(a, self.weights))

    def coords_of(self, index: int) -> Coords:
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range for group of order {self.order}")
        return tuple((index // w) % m for m, w in zip(self.moduli, self.weights))

    def add(self, a: Sequence[int], b: Sequence[int]) -> Coords:
        a = self.validate_coords(a)
        b = self.validate_coords(b)
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a: Sequence[int]) -> Coords:
        a = self.validate_coords(a)
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    @cached_property
    def _radix(self) -> tuple[np.ndarray, np.ndarray]:
        # Moduli and place values as int64 arrays, matched to a trailing coordinate axis.
        return np.asarray(self.moduli, dtype=np.int64), np.asarray(self.weights, dtype=np.int64)

    def _coords(self, indices: Indices) -> np.ndarray:
        # Coordinates of each index along a new last axis; rejects non-integer or out-of-range input.
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"element indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.int64, copy=False)
        if idx.size and (idx.min() < 0 or idx.max() >= self.order):
            outside = idx[(idx < 0) | (idx >= self.order)]
            raise ValueError(f"element index {outside[0]} out of range for group of order {self.order}")
        moduli, weights = self._radix
        return (idx[..., None] // weights) % moduli

    def translate(self, indices: Indices, shift: Indices) -> np.ndarray:
        """Indices of the sums indices + shift, elementwise with numpy broadcasting.

        Raises ValueError on non-integer or out-of-range indices instead of letting
        numpy wrap negative ones.
        """
        moduli, _ = self._radix
        # a - (m - b) keeps every intermediate inside int64 even for moduli near 2**63.
        return self._index(self._coords(indices) - (moduli - self._coords(shift)))

    def negate(self, indices: Indices) -> np.ndarray:
        """Indices of the inverses -indices, elementwise, validated as in translate."""
        moduli, _ = self._radix
        return self._index(moduli - self._coords(indices))

    def _index(self, coords: np.ndarray) -> np.ndarray:
        # Element indices of coordinates on the last axis, reduced modulo the factor orders.
        moduli, weights = self._radix
        return (coords % moduli) @ weights

    def add_index(self, i: int, j: int) -> int:
        """Validated scalar form of translate."""
        return int(self.translate(i, j))

    def neg_index(self, i: int) -> int:
        """Validated scalar form of negate."""
        return int(self.negate(i))

    @property
    def is_cyclic_power_of_two(self) -> bool:
        """True for Z_(2^n) with n >= 1."""
        return self.rank == 1 and self.order > 1 and self.order & (self.order - 1) == 0

    @property
    def is_boolean(self) -> bool:
        """True for a product of Z2 factors."""
        return all(m == 2 for m in self.moduli)

    def spec_string(self) -> str:
        return "x".join(f"Z{m}" for m in self.moduli)


def make_group(moduli: Sequence[int]) -> AbelianGroup:
    """Build the product group with the given cyclic factor orders."""
    return AbelianGroup(tuple(moduli))


_FACTOR_RE = re.compile(r"^[Zz](\d+)(?:\^(\d+))?$")


def parse_group_spec(text: str) -> AbelianGroup:
    """Parse a group description like "Z4", "Z2xZ3" or "Z2^3"."""
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise ValueError("empty group description")
    moduli: list[int] = []
    for token in re.split(r"[xX]", cleaned):
        m = _FACTOR_RE.match(token)
        if m is None:
            raise ValueError(f"bad group factor {token!r} in {text!r} (expected Z<m> or Z<m>^<k>)")
        base = int(m.group(1))
        power = int(m.group(2)) if m.group(2) else 1
        if base < 1:
            raise ValueError(f"bad group factor {token!r}: modulus must be >= 1")
        if power < 1:
            raise ValueError(f"bad group factor {token!r}: exponent must be >= 1")
        moduli.extend([base] * power)
    return make_group(moduli)


def character_phase(group: AbelianGroup, label: Sequence[int], arg: Sequence[int]) -> int:
    """Integer numerator p in [0, lcm) such that chi_label(arg) = exp(2 pi i p / lcm)."""
    label = group.validate_coords(label)
    arg = group.validate_coords(arg)
    total = 0
    for a, b, w in zip(label, arg, group.char_weights):
        total += a * b * w
    return total % group.lcm


def character_eval(group: AbelianGroup, label: Sequence[int], arg: Sequence[int]) -> complex:
    """chi_label(arg) = exp(2 pi i sum_i a_i b_i / m_i), evaluated from an exact integer phase."""
    return complex(np.exp(2j * np.pi * character_phase(group, label, arg) / group.lcm))


def character_phases(group: AbelianGroup, label: int | Sequence[int]) -> np.ndarray:
    """Integer phase numerators of chi_label over every element, in index order."""
    coords = group.coords_of(label) if isinstance(label, (int, np.integer)) else group.validate_coords(label)
    mult = np.array([c * w for c, w in zip(coords, group.char_weights)], dtype=np.int64)
    return (group.coords_table @ mult) % group.lcm


def _mask_of(group: AbelianGroup, indices: Iterable[int] | np.ndarray) -> np.ndarray:
    mask = np.zeros(group.order, dtype=bool)
    mask[np.asarray(indices, dtype=np.int64)] = True
    return mask


def _annihilated_mask(group: AbelianGroup, labels: Iterable[int]) -> np.ndarray:
    # Mask of the elements x with chi_l(x) = 1 for every given label l, in exact integer arithmetic.
    mask = np.ones(group.order, dtype=bool)
    for label in labels:
        mask &= character_phases(group, label) == 0
    return mask


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by the sorted element indices of its members."""

    parent: AbelianGroup
    members: tuple[int, ...]
    # Greedy generators, found while checking closure.
    _generators: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        members = tuple(sorted(set(int(i) for i in self.members)))
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("a subgroup cannot be empty")
        for i in (members[0], members[-1]):
            if not 0 <= i < self.parent.order:
                raise ValueError(f"member index {i} out of range for group of order {self.parent.order}")
        if members[0] != 0:
            raise ValueError("a subgroup must contain the identity element 0")
        idx = np.asarray(members, dtype=np.int64)
        mask = _mask_of(self.parent, idx)
        lacking = idx[~mask[self.parent.negate(idx)]]
        if lacking.size:
            raise ValueError(f"member {lacking[0]} has no inverse in the set: not closed under negation")
        gens, closure = _greedy_closure(self.parent, mask)
        if not np.array_equal(closure, mask):
            missing = np.flatnonzero(closure & ~mask)[:4].tolist()
            raise ValueError(f"member set is not closed under addition (missing {missing})")
        if self.parent.order % len(members) != 0:
            raise ValueError(f"subgroup size {len(members)} does not divide group order {self.parent.order}")
        object.__setattr__(self, "_generators", tuple(gens))

    @cached_property
    def order(self) -> int:
        return len(self.members)

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __contains__(self, index: int) -> bool:
        return index in self.member_set

    def generators(self) -> tuple[int, ...]:
        """A small generating set of member indices, chosen greedily."""
        return self._generators


def _extend_closure(group: AbelianGroup, mask: np.ndarray, gen: int) -> None:
    # Closure of a subgroup mask H and gen, in place: H + {0 .. 2^s - 1} gen doubles each step
    # until a shift adds nothing, which happens once 2^s reaches the index of gen modulo H.
    step = gen
    while True:
        shifted = group.translate(np.flatnonzero(mask), step)
        if mask[shifted].all():
            return
        mask[shifted] = True
        step = group.translate(step, step)


def _greedy_closure(group: AbelianGroup, candidates: np.ndarray) -> tuple[list[int], np.ndarray]:
    # Greedy generators of the candidate mask (each the smallest candidate outside the closure
    # so far) and the mask of their closure.
    closure = _mask_of(group, [0])
    gens: list[int] = []
    while True:
        pending = np.flatnonzero(candidates & ~closure)
        if not pending.size:
            return gens, closure
        gens.append(int(pending[0]))
        _extend_closure(group, closure, gens[-1])


def subgroup_from_generators(group: AbelianGroup, generators: Iterable[Sequence[int]]) -> Subgroup:
    """The smallest subgroup containing the given elements (coordinate tuples)."""
    _, closure = _greedy_closure(group, _mask_of(group, [group.index_of(g) for g in generators]))
    return Subgroup(group, tuple(np.flatnonzero(closure).tolist()))


def trivial_subgroup(group: AbelianGroup) -> Subgroup:
    return Subgroup(group, (0,))


def full_subgroup(group: AbelianGroup) -> Subgroup:
    return Subgroup(group, tuple(range(group.order)))


@dataclass(frozen=True)
class CosetDecomposition:
    """Cosets of a subgroup: representatives plus, per element, its coset and its offset within it.

    Representatives are the minimal element index of each coset, listed in
    increasing order.  For element e: e = representatives[coset_of[e]] + H.members[slot_of[e]].
    """

    group: AbelianGroup
    subgroup: Subgroup
    representatives: tuple[int, ...]
    coset_of: np.ndarray
    slot_of: np.ndarray


def coset_decompose(group: AbelianGroup, subgroup: Subgroup) -> CosetDecomposition:
    """Partition the group into cosets of the subgroup."""
    if subgroup.parent != group:
        raise ValueError("subgroup belongs to a different group")
    elements = np.arange(group.order, dtype=np.int64)
    # rep[e] = min(e + H): fold each generator's cycle in by doubling the window of multiples.
    rep = elements
    for gen in subgroup.generators():
        cycle = lcm(*(m // gcd(c, m) for c, m in zip(group.coords_of(gen), group.moduli)))
        step, window = group.translate(elements, gen), 1
        while window < cycle:
            rep = np.minimum(rep, rep[step])
            step, window = step[step], 2 * window
    representatives, coset_of = np.unique(rep, return_inverse=True)
    offsets = group.translate(elements, group.negate(rep))
    members = np.asarray(subgroup.members, dtype=np.int64)
    slot_of = np.minimum(np.searchsorted(members, offsets), len(members) - 1)
    if len(representatives) * len(members) != group.order or not np.array_equal(members[slot_of], offsets):
        raise ValueError("coset overlap: member set is not a subgroup")
    coset_of.setflags(write=False)
    slot_of.setflags(write=False)
    return CosetDecomposition(group, subgroup, tuple(representatives.tolist()), coset_of, slot_of)


def annihilator(group: AbelianGroup, elements: Subgroup | Iterable[int]) -> Subgroup:
    """All x with chi_e(x) = 1 for every e in the given set, decided in exact integer arithmetic.

    The character pairing is symmetric, so this serves both directions: labels
    annihilating a subgroup, and the subgroup pinned down by a set of labels.
    """
    if isinstance(elements, Subgroup):
        if elements.parent != group:
            raise ValueError("subgroup belongs to a different group")
        idxs: Iterable[int] = elements.generators()
    else:
        idxs = sorted(set(int(i) for i in elements))
    return Subgroup(group, tuple(np.flatnonzero(_annihilated_mask(group, idxs)).tolist()))


def enumerate_subgroups(group: AbelianGroup) -> list[Subgroup]:
    """Every subgroup, found by closure extension layer by layer.  Desk-scale orders only."""
    trivial = trivial_subgroup(group)
    seen: dict[bytes, Subgroup] = {_mask_of(group, [0]).tobytes(): trivial}
    frontier = [trivial]
    while frontier:
        next_frontier: list[Subgroup] = []
        for sub in frontier:
            base = _mask_of(group, sub.members)
            # The closure of H and g depends only on g + H: one element per other coset suffices.
            for g in coset_decompose(group, sub).representatives[1:]:
                closure = base.copy()
                _extend_closure(group, closure, g)
                key = closure.tobytes()
                if key not in seen:
                    bigger = Subgroup(group, tuple(np.flatnonzero(closure).tolist()))
                    seen[key] = bigger
                    next_frontier.append(bigger)
        frontier = next_frontier
    return sorted(seen.values(), key=lambda s: (s.order, s.members))
