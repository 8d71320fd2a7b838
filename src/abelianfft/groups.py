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
    def _pairing_weights(self) -> np.ndarray:
        # char_weights as the array _phases multiplies label coordinates by.  A term
        # a_i b_i (lcm/m_i) is below m_i lcm, so every partial sum is below lcm * sum(m_i): int64
        # holds them exactly under 2**63, Python integers above.
        exact = np.int64 if self.lcm * sum(self.moduli) < 2**63 else object
        return np.array(self.char_weights, dtype=exact)

    @cached_property
    def coords_table(self) -> np.ndarray:
        """Coordinates of every element by index, shape (order, rank).  Read-only.

        Built once per group, in the smallest unsigned dtype that holds every coordinate (uint8
        up to modulus 256, int64 above 2**32), so it takes order * rank bytes for small moduli
        and reading the coordinates of n indices is one gather of n rows.
        """
        table = np.empty((self.order, self.rank), dtype=self._coord_dtype)
        for k, (m, w) in enumerate(zip(self.moduli, self.weights)):
            table[:, k].reshape(-1, m, w)[...] = np.arange(m, dtype=self._coord_dtype)[:, None]
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
    def _coord_dtype(self) -> np.dtype:
        top = max(self.moduli) - 1
        return next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.int64) if top <= np.iinfo(t).max)

    @cached_property
    def _radix(self) -> tuple[np.ndarray, np.ndarray]:
        # Per factor: its largest coordinate m - 1 (coordinate dtype) and the index value m * w
        # of a carry out of it, which wraps to zero.
        top = np.asarray([m - 1 for m in self.moduli], dtype=self._coord_dtype)
        carry = np.asarray([m * w for m, w in zip(self.moduli, self.weights)], dtype=np.int64)
        return top, carry

    def _checked(self, indices: Indices) -> np.ndarray:
        # Int64 element indices; rejects non-integer or out-of-range input.
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"element indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.int64, copy=False)
        # Negative indices read as unsigned are above every order, so one maximum checks both ends.
        # The ufunc's own reduce skips the Python layer of ndarray.max, which small inputs notice.
        if idx.size and np.maximum.reduce(idx.view(np.uint64), axis=None) >= self.order:
            outside = idx[(idx < 0) | (idx >= self.order)]
            raise ValueError(f"element index {outside[0]} out of range for group of order {self.order}")
        return idx

    def _coords(self, idx: np.ndarray) -> np.ndarray:
        # Coordinates of checked indices.  A cyclic group's indices are their own coordinates.  A
        # request smaller than the group reads its digits by division unless coords_table is built
        # (a gather is faster), so a few elements need no table, whatever the order.
        if self.rank == 1:
            return idx.astype(self._coord_dtype)[..., None]
        if "coords_table" in vars(self) or idx.size * self.rank >= self.order:
            return self.coords_table.take(idx, axis=0)
        return (idx[..., None] // np.array(self.weights) % self.moduli).astype(self._coord_dtype)

    def translate(self, indices: Indices, shift: Indices) -> np.ndarray:
        """Indices of the sums indices + shift, elementwise with numpy broadcasting.

        Computed in index space as indices + shift minus m_i * w_i for every factor i whose
        coordinates carry (a_i + s_i >= m_i): one gather of coords_table rows per operand, one
        comparison and one weighted sum, with O(rank) byte-sized temporaries per element.  A
        group of rank 2 or more builds coords_table on its first call.  Int64 wrap-around in the intermediate sum cancels, so the result is exact for orders up
        to 2**63 - 1.  Raises ValueError on non-integer or out-of-range indices instead of
        letting numpy wrap negative ones.
        """
        a, s = self._checked(indices), self._checked(shift)
        top, carry = self._radix
        wraps = self._coords(a) > top - self._coords(s)
        # Ufuncs, not scalar operators: they wrap silently on 0-d input too.
        return np.subtract(np.add(a, s), np.einsum("...j,j->...", wraps, carry))

    def negate(self, indices: Indices) -> np.ndarray:
        """Indices of the inverses -indices, elementwise, validated as in translate.

        Each nonzero coordinate a_i becomes m_i - a_i, so -x is the sum of m_i * w_i over the
        factors where x is nonzero, minus x.
        """
        a = self._checked(indices)
        _, carry = self._radix
        return np.subtract(np.einsum("...j,j->...", self._coords(a) != 0, carry), a)

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


def _element_coords(group: AbelianGroup, element: int | Sequence[int]) -> Coords:
    # The validated coordinates of an element given by index or by coordinate tuple.
    if isinstance(element, (int, np.integer)):
        return group.coords_of(int(element))
    return group.validate_coords(element)


def _phases(group: AbelianGroup, args: np.ndarray, labels: Sequence[int] | np.ndarray) -> np.ndarray:
    # Int64 phase numerators sum_i a_i b_i (lcm/m_i) mod lcm of coordinate rows args (shape
    # (..., rank)) against one label's coordinates (shape (rank,): one phase per row) or several
    # labels' (shape (L, rank): one column per label), exact for every order.
    weighted = np.multiply(labels, group._pairing_weights)
    return np.remainder(args @ weighted.T, group.lcm).astype(np.int64, copy=False)


def _characters(group: AbelianGroup, args: np.ndarray, labels: Sequence[int] | np.ndarray) -> np.ndarray:
    # The character values exp(2 pi i p / lcm) of the _phases numerators p, in the same layout.
    return np.exp((2j * np.pi / group.lcm) * _phases(group, args, labels))


def character_phases(
    group: AbelianGroup, label: int | Sequence[int], elements: Indices | None = None
) -> np.ndarray:
    """Integer phase numerators of chi_label over the given element indices, every element in index
    order by default.  The pairing is symmetric: entry x is also the phase of chi_x at label."""
    table = group.coords_table if elements is None else group._coords(group._checked(elements))
    return _phases(group, table, _element_coords(group, label))


def _mask_of(group: AbelianGroup, indices: Iterable[int] | np.ndarray) -> np.ndarray:
    mask = np.zeros(group.order, dtype=bool)
    mask[np.asarray(indices, dtype=np.int64)] = True
    return mask


def _annihilated(group: AbelianGroup, labels: Iterable[int], elements: np.ndarray | None = None) -> np.ndarray:
    # The elements x (every element by default) with chi_l(x) = 1 for every given label l, in exact
    # integer arithmetic and in their given order.  Each label filters only the survivors so far;
    # the elements are checked indices already, so only the labels are validated.
    survivors = elements
    for label in labels:
        table = group.coords_table if survivors is None else group._coords(survivors)
        zero = _phases(group, table, group.coords_of(label)) == 0
        survivors = np.flatnonzero(zero) if survivors is None else survivors[zero]
    return np.arange(group.order, dtype=np.int64) if survivors is None else survivors


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by the sorted element indices of its members.

    The members may be passed as any sequence or integer array, in any order and with repeats;
    they are kept sorted and distinct, as a tuple.  Construction checks that they form a
    subgroup: it closes the set under the greedy generators below and rejects it if the closure
    is larger.  That costs about one translate per member and no pass over the whole group, so
    a small subgroup of a large group is cheap.
    """

    parent: AbelianGroup
    members: tuple[int, ...]
    # Greedy generators, found while checking closure.
    _generators: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # The members as a read-only sorted int64 array.
    _indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        idx = self.parent._checked(self.members)
        if not idx.size:
            raise ValueError("a subgroup cannot be empty")
        # Sort and drop repeats.  np.unique would take its hash path here, which imports numpy.ma
        # and costs every process about 1.6 MB of resident memory.
        idx = np.sort(idx)
        idx = idx[np.concatenate(([True], idx[1:] != idx[:-1]))]
        if idx[0] != 0:
            raise ValueError("a subgroup must contain the identity element 0")
        # A finite set closed under addition is a subgroup.  The closure of the greedy generators
        # contains the set, so it is closed exactly when that closure is no larger; the closure
        # stops growing once it is, which bounds the work by the set's size.
        gens, closure = _greedy_closure(self.parent, idx, limit=len(idx))
        if len(closure) != len(idx):
            missing = np.sort(closure[~_mask_of(self.parent, idx)[closure]])[:4].tolist()
            raise ValueError(f"member set is not closed under addition (missing {missing})")
        idx.setflags(write=False)
        object.__setattr__(self, "members", tuple(idx.tolist()))
        object.__setattr__(self, "_generators", tuple(gens))
        object.__setattr__(self, "_indices", idx)

    @cached_property
    def order(self) -> int:
        return len(self.members)

    def generators(self) -> tuple[int, ...]:
        """A small generating set of member indices, chosen greedily."""
        return self._generators


def _extend_closure(
    group: AbelianGroup, mask: np.ndarray, members: np.ndarray, gen: int, limit: int
) -> np.ndarray:
    # Closure of a subgroup H (its mask and member array) and gen: the mask is extended in place
    # and the extended member array returned.  H + {0 .. 2^s - 1} gen doubles each step until
    # 2^s gen is already inside, which happens once 2^s reaches the order of gen modulo H; only
    # the last doubling can overlap what is there.  Stops early once more than `limit` members.
    step = gen
    while not mask[step] and len(members) <= limit:
        # One translate shifts the members and doubles the step.
        shifted = group.translate(np.append(members, step), step)
        step, shifted = shifted[-1], shifted[:-1]
        shifted = shifted[~mask[shifted]]
        mask[shifted] = True
        members = np.concatenate((members, shifted))
    return members


def _greedy_closure(group: AbelianGroup, candidates: np.ndarray, limit: int) -> tuple[list[int], np.ndarray]:
    # Greedy generators of the sorted candidate indices (each the smallest candidate outside the
    # closure so far) and the member indices of their closure, unsorted; stops early once the
    # closure has more than `limit` members.
    mask = _mask_of(group, [0])
    closure = np.zeros(1, dtype=np.int64)
    gens: list[int] = []
    pending = candidates
    while len(closure) <= limit:
        pending = pending[~mask[pending]]
        if not pending.size:
            break
        gens.append(int(pending[0]))
        closure = _extend_closure(group, mask, closure, gens[-1], limit)
    return gens, closure


def subgroup_from_generators(group: AbelianGroup, generators: Iterable[Sequence[int]]) -> Subgroup:
    """The smallest subgroup containing the given elements (coordinate tuples)."""
    candidates = np.asarray(sorted({group.index_of(g) for g in generators}), dtype=np.int64)
    _, closure = _greedy_closure(group, candidates, limit=group.order)
    return Subgroup(group, closure)


def trivial_subgroup(group: AbelianGroup) -> Subgroup:
    return Subgroup(group, (0,))


def full_subgroup(group: AbelianGroup) -> Subgroup:
    return Subgroup(group, np.arange(group.order))


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


def _element_order(group: AbelianGroup, index: int) -> int:
    return lcm(*(m // gcd(c, m) for c, m in zip(group.coords_of(index), group.moduli)))


def _orbit_min(values: np.ndarray, step: np.ndarray, length: int) -> np.ndarray:
    # values[x] lowered to the least of values[x], values[step[x]], values[step[step[x]]], ...:
    # the window of steps doubles until it spans at least `length` of them.
    window = 1
    while window < length:
        values = np.minimum(values, values[step])
        step, window = step[step], 2 * window
    return values


def coset_decompose(group: AbelianGroup, subgroup: Subgroup) -> CosetDecomposition:
    """Partition the group into cosets of the subgroup."""
    if subgroup.parent != group:
        raise ValueError("subgroup belongs to a different group")
    elements = np.arange(group.order, dtype=np.int64)
    # rep[e] = min(e + H): fold each generator's cycle in.
    rep = elements
    for gen in subgroup.generators():
        rep = _orbit_min(rep, group.translate(elements, gen), _element_order(group, gen))
    representatives, coset_of = np.unique(rep, return_inverse=True)
    offsets = group.translate(elements, group.negate(rep))
    # The cosets of a subgroup partition the group, so every offset is a member.
    slot_of = np.searchsorted(subgroup._indices, offsets)
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
    return Subgroup(group, _annihilated(group, idxs))


def enumerate_subgroups(group: AbelianGroup) -> list[Subgroup]:
    """Every subgroup, found by closure extension layer by layer.  Desk-scale orders only."""
    trivial = trivial_subgroup(group)
    seen: dict[bytes, Subgroup] = {_mask_of(group, [0]).tobytes(): trivial}
    frontier = [trivial]
    while frontier:
        next_frontier: list[Subgroup] = []
        for sub in frontier:
            base = _mask_of(group, sub._indices)
            # The closure of H and g depends only on g + H: one element per other coset suffices.
            for g in coset_decompose(group, sub).representatives[1:]:
                closure = base.copy()
                members = _extend_closure(group, closure, sub._indices, g, limit=group.order)
                key = closure.tobytes()
                if key not in seen:
                    bigger = Subgroup(group, members)
                    seen[key] = bigger
                    next_frontier.append(bigger)
        frontier = next_frontier
    return sorted(seen.values(), key=lambda s: (s.order, s.members))
