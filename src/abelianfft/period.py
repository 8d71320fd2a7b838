"""Hidden-stabiliser recovery by Fourier sampling.

A function table on a group is loaded into a two-register state, the value
register is read to leave a uniform coset state, and transform-then-measure
yields only labels whose character is trivial on the stabiliser.  Intersecting
those constraints in exact integer arithmetic recovers the stabiliser.  The
sampled label distribution does not depend on which coset survived the value
measurement, so on a coset of K it equals the distribution of the subgroup
state |K>: uniform over the labels annihilating K.  (With |K| = n inside a
group of order mn that is n/sqrt(mn) = 1/sqrt(m) of amplitude on each of the m
surviving labels, a unit-norm vector.)

The default sampling mode computes that exact distribution classically and
draws from it; full two-register simulation is kept as a cross-check path for
small groups.

`find_period` draws labels in blocks.  At any point the loop will draw at least
k = min(window - streak, shots left) more labels, whatever they turn out to be,
so it draws exactly k at once, fewer only to keep candidate members times k
within one block bound.  A draw takes one uniform, and a simulate-mode shot two,
its value's and then its label's, so a block takes the uniforms the shots take
one by one: the labels and the generator's final state are those of drawing
with Generator.choice shot by shot.  The block's first label filters the
candidate C, in O(|C| rank); one phase matrix of its survivors C1 against the
other k - 1 labels, its rows and-accumulated along the block, in
O(|C1| (k - 1) rank), gives the survivors after each later label, hence the
streak.  Every law is built once per recovery, before its first draw.  Exact
mode has one, the label law.  Simulate mode reads the function state as rows,
one per value of the value register (its top qubits), each row the group
register that value leaves.  It builds the state, the network and the value
register's law, each row's probability, up front, and the label laws of the
values a block reads for the first time, their rows normalised, in one run over
the stacked rows, and their cdfs in one row-wise cumulative sum: at most |G|/|K|
laws in all, each bit for bit the law of its row run alone.

Sampling is only sound when the table is one-to-one on the cosets of its
stabiliser K.  Then K is the preimage P of f(0), so both modes take K as that
preimage and check it once, with one sort and no closure.  A stable argsort
lists the element indices by value; cut into runs of |P|, each run's first
index leads it.  The leaders' values must be distinct, and one shift of the
leaders by P must find each leader's value on all of leader + P.  Then the
table takes each value on exactly one translate of P: the value classes are the
translates of P, |P| elements apiece.  P is then a subgroup iff exactly |G|/|P|
labels annihilate it: those labels annihilate the subgroup <P> it generates,
which has |G| over their number members and contains P.  The same labels give
exact mode's law, uniform on them.  A table that fails is degenerate and
refused.  `check_nondegenerate`, `stabilizer_bruteforce` and
`label_distribution`, which find the same from a given subgroup, by translates
and from generators, are kept as test oracles.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dense import apply_dense
from .groups import AbelianGroup, Subgroup, _annihilated, _check_order, _is_int, _phases, annihilator
from .qft_circuit import GateList, _run_network, compile_qft
from .simulator import (
    STATE_CAP, _DRAW_BLOCK, _NORM_TOL, QState, _cdf, _check_unit_norm, _draw, _probabilities,
)

# Group order caps for the two sampling routes.
EXACT_CAP = 4096
SIMULATE_CAP = 256

# The one table of sampling modes and their caps.
_MODE_CAPS = {"exact": EXACT_CAP, "simulate": SIMULATE_CAP}
MODES = tuple(_MODE_CAPS)

# A reconstruction is accepted once it has survived this many consecutive samples unchanged.
CONFIRMATION_WINDOW = 10


@dataclass(frozen=True)
class FunctionTable:
    """A function on a group, tabulated by element index; values are nonnegative integers."""

    group: AbelianGroup
    values: tuple[int, ...]
    # The values as a read-only int64 array.
    _values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        raw = np.asarray(self.values)
        if raw.shape != (self.group.order,):
            raise ValueError(f"table has {len(raw)} entries, group has order {self.group.order}")
        if raw.dtype.kind not in "biu" or raw.max() > np.iinfo(np.int64).max:
            raise ValueError(f"table values must be integers in the int64 range, got dtype {raw.dtype}")
        values = raw.astype(np.int64)
        if (values < 0).any():
            bad = values[np.argmax(values < 0)]
            raise ValueError(f"value {bad} is negative; the value register encodes nonnegative integers")
        values.setflags(write=False)
        object.__setattr__(self, "values", tuple(values.tolist()))
        object.__setattr__(self, "_values", values)


@dataclass(frozen=True)
class StabilizerResult:
    subgroup: Subgroup
    samples_used: int
    labels_seen: tuple[int, ...]
    converged: bool


def stabilizer_bruteforce(f: FunctionTable) -> Subgroup:
    """All k with f(k + g) = f(g) for every g, by direct comparison."""
    group = f.group
    values = f._values
    elements = np.arange(group.order)
    # g = 0 shows that f(k) = f(0) is necessary, so only those k are compared in full.
    candidates = np.flatnonzero(values == values[0]).tolist()
    members = [k for k in candidates if np.array_equal(values[group.translate(elements, k)], values)]
    return Subgroup(group, tuple(members))


def check_nondegenerate(f: FunctionTable, stabilizer: Subgroup) -> bool:
    """True iff f is one-to-one on cosets of K: no generator of K moves a value, and f takes [G:K] values."""
    if stabilizer.parent != f.group:
        raise ValueError("stabiliser belongs to a different group")
    group, values = f.group, f._values
    elements = np.arange(group.order)
    if not all(np.array_equal(values[group.translate(elements, h)], values) for h in stabilizer.generators()):
        return False
    # Distinct values by sort and neighbour compare: np.unique's hash path imports numpy.ma.
    ordered = np.sort(values)
    distinct = 1 + np.count_nonzero(ordered[1:] != ordered[:-1])
    return distinct * stabilizer.order == group.order


def _register_widths(f: FunctionTable) -> tuple[int, int]:
    group_bits = max(1, (f.group.order - 1).bit_length())
    value_bits = max(1, int(f._values.max()).bit_length())
    if group_bits + value_bits > STATE_CAP:
        raise ValueError(
            f"register widths {group_bits}+{value_bits} exceed the {STATE_CAP}-qubit cap"
        )
    return group_bits, value_bits


def build_function_state(f: FunctionTable) -> QState:
    """The uniform two-register state: group register in the low qubits, value register above."""
    group_bits, value_bits = _register_widths(f)
    amps = np.zeros(1 << (group_bits + value_bits), dtype=np.complex128)
    amps[(f._values << group_bits) | np.arange(f.group.order)] = 1.0 / np.sqrt(f.group.order)
    return QState(group_bits + value_bits, amps)


def _nondegenerate_stabilizer(f: FunctionTable) -> tuple[Subgroup, np.ndarray]:
    # The stabiliser K of a nondegenerate table, which is the preimage P of f(0), and the labels
    # annihilating it, in ascending order; a degenerate table is refused.  f is nondegenerate iff
    # its value classes are the cosets of a subgroup P, each of one value.  A stable sort lists
    # the indices by value; cut into runs of |P|, the first of each run are the leaders.  Their
    # values must be distinct, and f must take a leader's value on that leader plus P: then
    # ceil(|G|/|P|) distinct values take at least |P| elements each, which fits in G only if |P|
    # divides |G| and each value class is its leader plus P.  P is then a subgroup iff exactly
    # |G|/|P| labels annihilate it, since that is |G|/|<P>| and P lies in <P>.
    group, values = f.group, f._values
    preimage = np.flatnonzero(values == values[0])
    leaders = np.argsort(values, kind="stable")[:: len(preimage)]
    leader_values = values[leaders]
    labels = None
    if (leader_values[1:] != leader_values[:-1]).all() and (
        values[group._shift(leaders[:, None], preimage)] == leader_values[:, None]
    ).all():
        labels = _annihilated(group, preimage[1:])
    if labels is None or len(labels) * len(preimage) != group.order:
        raise ValueError("function table is degenerate: equal values on distinct stabiliser cosets")
    return Subgroup._built(group, preimage), labels


def _value_rows(f: FunctionTable) -> tuple[np.ndarray, np.ndarray]:
    # The function state as one row per value of its value register, each row the group register
    # that value leaves, and the value register's law: each row's probability, summed left to
    # right as np.bincount sums it.
    group_bits, _ = _register_widths(f)
    state = build_function_state(f)
    rows = state.amps.reshape(-1, 1 << group_bits)
    law = np.cumsum(_probabilities(state.amps).reshape(rows.shape), axis=1)[:, -1]
    law /= law.sum()
    return rows, law


def sample_coset_state(f: FunctionTable, rng: np.random.Generator) -> tuple[int, QState]:
    """Read the value register; returns the observed value and the surviving group-register state.

    Degenerate tables (equal values on distinct cosets) are rejected: the
    surviving state would not be a coset of the stabiliser.
    """
    _nondegenerate_stabilizer(f)
    rows, law = _value_rows(f)
    observed = int(_draw(rng, _cdf(law)))
    row = rows[observed]
    return observed, QState(_register_widths(f)[0], row / np.linalg.norm(row))


def _group_vector(state: QState | Sequence[complex] | np.ndarray, group: AbelianGroup) -> np.ndarray:
    # Accept a vector of length |G| or a group-register state padded to the next power of two.
    amps = state.amps if isinstance(state, QState) else np.asarray(state, dtype=np.complex128)
    if amps.shape == (group.order,):
        return amps
    if amps.ndim == 1 and amps.shape[0] >= group.order:
        tail = amps[group.order :]
        if not np.max(np.abs(tail), initial=0.0) <= _NORM_TOL:
            raise ValueError("padded register has weight outside the group range")
        return amps[: group.order]
    raise ValueError(f"state has length {amps.shape}, expected {group.order} (possibly padded)")


def _network(group: AbelianGroup) -> GateList | None:
    # The compiled transform network of Z_(2^n); None for groups transformed densely.
    return compile_qft((group.order - 1).bit_length()) if group.is_cyclic_power_of_two else None


def fourier_sample(
    coset_state: QState | Sequence[complex] | np.ndarray,
    group: AbelianGroup,
    shots: int,
    rng: np.random.Generator,
) -> list[int]:
    """Transform the group register and read it: a list of label indices."""
    if not _is_int(shots) or shots < 1:
        raise ValueError(f"shot count {shots!r} must be a positive integer")
    law = _label_law(_group_vector(coset_state, group)[None], group, _network(group))[0]
    return _draw(rng, _cdf(law), int(shots)).tolist()


def _label_law(rows: np.ndarray, group: AbelianGroup, network: GateList | None) -> np.ndarray:
    # The Born law of the transformed group register for each row of a (B, |G|) array of states,
    # by the network when there is one.  Row by row this is bit for bit the law of that row run
    # alone: the network's kernels give each row of the stacked buffer the same arithmetic, the
    # dense route transforms one row at a time (a matrix product would round differently), and
    # each law is normalised by its own sum.
    _check_unit_norm(rows, "group register")
    if network is not None:
        spectra = _run_network(network, rows)
        _check_unit_norm(spectra, "state")
    else:
        spectra = np.stack([apply_dense(group, row) for row in rows])
    probs = np.abs(spectra) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def label_distribution(group: AbelianGroup, stabilizer: Subgroup) -> np.ndarray:
    """Exact post-transform Born distribution of a coset state of K, in closed form: 1/|K^perp| on
    the labels annihilating K (the set K^perp), 0 elsewhere.  test_labels_sound_and_g0_independent
    checks it against the dense transform of every coset state of every subgroup."""
    if stabilizer.parent != group:
        raise ValueError("subgroup belongs to a different group")
    return _uniform_law(group, _annihilated(group, stabilizer.generators()))


def _uniform_law(group: AbelianGroup, labels: np.ndarray) -> np.ndarray:
    # The law uniform on the given distinct labels.
    law = np.zeros(group.order)
    law[labels] = 1.0 / len(labels)
    return law


def reconstruct_subgroup(group: AbelianGroup, labels: Sequence[int]) -> Subgroup:
    """Intersection of the exact constraints chi_label(k) = 1 over the observed labels."""
    if not len(labels):
        warnings.warn("no labels observed: reconstruction is the whole group", stacklevel=2)
    return annihilator(group, labels)


def find_period(
    f: FunctionTable,
    max_shots: int,
    rng: np.random.Generator,
    *,
    mode: str = "exact",
    window: int = CONFIRMATION_WINDOW,
) -> StabilizerResult:
    """Sample labels until the reconstruction survives `window` consecutive samples unchanged.

    The result is flagged non-converged when the shot budget runs out first.
    """
    if mode not in MODES:
        raise ValueError(f"mode {mode!r} not in {MODES}")
    for what, count in (("shot budget", max_shots), ("window", window)):
        if not _is_int(count) or count < 1:
            raise ValueError(f"{what} {count!r} must be a positive integer")
    max_shots, window = int(max_shots), int(window)
    group = f.group
    _check_order(group.order, _MODE_CAPS[mode], f"{mode}-mode")
    stabilizer, annihilating = _nondegenerate_stabilizer(f)
    draw = _label_draws(f, annihilating, mode, rng)
    labels: list[int] = []
    # The members of the candidate subgroup, filtered by each label in turn.
    candidate = np.arange(group.order, dtype=np.int64)
    streak = 0
    while len(labels) < max_shots and streak < window:
        # Whatever they turn out to be, at least this many more labels are drawn before the loop
        # can stop; the block is further bounded so that the phase matrix below stays small.
        k = min(window - streak, max_shots - len(labels), max(1, _DRAW_BLOCK // len(candidate)))
        block = draw(k)
        labels.extend(block.tolist())
        # The first label filters the whole candidate, the others only its survivors: column j of
        # alive marks those that also survive the block's labels 1 to j + 1.
        first = candidate[_phases(group, group._coords(candidate), group._coords(block[:1]))[:, 0] == 0]
        zero = _phases(group, group._coords(first), group._coords(block[1:])) == 0
        alive = np.logical_and.accumulate(zero, axis=1)
        left = np.count_nonzero(alive, axis=0)
        survivors = first[alive[:, -1]] if k > 1 else first
        # Survivor counts never grow, so the labels since the last that shrank the candidate are
        # those after which it already had its final size.
        if len(survivors) == len(candidate):
            streak += k
        else:
            streak = int(np.count_nonzero(left == len(survivors))) + (len(first) == len(survivors)) - 1
        candidate = survivors
    # A correct recovery is the stabiliser, already checked; anything else is checked here.
    subgroup = stabilizer if np.array_equal(candidate, stabilizer._indices) else Subgroup(group, candidate)
    return StabilizerResult(subgroup, len(labels), tuple(labels), streak >= window)


def _label_draws(
    f: FunctionTable, annihilating: np.ndarray, mode: str, rng: np.random.Generator
) -> Callable[[int], np.ndarray]:
    # A function drawing the next k labels.  Each draw takes one uniform, and in simulate mode a
    # shot takes two, for its value and then its label, so the labels and the generator's state
    # are those of drawing shot by shot.  Each law is built once, before its first draw: exact
    # mode has one, uniform on the labels annihilating the stabiliser; simulate mode has the value
    # register's and, per value it reads, the law of the labels of the coset state that value
    # leaves, all of a block's new values in one run.
    group = f.group
    if mode == "exact":
        cdf = _cdf(_uniform_law(group, annihilating))
        return lambda k: _draw(rng, cdf, k)
    rows, value_law = _value_rows(f)
    value_cdf = _cdf(value_law)
    network = _network(group)
    label_cdfs: dict[int, np.ndarray] = {}

    def draw(k: int) -> np.ndarray:
        uniforms = rng.random(2 * k)
        values = value_cdf.searchsorted(uniforms[0::2], side="right")
        # A block's distinct values in order of first reading: np.unique's hash path imports numpy.ma.
        read = list(dict.fromkeys(values.tolist()))
        new = [v for v in read if v not in label_cdfs]
        if new:
            states = np.stack([_group_vector(rows[v] / np.linalg.norm(rows[v]), group) for v in new])
            label_cdfs.update(zip(new, _cdf(_label_law(states, group, network), stacked=True)))
        labels = np.empty(k, dtype=np.intp)
        for v in read:
            at = values == v
            labels[at] = label_cdfs[v].searchsorted(uniforms[1::2][at], side="right")
        return labels

    return draw


def two_to_one_table(n: int, mask: int, rng: np.random.Generator) -> FunctionTable:
    """A random nondegenerate two-to-one table on (Z_2)^n with f(x) = f(x XOR mask)."""
    if not _is_int(n) or n < 1:
        raise ValueError(f"bit count {n!r} must be a positive integer")
    if not _is_int(mask) or not 0 < mask < (1 << n):
        raise ValueError(f"mask {mask!r} must be a nonzero {n}-bit value")
    n, mask = int(n), int(mask)
    relabel = rng.permutation(1 << (n - 1))
    x = np.arange(1 << n)
    # Each pair {x, x ^ mask} is numbered by the rank of its smaller member among all smaller members.
    canonical = np.minimum(x, x ^ mask)
    rank = np.searchsorted(np.flatnonzero(canonical == x), canonical)
    return FunctionTable(AbelianGroup((2,) * n), relabel[rank])
