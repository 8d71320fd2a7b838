"""Qubit state-vector simulator whose gate kernels run in place on one amplitude buffer.

Qubit 0 is the LEAST significant bit of the amplitude index throughout, and
outcome strings are written most significant qubit first.  In a two-qubit gate
matrix the first listed target is the more significant bit of the 4x4 basis.
All randomness comes from an explicitly passed numpy Generator.

`run_program` writes its start state into one complex128 buffer, runs every
gate on it in place and checks the unit norm once, when it wraps the final
buffer in a `QState`.  Each gate runs on a strided view with one leading axis
per target wire:

- a raw 2x2 matrix is a butterfly over the amplitude pairs; H is a butterfly of
  its own that forms c * a0 once, since three of its entries are one value c:
  three products per pair where a raw matrix takes four;
- X and CNOT exchange two index slices;
- SWAP relabels its two wires and moves no amplitude; a run restores the layout at its end
  with at most n - 1 exchanges of two wires;
- CPHASE multiplies the quarter of the amplitudes with both target bits set;
  consecutive CPHASE gates that share a wire run on that wire's set half, copied
  in blocks into contiguous memory, where each gate multiplies its phase in gate
  order before the block is copied back;
- a raw 4x4 matrix gathers the (4, -1) reshape of the view into the run's
  workspace, zgemm writes the product beside it, and the product is copied back
  through the view, in column blocks of at most 2 * `_BLOCK` amplitudes.

Each fast path gives every amplitude the arithmetic of the plain kernel it
stands for, in the same order, so its bytes are those of `_butterfly` or of
one `_phase` per gate, the oracles the tests keep.  Butterflies and exchanges
work in blocks of at most `_BLOCK` pairs, CPHASE runs in blocks of at most
`_BLOCK` amplitudes and raw 4x4 products in blocks of at most 2 * `_BLOCK`, so no
gate needs a temporary the size of the state.  The workspace holds two product
blocks, 512 KiB at most; `run_program` makes it when
the first raw 4x4 gate runs and reuses it for every later one, so a program
without raw 4x4 gates never has it.  The named gates come from one table,
`_NAMED`, through one validator, `_named_matrix`: one shared read-only matrix
per name (per exponent for CPHASE), checked for unitarity when first built.
A named `Gate` must carry exactly that matrix, so its name picks its kernel
and its JSON form; a gate with no name gets a private copy of its matrix,
checked on every `Gate`.  The gate builders and `program_from_json` share one
immutable named `Gate` per (name, targets, param), held in a bounded cache;
only plain str and int arguments hit it, and any other call is checked in
full by `Gate`.  The cache pays where one process builds the same gate again:
a program loaded more than once, or one that repeats a gate, as the m-wire
swaps network lists m(m - 1)/2 SWAPs on m - 1 distinct pairs.  A gate seen
for the first time is checked as before.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod, sqrt
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .groups import _is_int

# Hard cap on register width: 2^24 amplitudes.
STATE_CAP = 24

UNITARY_TOL = 1e-10

# Largest number of amplitude pairs a butterfly or an exchange updates in one step, and of
# amplitudes a CPHASE run gathers.  A block's temporaries (128 KiB each) stay in cache: at 24
# qubits this runs an H twice as fast as 2^16.
_BLOCK = 1 << 13

# Largest number of entries one block of draws holds: shots in `sample`; in period.find_period,
# candidate members times labels, which bounds both the first label's pass over the candidate and
# the matrix of its survivors against the rest.  Consecutive rng.random calls give the uniforms
# one call would.
_DRAW_BLOCK = 1 << 16

# Most shots one tally draws, refused before the first draw.  2^31 shots take about 20 s on a
# 1-qubit state, 4 min at 14 qubits and 50 min at 24 (2^22 shots: 0.044, 0.48 and 5.5 s on one
# core of a shared x86-64 host).
SHOT_CAP = 1 << 31


def _blocks(shape: tuple[int, ...], limit: int | None = None) -> Iterator[tuple]:
    """Index tuples that cover an array of this shape, in row-major order, in pieces of at most
    `limit` entries (a power of two, _BLOCK by default), each piece a run of consecutive entries."""
    limit = limit or _BLOCK
    inner = prod(shape[1:])
    if inner <= limit:
        rows = limit // inner
        for start in range(0, shape[0], rows):
            yield (slice(start, start + rows),)
    else:
        for row in range(shape[0]):
            for rest in _blocks(shape[1:], limit):
                yield (row,) + rest


def _wire_view(amps: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """A view of the amplitudes with one leading length-2 axis per target, in the listed order."""
    if len(targets) == 1:
        return amps.reshape(-1, 2, 1 << targets[0]).transpose(1, 0, 2)
    hi, lo = max(targets), min(targets)
    shaped = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    return shaped.transpose((1, 3, 0, 2, 4) if targets[0] == hi else (3, 1, 0, 2, 4))


def _butterfly(view: np.ndarray, u: np.ndarray) -> None:
    for block in _blocks(view.shape[1:]):
        a0, a1 = view[0][block], view[1][block]
        out0 = u[0, 0] * a0 + u[0, 1] * a1
        a1[...] = u[1, 0] * a0 + u[1, 1] * a1
        a0[...] = out0


def _hadamard(view: np.ndarray, u: np.ndarray) -> None:
    """_butterfly for H, bit for bit: u[0, 0], u[0, 1] and u[1, 0] are one value c, so c * a0 is
    formed once and both sums are written in place, three products where _butterfly takes four."""
    c, d = u[0, 0], u[1, 1]
    t0 = None
    for block in _blocks(view.shape[1:]):
        a0, a1 = view[0][block], view[1][block]
        # The first block's products are the buffers of every later block of its shape.
        if t0 is None or t0.shape != a0.shape:
            t0, t1, w = c * a0, c * a1, d * a1
        else:
            np.multiply(c, a0, out=t0)
            np.multiply(c, a1, out=t1)
            np.multiply(d, a1, out=w)
        np.add(t0, w, out=a1)
        np.add(t0, t1, out=a0)


def _exchange(view: np.ndarray, a: tuple[int, ...], b: tuple[int, ...]) -> None:
    """Swap the amplitudes whose target bits read a with those whose target bits read b."""
    first, second = view[a], view[b]
    for block in _blocks(first.shape):
        held = first[block].copy()
        first[block] = second[block]
        second[block] = held


def _phase(view: np.ndarray, phase: complex) -> None:
    """Multiply the amplitudes with both target bits set."""
    view[1, 1] *= phase


def _phase_half(amps: np.ndarray, wire: int, phases: Sequence[tuple[int, complex]]) -> None:
    """A run of CPHASE gates that all act on `wire`, each given as its other wire and its phase:
    the amplitudes with that wire's bit set are copied in blocks into one contiguous buffer, each
    gate multiplies its phase, in gate order, into the buffer's entries with its other bit set,
    and the block is copied back.  Every amplitude gets the multiplications the gates one by one
    give it, in the same order; the phases are not fused."""
    half = amps.reshape(-1, 2, 1 << wire)[:, 1, :]
    cols = half.shape[1]
    # A power of two that divides the half, so every block is whole and starts at a multiple of it.
    length = min(_BLOCK, half.size & -half.size)
    buffer = np.empty(length, dtype=amps.dtype)
    # An amplitude's place in the half is its index with bit `wire` taken out.  A gate's bit below
    # the block length picks a strided part of the buffer; a higher one is fixed across a block.
    parts = []
    for other, phase in phases:
        bit = other - (other > wire)
        if 2 << bit <= length:
            parts.append((buffer.reshape(-1, 2, 1 << bit)[:, 1, :], None, phase))
        else:
            parts.append((buffer, bit, phase))
    for start in range(0, half.size, length):
        row, col = divmod(start, cols)
        block = half[row, col : col + length] if cols >= length else half[row : row + length // cols]
        gathered = buffer.reshape(block.shape)
        np.copyto(gathered, block)
        for part, bit, phase in parts:
            if bit is None or start >> bit & 1:
                part *= phase
        np.copyto(block, gathered)


def _product_columns() -> int:
    """Columns in one block of the raw 4x4 product: 2 * _BLOCK amplitudes, the amplitudes of a
    butterfly's block of pairs, but never fewer than four columns.  zgemm rounds a product one or
    two columns wide differently from the same columns inside a wider one (numpy 2.4's OpenBLAS
    on x86-64); from four columns up, blocks of any power of two give the whole product's bytes.
    Blocks of _BLOCK amplitudes were measured slower on the 14-qubit circuit: with the smaller
    workspace glibc maps and trims the state-sized buffers of the run and of its caller afresh."""
    return max(_BLOCK // 2, 4)


def _product(view: np.ndarray, u: np.ndarray, workspace: np.ndarray) -> None:
    """Multiply the (4, -1) gather of the view by u in column blocks of _product_columns(),
    through a workspace of at least 8 * min(view.size // 4, _product_columns()) entries: each
    block's gather fills its front and zgemm writes the block's product right after it."""
    for block in _blocks(view.shape[2:], _product_columns()):
        part = view[(slice(None), slice(None)) + block]
        gathered = workspace[: part.size].reshape(part.shape)
        product = workspace[part.size : 2 * part.size].reshape(4, -1)
        np.copyto(gathered, part)
        np.matmul(u, gathered.reshape(4, -1), out=product)
        np.copyto(part, product.reshape(part.shape))


def _check_unitary(matrix: np.ndarray) -> None:
    if matrix.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"gate matrix has shape {matrix.shape}, expected 2x2 or 4x4")
    # Huge entries overflow to inf or NaN, which fail the check below without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = np.max(np.abs(matrix @ matrix.conj().T - np.eye(matrix.shape[0])))
    if not deviation <= UNITARY_TOL:
        raise ValueError(f"gate matrix is not unitary (deviation {deviation:.3e})")


# The one table of named gates: name -> (matrix rows, and the two index slices the exchange
# kernel swaps or None).  CPHASE has no rows here: its matrix depends on its exponent.
_NAMED = {
    "H": ([[1 / sqrt(2.0), 1 / sqrt(2.0)], [1 / sqrt(2.0), -1 / sqrt(2.0)]], None),
    "X": ([[0, 1], [1, 0]], ((0,), (1,))),
    "CNOT": ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], ((1, 0), (1, 1))),
    "SWAP": ([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], ((0, 1), (1, 0))),
    "CPHASE": (None, None),
}

# 2.0**-e is 0.0 from here on, so every larger exponent shares the identity matrix and the
# cache of shared matrices stays bounded whatever exponents a program lists.
_PHASE_EXPONENT_LIMIT = 1075


def _named_matrix(name: object, param: object = None) -> np.ndarray:
    """The shared read-only matrix of a named gate, after checking the name and its param: CPHASE
    takes an integer exponent of at least 1, every other name takes none."""
    if not isinstance(name, str) or name not in _NAMED:
        raise ValueError(f"unknown gate {name!r}")
    if name == "CPHASE" and not (_is_int(param) and param >= 1):
        raise ValueError(f"CPHASE param {param!r} must be a positive integer")
    if name != "CPHASE" and param is not None:
        raise ValueError(f"gate {name} takes no param, got {param!r}")
    return _shared(name, min(param or 0, _PHASE_EXPONENT_LIMIT))


@lru_cache(maxsize=None)
def _shared(name: str, exponent: int) -> np.ndarray:
    rows = np.diag([1, 1, 1, np.exp(2j * np.pi * 2.0**-exponent)]) if name == "CPHASE" else _NAMED[name][0]
    matrix = np.array(rows, dtype=np.complex128)
    _check_unitary(matrix)
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class Gate:
    """A 1- or 2-qubit unitary bound to target wires: a named gate carries its name's shared matrix,
    any other gets a private copy of its matrix, checked for unitarity here, and no param."""

    matrix: np.ndarray
    targets: tuple[int, ...]
    name: str | None = None
    param: int | None = None

    def __post_init__(self) -> None:
        if self.name is not None:
            if self.matrix is not _named_matrix(self.name, self.param):
                raise ValueError(f"a gate named {self.name} must carry the shared {self.name} matrix")
            if self.param is not None:
                object.__setattr__(self, "param", int(self.param))
        elif self.param is not None:
            raise ValueError(f"a gate with no name takes no param, got {self.param!r}")
        else:
            # A private copy, so freezing it leaves the caller's array writable.
            matrix = np.array(self.matrix, dtype=np.complex128)
            _check_unitary(matrix)
            matrix.setflags(write=False)
            object.__setattr__(self, "matrix", matrix)
        targets = tuple(self.targets)
        if not all(map(_is_int, targets)) or len(set(targets)) != len(targets):
            raise ValueError(f"gate targets {targets!r} must be distinct integers")
        targets = tuple(map(int, targets))
        if len(targets) != self.arity:
            raise ValueError(f"{self.arity}-qubit gate lists targets {targets}")
        object.__setattr__(self, "targets", targets)

    @property
    def arity(self) -> int:
        return 1 if self.matrix.shape == (2, 2) else 2


# Most distinct named gates the shared-gate cache holds; a 24-wire network has 576.
_GATE_CACHE = 1 << 12


def _named_gate(name: object, targets: tuple, param: object = None) -> Gate:
    """The named gate on these targets: one shared Gate per (name, targets, param) when every
    part has its exact type, str and int, so the cache never confuses 1 with True or 1.0; any
    other call is checked in full by Gate and gets a gate of its own."""
    if type(name) is str and (param is None or type(param) is int) and all([type(t) is int for t in targets]):
        return _shared_gate(name, targets, param)
    return Gate(_named_matrix(name, param), targets, name, param)


@lru_cache(maxsize=_GATE_CACHE)
def _shared_gate(name: str, targets: tuple[int, ...], param: int | None) -> Gate:
    return Gate(_named_matrix(name, param), targets, name, param)


def hadamard(target: int) -> Gate:
    return _named_gate("H", (target,))


def pauli_x(target: int) -> Gate:
    return _named_gate("X", (target,))


def cnot(control: int, target: int) -> Gate:
    return _named_gate("CNOT", (control, target))


def swap_gate(a: int, b: int) -> Gate:
    return _named_gate("SWAP", (a, b))


def cphase(control: int, target: int, exponent: int = 1) -> Gate:
    """Conditional phase diag(1, 1, 1, exp(2 pi i / 2^exponent)); exponent 1 gives CZ."""
    return _named_gate("CPHASE", (control, target), exponent)


# How far a state's norm may be from 1, and the weight a padded register may hold outside its group.
_NORM_TOL = 1e-9


def _check_unit_norm(amps: np.ndarray, what: str) -> None:
    """The one unit-norm rule: refuse a state, or a stack of states one per row, whose norm is not
    1 within _NORM_TOL.  Huge entries overflow the norm to inf or NaN, which fail without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(amps) if amps.ndim == 1 else np.linalg.norm(amps, axis=1)
    unit = np.abs(norms - 1.0) <= _NORM_TOL
    if not unit.all():
        raise ValueError(f"{what} norm {np.ravel(norms)[np.argmin(unit)]!r} is not 1")


def _check_width(n_qubits: int) -> int:
    # Run before anything state-sized is allocated; returns the width as int.
    if not _is_int(n_qubits) or not 1 <= n_qubits <= STATE_CAP:
        raise ValueError(f"qubit count {n_qubits!r} outside [1, {STATE_CAP}]")
    return int(n_qubits)


@dataclass(frozen=True)
class QState:
    """An n-qubit state vector; construction checks length and unit norm."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", _check_width(self.n_qubits))
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(f"amplitude vector has shape {amps.shape}, expected ({1 << self.n_qubits},)")
        _check_unit_norm(amps, "state")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


def _basis_amps(n_qubits: int, index: int) -> np.ndarray:
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return amps


def new_state(n_qubits: int) -> QState:
    """|0...0> on n qubits."""
    return basis_state(n_qubits, 0)


def basis_state(n_qubits: int, index: int) -> QState:
    n_qubits = _check_width(n_qubits)
    if not _is_int(index) or not 0 <= index < (1 << n_qubits):
        raise ValueError(f"basis index {index!r} out of range for {n_qubits} qubits")
    return QState(n_qubits, _basis_amps(n_qubits, int(index)))


def _check_target(n_qubits: int, target: int) -> None:
    if not _is_int(target) or not 0 <= target < n_qubits:
        raise ValueError(f"target qubit {target!r} out of range for {n_qubits}-qubit state")


def apply_1q(state: QState, gate: Gate) -> QState:
    """Apply a one-qubit gate to a copy of the state: a one-step `run_program`."""
    if gate.arity != 1:
        raise ValueError("apply_1q needs a 2x2 gate")
    return run_program(Program(state.n_qubits, (gate,)), state)


def apply_2q(state: QState, gate: Gate) -> QState:
    """Apply a two-qubit gate to a copy of the state: a one-step `run_program`.  The first listed
    target is the more significant bit of the 4x4 basis."""
    if gate.arity != 2:
        raise ValueError("apply_2q needs a 4x4 gate")
    return run_program(Program(state.n_qubits, (gate,)), state)


@dataclass(frozen=True)
class Program:
    """A register width and a straight-line gate sequence."""

    n_qubits: int
    steps: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", _check_width(self.n_qubits))
        object.__setattr__(self, "steps", tuple(self.steps))
        for pos, gate in enumerate(self.steps):
            for t in gate.targets:
                if not 0 <= t < self.n_qubits:
                    raise ValueError(f"step {pos} targets qubit {t}, register has {self.n_qubits}")


def run_program(program: Program, initial: QState | None = None) -> QState:
    """Run the gate sequence from |0...0> (or a copy of the given state) and return the final state."""
    n = program.n_qubits
    if initial is None:
        amps = _basis_amps(n, 0)
    elif initial.n_qubits != n:
        raise ValueError(f"initial state has {initial.n_qubits} qubits, program needs {n}")
    else:
        amps = initial.amps.copy()
    _run_gates(amps, program.steps)
    return QState(n, amps)


# A run of CPHASE gates on one wire goes through _phase_half when it has at least _HALF_RUN_GATES
# gates and each state has at least _HALF_RUN_WIRES wires.  Shorter runs and smaller states run
# gate by gate, where the gather costs more than it saves.  Both are measured crossovers, on one
# core of a shared x86-64 host (numpy 2.4), timing the CPHASE gates of the n-wire network with
# and without the gather: it costs 5 % more at 10 wires (a third more on stacks of 4-wire states),
# breaks even at 11, and saves 6 % at 12 wires, 11 % at 13 and 17 % at 14; 2-gate runs lose at
# every width from 11 to 18.
_HALF_RUN_GATES = 3
_HALF_RUN_WIRES = 12


def _run_gates(amps: np.ndarray, gates: Sequence[Gate]) -> None:
    """Run the gates in order, in place, on a writable contiguous buffer of one 2^n-amplitude
    state or a (B, 2^n) stack of them, by the kernel each gate's name picks: CPHASE the phase, X
    and CNOT the exchange, H its own butterfly and other 2x2 gates the blocked butterfly, raw 4x4
    gates the blocked product through one workspace made at the first of them.  Consecutive
    CPHASE gates that share a wire run together on that wire's set half (_phase_half).  A SWAP
    moves no amplitude: it relabels its two wires, and every later gate runs on the wires its
    targets now live on.  After the last gate each cycle of displaced wires is put back by
    exchanges, at most n - 1 in all, so the buffer ends as a SWAP-by-SWAP run leaves it.  B
    stacked states each run as they would alone: every kernel works on its target bits only, with
    the same arithmetic on each amplitude, and only wires below n are relabelled."""
    gather = amps.shape[-1] >= 1 << _HALF_RUN_WIRES
    amps = amps.reshape(-1)
    workspace = None
    # wire_of[w] is the wire that holds the content of wire w, for every wire a SWAP has moved.
    wire_of: dict[int, int] = {}
    at = 0
    while at < len(gates):
        gate = gates[at]
        at += 1
        targets = tuple([wire_of.get(t, t) for t in gate.targets]) if wire_of else gate.targets
        if gate.name == "SWAP":
            wire_of[gate.targets[0]], wire_of[gate.targets[1]] = targets[1], targets[0]
            continue
        if gate.name == "CPHASE":
            if gather:
                wire, run, at = _phase_run(gates, at, targets, wire_of)
            else:
                wire, run = None, [(targets, gate.matrix[3, 3])]
            if len(run) >= _HALF_RUN_GATES:
                _phase_half(amps, wire, [(a if a != wire else b, phase) for (a, b), phase in run])
            else:
                for pair, phase in run:
                    _phase(_wire_view(amps, pair), phase)
            continue
        exchanged = _NAMED.get(gate.name, (None, None))[1]
        if exchanged:
            _exchange(_wire_view(amps, targets), *exchanged)
        elif gate.name == "H":
            _hadamard(_wire_view(amps, targets), gate.matrix)
        elif len(targets) == 1:
            _butterfly(_wire_view(amps, targets), gate.matrix)
        else:
            if workspace is None:
                workspace = np.empty(8 * min(amps.size // 4, _product_columns()), dtype=np.complex128)
            _product(_wire_view(amps, targets), gate.matrix, workspace)
    for w in wire_of:
        while wire_of[w] != w:
            # Exchanging wire p, which holds w, with the wire that holds p puts p home.
            p = wire_of[w]
            wire_of[w], wire_of[p] = wire_of[p], p
            _exchange(_wire_view(amps, (p, wire_of[w])), *_NAMED["SWAP"][1])


def _phase_run(
    gates: Sequence[Gate], at: int, targets: tuple[int, ...], wire_of: dict[int, int]
) -> tuple[int, list[tuple[tuple[int, ...], complex]], int]:
    """The run of CPHASE gates that starts with the one just read, on these (relabelled) targets,
    and goes on from gates[at] while one wire is common to all: that wire, each gate's targets
    and phase, and the index past the run."""
    run = [(targets, gates[at - 1].matrix[3, 3])]
    shared = set(targets)
    while at < len(gates) and gates[at].name == "CPHASE":
        pair = tuple([wire_of.get(t, t) for t in gates[at].targets])
        if shared.isdisjoint(pair):
            break
        shared.intersection_update(pair)
        run.append((pair, gates[at].matrix[3, 3]))
        at += 1
    return min(shared), run, at


# Generator.choice accepts a law whose sum is this far from 1.
_LAW_TOL = sqrt(np.finfo(np.float64).eps)


def _cdf(law: np.ndarray, *, stacked: bool = False) -> np.ndarray:
    """The cumulative form of a law over 0 .. len(law) - 1, after the checks Generator.choice makes:
    finite, non-negative entries that sum to 1 within _LAW_TOL.  With stacked, law is a 2-D stack
    of laws, one per row, each checked as a law (a refused sum names the row farthest from 1),
    and each row's cdf is bit for bit the cdf of that row alone."""
    law = np.asarray(law, dtype=np.float64)
    if law.ndim != 1 + stacked or not law.size:
        shape = "2-D stack of vectors" if stacked else "vector"
        raise ValueError(f"a law must be a non-empty {shape}, got shape {law.shape}")
    if not np.isfinite(law).all():
        raise ValueError("law has NaN or infinite entries")
    if (law < 0).any():
        raise ValueError("law has negative entries")
    total = law.sum(axis=-1)
    if stacked:
        total = total[np.argmax(np.abs(total - 1.0))]
    if not abs(total - 1.0) <= _LAW_TOL:
        raise ValueError(f"law sums to {total!r}, expected 1")
    cdf = law.cumsum(axis=-1)
    cdf /= cdf[:, -1:] if stacked else cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray, size: int | None = None) -> np.intp | np.ndarray:
    """Draws from the law whose _cdf is given: one index for size None, else an array of them.

    Generator.choice(len(law), size, p=law) draws exactly these, from the same uniforms, but
    checks the law and rebuilds its cdf on every call.
    """
    return cdf.searchsorted(rng.random(size), side="right")


def _probabilities(amps: np.ndarray) -> np.ndarray:
    # The amplitudes of a QState, whose norm is already checked.
    p = np.abs(amps)
    p *= p
    p /= p.sum()
    return p


def measure_qubit_distribution(state: QState, qubit: int) -> dict[int, float]:
    """Born distribution {0: p0, 1: p1} of one qubit, no collapse."""
    _check_target(state.n_qubits, qubit)
    p = _probabilities(state.amps)
    shaped = p.reshape(-1, 2, 1 << qubit)
    p1 = float(shaped[:, 1, :].sum())
    p1 = min(max(p1, 0.0), 1.0)
    return {0: 1.0 - p1, 1: p1}


def _outcome_values(n: int, qubits: Sequence[int]) -> np.ndarray:
    # For each basis index, the integer read off the listed qubits (first listed = most significant).
    idx = np.arange(1 << n, dtype=np.int64)
    value = np.zeros(1 << n, dtype=np.int64)
    width = len(qubits)
    for pos, q in enumerate(qubits):
        value |= ((idx >> q) & 1) << (width - 1 - pos)
    return value


def collapse_register(state: QState, qubits: Iterable[int], rng: np.random.Generator) -> tuple[str, QState]:
    """Measure the given qubits; returns the outcome bit-string (highest listed qubit first)
    and the renormalised conditional state with the observed bits fixed in place."""
    qs = list(qubits)
    for q in qs:
        _check_target(state.n_qubits, q)
    qs = sorted({int(q) for q in qs}, reverse=True)
    if not qs:
        raise ValueError("collapse_register needs at least one qubit")
    values = _outcome_values(state.n_qubits, qs)
    law = np.bincount(values, weights=_probabilities(state.amps), minlength=1 << len(qs))
    law /= law.sum()
    outcome = int(_draw(rng, _cdf(law)))
    post = np.where(values == outcome, state.amps, 0.0)
    return format(outcome, f"0{len(qs)}b"), QState(state.n_qubits, post / np.linalg.norm(post))


def sample(state: QState, shots: int, rng: np.random.Generator) -> dict[str, int]:
    """Draw shots full-register outcomes; returns only the outcomes that occurred."""
    if not _is_int(shots) or shots < 1:
        raise ValueError(f"shot count {shots!r} must be a positive integer")
    tally = _tally(rng, _cdf(_probabilities(state.amps)), int(shots))
    spec = f"0{state.n_qubits}b"
    return {format(i, spec): c for i, c in tally.items()}


def _check_shot_cap(shots: int) -> None:
    """The one refusal of a shot count above SHOT_CAP, made before any draw."""
    if shots > SHOT_CAP:
        raise ValueError(f"shot count {shots} exceeds the shot cap {SHOT_CAP}")


def _tally(rng: np.random.Generator, cdf: np.ndarray, shots: int) -> dict[int, int]:
    """How often each outcome occurred in shots draws from the law whose _cdf is given, in
    ascending order of outcome.  Draws run in blocks of at most _DRAW_BLOCK, each counted and
    merged into the running counts, so memory follows the block and the outcomes seen, not the
    shots.  A count above SHOT_CAP is refused before any draw."""
    _check_shot_cap(shots)
    outcomes = np.empty(0, dtype=np.intp)
    counts = np.empty(0, dtype=np.int64)
    for start in range(0, shots, _DRAW_BLOCK):
        draws = np.sort(_draw(rng, cdf, min(_DRAW_BLOCK, shots - start)))
        # Runs of equal draws by neighbour compare: np.unique's hash path imports numpy.ma.
        firsts = np.flatnonzero(np.concatenate(([True], draws[1:] != draws[:-1])))
        seen, times = draws[firsts], np.diff(firsts, append=len(draws))
        at = outcomes.searchsorted(seen)
        known = at < len(outcomes)
        known[known] = outcomes[at[known]] == seen[known]
        counts[at[known]] += times[known]
        outcomes = np.insert(outcomes, at[~known], seen[~known])
        counts = np.insert(counts, at[~known], times[~known])
    return dict(zip(outcomes.tolist(), counts.tolist()))


def _complex_from_json(entry: object) -> complex:
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise ValueError(f"complex entry {entry!r} must be a [re, im] pair")
    # JSON true and false load as bool, a subclass of int, and float() would also read a string.
    if not all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in entry):
        raise ValueError(f"complex entry {entry!r} must hold two real numbers")
    return complex(float(entry[0]), float(entry[1]))


def _matrix_from_json(rows: object) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("matrix must be a list of rows")
    return np.array([[_complex_from_json(e) for e in row] for row in rows], dtype=np.complex128)


def program_from_json(obj: Mapping) -> Program:
    """Parse {"n": int, "steps": [...]} with named gates or raw [re, im] matrices."""
    if not isinstance(obj, Mapping):
        raise ValueError("program must be a JSON object")
    if "n" not in obj or "steps" not in obj:
        raise ValueError('program needs "n" and "steps" fields')
    n = obj["n"]
    if not _is_int(n):
        raise ValueError(f'program field "n" must be an integer, got {n!r}')
    if not isinstance(obj["steps"], (list, tuple)):
        raise ValueError(f'program field "steps" must be a list, got {obj["steps"]!r}')
    steps: list[Gate] = []
    for pos, step in enumerate(obj["steps"]):
        try:
            # json.load gives dicts; the Mapping ABC check is for other callers.
            if type(step) is not dict and not isinstance(step, Mapping):
                raise ValueError("must be a JSON object")
            targets = step.get("targets")
            if not isinstance(targets, list) or not all([_is_int(t) for t in targets]):
                raise ValueError("needs an integer target list")
            if "gate" in step:
                name, param = step["gate"], step.get("param")
                if param is None and name == "CPHASE":
                    param = 1  # cphase's default exponent: CZ
                steps.append(_named_gate(name, tuple(targets), param))
            elif "matrix" in step:
                steps.append(Gate(_matrix_from_json(step["matrix"]), tuple(targets)))
            else:
                raise ValueError('needs either a "gate" name or a raw "matrix"')
        except ValueError as error:
            raise ValueError(f"step {pos}: {error}") from None
    return Program(n, tuple(steps))


def program_to_json(program: Program) -> dict:
    """Serialise a program; named gates keep their name, others emit matrix entries."""
    steps = []
    for gate in program.steps:
        entry: dict = {"targets": list(gate.targets)}
        if gate.name is not None:
            entry["gate"] = gate.name
            if gate.param is not None:
                entry["param"] = gate.param
        else:
            entry["matrix"] = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(gate.matrix)]
        steps.append(entry)
    return {"n": program.n_qubits, "steps": steps}
