"""Qubit state-vector simulator whose gate kernels run in place on one amplitude buffer.

Qubit 0 is the LEAST significant bit of the amplitude index throughout, and
outcome strings are written most significant qubit first.  In a two-qubit gate
matrix the first listed target is the more significant bit of the 4x4 basis.
All randomness comes from an explicitly passed numpy Generator.

`run_program` writes its start state into one complex128 buffer, runs every
gate on it in place and checks the unit norm once, when it wraps the final
buffer in a `QState`.  Each gate runs on a strided view with one leading axis
per target wire:

- a 2x2 matrix (H or raw) is a butterfly over the amplitude pairs;
- X, CNOT and SWAP exchange two index slices;
- CPHASE multiplies the quarter of the amplitudes with both target bits set;
- a raw 4x4 matrix gathers the (4, -1) reshape of the view into the first half
  of the run's workspace, zgemm writes the product into its second half, and
  the product is copied back through the view.

Butterflies and exchanges work in blocks of at most `_BLOCK` pairs, so a gate
on the top wire needs no temporary the size of the state.  The workspace holds
twice the state; `run_program` makes it when the first raw 4x4 gate runs and
reuses it for every later one, so a program without raw 4x4 gates never has
it.  The named gates share one read-only matrix each (one per exponent for
CPHASE), checked for unitarity once, when it is first built; a raw matrix is
checked on every `Gate`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import prod, sqrt
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

# Hard cap on register width: 2^24 amplitudes.
STATE_CAP = 24

UNITARY_TOL = 1e-10

# Largest number of amplitude pairs a butterfly or an exchange updates in one step.  A block's
# temporaries (128 KiB each) stay in cache: at 24 qubits this runs an H twice as fast as 2^16.
_BLOCK = 1 << 13

# Largest number of entries one block of draws holds: shots in `sample`, candidate members times
# labels in period.find_period.  Consecutive rng.random calls give the uniforms one call would.
_DRAW_BLOCK = 1 << 16


def _blocks(shape: tuple[int, ...]) -> Iterator[tuple]:
    """Index tuples that cover an array of this shape in pieces of at most _BLOCK entries."""
    inner = prod(shape[1:])
    if inner <= _BLOCK:
        rows = _BLOCK // inner
        for start in range(0, shape[0], rows):
            yield (slice(start, start + rows),)
    else:
        for row in range(shape[0]):
            for rest in _blocks(shape[1:]):
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


def _product(view: np.ndarray, u: np.ndarray, workspace: np.ndarray) -> None:
    """Multiply the (4, -1) gather of the view by u, through a workspace of 2 * view.size entries:
    the gather fills its first half and zgemm writes into its second."""
    gathered, product = workspace[: view.size].reshape(view.shape), workspace[view.size :].reshape(4, -1)
    np.copyto(gathered, view)
    np.matmul(u, gathered.reshape(4, -1), out=product)
    np.copyto(view, product.reshape(view.shape))


def _check_unitary(matrix: np.ndarray) -> None:
    if matrix.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"gate matrix has shape {matrix.shape}, expected 2x2 or 4x4")
    # Huge entries overflow to inf or NaN, which fail the check below without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = np.max(np.abs(matrix @ matrix.conj().T - np.eye(matrix.shape[0])))
    if not deviation <= UNITARY_TOL:
        raise ValueError(f"gate matrix is not unitary (deviation {deviation:.3e})")


# id of each shared named-gate matrix -> (the matrix, the in-place kernel that runs it or None
# for the butterfly).  Holding the matrix keeps it alive, so its id is never reused.
_SHARED: dict[int, tuple[np.ndarray, Callable[[np.ndarray], None] | None]] = {}

_NAMED = {
    "H": ([[1 / sqrt(2.0), 1 / sqrt(2.0)], [1 / sqrt(2.0), -1 / sqrt(2.0)]], None),
    "X": ([[0, 1], [1, 0]], partial(_exchange, a=(0,), b=(1,))),
    "CNOT": ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], partial(_exchange, a=(1, 0), b=(1, 1))),
    "SWAP": ([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], partial(_exchange, a=(0, 1), b=(1, 0))),
}

# 2.0**-e is 0.0 from here on, so every larger exponent shares the identity matrix and the
# cache of shared matrices stays bounded whatever exponents a program lists.
_PHASE_EXPONENT_LIMIT = 1075


@lru_cache(maxsize=None)
def _shared(name: str, exponent: int = 0) -> np.ndarray:
    """The one read-only matrix of a named gate (of each exponent for CPHASE), checked for
    unitarity when it is first asked for."""
    if name == "CPHASE":
        phase = np.exp(2j * np.pi * 2.0**-exponent)
        rows, kernel = np.diag([1, 1, 1, phase]), partial(_phase, phase=phase)
    else:
        rows, kernel = _NAMED[name]
    matrix = np.array(rows, dtype=np.complex128)
    _check_unitary(matrix)
    matrix.setflags(write=False)
    _SHARED[id(matrix)] = (matrix, kernel)
    return matrix


@dataclass(frozen=True)
class Gate:
    """A 1- or 2-qubit unitary bound to target wires; a raw matrix is checked for unitarity here."""

    matrix: np.ndarray
    targets: tuple[int, ...]
    name: str | None = None
    param: int | None = None

    def __post_init__(self) -> None:
        matrix = self.matrix
        if id(matrix) not in _SHARED:
            # A private copy, so freezing it leaves the caller's array writable.
            matrix = np.array(matrix, dtype=np.complex128)
            _check_unitary(matrix)
            matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        targets = tuple(int(t) for t in self.targets)
        if len(targets) != self.arity:
            raise ValueError(f"{self.arity}-qubit gate lists targets {targets}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"gate targets {targets} must be distinct")
        object.__setattr__(self, "targets", targets)

    @property
    def arity(self) -> int:
        return 1 if self.matrix.shape == (2, 2) else 2


def hadamard(target: int) -> Gate:
    return Gate(_shared("H"), (target,), name="H")


def pauli_x(target: int) -> Gate:
    return Gate(_shared("X"), (target,), name="X")


def cnot(control: int, target: int) -> Gate:
    return Gate(_shared("CNOT"), (control, target), name="CNOT")


def swap_gate(a: int, b: int) -> Gate:
    return Gate(_shared("SWAP"), (a, b), name="SWAP")


def cphase(control: int, target: int, exponent: int = 1) -> Gate:
    """Conditional phase diag(1, 1, 1, exp(2 pi i / 2^exponent)); exponent 1 gives CZ."""
    if not isinstance(exponent, int) or exponent < 1:
        raise ValueError(f"phase exponent {exponent!r} must be a positive integer")
    matrix = _shared("CPHASE", min(exponent, _PHASE_EXPONENT_LIMIT))
    return Gate(matrix, (control, target), name="CPHASE", param=exponent)


def _check_width(n_qubits: int) -> None:
    # Run before anything state-sized is allocated.
    if not 1 <= n_qubits <= STATE_CAP:
        raise ValueError(f"qubit count {n_qubits} outside [1, {STATE_CAP}]")


@dataclass(frozen=True)
class QState:
    """An n-qubit state vector; construction checks length and unit norm."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        _check_width(self.n_qubits)
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(f"amplitude vector has shape {amps.shape}, expected ({1 << self.n_qubits},)")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"state norm {norm!r} is not 1")
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
    _check_width(n_qubits)
    if not 0 <= index < (1 << n_qubits):
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    return QState(n_qubits, _basis_amps(n_qubits, index))


def _check_target(state: QState, target: int) -> None:
    if not 0 <= target < state.n_qubits:
        raise ValueError(f"target qubit {target} out of range for {state.n_qubits}-qubit state")


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
        _check_width(self.n_qubits)
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


def _run_gates(amps: np.ndarray, gates: Iterable[Gate]) -> None:
    """Run the gates in order on a writable amplitude buffer, in place: named gates by their own
    kernels, other 2x2 gates by the blocked butterfly, raw 4x4 gates by the product into one
    workspace made at the first of them.  B stacked 2^n-amplitude states each run as they would
    alone: every kernel works on its target bits only, with the same arithmetic on each amplitude."""
    workspace = None
    for gate in gates:
        view = _wire_view(amps, gate.targets)
        kernel = _SHARED.get(id(gate.matrix), (None, None))[1]
        if kernel is not None:
            kernel(view)
        elif len(gate.targets) == 1:
            _butterfly(view, gate.matrix)
        else:
            if workspace is None:
                workspace = np.empty(2 * amps.size, dtype=np.complex128)
            _product(view, gate.matrix, workspace)


# Generator.choice accepts a law whose sum is this far from 1.
_LAW_TOL = sqrt(np.finfo(np.float64).eps)


def _cdf(law: np.ndarray) -> np.ndarray:
    """The cumulative form of a law over 0 .. len(law) - 1, after the checks Generator.choice makes:
    finite, non-negative entries that sum to 1 within _LAW_TOL."""
    law = np.asarray(law, dtype=np.float64)
    if law.ndim != 1 or not law.size:
        raise ValueError(f"a law must be a non-empty vector, got shape {law.shape}")
    if not np.isfinite(law).all():
        raise ValueError("law has NaN or infinite entries")
    if (law < 0).any():
        raise ValueError("law has negative entries")
    total = law.sum()
    if not abs(total - 1.0) <= _LAW_TOL:
        raise ValueError(f"law sums to {total!r}, expected 1")
    cdf = law.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray, size: int | None = None) -> np.intp | np.ndarray:
    """Draws from the law whose _cdf is given: one index for size None, else an array of them.

    Generator.choice(len(law), size, p=law) draws exactly these, from the same uniforms, but
    checks the law and rebuilds its cdf on every call.
    """
    return cdf.searchsorted(rng.random(size), side="right")


def _probabilities(amps: np.ndarray) -> np.ndarray:
    p = np.abs(amps)
    p *= p
    total = p.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    p /= total
    return p


def measure_qubit_distribution(state: QState, qubit: int) -> dict[int, float]:
    """Born distribution {0: p0, 1: p1} of one qubit, no collapse."""
    _check_target(state, qubit)
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
    qs = sorted(set(int(q) for q in qubits), reverse=True)
    if not qs:
        raise ValueError("collapse_register needs at least one qubit")
    for q in qs:
        _check_target(state, q)
    values = _outcome_values(state.n_qubits, qs)
    law = np.bincount(values, weights=_probabilities(state.amps), minlength=1 << len(qs))
    law /= law.sum()
    outcome = int(_draw(rng, _cdf(law)))
    post = np.where(values == outcome, state.amps, 0.0)
    return format(outcome, f"0{len(qs)}b"), QState(state.n_qubits, post / np.linalg.norm(post))


def sample(state: QState, shots: int, rng: np.random.Generator) -> dict[str, int]:
    """Draw shots full-register outcomes; returns only the outcomes that occurred."""
    if shots < 1:
        raise ValueError(f"shot count {shots} must be positive")
    tally = _tally(rng, _cdf(_probabilities(state.amps)), shots)
    n = state.n_qubits
    return {format(i, f"0{n}b"): c for i, c in tally.items()}


def _tally(rng: np.random.Generator, cdf: np.ndarray, shots: int) -> dict[int, int]:
    """How often each outcome occurred in shots draws from the law whose _cdf is given, in
    ascending order of outcome.  Draws run in blocks of at most _DRAW_BLOCK, each counted and
    merged into the running counts, so memory follows the block and the outcomes seen, not the
    shots."""
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


_NAMED_BUILDERS = {
    "H": (1, lambda targets, param: hadamard(*targets)),
    "X": (1, lambda targets, param: pauli_x(*targets)),
    "CNOT": (2, lambda targets, param: cnot(*targets)),
    "SWAP": (2, lambda targets, param: swap_gate(*targets)),
    "CPHASE": (2, lambda targets, param: cphase(*targets, exponent=1 if param is None else param)),
}


def _is_int(value: object) -> bool:
    # A Python int, not a bool: bool is a subclass of int, and JSON true and false load as bool.
    return isinstance(value, int) and not isinstance(value, bool)


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
        if not isinstance(step, Mapping):
            raise ValueError(f"step {pos} must be an object")
        targets = step.get("targets")
        if not isinstance(targets, list) or not all(_is_int(t) for t in targets):
            raise ValueError(f"step {pos} needs an integer target list")
        if "gate" in step:
            name = step["gate"]
            if not isinstance(name, str) or name not in _NAMED_BUILDERS:
                raise ValueError(f"step {pos} names unknown gate {name!r}")
            arity, builder = _NAMED_BUILDERS[name]
            if len(targets) != arity:
                raise ValueError(f"step {pos}: gate {name} takes {arity} targets, got {len(targets)}")
            param = step.get("param")
            if param is not None and not _is_int(param):
                raise ValueError(f"step {pos}: param must be an integer, got {param!r}")
            steps.append(builder(targets, param))
        elif "matrix" in step:
            matrix = _matrix_from_json(step["matrix"])
            steps.append(Gate(matrix, tuple(targets)))
        else:
            raise ValueError(f'step {pos} needs either a "gate" name or a raw "matrix"')
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
