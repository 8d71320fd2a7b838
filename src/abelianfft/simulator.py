"""Qubit state-vector simulator with strided one- and two-qubit kernels.

Qubit 0 is the LEAST significant bit of the amplitude index throughout, and
outcome strings are written most significant qubit first.  In a two-qubit gate
matrix the first listed target is the more significant bit of the 4x4 basis.
All randomness comes from an explicitly passed numpy Generator.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Iterable, Mapping, Sequence

import numpy as np

# Hard cap on register width: 2^24 amplitudes.
STATE_CAP = 24

UNITARY_TOL = 1e-10

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


@dataclass(frozen=True)
class Gate:
    """A 1- or 2-qubit unitary bound to target wires; unitarity is checked on construction."""

    matrix: np.ndarray
    targets: tuple[int, ...]
    name: str | None = None
    param: int | None = None

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.complex128)
        if matrix.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"gate matrix has shape {matrix.shape}, expected 2x2 or 4x4")
        deviation = np.max(np.abs(matrix @ matrix.conj().T - np.eye(matrix.shape[0])))
        if deviation > UNITARY_TOL:
            raise ValueError(f"gate matrix is not unitary (deviation {deviation:.3e})")
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
        return 1 if np.asarray(self.matrix).shape == (2, 2) else 2


def hadamard(target: int) -> Gate:
    return Gate(_H, (target,), name="H")


def pauli_x(target: int) -> Gate:
    return Gate(_X, (target,), name="X")


def cnot(control: int, target: int) -> Gate:
    return Gate(_CNOT, (control, target), name="CNOT")


def swap_gate(a: int, b: int) -> Gate:
    return Gate(_SWAP, (a, b), name="SWAP")


def cphase(control: int, target: int, exponent: int = 1) -> Gate:
    """Conditional phase diag(1, 1, 1, exp(2 pi i / 2^exponent)); exponent 1 gives CZ."""
    if not isinstance(exponent, int) or exponent < 1:
        raise ValueError(f"phase exponent {exponent!r} must be a positive integer")
    matrix = np.eye(4, dtype=np.complex128)
    matrix[3, 3] = np.exp(2j * np.pi / (1 << exponent))
    return Gate(matrix, (control, target), name="CPHASE", param=exponent)


@dataclass(frozen=True)
class QState:
    """An n-qubit state vector; construction checks length and unit norm."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= STATE_CAP:
            raise ValueError(f"qubit count {self.n_qubits} outside [1, {STATE_CAP}]")
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(f"amplitude vector has shape {amps.shape}, expected ({1 << self.n_qubits},)")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm {norm!r} is not 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


def new_state(n_qubits: int) -> QState:
    """|0...0> on n qubits."""
    if not 1 <= n_qubits <= STATE_CAP:
        raise ValueError(f"qubit count {n_qubits} outside [1, {STATE_CAP}]")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return QState(n_qubits, amps)


def basis_state(n_qubits: int, index: int) -> QState:
    if not 0 <= index < (1 << n_qubits):
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return QState(n_qubits, amps)


def _check_target(state: QState, target: int) -> None:
    if not 0 <= target < state.n_qubits:
        raise ValueError(f"target qubit {target} out of range for {state.n_qubits}-qubit state")


def apply_1q(state: QState, gate: Gate, target: int | None = None) -> QState:
    """Apply a one-qubit gate: 2^(n-1) two-vector multiplies over the strided pairs."""
    if gate.arity != 1:
        raise ValueError("apply_1q needs a 2x2 gate")
    t = gate.targets[0] if target is None else int(target)
    _check_target(state, t)
    shaped = state.amps.reshape(-1, 2, 1 << t)
    u = gate.matrix
    out = np.empty_like(shaped)
    out[:, 0, :] = u[0, 0] * shaped[:, 0, :] + u[0, 1] * shaped[:, 1, :]
    out[:, 1, :] = u[1, 0] * shaped[:, 0, :] + u[1, 1] * shaped[:, 1, :]
    return QState(state.n_qubits, out.reshape(-1))


def apply_2q(state: QState, gate: Gate, targets: tuple[int, int] | None = None) -> QState:
    """Apply a two-qubit gate; the first listed target is the more significant bit of the 4x4 basis."""
    if gate.arity != 2:
        raise ValueError("apply_2q needs a 4x4 gate")
    hi, lo = gate.targets if targets is None else (int(targets[0]), int(targets[1]))
    _check_target(state, hi)
    _check_target(state, lo)
    if hi == lo:
        raise ValueError(f"two-qubit gate targets ({hi}, {lo}) must be distinct")
    n = state.n_qubits
    tensor = state.amps.reshape((2,) * n)
    moved = np.moveaxis(tensor, (n - 1 - hi, n - 1 - lo), (0, 1))
    flat = gate.matrix @ moved.reshape(4, -1)
    restored = np.moveaxis(flat.reshape((2, 2) + (2,) * (n - 2)), (0, 1), (n - 1 - hi, n - 1 - lo))
    return QState(n, np.ascontiguousarray(restored).reshape(-1))


@dataclass(frozen=True)
class Program:
    """A register width and a straight-line gate sequence."""

    n_qubits: int
    steps: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= STATE_CAP:
            raise ValueError(f"qubit count {self.n_qubits} outside [1, {STATE_CAP}]")
        object.__setattr__(self, "steps", tuple(self.steps))
        for pos, gate in enumerate(self.steps):
            for t in gate.targets:
                if not 0 <= t < self.n_qubits:
                    raise ValueError(f"step {pos} targets qubit {t}, register has {self.n_qubits}")


def run_program(program: Program, initial: QState | None = None) -> QState:
    """Run the gate sequence from |0...0> (or the given state) and return the final state."""
    state = new_state(program.n_qubits) if initial is None else initial
    if state.n_qubits != program.n_qubits:
        raise ValueError(f"initial state has {state.n_qubits} qubits, program needs {program.n_qubits}")
    for gate in program.steps:
        state = apply_1q(state, gate) if gate.arity == 1 else apply_2q(state, gate)
    return state


def _probabilities(amps: np.ndarray) -> np.ndarray:
    p = np.abs(amps) ** 2
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return p / total


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
    p = _probabilities(state.amps)
    width = len(qs)
    outcome_probs = np.bincount(values, weights=p, minlength=1 << width)
    outcome_probs /= outcome_probs.sum()
    outcome = int(rng.choice(1 << width, p=outcome_probs))
    keep = values == outcome
    post = np.where(keep, state.amps, 0.0)
    post = post / np.linalg.norm(post)
    return format(outcome, f"0{width}b"), QState(state.n_qubits, post)


def sample(state: QState, shots: int, rng: np.random.Generator) -> dict[str, int]:
    """Draw shots full-register outcomes; returns only the outcomes that occurred."""
    if shots < 1:
        raise ValueError(f"shot count {shots} must be positive")
    p = _probabilities(state.amps)
    draws = rng.choice(len(p), size=shots, p=p)
    counts = np.bincount(draws, minlength=len(p))
    n = state.n_qubits
    return {format(i, f"0{n}b"): int(c) for i, c in enumerate(counts) if c}


def _complex_from_json(entry: object) -> complex:
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise ValueError(f"complex entry {entry!r} must be a [re, im] pair")
    try:
        return complex(float(entry[0]), float(entry[1]))
    except TypeError:
        raise ValueError(f"complex entry {entry!r} must hold two real numbers") from None


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


def program_from_json(obj: Mapping) -> Program:
    """Parse {"n": int, "steps": [...]} with named gates or raw [re, im] matrices."""
    if not isinstance(obj, Mapping):
        raise ValueError("program must be a JSON object")
    if "n" not in obj or "steps" not in obj:
        raise ValueError('program needs "n" and "steps" fields')
    n = obj["n"]
    if not isinstance(n, int):
        raise ValueError(f'program field "n" must be an integer, got {n!r}')
    if not isinstance(obj["steps"], (list, tuple)):
        raise ValueError(f'program field "steps" must be a list, got {obj["steps"]!r}')
    steps: list[Gate] = []
    for pos, step in enumerate(obj["steps"]):
        if not isinstance(step, Mapping):
            raise ValueError(f"step {pos} must be an object")
        targets = step.get("targets")
        if not isinstance(targets, list) or not all(isinstance(t, int) for t in targets):
            raise ValueError(f"step {pos} needs an integer target list")
        if "gate" in step:
            name = step["gate"]
            if name not in _NAMED_BUILDERS:
                raise ValueError(f"step {pos} names unknown gate {name!r}")
            arity, builder = _NAMED_BUILDERS[name]
            if len(targets) != arity:
                raise ValueError(f"step {pos}: gate {name} takes {arity} targets, got {len(targets)}")
            param = step.get("param")
            if param is not None and not isinstance(param, int):
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
