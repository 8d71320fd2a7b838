"""Gate network for the Fourier transform on Z_{2^m}.

The network is built one recursion level at a time.  Level k acts on the top k
wires (m-k .. m-1): conditional phases between the level's low wire and each
higher wire, one Hadamard on the low wire, then a cyclic relabelling that
sends the low wire's content to the top.  With reorder "swaps" every
relabelling is m-1 explicit adjacent swaps; with "relabel" (the default) the
swaps are deferred into a recorded final wire permutation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .groups import _is_int
from .simulator import Gate, Program, QState, _check_width, _run_gates, cphase, hadamard, swap_gate

REORDER_MODES = ("swaps", "relabel")


@dataclass(frozen=True)
class GateCountReport:
    hadamards: int
    cphases: int
    swaps: int
    total: int


@dataclass(frozen=True)
class GateList:
    """Compiled network: gates to run in order, plus the final wire permutation.

    final_permutation[x] is the wire that carries logical output bit x once
    the gates have run; in "swaps" mode it is the identity.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    reorder_mode: str
    final_permutation: tuple[int, ...]

    def to_program(self) -> Program:
        return Program(self.n_qubits, self.gates)

    def counts(self) -> GateCountReport:
        hs = sum(1 for g in self.gates if g.name == "H")
        cps = sum(1 for g in self.gates if g.name == "CPHASE")
        sws = sum(1 for g in self.gates if g.name == "SWAP")
        return GateCountReport(hs, cps, sws, len(self.gates))


def compile_qft(m: int, reorder_mode: str = "relabel") -> GateList:
    """Compile the transform network on m wires, at most the simulator's STATE_CAP.  The returned
    GateList is shared: every call with the same m and mode gets the same immutable network."""
    gate_count(m, reorder_mode)  # checks m and the mode
    # Program refuses such a width; emission is quadratic in m, so refuse it first.
    _check_width(m)
    return _build_network(int(m), reorder_mode)


@cache
def _build_network(m: int, reorder_mode: str) -> GateList:
    # Called only with checked inputs, so the cache holds at most STATE_CAP * 2 networks.  The
    # network on fixed wires, innermost level first.  wire_of[x] is where the content of
    # fixed-network wire x currently lives.  Gates are emitted on the mapped wires; with deferred
    # reordering swaps only update the map.
    gates: list[Gate] = []
    wire_of = list(range(m))
    for k in range(1, m + 1):
        base = m - k
        for p in range(1, k):
            # diag(1,1,1, w^(2^(p-1))) with w = exp(2 pi i / 2^k) is a phase of 2 pi / 2^(k-p+1).
            gates.append(cphase(wire_of[base], wire_of[base + p], exponent=k - p + 1))
        gates.append(hadamard(wire_of[base]))
        for a in range(base, m - 1):
            if reorder_mode == "swaps":
                gates.append(swap_gate(a, a + 1))
            else:
                wire_of[a], wire_of[a + 1] = wire_of[a + 1], wire_of[a]
    return GateList(m, tuple(gates), reorder_mode, tuple(wire_of))


def gate_count(m: int, reorder_mode: str = "relabel") -> GateCountReport:
    """Closed-form gate counts: m Hadamards, m(m-1)/2 conditional phases, swaps per mode."""
    if not _is_int(m) or m < 1:
        raise ValueError(f"wire count {m!r} must be a positive integer")
    m = int(m)
    if reorder_mode not in REORDER_MODES:
        raise ValueError(f"reorder mode {reorder_mode!r} not in {REORDER_MODES}")
    hs = m
    cps = m * (m - 1) // 2
    sws = m * (m - 1) // 2 if reorder_mode == "swaps" else 0
    return GateCountReport(hs, cps, sws, hs + cps + sws)


def apply_wire_permutation(state: QState, permutation: tuple[int, ...]) -> QState:
    """Reorder wires so that output bit x is read from wire permutation[x]."""
    n = state.n_qubits
    if not all(map(_is_int, permutation)) or sorted(permutation) != list(range(n)):
        raise ValueError(f"{permutation!r} is not a permutation of 0..{n - 1}")
    return QState(n, _permuted(state.amps[None], permutation)[0].flatten())


def _permuted(rows: np.ndarray, permutation: tuple[int, ...]) -> np.ndarray:
    # A view of each row of a (B, 2^n) array with its wires reordered, shape (B,) + (2,) * n.  Axis
    # n-1-w of a row's (2,)*n tensor holds wire w, so output axis n-1-x is input axis
    # n-1-permutation[x].
    n = len(permutation)
    axes = [n - permutation[n - 1 - k] for k in range(n)]
    return rows.reshape((len(rows),) + (2,) * n).transpose([0] + axes)


def apply_qft(state: QState) -> QState:
    """Run the compiled network on a copy of the state and undo the deferred wire relabelling: the
    one-row case of _run_network, with the unit norm checked once, on the result."""
    return QState(state.n_qubits, _run_network(compile_qft(state.n_qubits), state.amps[None])[0])


def _run_network(compiled: GateList, rows: np.ndarray) -> np.ndarray:
    # The transform of every row of a (B, 2^n) array, as a new array: the compiled gates run once
    # over a copy of the stacked rows, each row getting the arithmetic a run on its own gives it,
    # then each row's wires are reordered.  Rows are not checked for unit norm.
    amps = np.array(rows, dtype=np.complex128)
    _run_gates(amps, compiled.gates)
    return _permuted(amps, compiled.final_permutation).reshape(amps.shape)
