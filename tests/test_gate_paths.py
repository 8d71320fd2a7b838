"""The fast gate paths against the kernels they replace, byte for byte, and the shared named gates.

Each fast path keeps its plain counterpart as the oracle: a run of CPHASE gates on a gathered half
(`_phase_half`) against one `_phase` per gate, H's three-product butterfly (`_hadamard`)
against `_butterfly`, and the raw 4x4 product in column blocks against one product of the whole
state.  The states include exact zeros of both signs, where a sum written the other way
round (t0 - t1 for t0 + w) shows as a flipped sign bit.
"""
from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from abelianfft import (
    Gate,
    Program,
    cnot,
    compile_qft,
    cphase,
    hadamard,
    pauli_x,
    program_from_json,
    program_to_json,
    run_program,
    simulator,
    swap_gate,
)
from abelianfft.simulator import _NAMED, _butterfly, _exchange, _hadamard, _phase, _phase_half, _wire_view

from testutil import random_unitary

# Every width from 1 to 16, and one where the half of the state a CPHASE run gathers spans many
# blocks and a gate's bit is fixed across each block.
WIDTHS = list(range(1, 17)) + [20]


def _random_amps(n, rng):
    return rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)


def _signed_zero_amps(n, rng):
    # Real and imaginary parts drawn from +0, -0, +1 and -1 and a random magnitude, so every
    # combination of signed zeros meets every other, among them a0 = -0+1j against a1 = 0-1j.
    parts = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 0.3]), size=(2, 1 << n))
    return parts[0] + 1j * parts[1]


def _states(n):
    rng = np.random.default_rng(900 + n)
    return [_random_amps(n, rng), _signed_zero_amps(n, rng)]


def _wires(n):
    # Every wire up to 16 qubits; past that the low wires, whose runs are short, and a few high ones.
    return list(range(n)) if n <= 16 else [0, 1, 2, 5, 6, 13, 14, n - 1]


def _phase_runs(n, rng):
    # For each shared wire, a run over every other wire in a random order, both target orders, some
    # wires twice, exponents from CZ to a phase below one ulp of 1.
    for wire in _wires(n):
        others = [w for w in _wires(n) if w != wire]
        others = list(rng.permutation(others)) + list(rng.choice(others, size=min(3, len(others)), replace=False))
        yield wire, [
            ((wire, int(o)) if rng.random() < 0.5 else (int(o), wire), cphase(0, 1, int(rng.integers(1, 60))).matrix[3, 3])
            for o in others
        ]


@pytest.mark.parametrize("n", WIDTHS)
def test_cphase_run_on_the_gathered_half_equals_one_phase_per_gate(n):
    rng = np.random.default_rng(910 + n)
    for amps in _states(n):
        for wire, run in _phase_runs(n, rng):
            want, got = amps.copy(), amps.copy()
            for pair, phase in run:
                _phase(_wire_view(want, pair), phase)
            _phase_half(got, wire, [(a if a != wire else b, phase) for (a, b), phase in run])
            assert got.tobytes() == want.tobytes(), (n, wire)


def test_cphase_run_on_stacked_states_and_small_blocks(monkeypatch):
    # Three stacked 9-qubit states: a half of 3 * 2^8 amplitudes splits into blocks of 2^8, and
    # with a block of 4 into many blocks at every width.
    rng = np.random.default_rng(920)
    for block in (simulator._BLOCK, 4):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        for n in (3, 9):
            amps = np.concatenate([_random_amps(n, rng), _signed_zero_amps(n, rng), _random_amps(n, rng)])
            for wire, run in _phase_runs(n, rng):
                want, got = amps.copy(), amps.copy()
                for pair, phase in run:
                    _phase(_wire_view(want, pair), phase)
                _phase_half(got, wire, [(a if a != wire else b, phase) for (a, b), phase in run])
                assert got.tobytes() == want.tobytes(), (block, n, wire)


@pytest.mark.parametrize("n", WIDTHS)
def test_hadamard_equals_the_butterfly(n):
    u = hadamard(0).matrix
    for amps in _states(n):
        for wire in _wires(n):
            want, got = amps.copy(), amps.copy()
            _butterfly(_wire_view(want, (wire,)), u)
            _hadamard(_wire_view(got, (wire,)), u)
            assert got.tobytes() == want.tobytes(), (n, wire)


def test_hadamard_keeps_the_sign_of_an_exact_zero():
    # a0 = -0+1j, a1 = 0-1j: t0 + w gives +0 where t0 - t1 would give -0.
    amps = np.array([complex(-0.0, 1.0), complex(0.0, -1.0)])
    want = amps.copy()
    _butterfly(_wire_view(want, (0,)), hadamard(0).matrix)
    _hadamard(_wire_view(amps, (0,)), hadamard(0).matrix)
    assert amps.tobytes() == want.tobytes()
    assert np.signbit(amps.real).tolist() == np.signbit(want.real).tolist() == [False, False]


def _oracle_run(amps, gates):
    # One plain kernel per gate, on the listed wires: no relabelling, no runs.
    workspace = None
    for gate in gates:
        view = _wire_view(amps, gate.targets)
        if gate.name == "CPHASE":
            _phase(view, gate.matrix[3, 3])
        elif gate.name in ("X", "CNOT", "SWAP"):
            _exchange(view, *_NAMED[gate.name][1])
        elif gate.arity == 1:
            _butterfly(view, gate.matrix)
        else:
            workspace = np.empty(2 * amps.size, dtype=np.complex128) if workspace is None else workspace
            simulator._product(view, gate.matrix, workspace)
    return amps


@pytest.mark.parametrize("n", range(1, 17))
def test_runs_equal_gate_by_gate_plain_kernels(n):
    # The transform network both ways, and a random program of every kind whose CPHASE gates come in
    # runs on one wire, from a random state and one with signed zeros.
    rng = np.random.default_rng(930 + n)
    steps = []
    for _ in range(6):
        wire = int(rng.integers(n))
        steps += [cphase(wire, int(o), int(rng.integers(1, 9))) for o in rng.permutation(n) if o != wire]
        pick = rng.permutation(n)
        steps += [hadamard(int(pick[0])), pauli_x(int(pick[-1])), Gate(random_unitary(2, rng), (int(pick[0]),))]
        if n > 1:
            steps += [cnot(int(pick[0]), int(pick[1])), swap_gate(int(pick[1]), int(pick[0])),
                      Gate(random_unitary(4, rng), (int(pick[-1]), int(pick[0])))]
    programs = [compile_qft(n, "swaps").to_program(), Program(n, compile_qft(n).gates), Program(n, tuple(steps))]
    for amps in _states(n):
        amps = amps / np.linalg.norm(amps)
        for program in programs:
            want = _oracle_run(amps.copy(), program.steps)
            got = amps.copy()
            simulator._run_gates(got, program.steps)
            assert got.tobytes() == want.tobytes(), n


def test_the_network_takes_the_gathered_half(monkeypatch):
    # From 12 wires on every level's run of three or more phases goes through _phase_half; the
    # shorter runs, and every run on fewer wires, go through _phase one gate at a time.
    calls = {"half": 0, "phase": 0}
    half, phase = simulator._phase_half, simulator._phase

    def counted_half(*args):
        calls["half"] += 1
        half(*args)

    def counted_phase(*args):
        calls["phase"] += 1
        phase(*args)

    monkeypatch.setattr(simulator, "_phase_half", counted_half)
    monkeypatch.setattr(simulator, "_phase", counted_phase)
    run_program(compile_qft(12).to_program())
    assert calls == {"half": 9, "phase": 3}
    calls.update(half=0, phase=0)
    run_program(compile_qft(11).to_program())
    assert calls == {"half": 0, "phase": 55}


@pytest.fixture
def halves(monkeypatch):
    # The wire and the other wires of every run that goes through _phase_half.
    calls = []
    half = simulator._phase_half

    def recorded(amps, wire, phases):
        calls.append((wire, [other for other, _ in phases]))
        half(amps, wire, phases)

    monkeypatch.setattr(simulator, "_phase_half", recorded)
    return calls


@pytest.mark.parametrize("n", [12, 14])
def test_a_cphase_on_other_wires_ends_the_run(n, halves):
    # Each run stops at the first CPHASE that shares no wire with it; the last one, alone, runs as
    # one _phase.  The first run's first two gates share both wires.
    gates = (cphase(3, 0, 2), cphase(0, 3, 5), cphase(3, 1, 3), cphase(2, 3, 7), cphase(5, 6, 1), cphase(7, 5, 4),
             cphase(5, n - 1, 9), cphase(9, 10, 2))
    for amps in _states(n):
        want, got = _oracle_run(amps.copy(), gates), amps.copy()
        simulator._run_gates(got, gates)
        assert got.tobytes() == want.tobytes(), n
    assert halves == [(3, [0, 0, 1, 2]), (5, [6, 7, n - 1])] * 2


def test_a_cphase_run_split_by_a_swap_is_one_run(halves):
    # The SWAP moves no amplitude: wire 7 then holds wire 3's content, so the two CPHASE gates on
    # wire 7 after it act on wire 3 and join the run before it.
    n = 12
    gates = (cphase(3, 0, 2), cphase(3, 1, 3), swap_gate(3, 7), cphase(7, 2, 4), cphase(4, 7, 6), hadamard(7))
    steps, wire_of = simulator._relabelled(gates)
    assert [(gate.name, targets) for gate, targets in steps] == [
        ("CPHASE", (3, 0)), ("CPHASE", (3, 1)), ("CPHASE", (3, 2)), ("CPHASE", (4, 3)), ("H", (3,))
    ]
    assert wire_of == {3: 7, 7: 3}
    for amps in _states(n):
        want, got = _oracle_run(amps.copy(), gates), amps.copy()
        simulator._run_gates(got, gates)
        assert got.tobytes() == want.tobytes()
    assert halves == [(3, [0, 1, 2, 4])] * 2


def test_cphase_run_and_exchanges_allocate_under_one_mib_at_22_qubits():
    n = 22
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[[0, 5, 1 << 20, (1 << n) - 1]] = 0.5
    run = tuple(cphase(3, w, 1 + w % 7) for w in range(n) if w != 3)
    exchanges = tuple(pauli_x(w) for w in range(1, 6))
    exchanges += (cnot(5, 1), cnot(1, 21), swap_gate(2, 4), swap_gate(21, 3), swap_gate(0, 1))
    for gates in (run, exchanges):
        tracemalloc.start()
        try:
            simulator._run_gates(amps, gates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
    want = np.zeros(1 << n, dtype=np.complex128)
    want[[0, 5, 1 << 20, (1 << n) - 1]] = 0.5
    assert np.array_equal(amps, _oracle_run(want, run + exchanges))


def _whole_product(view, u):
    # One zgemm over the whole (4, -1) gather, as the product ran before it was blocked.
    view[...] = np.matmul(u, np.ascontiguousarray(view).reshape(4, -1)).reshape(view.shape)


@pytest.mark.parametrize("n", [n for n in WIDTHS if n >= 2])
def test_blocked_product_equals_the_whole_state_product(n):
    # Up to 24 ordered wire pairs per state (6 at 20 qubits, where the state spans 64 blocks).
    rng = np.random.default_rng(940 + n)
    wires = _wires(n)
    pairs = [(a, b) for a in wires for b in wires if a != b]
    for amps in _states(n):
        for pair in [pairs[i] for i in rng.permutation(len(pairs))[: 6 if n > 16 else 24]]:
            u = random_unitary(4, rng)
            want, got = amps.copy(), amps.copy()
            _whole_product(_wire_view(want, pair), u)
            simulator._run_gates(got, (Gate(u, pair),))
            assert got.tobytes() == want.tobytes(), (n, pair)


def test_raw_product_allocates_under_one_mib_at_22_qubits():
    n = 22
    rng = np.random.default_rng(960)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[[0, 5, 1 << 20, (1 << n) - 1]] = 0.5
    gates = (Gate(random_unitary(4, rng), (n - 1, 0)), Gate(random_unitary(4, rng), (2, 13)))
    want = amps.copy()
    tracemalloc.start()
    try:
        simulator._run_gates(amps, gates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
    for gate in gates:
        _whole_product(_wire_view(want, gate.targets), gate.matrix)
    assert amps.tobytes() == want.tobytes()


def test_named_gates_are_shared():
    assert hadamard(0) is hadamard(0)
    assert cphase(0, 1, 3) is cphase(0, 1, 3) is not cphase(0, 1, 4)
    assert cphase(0, 1) is cphase(0, 1, 1)
    assert cnot(0, 1) is not cnot(1, 0)
    program = {"n": 3, "steps": [{"gate": "H", "targets": [2]}, {"gate": "CPHASE", "targets": [2, 0]}]}
    first, second = program_from_json(program), program_from_json(json.loads(json.dumps(program)))
    assert first.steps[0] is second.steps[0] is hadamard(2)
    assert first.steps[1] is cphase(2, 0, 1)


def test_numpy_integer_arguments_still_build_gates():
    gate = cnot(np.int64(1), 2)
    assert gate.targets == (1, 2) and all(type(t) is int for t in gate.targets)
    assert gate.matrix is cnot(1, 2).matrix
    assert cphase(0, 1, np.int64(2)).param == 2 and type(cphase(0, 1, np.int64(2)).param) is int
    step = program_from_json({"n": 2, "steps": [{"gate": "X", "targets": [np.int64(1)]}]}).steps[0]
    assert step.targets == (1,) and type(step.targets[0]) is int


@pytest.mark.parametrize(
    "step, message",
    [
        ({"gate": "H", "targets": [True]}, "step 0: needs an integer target list"),
        ({"gate": "H", "targets": [1.0]}, "step 0: needs an integer target list"),
        ({"gate": "CPHASE", "targets": [0, 1], "param": True}, "step 0: CPHASE param True must be a positive integer"),
        ({"gate": "CPHASE", "targets": [0, 1], "param": 2.0}, "step 0: CPHASE param 2.0 must be a positive integer"),
        ({"gate": "H", "targets": [0], "param": 1}, "step 0: gate H takes no param, got 1"),
        ({"gate": "X", "targets": [0, 0]}, r"step 0: gate targets \(0, 0\) must be distinct integers"),
        ({"gate": "Y", "targets": [0]}, "step 0: unknown gate 'Y'"),
    ],
    ids=["target bool", "target float", "param bool", "param float", "H with param", "repeated target", "unknown"],
)
def test_the_gate_cache_refuses_what_gate_refuses(step, message):
    # Warm the cache with the integer form first: 1 == True == 1.0 must not hit it.
    program_from_json({"n": 2, "steps": [{"gate": "H", "targets": [1]}, {"gate": "CPHASE", "targets": [0, 1], "param": 1}]})
    with pytest.raises(ValueError, match=f"^{message}$"):
        program_from_json({"n": 2, "steps": [step]})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hadamard(True), r"gate targets \(True,\) must be distinct integers"),
        (lambda: hadamard(1.0), r"gate targets \(1.0,\) must be distinct integers"),
        (lambda: cphase(0, 1, True), "CPHASE param True must be a positive integer"),
        (lambda: cnot(1, 1), r"gate targets \(1, 1\) must be distinct integers"),
    ],
    ids=["target bool", "target float", "exponent bool", "repeated target"],
)
def test_the_gate_builders_refuse_what_gate_refuses(call, message):
    hadamard(1), cphase(0, 1, 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_the_gate_cache_is_bounded():
    cache = simulator._shared_gate
    limit = cache.cache_info().maxsize
    assert limit is not None and limit >= 576  # every gate of a 24-wire network
    for exponent in range(1, limit + 50):
        cphase(0, 1, exponent)
    assert cache.cache_info().currsize <= limit
    # An evicted gate is built again, on the shared matrix.
    again = cphase(0, 1, 1)
    assert again.matrix is cphase(0, 1, 1).matrix and program_to_json(Program(2, (again,)))["steps"][0]["param"] == 1
