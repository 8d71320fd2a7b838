"""Strided gate kernels against dense Kronecker oracles, measurement semantics, program JSON."""
from __future__ import annotations

import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelianfft import (
    Gate,
    Program,
    QState,
    apply_1q,
    apply_2q,
    basis_state,
    cnot,
    collapse_register,
    cphase,
    hadamard,
    measure_qubit_distribution,
    new_state,
    pauli_x,
    program_from_json,
    program_to_json,
    run_program,
    sample,
    swap_gate,
)
from abelianfft import (
    FunctionTable,
    apply_wire_permutation,
    compile_qft,
    fft_radix2,
    find_period,
    fourier_basis_state,
    fourier_sample,
    make_group,
    simulator,
    two_to_one_table,
    walsh_hadamard,
)
from abelianfft.simulator import STATE_CAP

from test_acceptance import TOL_KRON
from testutil import one_qubit_dense, random_unitary, two_qubit_dense


def _random_state(n, rng):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return QState(n, amps / np.linalg.norm(amps))


def test_frozen_gate_matrices():
    h = hadamard(0).matrix
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)
    assert np.allclose(pauli_x(0).matrix, [[0, 1], [1, 0]], atol=0)
    want_cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert np.allclose(cnot(1, 0).matrix, want_cnot, atol=0)
    want_swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert np.allclose(swap_gate(0, 1).matrix, want_swap, atol=0)
    cz = cphase(0, 1, 1).matrix
    assert np.allclose(cz, np.diag([1, 1, 1, -1]), atol=1e-15)
    cs = cphase(0, 1, 2).matrix
    assert np.allclose(cs, np.diag([1, 1, 1, 1j]), atol=1e-15)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(np.array([[1, 1], [0, 1]]), (0,))  # not unitary
    with pytest.raises(ValueError):
        Gate(np.diag([1, 1, 1, 1.5]), (0, 1))  # not unitary
    with pytest.raises(ValueError):
        Gate(np.eye(3), (0,))  # bad shape
    with pytest.raises(ValueError):
        Gate(np.eye(4), (1, 1))  # repeated targets
    with pytest.raises(ValueError):
        Gate(np.eye(2), (0, 1))  # arity mismatch
    with pytest.raises(ValueError):
        cphase(0, 1, 0)
    with pytest.raises(ValueError):
        cphase(0, 1, exponent=-2)


def test_named_gates_share_one_read_only_matrix():
    for build in (hadamard, pauli_x, lambda t: cnot(t, 5), lambda t: swap_gate(5, t), lambda t: cphase(t, 5, 3)):
        first, second = build(0), build(2)
        assert first.matrix is second.matrix
        assert not first.matrix.flags.writeable
        with pytest.raises(ValueError):
            first.matrix[0, 0] = 0.0
    assert cphase(0, 1, 2).matrix is not cphase(0, 1, 3).matrix
    # Past 2^-1074 the phase is exactly 1: one shared identity, however large the exponent.
    assert np.array_equal(cphase(0, 1, 1100).matrix, np.eye(4))
    assert cphase(0, 1, 1100).matrix is cphase(0, 1, 10**9).matrix and cphase(0, 1, 10**9).param == 10**9
    # A raw matrix is its own, and checked: a writable copy of a named matrix is frozen too.
    raw = Gate(hadamard(0).matrix.copy(), (1,))
    assert raw.matrix is not hadamard(0).matrix and not raw.matrix.flags.writeable


def test_gate_leaves_the_callers_matrix_writable():
    for matrix, targets in ((np.eye(2, dtype=np.complex128), (0,)), (np.eye(4, dtype=np.complex128), (0, 1))):
        gate = Gate(matrix, targets)
        assert matrix.flags.writeable and not gate.matrix.flags.writeable
        matrix[0, 0] = 0.0
        assert gate.matrix[0, 0] == 1.0


def test_state_validation():
    with pytest.raises(ValueError):
        QState(1, np.array([1.0, 1.0]))  # norm sqrt(2)
    with pytest.raises(ValueError):
        QState(2, np.array([1.0, 0.0]))  # wrong length
    with pytest.raises(ValueError):
        new_state(0)
    with pytest.raises(ValueError):
        new_state(STATE_CAP + 1)
    with pytest.raises(ValueError):
        basis_state(2, 4)


def test_nan_fails_every_tolerance_check():
    # A comparison with NaN is false, so each check is written to fail on it rather than pass it.
    with pytest.raises(ValueError, match="not unitary"):
        Gate(np.array([[np.nan, 0], [0, 1]]), (0,))
    with pytest.raises(ValueError, match="not unitary"):
        Gate(np.diag([1, 1, 1, np.nan]), (0, 1))
    with pytest.raises(ValueError, match=r"norm .*nan.* is not 1"):
        QState(1, np.array([np.nan, 0]))
    # Huge entries overflow the norm to inf or NaN: refused, and without a RuntimeWarning.
    for entry in (1e200, np.inf, complex(np.inf, 1)):
        with pytest.raises(ValueError, match=r"^state norm .* is not 1$"):
            QState(1, np.array([entry, 0]))


@pytest.mark.parametrize("norm", [1 + 8e-10, 1 - 8e-10])
def test_every_accepted_state_can_be_measured(norm):
    # QState accepts a norm within 1e-9 of 1, so measurement must too: it reads the squared norm,
    # which is twice as far from 1, and normalises it away.
    state = QState(2, np.array([0.6, 0, 0, 0.8]) * norm)
    assert abs(np.linalg.norm(state.amps) - norm) < 1e-15
    dist = measure_qubit_distribution(state, 0)
    assert abs(dist[1] - 0.64) < 1e-12 and dist[0] + dist[1] == 1.0
    counts = sample(state, 1000, np.random.default_rng(0))
    assert set(counts) <= {"00", "11"} and sum(counts.values()) == 1000
    outcome, post = collapse_register(state, [1], np.random.default_rng(0))
    assert abs(post.amps[int(outcome) * 3] - 1.0) < 1e-15 and np.count_nonzero(post.amps) == 1


def test_new_and_basis_state():
    s = new_state(3)
    assert s.amps[0] == 1.0 and np.count_nonzero(s.amps) == 1
    b = basis_state(3, 5)
    assert b.amps[5] == 1.0 and np.count_nonzero(b.amps) == 1


@pytest.mark.parametrize("n", [STATE_CAP + 1, 64])
def test_basis_state_rejects_oversized_width_before_allocating(n):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            basis_state(n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == f"qubit count {n} outside [1, {STATE_CAP}]"
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_apply_1q_matches_kron_oracle(n):
    rng = np.random.default_rng(10 + n)
    state = _random_state(n, rng)
    for target in range(n):
        u = random_unitary(2, rng)
        got = apply_1q(state, Gate(u, (target,)))
        want = one_qubit_dense(n, u, target) @ state.amps
        assert np.max(np.abs(got.amps - want)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_apply_2q_matches_dense_oracle(n):
    rng = np.random.default_rng(20 + n)
    state = _random_state(n, rng)
    for hi in range(n):
        for lo in range(n):
            if hi == lo:
                continue
            u = random_unitary(4, rng)
            got = apply_2q(state, Gate(u, (hi, lo)))
            want = two_qubit_dense(n, u, hi, lo) @ state.amps
            assert np.max(np.abs(got.amps - want)) < 1e-12


def test_first_listed_target_is_more_significant():
    # CNOT(control=1, target=0) must flip bit 0 exactly when bit 1 is set
    state = basis_state(2, 0b10)
    out = apply_2q(state, cnot(1, 0))
    assert out.amps[0b11] == pytest.approx(1.0)
    out2 = apply_2q(basis_state(2, 0b01), cnot(1, 0))
    assert out2.amps[0b01] == pytest.approx(1.0)


def test_qubit0_is_least_significant():
    out = apply_1q(new_state(2), pauli_x(0))
    assert out.amps[0b01] == pytest.approx(1.0)
    out = apply_1q(new_state(2), pauli_x(1))
    assert out.amps[0b10] == pytest.approx(1.0)


def test_target_range_checks():
    state = new_state(2)
    with pytest.raises(ValueError):
        apply_1q(state, hadamard(2))
    with pytest.raises(ValueError):
        apply_2q(state, cnot(0, 2))
    with pytest.raises(ValueError):
        apply_1q(state, cnot(0, 1))
    with pytest.raises(ValueError):
        apply_2q(state, hadamard(0))


def test_bell_state_distribution():
    program = Program(2, (hadamard(0), cnot(0, 1)))
    state = run_program(program)
    want = np.zeros(4, dtype=np.complex128)
    want[0b00] = want[0b11] = 1 / np.sqrt(2)
    assert np.max(np.abs(state.amps - want)) < 1e-12
    for q in (0, 1):
        dist = measure_qubit_distribution(state, q)
        assert dist[0] == pytest.approx(0.5, abs=1e-10)
        assert dist[1] == pytest.approx(0.5, abs=1e-10)


def test_program_validation():
    with pytest.raises(ValueError):
        Program(1, (cnot(0, 1),))
    with pytest.raises(ValueError):
        Program(0, ())
    with pytest.raises(ValueError):
        run_program(Program(2, ()), initial=new_state(3))


def test_collapse_register_semantics():
    rng = np.random.default_rng(0)
    program = Program(2, (hadamard(0), cnot(0, 1)))
    state = run_program(program)
    for _ in range(20):
        outcome, post = collapse_register(state, [0, 1], rng)
        assert outcome in ("00", "11")
        idx = int(outcome, 2)
        assert post.amps[idx] == pytest.approx(1.0, abs=1e-12)
        assert np.count_nonzero(np.abs(post.amps) > 1e-12) == 1


def test_collapse_partial_register():
    rng = np.random.default_rng(7)
    state = run_program(Program(2, (hadamard(0), cnot(0, 1))))
    outcome, post = collapse_register(state, [1], rng)
    assert outcome in ("0", "1")
    # after measuring qubit 1 the Bell state leaves qubit 0 equal to the outcome
    dist = measure_qubit_distribution(post, 0)
    assert dist[int(outcome)] == pytest.approx(1.0, abs=1e-10)


def test_collapse_outcome_string_order():
    # qubit 1 high, qubit 0 low regardless of passed order
    state = basis_state(2, 0b10)
    rng = np.random.default_rng(1)
    outcome, _ = collapse_register(state, [0, 1], rng)
    assert outcome == "10"
    outcome, _ = collapse_register(state, [1, 0], rng)
    assert outcome == "10"
    with pytest.raises(ValueError):
        collapse_register(state, [], rng)


def test_collapse_seeded_reproducibility():
    state = run_program(Program(3, (hadamard(0), hadamard(1), hadamard(2))))
    a = [collapse_register(state, [0, 1, 2], np.random.default_rng(99))[0] for _ in range(5)]
    b = [collapse_register(state, [0, 1, 2], np.random.default_rng(99))[0] for _ in range(5)]
    assert a == b


def test_sample_counts():
    state = run_program(Program(2, (hadamard(0), cnot(0, 1))))
    counts = sample(state, 1000, np.random.default_rng(5))
    assert set(counts) <= {"00", "11"}
    assert sum(counts.values()) == 1000
    again = sample(state, 1000, np.random.default_rng(5))
    assert counts == again
    with pytest.raises(ValueError):
        sample(state, 0, np.random.default_rng(5))


def test_sample_only_reports_occurring_outcomes():
    counts = sample(basis_state(2, 3), 50, np.random.default_rng(2))
    assert counts == {"11": 50}


@pytest.mark.parametrize(
    "shots, seed, expected",
    [
        (65536, 4, {"000": 16423, "001": 8101, "011": 8124, "100": 13978, "101": 2362, "110": 2443, "111": 14105}),
        (65537, 5, {"000": 16400, "001": 8102, "011": 8271, "100": 14063, "101": 2432, "110": 2279, "111": 13990}),
        (150001, 6, {"000": 37582, "001": 18858, "011": 18598, "100": 32069, "101": 5440, "110": 5544, "111": 31910}),
    ],
)
def test_sample_counts_pinned_across_draw_blocks(shots, seed, expected):
    # Recorded when every shot was drawn in one call: one block, one block and a shot, three blocks.
    state = run_program(
        Program(3, (hadamard(0), hadamard(1), hadamard(2), cphase(0, 1, 2), cphase(1, 2, 3), hadamard(1)))
    )
    counts = sample(state, shots, np.random.default_rng(seed))
    assert counts == expected and list(counts) == sorted(expected)


def test_sample_memory_follows_the_draw_block_not_the_shots():
    # Drawing 4,000,000 shots at once peaked at 69 MiB; blocks of draws keep far below a quarter of it.
    state = QState(1, np.array([0.6, 0.8]))
    tracemalloc.start()
    try:
        counts = sample(state, 4_000_000, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 4_000_000 and set(counts) == {"0", "1"}
    assert peak < 69 * 2**20 / 4, f"peak {peak / 2**20:.1f} MiB"


def test_measurement_is_pure_function():
    state = run_program(Program(2, (hadamard(0),)))
    before = state.amps.copy()
    sample(state, 100, np.random.default_rng(3))
    collapse_register(state, [0], np.random.default_rng(3))
    measure_qubit_distribution(state, 0)
    assert np.array_equal(state.amps, before)


def _random_law(rng, n):
    # Nonnegative weights with exact zeros scattered and, often, a run of them at the end.
    law = rng.random(n) ** 3
    law[rng.random(n) < 0.3] = 0.0
    law[n - int(rng.integers(0, n // 2 + 1)):] = 0.0
    if not law.any():
        law[0] = 1.0
    return law / law.sum()


@pytest.mark.parametrize("size", [None, 1, 37])
def test_draw_equals_generator_choice(size):
    # The one draw primitive draws what Generator.choice(n, p=law) draws and leaves the generator
    # where choice leaves it, so a numpy release that changes choice fails here.
    source = np.random.default_rng(2024)
    for seed in range(200):
        n = int(source.integers(1, 300))
        law = _random_law(source, n)
        cdf = simulator._cdf(law)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            drawn, expected = simulator._draw(ours, cdf, size), theirs.choice(n, size=size, p=law)
            assert np.shape(drawn) == np.shape(expected) and np.array_equal(drawn, expected)
        assert ours.random() == theirs.random()


@pytest.mark.parametrize(
    "law",
    [[np.nan, 1.0], [np.inf, 0.0], [-0.25, 1.25], [0.5, 0.4], [0.5, 0.5 + 1e-7], [], [[1.0]]],
    ids=["NaN", "infinite", "negative", "short sum", "long sum", "empty", "not a vector"],
)
def test_cdf_refuses_the_laws_choice_refuses(law):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(law), p=law)
    with pytest.raises(ValueError):
        simulator._cdf(law)


def test_stacked_cdf_is_each_row_alone():
    source = np.random.default_rng(7)
    for n in (1, 2, 37, 256):
        laws = np.stack([_random_law(source, n) for _ in range(5)])
        stacked = simulator._cdf(laws, stacked=True)
        assert [row.tobytes() for row in stacked] == [simulator._cdf(law).tobytes() for law in laws]


@pytest.mark.parametrize(
    "law",
    [[np.nan, 1.0], [np.inf, 0.0], [-0.25, 1.25], [0.5, 0.4], [0.5, 0.5 + 1e-7]],
    ids=["NaN", "infinite", "negative", "short sum", "long sum"],
)
def test_stacked_cdf_refuses_a_bad_row_as_alone(law):
    with pytest.raises(ValueError) as alone:
        simulator._cdf(law)
    with pytest.raises(ValueError, match=f"^{re.escape(str(alone.value))}$"):
        simulator._cdf([[0.5, 0.5], law], stacked=True)


@pytest.mark.parametrize("shape", [(2,), (0, 2), (2, 0), (1, 1, 1)])
def test_stacked_cdf_refuses_a_shape_that_is_not_a_stack(shape):
    with pytest.raises(ValueError, match="^a law must be a non-empty 2-D stack of vectors"):
        simulator._cdf(np.ones(shape), stacked=True)


def test_cdf_accepts_the_rounding_choice_accepts():
    law = [0.5, 0.5 + 1e-9]
    assert np.random.default_rng(0).choice(2, p=law) == simulator._draw(np.random.default_rng(0), simulator._cdf(law))


def test_program_json_round_trip():
    program = Program(
        3,
        (
            hadamard(2),
            pauli_x(0),
            cnot(0, 1),
            swap_gate(1, 2),
            cphase(0, 2, exponent=3),
            Gate(np.array([[0, 1j], [1j, 0]]), (1,)),
        ),
    )
    obj = program_to_json(program)
    back = program_from_json(obj)
    assert back.n_qubits == 3
    assert len(back.steps) == len(program.steps)
    for got, want in zip(back.steps, program.steps):
        assert got.targets == want.targets
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-15
    final_a = run_program(program)
    final_b = run_program(back)
    assert np.max(np.abs(final_a.amps - final_b.amps)) < 1e-12


def test_program_from_json_named_gates():
    obj = {
        "n": 2,
        "steps": [
            {"gate": "H", "targets": [0]},
            {"gate": "CNOT", "targets": [0, 1]},
            {"gate": "CPHASE", "targets": [0, 1], "param": 2},
        ],
    }
    program = program_from_json(obj)
    assert [g.name for g in program.steps] == ["H", "CNOT", "CPHASE"]
    assert program.steps[2].param == 2


def test_program_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        program_from_json({"n": 2, "steps": [{"gate": "NOPE", "targets": [0]}]})
    with pytest.raises(ValueError):
        program_from_json({"steps": []})
    with pytest.raises(ValueError):
        program_from_json({"n": 2, "steps": [{"targets": [0]}]})
    with pytest.raises(ValueError):
        program_from_json(
            {"n": 1, "steps": [{"targets": [0], "matrix": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}]}
        )
    # JSON true and false load as bool, a subclass of int: each integer field refuses them by name.
    with pytest.raises(ValueError, match="param"):
        program_from_json({"n": 2, "steps": [{"gate": "CPHASE", "targets": [0, 1], "param": True}]})
    with pytest.raises(ValueError, match="target"):
        program_from_json({"n": 1, "steps": [{"gate": "H", "targets": [False]}]})
    with pytest.raises(ValueError, match='"n"'):
        program_from_json({"n": True, "steps": []})
    for entry in ([True, 0], ["1", "0"]):
        step = {"targets": [0], "matrix": [[entry, [0, 0]], [[0, 0], [1, 0]]]}
        with pytest.raises(ValueError, match="two real numbers"):
            program_from_json({"n": 1, "steps": [step]})


def test_a_named_gate_carries_its_own_matrix():
    # A name that contradicts the matrix would run as the matrix and be written out as the name.
    with pytest.raises(ValueError, match="shared H matrix"):
        Gate(np.eye(2), (0,), name="H")
    with pytest.raises(ValueError, match="shared X matrix"):
        Gate(hadamard(0).matrix, (0,), name="X")
    with pytest.raises(ValueError, match="shared CPHASE matrix"):
        Gate(cphase(0, 1, 3).matrix, (0, 1), name="CPHASE", param=5)
    with pytest.raises(ValueError, match="unknown gate"):
        Gate(hadamard(0).matrix, (0,), name="Hadamard")
    with pytest.raises(ValueError, match="no name takes no param"):
        Gate(np.eye(2), (0,), param=2)
    with pytest.raises(ValueError, match="takes no param"):
        Gate(hadamard(0).matrix, (0,), name="H", param=1)
    # With no name, a shared matrix is a raw one: copied, checked, and run by the butterfly.
    raw = Gate(pauli_x(0).matrix, (0,))
    assert raw.name is None and raw.matrix is not pauli_x(0).matrix
    assert np.array_equal(run_program(Program(1, (raw,))).amps, [0, 1])


def test_program_from_json_refuses_a_param_its_gate_does_not_take():
    for step in (
        {"gate": "SWAP", "targets": [0, 1], "param": -3},
        {"gate": "H", "targets": [0], "param": 2},
        {"gate": "CPHASE", "targets": [0, 1], "param": 0},
    ):
        with pytest.raises(ValueError, match=r"^step 1: .*param"):
            program_from_json({"n": 2, "steps": [{"gate": "X", "targets": [1]}, step]})
    # A null param is no param, and on CPHASE means exponent 1.
    steps = program_from_json({"n": 2, "steps": [{"gate": "H", "targets": [0], "param": None},
                                                 {"gate": "CPHASE", "targets": [0, 1], "param": None}]}).steps
    assert steps[0].param is None and steps[1].param == 1 and steps[1].matrix is cphase(0, 1).matrix


# Each name's gate on wires 0 (and 1) from its public constructor, and for each name with no
# param another name's matrix of the same size.
_BUILD = {
    "H": lambda param: hadamard(0),
    "X": lambda param: pauli_x(0),
    "CNOT": lambda param: cnot(0, 1),
    "SWAP": lambda param: swap_gate(0, 1),
    "CPHASE": lambda param: cphase(0, 1, param),
}
_OTHER_NAME = {"H": "X", "X": "H", "CNOT": "SWAP", "SWAP": "CNOT"}


@st.composite
def _named_and_raw_steps(draw):
    """Gates built from any name (or none) with its own matrix, another name's or a raw one, each
    with whether Gate must refuse it: exactly when a name does not match its matrix."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        name = draw(st.sampled_from(["H", "X", "CNOT", "SWAP", "CPHASE", None]))
        arity = draw(st.integers(1, 2)) if name is None else 1 if name in ("H", "X") else 2
        wires = tuple(draw(st.permutations(range(n)))[:arity])
        param = draw(st.integers(1, 8)) if name == "CPHASE" else None
        source = draw(st.sampled_from(["own", "other", "raw"]))
        if name is None:
            shared = hadamard(0) if arity == 1 else cphase(0, 1, draw(st.integers(1, 8)))
            matrix = shared.matrix if source == "other" else random_unitary(2 << (arity - 1), rng)
        elif source == "own":
            matrix = _BUILD[name](param).matrix
        elif source == "other":
            matrix = cphase(0, 1, param + 1).matrix if name == "CPHASE" else _BUILD[_OTHER_NAME[name]](None).matrix
        else:
            matrix = random_unitary(2 << (arity - 1), rng)
        steps.append((matrix, wires, name, param, name is not None and source != "own"))
    return n, steps, _random_state(n, rng)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_named_and_raw_steps())
def test_program_json_round_trip_runs_bit_identically(case):
    n, steps, initial = case
    gates = []
    for matrix, wires, name, param, contradicts in steps:
        try:
            gates.append(Gate(matrix, wires, name, param))
            refused = False
        except ValueError:
            refused = True
        assert refused == contradicts, (name, param)
    program = Program(n, tuple(gates))
    text = json.dumps(program_to_json(program))
    reloaded = program_from_json(json.loads(text))
    assert json.dumps(program_to_json(reloaded)) == text
    assert np.array_equal(run_program(reloaded, initial).amps, run_program(program, initial).amps)


def test_gate_sequence_unitarity_preserved():
    rng = np.random.default_rng(31)
    state = _random_state(5, rng)
    for _ in range(30):
        kind = rng.integers(3)
        if kind == 0:
            state = apply_1q(state, Gate(random_unitary(2, rng), (int(rng.integers(5)),)))
        elif kind == 1:
            a, b = rng.permutation(5)[:2]
            state = apply_2q(state, Gate(random_unitary(4, rng), (int(a), int(b))))
        else:
            state = apply_1q(state, hadamard(int(rng.integers(5))))
    assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-10)


_KRON_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
_ONE_QUBIT_KINDS = ("H", "X", "U2")
_TWO_QUBIT_KINDS = ("CNOT", "SWAP", "CPHASE", "U4")
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_CNOT = np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]]
_SWAP = np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]]


def _gate_and_oracle(kind, wires, exponent, rng):
    """The gate under test and the matrix the Kronecker oracle applies, built apart from the package."""
    if kind == "H":
        return hadamard(*wires), _H
    if kind == "X":
        return pauli_x(*wires), _X
    if kind == "CNOT":
        return cnot(*wires), _CNOT
    if kind == "SWAP":
        return swap_gate(*wires), _SWAP
    if kind == "CPHASE":
        return cphase(*wires, exponent=exponent), np.diag([1, 1, 1, np.exp(2j * np.pi / 2**exponent)])
    matrix = random_unitary(2 if kind == "U2" else 4, rng)
    return Gate(matrix, wires), matrix


@st.composite
def _programs(draw):
    n = draw(st.integers(1, 8))
    kinds = _ONE_QUBIT_KINDS + (_TWO_QUBIT_KINDS if n > 1 else ())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(kinds))
        # Any ordered pair of distinct wires: both target orders, adjacent and distant, the top wire.
        wires = tuple(draw(st.permutations(range(n)))[: 1 if kind in _ONE_QUBIT_KINDS else 2])
        steps.append(_gate_and_oracle(kind, wires, draw(st.integers(1, 6)), rng))
    return n, steps, _random_state(n, rng)


@_KRON_SETTINGS
@given(_programs())
def test_run_program_matches_kron_oracle(case):
    n, steps, initial = case
    want = initial.amps
    for gate, matrix in steps:
        if gate.arity == 1:
            want = one_qubit_dense(n, matrix, gate.targets[0]) @ want
        else:
            want = two_qubit_dense(n, matrix, *gate.targets) @ want
    got = run_program(Program(n, tuple(gate for gate, _ in steps)), initial)
    assert np.max(np.abs(got.amps - want)) < TOL_KRON


def _every_kind_on_every_wire(n, rng):
    gates = []
    for t in range(n):
        gates += [hadamard(t), pauli_x(t), Gate(random_unitary(2, rng), (t,))]
    for hi in range(n):
        for lo in range(n):
            if hi != lo:
                gates += [cnot(hi, lo), swap_gate(hi, lo), cphase(hi, lo, 1 + (hi + lo) % 4),
                          Gate(random_unitary(4, rng), (hi, lo))]
    return Program(n, tuple(gates))


def test_blocked_kernels_equal_the_unblocked_ones(monkeypatch):
    rng = np.random.default_rng(61)
    n = 7
    program = _every_kind_on_every_wire(n, rng)
    initial = _random_state(n, rng)

    def results():
        singles = [(apply_1q if gate.arity == 1 else apply_2q)(initial, gate).amps for gate in program.steps]
        return [run_program(program, initial).amps] + singles

    whole = results()
    monkeypatch.setattr(simulator, "_BLOCK", 4)
    blocked = results()
    assert all(np.array_equal(b, w) for b, w in zip(blocked, whole))


def test_top_wire_gates_need_no_state_sized_temporary():
    n = 22
    state = new_state(n)
    size = state.amps.nbytes
    program = Program(n, (hadamard(n - 1), cnot(n - 1, 0), swap_gate(n - 1, 3), pauli_x(n - 1), cphase(0, n - 1)))
    tracemalloc.start()
    try:
        out = apply_1q(state, hadamard(n - 1))
        peak_1q = tracemalloc.get_traced_memory()[1]
        del out
        tracemalloc.reset_peak()
        final = run_program(program)
        peak_program = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One copy of the state is the result; the kernels' own blocks stay within a few MiB.
    assert peak_1q < size + 8 * 2**20, f"peak {peak_1q / 2**20:.1f} MiB"
    assert peak_program < size + 8 * 2**20, f"peak {peak_program / 2**20:.1f} MiB"
    # |0..0> -> (|0..0> + |10..0>)/sqrt(2) -> CNOT flips bit 0 on the second -> SWAP moves bit 21 to bit 3
    # -> X sets bit 21 on both -> CPHASE(0, 21) gives the one with bits 0 and 21 set the phase -1.
    want = {1 << 21: 1 / np.sqrt(2), (1 << 21) | 0b1001: -1 / np.sqrt(2)}
    assert np.count_nonzero(final.amps) == 2
    for index, amp in want.items():
        assert abs(final.amps[index] - amp) < 1e-15


def _fold_steps(program, initial):
    # One apply_1q or apply_2q call per step: each is a one-step program, so a lone SWAP is one exchange.
    state = initial
    for gate in program.steps:
        state = (apply_1q if gate.arity == 1 else apply_2q)(state, gate)
    return state


@st.composite
def _swap_heavy_programs(draw):
    # Programs on 1..8 wires whose gates of every kind, in either target order, fall among runs of
    # SWAPs, and a random start state.
    n = draw(st.integers(1, 8))
    kinds = _ONE_QUBIT_KINDS + (_TWO_QUBIT_KINDS + ("SWAP run",) if n > 1 else ())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=20)):
        if kind == "SWAP run":
            orders = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3 * n))
            steps += [swap_gate(*order[:2]) for order in orders]
        else:
            wires = tuple(draw(st.permutations(range(n)))[: 1 if kind in _ONE_QUBIT_KINDS else 2])
            steps.append(_gate_and_oracle(kind, wires, draw(st.integers(1, 6)), rng)[0])
    return Program(n, tuple(steps)), _random_state(n, rng)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_swap_heavy_programs())
def test_relabelled_run_equals_gate_by_gate_runs(case):
    # run_program relabels wires at each SWAP and restores them at its end; one call per step
    # moves the amplitudes at every SWAP.  Both must give the same bytes.
    program, initial = case
    assert run_program(program, initial).amps.tobytes() == _fold_steps(program, initial).amps.tobytes()


def test_raw_gates_on_low_wires_after_a_swap_stretch_equal_gate_by_gate_runs():
    n = 14
    rng = np.random.default_rng(77)
    stretch = [swap_gate(a, a + 1) for a in range(n - 1)] + [swap_gate(0, 7), swap_gate(n - 1, 2)]
    raw = [Gate(random_unitary(4, rng), pair) for pair in ((1, 0), (0, 2), (3, 1), (2, 5))]
    raw += [Gate(random_unitary(2, rng), (0,)), Gate(random_unitary(2, rng), (n - 1,))]
    program = Program(n, tuple(stretch + raw + stretch[::-1] + [cnot(0, n - 1), hadamard(1)]))
    initial = _random_state(n, rng)
    assert run_program(program, initial).amps.tobytes() == _fold_steps(program, initial).amps.tobytes()


@pytest.fixture
def exchanges(monkeypatch):
    # Every call of the exchange kernel, counted.
    calls = []
    exchange = simulator._exchange

    def counted(*args):
        calls.append(args)
        exchange(*args)

    monkeypatch.setattr(simulator, "_exchange", counted)
    return calls


def test_swaps_cost_at_most_n_minus_1_exchanges(exchanges):
    run_program(compile_qft(14, "swaps").to_program())
    assert len(exchanges) <= 13
    rng = np.random.default_rng(78)
    for n, k in ((2, 1), (2, 7), (5, 40), (9, 100)):
        exchanges.clear()
        pairs = [tuple(int(w) for w in rng.choice(n, 2, replace=False)) for _ in range(k)]
        run_program(Program(n, tuple(swap_gate(*pair) for pair in pairs)), _random_state(n, rng))
        assert len(exchanges) <= n - 1


def test_swap_stretch_needs_no_state_sized_temporary(exchanges):
    n = 22
    initial = basis_state(n, 1 << (n - 1))
    size = initial.amps.nbytes
    # A full rotation: wire 0's content climbs to wire 21 and every other wire's moves down one.
    stretch = [swap_gate(a, a + 1) for a in range(n - 1)]
    program = Program(n, tuple(stretch[:11] + [hadamard(0)] + stretch[11:]))
    tracemalloc.start()
    try:
        final = run_program(program, initial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size + 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert len(exchanges) == n - 1
    # The H acts on wire 0 after the stretch has left it; the set bit moves from wire 21 to wire 20.
    assert np.count_nonzero(final.amps) == 2
    assert final.amps[1 << (n - 2)] == final.amps[(1 << (n - 2)) | 1] == 1 / np.sqrt(2)


def _digest(amps):
    return hashlib.sha256(amps.tobytes()).hexdigest()[:16]


def _raw_gates_on_low_wires(rng):
    # A raw 4x4 gate on every ordered pair of wires 0..5.
    return tuple(Gate(random_unitary(4, rng), (hi, lo)) for hi in range(6) for lo in range(6) if hi != lo)


# First 16 hex digits of the SHA-256 of the amplitude bytes, taken when the raw 4x4 product still
# built its own temporaries for each gate.  A workspace must not move a single bit.  Like the
# transform digests, these would need taking again on a numpy or BLAS build that rounds differently.
_KERNEL_DIGESTS = {
    "every kind on every wire": "f8d22399bc12e87b",
    "raw program": "8f751f95d8f2b86a",
    "raw apply_2q": "2d024f68b7e5f33b",
}


def test_kernel_outputs_are_pinned():
    rng = np.random.default_rng(73)
    program = _every_kind_on_every_wire(7, rng)
    assert _digest(run_program(program, _random_state(7, rng)).amps) == _KERNEL_DIGESTS["every kind on every wire"]
    rng = np.random.default_rng(74)
    raw = Program(14, _raw_gates_on_low_wires(rng))
    initial = _random_state(14, rng)
    assert _digest(run_program(raw, initial).amps) == _KERNEL_DIGESTS["raw program"]
    singles = hashlib.sha256()
    for gate in raw.steps:
        singles.update(apply_2q(initial, gate).amps.tobytes())
    assert singles.hexdigest()[:16] == _KERNEL_DIGESTS["raw apply_2q"]


def test_raw_product_allocates_nothing_state_sized_given_its_workspace():
    n = 14
    rng = np.random.default_rng(75)
    state = _random_state(n, rng)
    gate = Gate(random_unitary(4, rng), (3, 1))
    want = apply_2q(state, gate).amps
    amps, u = state.amps.copy(), gate.matrix
    workspace = np.empty(2 << n, dtype=np.complex128)
    view = simulator._wire_view(amps, (3, 1))
    tracemalloc.start()
    try:
        simulator._product(view, u, workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096, f"peak {peak} bytes"
    assert np.array_equal(amps, want)


_PERIOD_3 = FunctionTable(make_group([12]), tuple(i % 3 for i in range(12)))


@pytest.mark.parametrize(
    "call, refusal, want",
    [
        (lambda rng: Gate(hadamard(0).matrix, (1.7,), "H"), "gate targets", None),
        (lambda rng: Gate(hadamard(0).matrix, ("1",), "H"), "gate targets", None),
        (lambda rng: Gate(hadamard(0).matrix, (True,), "H"), "gate targets", None),
        (lambda rng: collapse_register(new_state(2), [1.5], rng), "target qubit 1.5", None),
        (lambda rng: sample(new_state(2), 2.5, rng), "shot count", None),
        (lambda rng: sample(new_state(2), True, rng), "shot count", None),
        (lambda rng: fourier_sample(np.full(4, 0.5), make_group([4]), True, rng), "shot count", None),
        (lambda rng: fourier_sample(np.full(4, 0.5), make_group([4]), 2.5, rng), "shot count", None),
        (lambda rng: Gate(hadamard(0).matrix, (np.int64(1),), "H").targets, None, (1,)),
        (lambda rng: collapse_register(new_state(2), [np.int64(1)], rng)[0], None, "0"),
        (lambda rng: sample(new_state(2), np.int64(3), rng), None, {"00": 3}),
        (lambda rng: fourier_sample(np.full(4, 0.5), make_group([4]), np.int64(2), rng), None, [0, 0]),
        (lambda rng: find_period(_PERIOD_3, np.int64(200), rng).subgroup.members, None, (0, 3, 6, 9)),
        (lambda rng: cphase(0, 1, np.int64(2)).param, None, 2),
        (
            lambda rng: json.loads(json.dumps(program_to_json(Program(2, (cphase(0, 1, np.int64(2)),))))),
            None,
            {"n": 2, "steps": [{"targets": [0, 1], "gate": "CPHASE", "param": 2}]},
        ),
        (lambda rng: compile_qft(np.int64(3)).n_qubits, None, 3),
        (lambda rng: new_state(True), "qubit count True", None),
        (lambda rng: new_state(2.5), "qubit count 2.5", None),
        (lambda rng: QState(2.0, np.eye(4)[0]), "qubit count 2.0", None),
        (lambda rng: Program(2.0, ()), "qubit count 2.0", None),
        (lambda rng: basis_state(2, 1.5), "basis index 1.5", None),
        (lambda rng: two_to_one_table(2.5, 1, rng), "bit count 2.5", None),
        (lambda rng: two_to_one_table(3, 1.0, rng), "mask 1.0", None),
        (lambda rng: fourier_basis_state(make_group([4]), 1.5), "element index 1.5", None),
        (lambda rng: fourier_basis_state(make_group([4]), np.array(1)), "element index array", None),
        (lambda rng: apply_wire_permutation(new_state(2), (1.0, 0.0)), r"\(1.0, 0.0\) is not a permutation", None),
        (lambda rng: fft_radix2(2.5, np.ones(4)), "qubit count 2.5", None),
        (lambda rng: walsh_hadamard(True, np.ones(2)), "bit count True", None),
        (lambda rng: new_state(np.int64(2)).n_qubits, None, 2),
        (lambda rng: QState(np.int64(2), np.eye(4)[0]).n_qubits, None, 2),
        (lambda rng: Program(np.int64(2), ()).n_qubits, None, 2),
        (lambda rng: int(np.flatnonzero(basis_state(np.int64(2), np.int64(3)).amps)[0]), None, 3),
        (lambda rng: two_to_one_table(np.int64(3), np.int64(5), rng).group.moduli, None, (2, 2, 2)),
        (lambda rng: fourier_basis_state(make_group([4]), np.int64(2)).real.tolist(), None, [0.5, -0.5, 0.5, -0.5]),
        (
            lambda rng: apply_wire_permutation(basis_state(2, 1), (np.int64(1), np.int64(0))).amps.real.tolist(),
            None,
            [0.0, 0.0, 1.0, 0.0],
        ),
    ],
    ids=[
        "gate target float", "gate target str", "gate target bool", "collapse qubit float",
        "sample shots float", "sample shots bool", "fourier shots bool", "fourier shots float",
        "gate target int64", "collapse qubit int64", "sample shots int64", "fourier shots int64",
        "find_period budget int64", "cphase exponent int64", "cphase exponent to JSON", "compile_qft int64",
        "new_state bool", "new_state float", "QState width float", "Program width float", "basis index float",
        "two_to_one bits float", "two_to_one mask float", "fourier basis label float", "fourier basis label 0-d array",
        "wire permutation float",
        "fft_radix2 bits float", "walsh bits bool", "new_state int64", "QState width int64", "Program width int64",
        "basis index int64", "two_to_one int64", "fourier basis label int64", "wire permutation int64",
    ],
)
def test_integer_arguments_follow_one_rule(call, refusal, want):
    # Python and numpy integers are accepted and stored as int; bools, floats and strings are
    # refused with a ValueError that names the argument.
    rng = np.random.default_rng(0)
    if refusal is not None:
        with pytest.raises(ValueError, match=refusal):
            call(rng)
    else:
        got = call(rng)
        # json.dumps refuses numpy integers, so this also checks that plain ints came back.
        assert got == want and json.dumps(got) == json.dumps(want)
