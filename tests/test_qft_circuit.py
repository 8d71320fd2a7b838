"""Gate network for the transform on Z_{2^m}: correctness, counts, reorder modes, phase accumulation."""
from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from abelianfft import (
    apply_qft,
    apply_wire_permutation,
    basis_state,
    compile_qft,
    cphase,
    dense_fourier_matrix,
    fourier_basis_state,
    gate_count,
    make_group,
    new_state,
    program_to_json,
    run_program,
)
from abelianfft.qft_circuit import REORDER_MODES, _build_network, _run_network
from abelianfft.simulator import QState, apply_1q, apply_2q

from test_acceptance import TOL_TRANSFORM


def _network_unitary(compiled):
    n = compiled.n_qubits
    cols = []
    for j in range(1 << n):
        state = basis_state(n, j)
        for gate in compiled.gates:
            state = apply_1q(state, gate) if gate.arity == 1 else apply_2q(state, gate)
        state = apply_wire_permutation(state, compiled.final_permutation)
        cols.append(state.amps)
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("mode", ["swaps", "relabel"])
def test_network_equals_dense_transform(m, mode):
    compiled = compile_qft(m, mode)
    dense = dense_fourier_matrix(make_group([1 << m])).entries
    assert np.max(np.abs(_network_unitary(compiled) - dense)) < 1e-9


def test_m1_is_single_hadamard():
    compiled = compile_qft(1, "swaps")
    assert len(compiled.gates) == 1 and compiled.gates[0].name == "H"
    assert np.allclose(_network_unitary(compiled), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)


def test_m2_matrix_is_quarter_powers_of_i():
    compiled = compile_qft(2)
    want = np.array([[1j ** (g * k) for k in range(4)] for g in range(4)]) / 2
    assert np.max(np.abs(_network_unitary(compiled) - want)) < 1e-12


def test_m3_swaps_mode_counts():
    counts = compile_qft(3, "swaps").counts()
    assert counts.hadamards == 3
    assert counts.cphases == 3
    assert counts.swaps == 3
    assert counts.total == 9


def test_frozen_m3_relabel_emission():
    compiled = compile_qft(3, "relabel")
    emitted = [(g.name, g.targets, g.param) for g in compiled.gates]
    assert emitted == [
        ("H", (2,), None),
        ("CPHASE", (1, 2), 2),
        ("H", (1,), None),
        ("CPHASE", (0, 2), 3),
        ("CPHASE", (0, 1), 2),
        ("H", (0,), None),
    ]
    assert compiled.final_permutation == (2, 1, 0)


@pytest.mark.parametrize("m", range(1, 13))
def test_final_permutation_is_bit_reversal(m):
    assert compile_qft(m, "relabel").final_permutation == tuple(range(m - 1, -1, -1))
    assert compile_qft(m, "swaps").final_permutation == tuple(range(m))


@pytest.mark.parametrize("m", range(1, 13))
def test_gate_count_matches_tally(m):
    for mode in ("swaps", "relabel"):
        predicted = gate_count(m, mode)
        tallied = compile_qft(m, mode).counts()
        assert predicted == tallied
        assert predicted.total == predicted.hadamards + predicted.cphases + predicted.swaps
    assert gate_count(m).hadamards == m
    assert gate_count(m).cphases == m * (m - 1) // 2
    assert gate_count(m, "swaps").swaps == m * (m - 1) // 2
    assert gate_count(m, "relabel").swaps == 0


def test_count_recursion_increment():
    # (hadamards + cphases)(m) - (hadamards + cphases)(m-1) == m
    def hc(m):
        c = gate_count(m)
        return c.hadamards + c.cphases

    for m in range(2, 13):
        assert hc(m) - hc(m - 1) == m
    c10 = gate_count(10)
    assert (c10.hadamards, c10.cphases) == (10, 45)
    assert c10.total - c10.swaps == 55


@pytest.mark.parametrize("m", range(1, 9))
def test_reorder_modes_agree(m):
    rng = np.random.default_rng(m)
    amps = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    amps /= np.linalg.norm(amps)
    swapped = run_program(compile_qft(m, "swaps").to_program(), initial=QState(m, amps))
    relabeled = run_program(compile_qft(m, "relabel").to_program(), initial=QState(m, amps))
    relabeled = apply_wire_permutation(relabeled, compile_qft(m, "relabel").final_permutation)
    assert np.max(np.abs(swapped.amps - relabeled.amps)) < 1e-12


@pytest.mark.parametrize("m", range(1, 15))
def test_swaps_network_equals_apply_qft_bit_for_bit(m):
    rng = np.random.default_rng(100 + m)
    amps = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    state = QState(m, amps / np.linalg.norm(amps))
    swapped = run_program(compile_qft(m, "swaps").to_program(), state)
    assert swapped.amps.tobytes() == apply_qft(state).amps.tobytes()


@pytest.mark.parametrize("m", range(2, 9))
def test_cphase_only_accumulation(m):
    # the outermost level's conditional phases alone send odd |j> to w^(j//2) |j>
    w = np.exp(2j * np.pi / (1 << m))
    for j in range(1, 1 << m, 2):
        state = basis_state(m, j)
        for p in range(1, m):
            state = apply_2q(state, cphase(0, p, exponent=m - p + 1))
        assert abs(state.amps[j] - w ** (j // 2)) < 1e-10
        assert np.count_nonzero(np.abs(state.amps) > 1e-12) == 1


def test_apply_qft_uniform_and_basis_interchange():
    out = apply_qft(new_state(3))
    assert np.max(np.abs(out.amps - np.full(8, 1 / np.sqrt(8)))) < 1e-12
    g = make_group([8])
    for k in range(8):
        loaded = QState(3, fourier_basis_state(g, k))
        image = apply_qft(loaded)
        want = np.zeros(8)
        want[k] = 1.0
        assert np.max(np.abs(image.amps - want)) < 1e-10


def test_apply_qft_periodic_support():
    amps = np.zeros(8, dtype=np.complex128)
    amps[[0, 2, 4, 6]] = 0.5
    out = apply_qft(QState(3, amps))
    support = np.flatnonzero(np.abs(out.amps) > 1e-10)
    assert list(support) == [0, 4]


# First 16 hex digits of the SHA-256 of each compiled program's sorted-key JSON.
_PROGRAM_DIGESTS = {
    "swaps": ("8e7ba761b526a6eb", "10912613adb0ae9d", "bcfaf463261d966b", "1b65ed9ff7d9d6c2",
              "8657b4c90066b349", "5ce878ee9c6c94b6", "b6b0406f8f13f180", "7ec9f423b0bc65ff"),
    "relabel": ("8e7ba761b526a6eb", "841580f932439cf4", "b24ff5fe9cfe9715", "beb30b2c797a923b",
                "884e0abfbf034641", "b97e2ee5a3625735", "6d066e0fb26e37d2", "ee3d68ffe2be91f7"),
}


@pytest.mark.parametrize("mode", REORDER_MODES)
def test_compiled_programs_pinned(mode):
    for m in range(1, 9):
        text = json.dumps(program_to_json(compile_qft(m, mode).to_program()), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == _PROGRAM_DIGESTS[mode][m - 1], m


@pytest.mark.parametrize("m", range(1, 9))
def test_apply_qft_equals_gate_by_gate(m):
    rng = np.random.default_rng(100 + m)
    amps = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    state = QState(m, amps / np.linalg.norm(amps))
    compiled = compile_qft(m, "relabel")
    want = state
    for gate in compiled.gates:
        want = apply_1q(want, gate) if gate.arity == 1 else apply_2q(want, gate)
    want = apply_wire_permutation(want, compiled.final_permutation)
    assert np.array_equal(apply_qft(state).amps, want.amps)


def test_compile_validation():
    with pytest.raises(ValueError):
        compile_qft(0)
    with pytest.raises(ValueError):
        compile_qft(3, "neither")
    with pytest.raises(ValueError):
        gate_count(0)
    with pytest.raises(ValueError):
        gate_count(3, "neither")


def test_compile_refuses_a_bool_wire_count():
    for m in (True, False):
        with pytest.raises(ValueError, match=f"wire count {m} must be a positive integer"):
            compile_qft(m)
        with pytest.raises(ValueError, match=f"wire count {m} must be a positive integer"):
            gate_count(m)
    assert type(compile_qft(1).n_qubits) is int


@pytest.mark.parametrize("mode", REORDER_MODES)
def test_network_is_shared_and_immutable(mode):
    for m in range(1, 9):
        compiled = compile_qft(m, mode)
        assert compile_qft(m, mode) is compiled
        assert isinstance(compiled.gates, tuple)
        for gate in compiled.gates:
            assert not gate.matrix.flags.writeable
            with pytest.raises(ValueError):
                gate.matrix[0, 0] = 0


@pytest.mark.parametrize("mode", REORDER_MODES)
def test_shared_network_gives_the_bytes_of_a_fresh_one(mode):
    rng = np.random.default_rng(500)
    for m in range(1, 15):
        rows = _unit_rows(rng, 2, m)
        state = QState(m, rows[0])
        cached = compile_qft(m, mode)
        got = (
            apply_qft(state).amps.tobytes(),
            _run_network(cached, rows).tobytes(),
            json.dumps(program_to_json(cached.to_program()), sort_keys=True),
        )
        _build_network.cache_clear()
        want_qft = apply_qft(state).amps.tobytes()
        fresh = compile_qft(m, mode)
        assert fresh is not cached
        want = (
            want_qft,
            _run_network(fresh, rows).tobytes(),
            json.dumps(program_to_json(fresh.to_program()), sort_keys=True),
        )
        assert got == want, m


def test_refused_inputs_add_no_network():
    _build_network.cache_clear()
    for args in ((0,), (25,), (True,), ("3",), (2.0,), (-1, "swaps"), (3, "neither"), (3, None)):
        with pytest.raises(ValueError):
            compile_qft(*args)
    assert _build_network.cache_info().currsize == 0


def test_network_cache_is_bounded_by_the_accepted_inputs():
    for _ in range(2):
        for mode in REORDER_MODES:
            for m in range(1, 25):
                compile_qft(m, mode)
    assert _build_network.cache_info().currsize <= 48
    assert len(compile_qft(24, "swaps").gates) == 576


def test_apply_wire_permutation_validation():
    state = new_state(3)
    with pytest.raises(ValueError):
        apply_wire_permutation(state, (0, 1))
    with pytest.raises(ValueError):
        apply_wire_permutation(state, (0, 1, 1))


def test_apply_wire_permutation_moves_bits():
    # permutation (1, 2, 0): output bit 0 reads wire 1, bit 1 reads wire 2, bit 2 reads wire 0
    state = basis_state(3, 0b011)
    out = apply_wire_permutation(state, (1, 2, 0))
    assert out.amps[0b101] == pytest.approx(1.0)


def _permute_by_bit_loop(amps, permutation):
    # Output index j reads the input index whose bit permutation[x] is bit x of j.
    n = len(permutation)
    idx = np.arange(1 << n, dtype=np.int64)
    source = np.zeros(1 << n, dtype=np.int64)
    for x, w in enumerate(permutation):
        source |= ((idx >> x) & 1) << w
    return amps[source]


@pytest.mark.parametrize("n", range(1, 11))
def test_apply_wire_permutation_matches_the_bit_loop(n):
    rng = np.random.default_rng(300 + n)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    state = QState(n, amps / np.linalg.norm(amps))
    for _ in range(5):
        permutation = tuple(rng.permutation(n).tolist())
        out = apply_wire_permutation(state, permutation)
        assert np.array_equal(out.amps, _permute_by_bit_loop(state.amps, permutation))
        assert not np.shares_memory(out.amps, state.amps)


def _unit_rows(rng, rows, m):
    amps = rng.standard_normal((rows, 1 << m)) + 1j * rng.standard_normal((rows, 1 << m))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


# The dense oracle stops at 2^12; above it numpy's FFT is the judge, at the widths the network
# runs in recovery (stacked rows) and in `simulate` (up to 24 qubits).
@pytest.mark.parametrize("m", [9, 14, 20])
def test_network_matches_numpy_ifft(m):
    rng = np.random.default_rng(400 + m)
    state = QState(m, _unit_rows(rng, 1, m)[0])
    assert np.max(np.abs(apply_qft(state).amps - np.fft.ifft(state.amps, norm="ortho"))) < TOL_TRANSFORM
    rows = _unit_rows(rng, 2 if m == 20 else 3, m)
    got = _run_network(compile_qft(m), rows)
    assert np.max(np.abs(got - np.fft.ifft(rows, axis=1, norm="ortho"))) < TOL_TRANSFORM


def _product_form(m, x):
    # The transform of |x> on Z_(2^m) is the product over wires j of
    # (|0> + exp(2 pi i (x 2^j mod 2^m) / 2^m) |1>) / sqrt(2), wire 0 the least significant.  The
    # phase is reduced in integers: in floats x 2^j / 2^m drifts by about 4e-13 at m = 20.
    amps = np.ones(1, dtype=np.complex128)
    for j in range(m):
        turn = ((x << j) % (1 << m)) / (1 << m)
        amps = np.kron(np.array([1.0, np.exp(2j * np.pi * turn)]) / np.sqrt(2.0), amps)
    return amps


@pytest.mark.parametrize("m", [9, 14, 20])
def test_network_matches_the_product_form_on_basis_states(m):
    rng = np.random.default_rng(500 + m)
    # One state at m = 20 keeps the test under half a second.
    picks = rng.integers(1 << m, size=1 if m == 20 else 2).tolist() + ([] if m == 20 else [0, 1, (1 << m) - 1])
    for x in picks:
        got = apply_qft(basis_state(m, x)).amps
        assert np.max(np.abs(got - _product_form(m, x))) < TOL_TRANSFORM, x
