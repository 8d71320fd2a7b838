"""Acceptance gate: nine numbered end-to-end checks with pinned tolerances.

Each test prints one `criterion N: PASS/FAIL - ...` line (visible with -s).
All randomness is seeded, so reruns are deterministic.
"""
from __future__ import annotations

import functools
import sys
import time

import numpy as np
import pytest

from abelianfft import (
    FunctionTable,
    Program,
    Subgroup,
    apply_dense,
    apply_wire_permutation,
    basis_state,
    build_tower,
    character_phases,
    cnot,
    compile_qft,
    coset_decompose,
    dense_fourier_matrix,
    enumerate_subgroups,
    fft_radix2,
    fft_tower,
    find_period,
    fourier_basis_state,
    hadamard,
    label_distribution,
    make_group,
    measure_qubit_distribution,
    run_program,
    sample,
    shift_vector,
    stabilizer_bruteforce,
    two_to_one_table,
)
from abelianfft.simulator import Gate, QState, apply_1q, apply_2q

from testutil import abelian_group_types, one_qubit_dense, random_unitary, random_vector, two_qubit_dense

TOL_TRANSFORM = 1e-9  # criteria 1 and 2: fast paths against the dense oracle
TOL_EXACT_DIST = 1e-10  # criteria 5, 8, 9: Born weights, orthogonality, unitarity, duality
TOL_KRON = 1e-12  # criterion 9: strided kernels against Kronecker-product operators
TV_BUDGET = 0.02  # criterion 8: empirical vs exact distribution at 1e5 shots
TIME_C1 = 60.0
TIME_C2 = 120.0
TIME_C6 = 60.0


def _criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                sys.stdout.write(f"criterion {number}: FAIL - {description}\n")
                sys.stdout.flush()
                raise
            sys.stdout.write(f"criterion {number}: PASS - {description}\n")
            sys.stdout.flush()

        return wrapper

    return decorate


@_criterion(1, "radix-2 and tower transforms match the dense oracle at 1e-9 (100 vectors/group, <60 s)")
def test_criterion_1():
    start = time.perf_counter()
    for m in range(1, 13):
        group = make_group([1 << m])
        rng = np.random.default_rng(4100 + m)
        worst = 0.0
        for _ in range(100):
            vec = random_vector(1 << m, rng)
            got, _ = fft_radix2(m, vec)
            worst = max(worst, float(np.max(np.abs(got - apply_dense(group, vec)))))
        assert worst < TOL_TRANSFORM, f"radix2 |G|={1 << m}: max err {worst:.3e}"
    for moduli in ([2, 3], [4, 4], [6, 5]):
        group = make_group(moduli)
        tower = build_tower(group)
        rng = np.random.default_rng(4200 + group.order)
        worst = 0.0
        for _ in range(100):
            vec = random_vector(group.order, rng)
            got, _ = fft_tower(group, tower, vec)
            worst = max(worst, float(np.max(np.abs(got - apply_dense(group, vec)))))
        assert worst < TOL_TRANSFORM, f"tower {group.spec_string()}: max err {worst:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < TIME_C1, f"criterion 1 took {elapsed:.1f} s"


@_criterion(2, "compiled network reconstructs dense F_(2^m) column-by-column at 1e-9 for m=1..10 (<120 s)")
def test_criterion_2():
    start = time.perf_counter()
    for m in range(1, 11):
        compiled = compile_qft(m)
        dense = dense_fourier_matrix(make_group([1 << m])).entries
        worst = 0.0
        for j in range(1 << m):
            state = basis_state(m, j)
            for gate in compiled.gates:
                state = apply_1q(state, gate) if gate.arity == 1 else apply_2q(state, gate)
            state = apply_wire_permutation(state, compiled.final_permutation)
            worst = max(worst, float(np.max(np.abs(state.amps - dense[:, j]))))
        assert worst < TOL_TRANSFORM, f"network m={m}: max column err {worst:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < TIME_C2, f"criterion 2 took {elapsed:.1f} s"


@_criterion(3, "tallied hadamards + cphases equals m(m+1)/2 for m=1..12 with increment exactly m")
def test_criterion_3():
    totals = {}
    for m in range(1, 13):
        counts = compile_qft(m).counts()
        totals[m] = counts.hadamards + counts.cphases
        assert totals[m] == m * (m + 1) // 2, f"m={m}: tallied {totals[m]}"
    for m in range(2, 13):
        assert totals[m] - totals[m - 1] == m


@_criterion(4, "radix-2 multiply tallies: count(2^m) - 2 count(2^(m-1)) = a 2^m with one integer a, m=2..12")
def test_criterion_4():
    counts = {}
    for m in range(1, 13):
        vec = random_vector(1 << m, np.random.default_rng(440 + m))
        _, report = fft_radix2(m, vec)
        counts[m] = report.complex_multiplies
    increments = set()
    for m in range(2, 13):
        extra = counts[m] - 2 * counts[m - 1]
        assert extra % (1 << m) == 0, f"m={m}: increment {extra} is not a multiple of 2^m"
        increments.add(extra // (1 << m))
    assert len(increments) == 1, f"recursion constant varies: {sorted(increments)}"
    a = increments.pop()
    assert isinstance(a, int)
    assert counts[12] < (1 << 12) * 12 * (a + 1)


@_criterion(5, "exact label distribution is 1/m on the multiples of n for K = mZ inside Z_mn, at 1e-10")
def test_criterion_5():
    cases = [(6, 2), (15, 5), (12, 3), (16, 4)]
    for order, m in cases:
        n = order // m
        group = make_group([order])
        subgroup = Subgroup(group, tuple(range(0, order, m)))
        dist = label_distribution(group, subgroup)
        expected = np.zeros(order)
        expected[::n] = 1.0 / m
        assert np.max(np.abs(dist - expected)) < TOL_EXACT_DIST, (
            f"(mn={order}, m={m}): max deviation {np.max(np.abs(dist - expected)):.3e}"
        )
    z6 = label_distribution(make_group([6]), Subgroup(make_group([6]), (0, 2, 4)))
    assert np.max(np.abs(z6 - np.array([0.5, 0, 0, 0.5, 0, 0]))) < TOL_EXACT_DIST


@_criterion(6, "Simon support {v : xi.v = 0} exact for every xi in (Z2)^3, recovery >= 99/100 for n<=8 (<60 s)")
def test_criterion_6():
    start = time.perf_counter()
    group = make_group([2, 2, 2])
    for xi in range(1, 8):
        dist = label_distribution(group, Subgroup(group, (0, xi)))
        want_support = {v for v in range(8) if bin(xi & v).count("1") % 2 == 0}
        got_support = {v for v in range(8) if dist[v] > TOL_EXACT_DIST}
        assert got_support == want_support, f"xi={xi:03b}: support {sorted(got_support)}"
        assert np.max(np.abs(dist[sorted(want_support)] - 0.25)) < TOL_EXACT_DIST
    for n in range(1, 9):
        hits = 0
        for trial in range(100):
            rng = np.random.default_rng(60000 + 1000 * n + trial)
            mask = int(rng.integers(1, 1 << n)) if n > 1 else 1
            table = two_to_one_table(n, mask, rng)
            result = find_period(table, 30, rng)
            hits += result.subgroup.members == (0, mask)
        assert hits >= 99, f"n={n}: only {hits}/100 recoveries"
    elapsed = time.perf_counter() - start
    assert elapsed < TIME_C6, f"criterion 6 took {elapsed:.1f} s"


@_criterion(7, "find_period equals stabilizer_bruteforce for >= 99% of all (G, K) pairs with |G| <= 32")
def test_criterion_7():
    hits = 0
    total = 0
    failures = []
    for group in abelian_group_types(32):
        for subgroup in enumerate_subgroups(group):
            total += 1
            rng = np.random.default_rng(70000 + 97 * group.order + subgroup.order + subgroup.members[-1])
            dec = coset_decompose(group, subgroup)
            relabel = rng.permutation(len(dec.representatives))
            values = tuple(int(relabel[c]) for c in dec.coset_of)
            table = FunctionTable(group, values)
            oracle = stabilizer_bruteforce(table)
            assert oracle.members == subgroup.members
            result = find_period(table, 200, rng)
            if result.subgroup.members == oracle.members:
                hits += 1
            else:
                failures.append((group.spec_string(), subgroup.members))
    assert hits >= 0.99 * total, f"{hits}/{total} recoveries; failures: {failures[:5]}"


@_criterion(8, "Bell-pair program: qubit-0 Born split exactly 1/2, 1e5 seeded shots within TV 0.02")
def test_criterion_8():
    state = run_program(Program(2, (hadamard(0), cnot(0, 1))))
    born = measure_qubit_distribution(state, 0)
    assert abs(born[0] - 0.5) < TOL_EXACT_DIST
    assert abs(born[1] - 0.5) < TOL_EXACT_DIST
    counts = sample(state, 100_000, np.random.default_rng(8))
    ones = sum(c for outcome, c in counts.items() if outcome[-1] == "1")
    tv = abs(ones / 100_000 - 0.5)
    assert tv <= TV_BUDGET, f"TV distance {tv:.4f}"


@_criterion(9, "property suites: orthogonality, unitarity to 4096, basis interchange, kron gates, shift duality")
def test_criterion_9():
    # character orthogonality from exact integer phases, exhaustive to |G| = 64
    for group in abelian_group_types(64):
        order = group.order
        rows = np.stack([
            np.exp((2j * np.pi / group.lcm) * character_phases(group, l)) for l in range(order)
        ])
        gram = rows @ rows.conj().T / order
        assert np.max(np.abs(gram - np.eye(order))) < TOL_EXACT_DIST, group.spec_string()

    # dense transform unitarity, exhaustive to 64 and cyclic spot checks to 4096 (blockwise)
    for group in abelian_group_types(64):
        entries = dense_fourier_matrix(group).entries
        dev = np.max(np.abs(entries @ entries.conj().T - np.eye(group.order)))
        assert dev < TOL_EXACT_DIST, group.spec_string()
    for order in (128, 256, 512, 1024, 2048, 4096):
        entries = dense_fourier_matrix(make_group([order])).entries
        worst = 0.0
        for lo in range(0, order, 512):
            hi = min(lo + 512, order)
            block = entries[lo:hi] @ entries.conj().T
            block[:, lo:hi] -= np.eye(hi - lo)
            worst = max(worst, float(np.max(np.abs(block))))
        assert worst < TOL_EXACT_DIST, f"|G|={order}: unitarity deviation {worst:.3e}"

    # transform interchanges the character basis and the standard basis, exhaustive to |G| = 64
    for group in abelian_group_types(64):
        entries = dense_fourier_matrix(group).entries
        stacked = np.stack([fourier_basis_state(group, k) for k in range(group.order)], axis=1)
        assert np.max(np.abs(entries @ stacked - np.eye(group.order))) < TOL_EXACT_DIST

    # strided kernels against dense Kronecker operators, n <= 6
    for n in range(1, 7):
        rng = np.random.default_rng(900 + n)
        amps = random_vector(1 << n, rng)
        state_vec = amps / np.linalg.norm(amps)
        state = QState(n, state_vec)
        for target in range(n):
            u = random_unitary(2, rng)
            got = apply_1q(state, Gate(u, (target,)))
            want = one_qubit_dense(n, u, target) @ state_vec
            assert np.max(np.abs(got.amps - want)) < TOL_KRON
        if n >= 2:
            pairs = [(hi, lo) for hi in range(n) for lo in range(n) if hi != lo]
            for hi, lo in pairs:
                u = random_unitary(4, rng)
                got = apply_2q(state, Gate(u, (hi, lo)))
                want = two_qubit_dense(n, u, hi, lo) @ state_vec
                assert np.max(np.abs(got.amps - want)) < TOL_KRON

    # shifting the input multiplies each spectral line by its character value
    for moduli in ([12], [2, 2, 3], [4, 4], [30]):
        group = make_group(moduli)
        rng = np.random.default_rng(group.order)
        vec = random_vector(group.order, rng)
        spectrum = apply_dense(group, vec)
        for shift in range(group.order):
            eig = np.exp((2j * np.pi / group.lcm) * character_phases(group, shift))
            shifted = apply_dense(group, shift_vector(group, shift, vec))
            assert np.max(np.abs(shifted - eig * spectrum)) < TOL_EXACT_DIST
            assert np.max(np.abs(np.abs(shifted) - np.abs(spectrum))) < TOL_EXACT_DIST


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
