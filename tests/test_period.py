"""Hidden-stabiliser pipeline: brute-force oracle, state preparation, sampling, reconstruction."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abelianfft import (
    FunctionTable,
    QState,
    Subgroup,
    annihilator,
    apply_dense,
    apply_wire_permutation,
    build_function_state,
    character_phase,
    check_nondegenerate,
    coset_decompose,
    enumerate_subgroups,
    find_period,
    fourier_sample,
    label_distribution,
    make_group,
    reconstruct_subgroup,
    run_program,
    sample_coset_state,
    stabilizer_bruteforce,
    subgroup_from_generators,
    two_to_one_table,
)
from abelianfft import dense, period, simulator
from abelianfft.groups import _annihilated, trivial_subgroup
from abelianfft.period import EXACT_CAP, SIMULATE_CAP

from testutil import abelian_group_types


def _mod_table(order, period):
    g = make_group([order])
    return FunctionTable(g, tuple(v % period for v in range(order)))


def _coset_states(group, subgroup):
    dec = coset_decompose(group, subgroup)
    states = []
    for rep in dec.representatives:
        vec = np.zeros(group.order, dtype=np.complex128)
        for offset in subgroup.members:
            vec[group.add_index(rep, offset)] = 1.0 / np.sqrt(subgroup.order)
        states.append(vec)
    return states


def test_stabilizer_bruteforce_frozen():
    f = FunctionTable(make_group([6]), (0, 1, 0, 1, 0, 1))
    assert stabilizer_bruteforce(f).members == (0, 2, 4)
    injective = FunctionTable(make_group([8]), tuple(range(8)))
    assert stabilizer_bruteforce(injective).members == (0,)
    constant = FunctionTable(make_group([2, 3]), (7,) * 6)
    assert stabilizer_bruteforce(constant).members == tuple(range(6))
    mod3 = _mod_table(12, 3)
    assert stabilizer_bruteforce(mod3).members == (0, 3, 6, 9)


def test_function_table_validation():
    g = make_group([4])
    with pytest.raises(ValueError):
        FunctionTable(g, (0, 1, 2))
    with pytest.raises(ValueError, match="value -1 is negative"):
        FunctionTable(g, (0, 1, 2, -1))
    # Non-integers are refused, not truncated, and so are integers past int64.
    for values in ((0, 1, 2, 0.7), (0.0, 1.0, 2.0, 3.0), (0, 1, 2, 2**64), (2**63,) * 4, ("0", "1", "2", "3")):
        with pytest.raises(ValueError, match="integers in the int64 range"):
            FunctionTable(g, values)


def test_function_table_keeps_a_tuple_and_a_read_only_array():
    g = make_group([4])
    f = FunctionTable(g, np.array([3, 1, 3, 1], dtype=np.uint8))
    assert f.values == (3, 1, 3, 1) and all(type(v) is int for v in f.values)
    assert f == FunctionTable(g, (3, 1, 3, 1)) and hash(f) == hash(FunctionTable(g, [3, 1, 3, 1]))
    assert f._values.dtype == np.int64 and not f._values.flags.writeable
    assert FunctionTable(g, (True, False, True, False)).values == (1, 0, 1, 0)


def test_check_nondegenerate():
    g6 = make_group([6])
    period2 = FunctionTable(g6, (0, 1, 0, 1, 0, 1))
    assert check_nondegenerate(period2, stabilizer_bruteforce(period2))
    g4 = make_group([4])
    collide = FunctionTable(g4, (0, 1, 0, 2))
    assert stabilizer_bruteforce(collide).members == (0,)
    assert not check_nondegenerate(collide, stabilizer_bruteforce(collide))
    constant = FunctionTable(g4, (5, 5, 5, 5))
    assert check_nondegenerate(constant, stabilizer_bruteforce(constant))
    with pytest.raises(ValueError):
        check_nondegenerate(period2, stabilizer_bruteforce(constant))


def test_build_function_state_layout():
    ident = FunctionTable(make_group([2]), (0, 1))
    state = build_function_state(ident)
    assert state.n_qubits == 2
    want = np.zeros(4)
    want[0b00] = want[0b11] = 1 / np.sqrt(2)
    assert np.max(np.abs(state.amps - want)) < 1e-12

    constant = FunctionTable(make_group([2]), (1, 1))
    state = build_function_state(constant)
    want = np.zeros(4)
    want[0b10] = want[0b11] = 1 / np.sqrt(2)
    assert np.max(np.abs(state.amps - want)) < 1e-12

    mod2 = FunctionTable(make_group([4]), (0, 1, 0, 1))
    state = build_function_state(mod2)
    assert state.n_qubits == 3
    hot = {(v << 2) | g for g, v in enumerate((0, 1, 0, 1))}
    for idx in range(8):
        expected = 0.5 if idx in hot else 0.0
        assert abs(state.amps[idx] - expected) < 1e-12


def test_build_function_state_cap():
    g = make_group([4096])
    wide = FunctionTable(g, tuple(2 * v for v in range(4096)))  # 12 + 13 qubits
    with pytest.raises(ValueError):
        build_function_state(wide)


def test_sample_coset_state_period2():
    f = FunctionTable(make_group([6]), (0, 1, 0, 1, 0, 1))
    rng = np.random.default_rng(4)
    seen = set()
    for _ in range(10):
        value, register = sample_coset_state(f, rng)
        assert value in (0, 1)
        seen.add(value)
        support = np.flatnonzero(np.abs(register.amps) > 1e-12)
        assert list(support) == [value, value + 2, value + 4]
        assert np.allclose(register.amps[support], 1 / np.sqrt(3), atol=1e-12)
    assert seen == {0, 1}


def test_sample_coset_state_injective_and_constant():
    rng = np.random.default_rng(8)
    injective = FunctionTable(make_group([4]), (3, 1, 0, 2))
    value, register = sample_coset_state(injective, rng)
    support = np.flatnonzero(np.abs(register.amps) > 1e-12)
    assert len(support) == 1
    assert injective.values[support[0]] == value

    constant = FunctionTable(make_group([4]), (6, 6, 6, 6))
    value, register = sample_coset_state(constant, rng)
    assert value == 6
    assert np.allclose(register.amps[:4], 0.5, atol=1e-12)


def test_sample_coset_state_rejects_degenerate():
    collide = FunctionTable(make_group([4]), (0, 1, 0, 2))
    with pytest.raises(ValueError):
        sample_coset_state(collide, np.random.default_rng(0))


def _full_register_collapse(f, rng):
    # The oracle: the value register read over the whole function state.  Its law is an np.bincount
    # of every basis index's probability by the value it reads; the state is zeroed off the observed
    # value and normalised whole, and the group register is that value's slice of it.
    state = build_function_state(f)
    group_bits = max(1, (f.group.order - 1).bit_length())
    values = np.arange(1 << state.n_qubits) >> group_bits
    probs = np.abs(state.amps)
    probs *= probs
    probs /= probs.sum()
    law = np.bincount(values, weights=probs, minlength=1 << (state.n_qubits - group_bits))
    law /= law.sum()
    observed = int(rng.choice(len(law), p=law))
    post = np.where(values == observed, state.amps, 0.0)
    post = post / np.linalg.norm(post)
    return observed, post[observed << group_bits : (observed + 1) << group_bits], law


@pytest.mark.parametrize("moduli", [[16], [64], [12], [2] * 4, [8, 9, 5]], ids=str)
def test_value_register_rows_equal_the_full_register_collapse(moduli):
    # Reading the value register as rows of the function state gives the oracle's value law,
    # observed values and coset-state amplitudes bit for bit, on planted tables.
    group = make_group(moduli)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        generator = tuple(int(rng.integers(m)) for m in moduli)
        cosets = coset_decompose(group, subgroup_from_generators(group, [generator]))
        labels = rng.choice(2 * len(cosets.representatives) + 1, len(cosets.representatives), replace=False)
        f = FunctionTable(group, tuple(labels[cosets.coset_of].tolist()))
        _, law = period._value_rows(f)
        ours, oracle = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
        for _ in range(4):
            value, register = sample_coset_state(f, ours)
            want_value, want_amps, want_law = _full_register_collapse(f, oracle)
            assert value == want_value
            assert register.amps.tobytes() == want_amps.tobytes()
        assert law.tobytes() == want_law.tobytes()


def test_label_distribution_frozen():
    g = make_group([6])
    k = Subgroup(g, (0, 2, 4))
    dist = label_distribution(g, k)
    assert np.max(np.abs(dist - np.array([0.5, 0, 0, 0.5, 0, 0]))) < 1e-10
    full = Subgroup(g, tuple(range(6)))
    dist = label_distribution(g, full)
    want = np.zeros(6)
    want[0] = 1.0
    assert np.max(np.abs(dist - want)) < 1e-10
    trivial = Subgroup(g, (0,))
    assert np.max(np.abs(label_distribution(g, trivial) - 1 / 6)) < 1e-10
    with pytest.raises(ValueError):
        label_distribution(make_group([4]), k)
    # Exactly 1/|K^perp| on the annihilator and 0 elsewhere.
    for group in (g, make_group([2, 4]), make_group([8, 9, 5])):
        for subgroup in (trivial_subgroup(group), subgroup_from_generators(group, [group.coords_of(2)])):
            ann = list(annihilator(group, subgroup).members)
            want = np.zeros(group.order)
            want[ann] = 1 / len(ann)
            assert np.array_equal(label_distribution(group, subgroup), want)


@pytest.mark.parametrize("group", abelian_group_types(32), ids=lambda g: g.spec_string())
def test_labels_sound_and_g0_independent(group):
    # exact Born distributions: identical across cosets, supported on the annihilator
    for subgroup in enumerate_subgroups(group):
        reference = label_distribution(group, subgroup)
        ann = set(annihilator(group, subgroup).members)
        outside = [l for l in range(group.order) if l not in ann]
        if outside:
            assert np.max(reference[outside]) < 1e-18
        assert reference[sorted(ann)] == pytest.approx(1 / len(ann), abs=1e-10)
        for vec in _coset_states(group, subgroup):
            probs = np.abs(apply_dense(group, vec)) ** 2
            assert np.abs(probs - reference).sum() < 1e-10


@pytest.mark.parametrize("group", abelian_group_types(24), ids=lambda g: g.spec_string())
def test_pre_transform_reads_are_uniform(group):
    # averaging the coset-state Born weights over uniformly random g_0 flattens to 1/|G|
    for subgroup in enumerate_subgroups(group):
        states = _coset_states(group, subgroup)
        average = np.mean([np.abs(v) ** 2 for v in states], axis=0)
        assert np.max(np.abs(average - 1 / group.order)) < 1e-12


def test_fourier_sample_soundness_z6():
    g = make_group([6])
    vec = np.zeros(6, dtype=np.complex128)
    vec[[1, 3, 5]] = 1 / np.sqrt(3)  # coset 1 + {0,2,4}
    labels = fourier_sample(vec, g, 200, np.random.default_rng(12))
    assert set(labels) == {0, 3}
    counts = np.bincount(labels, minlength=6)
    assert abs(counts[0] / 200 - 0.5) < 0.15


def test_fourier_sample_uses_network_path_for_2power():
    g = make_group([8])
    vec = np.zeros(8, dtype=np.complex128)
    vec[[1, 5]] = 1 / np.sqrt(2)  # coset 1 + {0,4}
    labels = fourier_sample(vec, g, 300, np.random.default_rng(3))
    assert set(labels) <= {0, 2, 4, 6}
    assert len(set(labels)) == 4


def test_fourier_sample_extreme_subgroups():
    g = make_group([6])
    uniform = np.full(6, 1 / np.sqrt(6), dtype=np.complex128)
    assert set(fourier_sample(uniform, g, 50, np.random.default_rng(1))) == {0}
    basis = np.zeros(6, dtype=np.complex128)
    basis[2] = 1.0
    labels = fourier_sample(basis, g, 600, np.random.default_rng(2))
    assert set(labels) == set(range(6))


def test_fourier_sample_accepts_padded_register():
    g = make_group([6])
    padded = np.zeros(8, dtype=np.complex128)
    padded[[0, 2, 4]] = 1 / np.sqrt(3)
    labels = fourier_sample(padded, g, 50, np.random.default_rng(5))
    assert set(labels) <= {0, 3}


def test_fourier_sample_validation():
    g = make_group([6])
    good = np.full(6, 1 / np.sqrt(6), dtype=np.complex128)
    with pytest.raises(ValueError):
        fourier_sample(good, g, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        fourier_sample(good * 2, g, 1, np.random.default_rng(0))
    bad_tail = np.zeros(8, dtype=np.complex128)
    bad_tail[7] = 1.0
    with pytest.raises(ValueError):
        fourier_sample(bad_tail, g, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        fourier_sample(np.ones(5) / np.sqrt(5), g, 1, np.random.default_rng(0))


def test_fourier_sample_rejects_nan():
    # A NaN fails every tolerance check rather than passing it.
    g = make_group([6])
    nan_tail = np.zeros(8, dtype=np.complex128)
    nan_tail[:6] = 1 / np.sqrt(6)
    nan_tail[7] = np.nan
    with pytest.raises(ValueError, match="weight outside the group range"):
        fourier_sample(nan_tail, g, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"norm .*nan.* is not 1"):
        fourier_sample(np.full(6, np.nan, dtype=np.complex128), g, 1, np.random.default_rng(0))


@pytest.mark.parametrize("entry", [1e200, np.inf, complex(np.inf, 1)])
def test_fourier_sample_refuses_huge_amplitudes_without_a_warning(entry):
    # The suite turns a RuntimeWarning into an error, so an overflow inside the norm fails here.
    with pytest.raises(ValueError, match=r"^group register norm .* is not 1$"):
        fourier_sample(np.array([entry, 0, 0, 0]), make_group([4]), 1, np.random.default_rng(0))


def test_reconstruct_subgroup_frozen():
    g6 = make_group([6])
    assert reconstruct_subgroup(g6, [0, 3]).members == (0, 2, 4)
    g22 = make_group([2, 2])
    assert reconstruct_subgroup(g22, [0, 3]).members == (0, 3)
    assert reconstruct_subgroup(g6, list(range(6))).members == (0,)
    with pytest.raises(ValueError):
        reconstruct_subgroup(g6, [6])


def test_reconstruct_subgroup_empty_warns():
    g = make_group([6])
    with pytest.warns(UserWarning):
        recovered = reconstruct_subgroup(g, [])
    assert recovered.members == tuple(range(6))


@pytest.mark.parametrize("group", abelian_group_types(32), ids=lambda g: g.spec_string())
def test_reconstruct_from_full_annihilator(group):
    for subgroup in enumerate_subgroups(group):
        labels = annihilator(group, subgroup).members
        assert reconstruct_subgroup(group, labels).members == subgroup.members


def test_find_period_z15():
    f = _mod_table(15, 5)
    result = find_period(f, 200, np.random.default_rng(15))
    assert result.converged
    assert result.subgroup.members == (0, 5, 10)
    assert all(l % 3 == 0 for l in result.labels_seen)
    assert result.samples_used == len(result.labels_seen) <= 200


def test_find_period_simon_mask():
    rng = np.random.default_rng(55)
    f = two_to_one_table(3, 0b101, rng)
    result = find_period(f, 200, rng)
    assert result.converged
    assert result.subgroup.members == (0, 0b101)


def test_find_period_injective():
    f = FunctionTable(make_group([8]), tuple(range(8)))
    result = find_period(f, 200, np.random.default_rng(3))
    assert result.converged
    assert result.subgroup.members == (0,)


def test_find_period_result_invariants():
    f = _mod_table(12, 4)
    result = find_period(f, 200, np.random.default_rng(7))
    for label in result.labels_seen:
        for k in result.subgroup.members:
            assert character_phase(f.group, f.group.coords_of(label), f.group.coords_of(k)) == 0


def test_find_period_non_converged_flag():
    f = _mod_table(12, 4)
    result = find_period(f, 3, np.random.default_rng(1))
    assert not result.converged
    assert result.samples_used == 3
    assert set(f.group.coords_of(m)[0] for m in result.subgroup.members) >= {0, 4, 8}


def test_find_period_modes_agree():
    f6 = FunctionTable(make_group([6]), (0, 1, 0, 1, 0, 1))
    exact = find_period(f6, 200, np.random.default_rng(2), mode="exact")
    simulated = find_period(f6, 200, np.random.default_rng(2), mode="simulate")
    assert exact.subgroup.members == simulated.subgroup.members == (0, 2, 4)

    f_simon = two_to_one_table(3, 0b011, np.random.default_rng(9))
    exact = find_period(f_simon, 200, np.random.default_rng(4), mode="exact")
    simulated = find_period(f_simon, 200, np.random.default_rng(4), mode="simulate")
    assert exact.subgroup.members == simulated.subgroup.members == (0, 0b011)


@pytest.mark.parametrize("mode", ["exact", "simulate"])
def test_find_period_checks_the_table_once(monkeypatch, mode):
    # One check of the table finds the stabiliser and, for exact mode, its law; the oracles stay
    # out of a recovery.
    names = ("stabilizer_bruteforce", "check_nondegenerate", "label_distribution", "_nondegenerate_stabilizer")
    calls = dict.fromkeys(names, 0)

    def counting(name):
        inner = getattr(period, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(period, name, wrapper)

    for name in names:
        counting(name)
    result = find_period(_mod_table(12, 3), 100, np.random.default_rng(5), mode=mode)
    assert result.converged and result.subgroup.members == (0, 3, 6, 9)
    assert calls == {**dict.fromkeys(names, 0), "_nondegenerate_stabilizer": 1}


def test_converged_recovery_returns_the_checked_stabiliser(monkeypatch):
    # The preimage of f(0) is checked once, with no closure; a recovery that ends on its members
    # returns that object instead of checking the same members again.  Its generators, found when
    # first read, are the greedy ones a closure finds.
    f, planted = _planted_table([1024], [(64,)])
    calls, checked = [], []
    check = Subgroup.__post_init__
    monkeypatch.setattr(Subgroup, "__post_init__", lambda self: (calls.append(self), check(self))[1])
    inner = period._nondegenerate_stabilizer
    monkeypatch.setattr(period, "_nondegenerate_stabilizer", lambda f: checked.append(inner(f)) or checked[-1])
    result = find_period(f, 200, np.random.default_rng(11))
    assert result.converged and result.subgroup == planted
    assert calls == [] and len(checked) == 1 and result.subgroup is checked[0][0]
    assert "_generators" not in vars(result.subgroup)
    assert result.subgroup.generators() == planted.generators()


def test_recovery_never_calls_the_oracle(monkeypatch):
    # The stabiliser is read off the preimage of f(0); the brute-force search is a test oracle only.
    def refuse(f):
        raise AssertionError("stabilizer_bruteforce called")

    monkeypatch.setattr(period, "stabilizer_bruteforce", refuse)
    for moduli, generators in (([64], [(8,)]), ([8, 9, 5], [(2, 3, 0), (4, 0, 0)]), ([2] * 6, [(1, 0, 1, 1, 0, 0)])):
        f, planted = _planted_table(moduli, generators)
        for mode in ("exact", "simulate") if f.group.order <= SIMULATE_CAP else ("exact",):
            result = find_period(f, 200, np.random.default_rng(1), mode=mode)
            assert result.converged and result.subgroup.members == planted.members
        sample_coset_state(f, np.random.default_rng(2))
    constant = FunctionTable(make_group([2] * 12), (7,) * 4096)
    result = find_period(constant, 200, np.random.default_rng(3))
    assert result.converged and result.subgroup.order == 4096
    collide = FunctionTable(make_group([4]), (0, 1, 0, 2))
    with pytest.raises(ValueError, match="function table is degenerate"):
        find_period(collide, 10, np.random.default_rng(0))


@pytest.mark.parametrize(
    "values",
    [(0, 0, 1, 1, 0, 0, 1, 1), (0, 1, 1, 0, 2, 2), (0, 1, 0, 2), (0, 1, 1, 1), (0, 0, 1)],
    ids=["preimage not a subgroup", "value classes not cosets", "class of two values", "value of two classes",
         "preimage not dividing the order"],
)
def test_degenerate_tables_refused(values):
    # On Z8 the preimage P = {0, 1, 4, 5} of f(0) and the other class {2, 3, 6, 7} = 2 + P tile
    # the group, but P is no subgroup (1 + 1 = 2), which only the count of labels annihilating P
    # shows.  On Z6 each class has |P| = 2 members, but the class of 1 is {1, 2}, not 1 + P, and on
    # Z4 1 + P = {1, 3} holds two values: f must take a leader's value on the leader plus P.  On Z4
    # with P = {0} the value 1 leads three runs of |P|, but leaders must have distinct values.  On
    # Z3, |P| = 2 does not divide 3.
    f = FunctionTable(make_group([len(values)]), values)
    assert not check_nondegenerate(f, stabilizer_bruteforce(f))
    for mode in ("exact", "simulate"):
        with pytest.raises(ValueError, match="^function table is degenerate"):
            find_period(f, 10, np.random.default_rng(0), mode=mode)
    with pytest.raises(ValueError, match="^function table is degenerate"):
        sample_coset_state(f, np.random.default_rng(0))


def test_find_period_simulate_labels_pinned():
    # Each shot draws once to read the value register and once to read the label, in that order.
    result = find_period(_mod_table(12, 3), 100, np.random.default_rng(5), mode="simulate")
    assert result.labels_seen == (8, 0, 4, 0, 8, 0, 8, 8, 4, 0, 0)


def test_find_period_simulate_compiles_once_per_recovery(monkeypatch):
    # The network and the value register's readings depend on the table alone: one compilation
    # per recovery, and no per-shot rebuild of the O(n 2^n) outcome values.
    calls = {"compile_qft": 0, "_outcome_values": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(period, "compile_qft")
    counting(simulator, "_outcome_values")
    table = FunctionTable(make_group([64]), tuple(v % 8 for v in range(64)))
    result = find_period(table, 200, np.random.default_rng(3), mode="simulate")
    assert result.converged and result.subgroup.members == tuple(range(0, 64, 8))
    assert result.samples_used > 1
    assert calls == {"compile_qft": 1, "_outcome_values": 0}


def _planted_table(moduli, generators):
    # Values are coset indices, so the table is nondegenerate with the given stabiliser.
    group = make_group(moduli)
    subgroup = subgroup_from_generators(group, generators)
    return FunctionTable(group, tuple(coset_decompose(group, subgroup).coset_of.tolist())), subgroup


@pytest.mark.parametrize(
    "moduli, generators, seed, labels",
    [
        ([1024], [(64,)], 11, (128, 496, 608, 16, 144, 944, 64, 128, 960, 624, 368, 512)),
        ([8, 9, 5], [(2, 3, 0), (4, 0, 0)], 12, (17, 213, 15, 15, 30, 16, 195, 3, 211, 210, 0, 181)),
    ],
    ids=["Z1024", "Z8xZ9xZ5"],
)
def test_find_period_exact_builds_no_dense_matrix(moduli, generators, seed, labels):
    # The exact label law is sampled from its closed form: no transform matrix is built,
    # and the labels drawn are those the dense-transform route drew.
    f, planted = _planted_table(moduli, generators)
    dense._cached_entries.cache_clear()
    result = find_period(f, 200, np.random.default_rng(seed))
    assert dense._cached_entries.cache_info().misses == 0
    assert result.converged and result.subgroup.members == planted.members
    assert result.labels_seen == labels


@pytest.mark.parametrize(
    "mode, moduli, generators, seed, labels, next_draw",
    [
        ("simulate", [12], [(3,)], 5, (8, 0, 4, 0, 8, 0, 8, 8, 4, 0, 0), 0.8796511733349222),
        ("simulate", [16], [(8,)], 7, (14, 2, 12, 12, 6, 4, 6, 8, 12, 14, 2), 0.6125396042730308),
        ("simulate", [64], [(8,)], 8, (56, 48, 24, 16, 24, 16, 8, 24, 32, 40, 8), 0.3713871284423962),
        ("exact", [1024], [(64,)], 11, (128, 496, 608, 16, 144, 944, 64, 128, 960, 624, 368, 512), 0.6628429525167993),
        (
            "exact",
            [2] * 8,
            [(1, 0, 1, 1, 0, 0, 0, 0), (0, 1, 0, 0, 1, 0, 1, 0)],
            13,
            (221, 220, 215, 66, 10, 232, 159, 0, 230, 237, 70, 216, 11, 120, 216, 118, 145, 15, 216),
            0.4978674083325122,
        ),
        ("exact", [8, 9, 5], [(2, 3, 0), (4, 0, 0)], 12, (17, 213, 15, 15, 30, 16, 195, 3, 211, 210, 0, 181), 0.10685127402373995),
    ],
    ids=["simulate Z12", "simulate Z16", "simulate Z64", "exact Z1024", "exact Z2^8", "exact Z8xZ9xZ5"],
)
def test_recovery_labels_and_generator_state_pinned(mode, moduli, generators, seed, labels, next_draw):
    # Recorded when every shot still rebuilt its laws and drew through Generator.choice: the labels,
    # and the generator's next draw after the recovery.  Z12 takes the dense route, Z16 and Z64 the
    # compiled network.
    f, planted = _planted_table(moduli, generators)
    rng = np.random.default_rng(seed)
    result = find_period(f, 200, rng, mode=mode)
    assert result.converged and result.subgroup.members == planted.members
    assert result.labels_seen == labels and result.samples_used == len(labels)
    assert rng.random() == next_draw


def test_find_period_simulate_runs_the_network_once_per_value(monkeypatch):
    # A value's label law is built the first time the value register reads it, then reused, the
    # laws of a block's new values in one network run over their stacked rows: every row run is a
    # coset state no earlier row started from.
    starts = []
    inner = period._run_network

    def recording(network, rows):
        starts.extend(row.tobytes() for row in rows)
        return inner(network, rows)

    monkeypatch.setattr(period, "_run_network", recording)
    f, planted = _planted_table([64], [(8,)])
    result = find_period(f, 200, np.random.default_rng(8), mode="simulate", window=30)
    assert result.converged and result.subgroup.members == planted.members
    assert 0 < len(starts) == len(set(starts)) <= 64 // 8 < result.samples_used


def _one_label_recovery(f, max_shots, rng, mode, window):
    # find_period as it ran before block draws, kept as the oracle of the block loop: one label per
    # step, drawn with one uniform (a value's, then the label's, in simulate mode), each value's
    # law built from its row alone the first time it is read, and the candidate filtered by one
    # label at a time.  Returns the labels, whether it converged and the candidate's members.
    group = f.group
    stabilizer, _ = period._nondegenerate_stabilizer(f)

    def labels():
        if mode == "exact":
            cdf = simulator._cdf(label_distribution(group, stabilizer))
            while True:
                yield int(simulator._draw(rng, cdf))
        rows, value_law = period._value_rows(f)
        value_cdf = simulator._cdf(value_law)
        network = period._network(group)
        label_cdfs = {}
        while True:
            value = int(simulator._draw(rng, value_cdf))
            if value not in label_cdfs:
                row = period._group_vector(rows[value] / np.linalg.norm(rows[value]), group)
                label_cdfs[value] = simulator._cdf(period._label_law(row[None], group, network)[0])
            yield int(simulator._draw(rng, label_cdfs[value]))

    draws = labels()
    seen = []
    candidate = np.arange(group.order, dtype=np.int64)
    streak = 0
    while len(seen) < max_shots and streak < window:
        label = next(draws)
        seen.append(label)
        survivors = _annihilated(group, (label,), candidate)
        streak = streak + 1 if len(survivors) == len(candidate) else 0
        candidate = survivors
    return tuple(seen), streak >= window, tuple(candidate.tolist())


_RECOVERY_SHAPES = ([1024], [2] * 8, [8, 9, 5], [7, 7], [12], [16], [64])


# Edges of a block's split into its first label and the rest: a constant table on Z2^8 (K = G,
# every label 0), where no first label shrinks the candidate and the rest spans the whole group;
# window 1, where each block is one label and its rest is empty; and budgets that cut the second
# block to its first label.
@example(shape=[2] * 8, picks=[1, 2, 4, 8, 16, 32, 64, 128], simulate=False, window=30, max_shots=90, seed=0)
@example(shape=[2] * 8, picks=[1, 2, 4, 8, 16, 32, 64, 128], simulate=True, window=30, max_shots=90, seed=1)
@example(shape=[1024], picks=[256], simulate=False, window=1, max_shots=1, seed=0)
@example(shape=[16], picks=[8], simulate=True, window=1, max_shots=90, seed=2)
@example(shape=[16], picks=[8], simulate=True, window=30, max_shots=31, seed=5)
@example(shape=[8, 9, 5], picks=[12], simulate=False, window=30, max_shots=31, seed=1)
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from(_RECOVERY_SHAPES),
    picks=st.lists(st.integers(0, 2**31), max_size=2),
    simulate=st.booleans(),
    window=st.integers(1, 30),
    max_shots=st.integers(1, 90),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_recovery_equals_the_one_label_loop(shape, picks, simulate, window, max_shots, seed):
    # Planted stabilisers on both modes, Z12 taking the dense simulate route and Z16 and Z64 the
    # network; budgets below 90 often end in the middle of a block.
    group = make_group(shape)
    mode = "simulate" if simulate and group.order <= SIMULATE_CAP else "exact"
    f, _ = _planted_table(shape, [group.coords_of(pick % group.order) for pick in picks])
    block_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    result = find_period(f, max_shots, block_rng, mode=mode, window=window)
    labels, converged, members = _one_label_recovery(f, max_shots, loop_rng, mode, window)
    assert result.labels_seen == labels and result.samples_used == len(labels)
    assert result.converged == converged and result.subgroup.members == members
    assert block_rng.random() == loop_rng.random()


@pytest.mark.parametrize("generator, seed", [((256,), 3), ((256,), 11), ((64,), 7), ((512,), 19)])
def test_block_phase_work_follows_the_first_labels_survivors(generator, seed, monkeypatch):
    # Each block's first label filters the whole candidate and the rest of the block only its
    # survivors.  So the first block of a window-30 recovery on Z1024 takes |G| phase entries for
    # its first label and at most (|G|/2)(window - 1) for the rest (a nonzero label keeps at most
    # half of Z1024), and on these seeds the later blocks take less than another |G| (1,084 to
    # 4,768 entries in all).  One matrix of the candidate against each whole block takes about
    # window |G| = 30,720.
    entries = []
    inner = period._phases

    def counting(group, args, labels):
        out = inner(group, args, labels)
        entries.append(out.size)
        return out

    monkeypatch.setattr(period, "_phases", counting)
    f, planted = _planted_table([1024], [generator])
    order, window = 1024, 30
    result = find_period(f, 200, np.random.default_rng(seed), window=window)
    assert result.converged and result.subgroup.members == planted.members
    assert result.labels_seen[0] != 0
    assert sum(entries) <= order + order // 2 * (window - 1) + order, entries


@pytest.mark.parametrize(
    "moduli, generators",
    [([256], [(32,)]), ([2] * 8, [(1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0, 0, 1)]), ([12, 2], [(3, 1)])],
    ids=["Z256", "Z2^8", "Z12xZ2"],
)
def test_batched_label_laws_equal_the_per_row_laws_bit_for_bit(moduli, generators):
    # Every coset row of the function state, run in one batch, against each row run on its own:
    # through run_program and apply_wire_permutation on the network route (Z256), through one
    # apply_dense on the dense route (Z2^8, Z12xZ2), each law normalised by its own sum.
    f, planted = _planted_table(moduli, generators)
    group = f.group
    rows, value_law = period._value_rows(f)
    read = np.flatnonzero(value_law)
    assert len(read) == group.order // planted.order
    states = np.stack([period._group_vector(rows[v] / np.linalg.norm(rows[v]), group) for v in read])
    network = period._network(group)
    assert (network is not None) == (moduli == [256])
    batched = period._label_law(states, group, network)
    for state, law in zip(states, batched):
        if network is None:
            spectrum = apply_dense(group, state)
        else:
            ran = run_program(network.to_program(), QState(network.n_qubits, state))
            spectrum = apply_wire_permutation(ran, network.final_permutation).amps
        alone = np.abs(spectrum) ** 2
        alone /= alone.sum()
        assert law.tobytes() == alone.tobytes()
        assert law.tobytes() == period._label_law(state[None], group, network)[0].tobytes()


@pytest.mark.parametrize(
    "keyword, value",
    [
        ("window", 0),
        ("window", -5),
        ("window", 2.5),
        ("window", True),
        ("max_shots", 2.5),
        ("max_shots", True),
        ("max_shots", 0),
    ],
)
def test_find_period_refuses_counts_that_are_not_positive_integers(keyword, value):
    # A window of 0 or below used to report convergence after no sample, with the whole group as
    # the stabiliser; floats and bools were taken as counts.
    counts = {"max_shots": 50, "window": 10, keyword: value}
    with pytest.raises(ValueError, match="must be a positive integer"):
        find_period(_mod_table(12, 3), counts["max_shots"], np.random.default_rng(0), window=counts["window"])


def test_find_period_validation():
    f = _mod_table(6, 2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        find_period(f, 10, rng, mode="guess")
    with pytest.raises(ValueError):
        find_period(f, 0, rng)
    collide = FunctionTable(make_group([4]), (0, 1, 0, 2))
    with pytest.raises(ValueError):
        find_period(collide, 10, rng)
    big = FunctionTable(make_group([8192]), tuple(range(8192)))
    with pytest.raises(ValueError):
        find_period(big, 10, rng, mode="exact")
    mid = FunctionTable(make_group([512]), tuple(range(512)))
    with pytest.raises(ValueError):
        find_period(mid, 10, rng, mode="simulate")


def test_reconstruction_seeded_success_rate():
    # 100 seeded trials per family; 10*log2|G| labels drawn from the exact distribution
    cases = [
        Subgroup(make_group([12]), (0, 3, 6, 9)),
        Subgroup(make_group([16]), (0, 4, 8, 12)),
        Subgroup(make_group([2, 2, 2, 2]), (0, 6)),
        subgroup_from_generators(make_group([6, 4]), [(2, 2)]),
    ]
    for subgroup in cases:
        group, members = subgroup.parent, subgroup.members
        dist = label_distribution(group, subgroup)
        dist = dist / dist.sum()
        budget = int(np.ceil(10 * np.log2(group.order)))
        hits = 0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            labels = rng.choice(group.order, size=budget, p=dist)
            if reconstruct_subgroup(group, labels).members == members:
                hits += 1
        assert hits >= 99


def test_two_to_one_table():
    rng = np.random.default_rng(77)
    for n, mask in ((2, 0b11), (3, 0b100), (4, 0b1010)):
        f = two_to_one_table(n, mask, rng)
        stab = stabilizer_bruteforce(f)
        assert stab.members == (0, mask) if mask else (0,)
        assert check_nondegenerate(f, stab)
        counts = np.bincount(np.asarray(f.values))
        assert all(c == 2 for c in counts if c)
    with pytest.raises(ValueError):
        two_to_one_table(0, 1, rng)
    with pytest.raises(ValueError):
        two_to_one_table(3, 0, rng)
    with pytest.raises(ValueError):
        two_to_one_table(3, 8, rng)


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


_TWO_TO_ONE_DIGESTS = {
    1: "17b0761f87b081d5", 2: "e162930cb35cb7aa", 3: "0279e98293a08341", 4: "95d682d049c41320",
    5: "da849c37de535470", 6: "54b3e06d724b842b", 7: "e2e185fb03b291de", 8: "e96dc7f25d0d1f61",
    9: "5f932688f36e17a7", 10: "a39c26cae75d9244", 11: "c2b0f2ffbd16f4f4", 12: "9cd896d5d1116ec0",
}


@pytest.mark.parametrize("n", sorted(_TWO_TO_ONE_DIGESTS))
def test_two_to_one_table_values_pinned(n):
    # Digests of the per-element loop's tables: the pairs are numbered by their smaller member
    # and relabelled by one permutation draw.
    full = (1 << n) - 1
    tables = [
        two_to_one_table(n, mask, np.random.default_rng(seed))
        for mask in sorted({1, 1 << (n - 1), full, 0b1011001101 & full or 1})
        for seed in (0, 1, 2024)
    ]
    assert _digest(np.concatenate([np.asarray(f.values, dtype=np.int64) for f in tables])) == _TWO_TO_ONE_DIGESTS[n]


def test_build_function_state_amplitudes_pinned():
    tables = {
        "42e398cafd2ce7c9": _mod_table(12, 3),
        "1616210d438e3b58": two_to_one_table(5, 0b10110, np.random.default_rng(3)),
        "341cb1e48922d866": _planted_table([8, 9, 5], [(2, 3, 0), (4, 0, 0)])[0],
        "509ec3f5991c69a7": FunctionTable(make_group([2] * 4), (5,) * 16),
        "00b439e29a34a082": FunctionTable(make_group([6]), (4, 0, 5, 1, 3, 2)),
    }
    for digest, f in tables.items():
        assert _digest(build_function_state(f).amps) == digest


def test_caps_are_frozen():
    assert EXACT_CAP == 4096
    assert SIMULATE_CAP == 256
