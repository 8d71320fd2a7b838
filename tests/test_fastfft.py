"""Tower and radix-2 transforms against the dense oracle, radix-2 against the stage-by-stage kernel
it replaced, byte for byte, plus exact operation counts."""
from __future__ import annotations

import hashlib
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelianfft import (
    Subgroup,
    SubgroupTower,
    apply_dense,
    boolean_group,
    build_tower,
    coset_decompose,
    enumerate_subgroups,
    fft_radix2,
    fft_tower,
    make_group,
    predict_cost,
    radix2_group,
    subgroup_from_generators,
    trivial_subgroup,
    walsh_hadamard,
)
from abelianfft import fastfft
from abelianfft.fastfft import _INV_SQRT2, OpCountReport, _stage_twiddles, _TowerPlan, _twiddle_table
from abelianfft.groups import _characters, _phases, full_subgroup

from test_acceptance import TOL_TRANSFORM
from testutil import _factorize, abelian_group_types, package_env, random_vector


def _tower_error(group, rng):
    tower = build_tower(group)
    vec = random_vector(group.order, rng)
    out, _ = fft_tower(group, tower, vec)
    return np.max(np.abs(out - apply_dense(group, vec)))


@pytest.mark.parametrize("group", abelian_group_types(48), ids=lambda g: g.spec_string())
def test_tower_matches_dense_catalog(group):
    assert _tower_error(group, np.random.default_rng(group.order)) < 1e-9


def test_tower_matches_dense_larger():
    rng = np.random.default_rng(77)
    for moduli in ([128], [256], [1024], [2] * 8, [4, 4, 4, 4], [60], [8, 9, 5]):
        assert _tower_error(make_group(moduli), rng) < 1e-9


def test_tower_explicit_z4_example():
    g = make_group([4])
    tower = SubgroupTower(g, (subgroup_from_generators(g, [(2,)]), trivial_subgroup(g)))
    vec = random_vector(4, np.random.default_rng(11))
    out, _ = fft_tower(g, tower, vec)
    assert np.max(np.abs(out - apply_dense(g, vec))) < 1e-9


def test_tower_z6_delta_gives_uniform():
    g = make_group([6])
    tower = SubgroupTower(g, (subgroup_from_generators(g, [(2,)]), trivial_subgroup(g)))
    delta = np.zeros(6, dtype=np.complex128)
    delta[0] = 1.0
    out, _ = fft_tower(g, tower, delta)
    assert np.max(np.abs(out - np.full(6, 1 / np.sqrt(6)))) < 1e-12


def test_build_tower_structure():
    g = make_group([12])
    tower = build_tower(g)
    orders = [s.order for s in tower.levels]
    assert orders[0] < 12 and orders[-1] == 1
    assert tower.indices == (2, 2, 3)
    previous = 12
    for order in orders:
        assert previous % order == 0 and previous // order in (2, 3)
        previous = order


def test_build_tower_index2_for_cyclic_2power():
    tower = build_tower(make_group([16]))
    assert tower.indices == (2, 2, 2, 2)
    with pytest.raises(ValueError):
        build_tower(make_group([1]))


def test_tower_validation():
    g = make_group([4])
    with pytest.raises(ValueError):
        SubgroupTower(g, ())
    with pytest.raises(ValueError):
        SubgroupTower(g, (Subgroup(g, (0, 1, 2, 3)),))  # must shrink below G
    h2 = subgroup_from_generators(g, [(2,)])
    with pytest.raises(ValueError):
        SubgroupTower(g, (h2, h2))  # must keep shrinking
    other = trivial_subgroup(make_group([8]))
    with pytest.raises(ValueError):
        SubgroupTower(g, (other,))  # wrong parent group
    g3 = make_group([2, 2, 2])
    h_even = subgroup_from_generators(g3, [(1, 1, 0), (1, 0, 1)])
    h_first = subgroup_from_generators(g3, [(1, 0, 0)])
    with pytest.raises(ValueError):
        SubgroupTower(g3, (h_even, h_first))  # not nested


def test_fft_tower_rejects_mismatches():
    g = make_group([6])
    tower = build_tower(g)
    with pytest.raises(ValueError):
        fft_tower(make_group([4]), tower, np.ones(4))
    with pytest.raises(ValueError):
        fft_tower(g, tower, np.ones(5))


def test_trivial_tower_costs_dense_scale():
    g = make_group([6])
    tower = SubgroupTower(g, (trivial_subgroup(g),))
    vec = random_vector(6, np.random.default_rng(3))
    out, report = fft_tower(g, tower, vec)
    assert np.max(np.abs(out - apply_dense(g, vec))) < 1e-12
    # one 6x6 recombine (36 mults, 30 adds) plus 6 leaf blocks and the final scale
    assert report.complex_multiplies == 36 + 6 + 6
    assert report.complex_adds == 30


def test_tower_report_carries_single_split_bound():
    for moduli in ([16], [12], [2, 3], [4, 4], [6, 5], [30], [64]):
        g = make_group(moduli)
        tower = build_tower(g)
        vec = random_vector(g.order, np.random.default_rng(g.order))
        _, report = fft_tower(g, tower, vec)
        assert report.predicted_bound == predict_cost(g.order, tower.levels[0].order)
        assert report.complex_multiplies > 0
        assert report.complex_adds > 0


def test_tower_linearity_and_norm():
    rng = np.random.default_rng(42)
    g = make_group([6, 4])
    tower = build_tower(g)
    u = random_vector(g.order, rng)
    v = random_vector(g.order, rng)
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    combo, _ = fft_tower(g, tower, a * u + b * v)
    fu, _ = fft_tower(g, tower, u)
    fv, _ = fft_tower(g, tower, v)
    assert np.max(np.abs(combo - (a * fu + b * fv))) < 1e-10
    assert np.linalg.norm(fu) == pytest.approx(np.linalg.norm(u), abs=1e-10)


# (moduli, complex multiplies, complex adds) of the transform over build_tower's tower.
_PINNED_TALLIES = [
    ((256,), 4608, 2048),
    ((2,) * 7, 2048, 896),
    ((4, 9, 5), 3060, 1800),
    ((1024,), 22528, 10240),
    ((2,) * 8, 4608, 2048),
    ((8, 9, 5), 6840, 3960),
    ((4096,), 106496, 49152),
    ((2,) * 12, 106496, 49152),
]


@pytest.mark.parametrize("moduli, mults, adds", _PINNED_TALLIES, ids=lambda v: str(v))
def test_tower_tallies_pinned_and_spectrum_matches_dense(moduli, mults, adds):
    group = make_group(moduli)
    tower = build_tower(group)
    vec = random_vector(group.order, np.random.default_rng(group.order))
    out, report = fft_tower(group, tower, vec)
    assert (report.complex_multiplies, report.complex_adds) == (mults, adds)
    # Closed form: index multiplies per element at each level, plus the leaves and the final scale.
    assert mults == group.order * (sum(tower.indices) + 2)
    assert adds == group.order * sum(index - 1 for index in tower.indices)
    assert np.max(np.abs(out - apply_dense(group, vec))) < 1e-9


def _digest(spectrum: np.ndarray) -> str:
    return hashlib.sha256(spectrum.tobytes()).hexdigest()[:16]


# First 16 hex digits of the SHA-256 of the spectrum bytes, from the per-node recursion these
# transforms replaced: planning once and running level by level must not move a single bit.
# The digests are bit-level, so a numpy build whose complex kernels round differently (with or
# without fused multiply-add) would need them recorded again from that recursion.
_TOWER_DIGESTS = {
    (256,): "24088588d735affc",
    (2,) * 7: "feea90e8f4075278",
    (4, 9, 5): "cadadbf459fb09f2",
    (1024,): "37583bbdcf9d1151",
    (2,) * 8: "6ced64c0f98a0f1c",
    (8, 9, 5): "c70567c18b9f686c",
    (4096,): "ca0f143843644f0d",
    (2,) * 12: "772411bf5dfb1c53",
    (16, 1021): "4e95508efabe7ca9",
}
_RADIX2_DIGESTS = (
    "4d2da633f02efc70", "4e4864179b41d984", "5eafe803cf08f4ee", "3068eab1c1e26268", "f7bcf71a2f4ffaa6",
    "4c409c687c47d2cd", "1fabafb6069352db", "d09da8c6da773ada", "df1f21968f4664ee", "e57ecfd7dff81051",
    "94fb33ce6d67b51c", "574f407e4d3d99c4", "45b01cfba64b015d", "3b91c74d3f17aa88", "fa75fe12f2b21b26",
)


@pytest.mark.parametrize("moduli", list(_TOWER_DIGESTS), ids=str)
def test_tower_spectra_pinned(moduli):
    group = make_group(moduli)
    vec = random_vector(group.order, np.random.default_rng(group.order))
    out, _ = fft_tower(group, build_tower(group), vec)
    assert _digest(out) == _TOWER_DIGESTS[moduli]


def test_radix2_spectra_pinned():
    for n, digest in enumerate(_RADIX2_DIGESTS):
        out, _ = fft_radix2(n, random_vector(1 << n, np.random.default_rng(1000 + n)))
        assert _digest(out) == digest, n


def test_writing_into_a_spectrum_leaves_the_next_transform_alone():
    group = make_group([12])
    tower = build_tower(group)
    vec = random_vector(group.order, np.random.default_rng(7))
    first, _ = fft_tower(group, tower, vec)
    want = first.copy()
    first[:] = 0
    again, _ = fft_tower(group, tower, vec)
    assert np.array_equal(again, want)
    vec = random_vector(16, np.random.default_rng(8))
    radix, _ = fft_radix2(4, vec)
    want = radix.copy()
    radix[:] = 0
    assert np.array_equal(fft_radix2(4, vec)[0], want)
    single = np.array([0.5 + 0.5j])
    radix, _ = fft_radix2(0, single)
    radix[:] = 0
    assert single[0] == 0.5 + 0.5j


@pytest.mark.parametrize("moduli", [(256,), (2,) * 7, (4, 9, 5)], ids=str)
def test_repeated_group_reuses_its_tower_and_plan_bit_for_bit(moduli):
    vec = random_vector(prod(moduli), np.random.default_rng(31))

    def transform():
        group = make_group(list(moduli))
        return fft_tower(group, build_tower(group), vec)

    fastfft._held_tower.cache_clear()
    runs = [transform(), transform()]
    assert fastfft._held_tower.cache_info().hits == 1
    assert build_tower(make_group(list(moduli))) is build_tower(make_group(list(moduli)))
    fastfft._held_tower.cache_clear()
    runs.append(transform())
    first, report = runs[0]
    for spectrum, again in runs[1:]:
        assert spectrum.tobytes() == first.tobytes()
        assert again == report


def test_build_tower_skips_trivial_factors():
    with_ones, without = build_tower(make_group([1, 2, 1, 1, 3, 1])), build_tower(make_group([2, 3]))
    assert [(level.members, level.generators()) for level in with_ones.levels] == \
        [(level.members, level.generators()) for level in without.levels]
    # A hundred thousand Z1 factors: one pass over them, not one rebuilt list of later factors each.
    script = "from abelianfft import build_tower, make_group; print(build_tower(make_group([2] + [1] * 10**5)).indices)"
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=package_env(), timeout=20)
    assert run.returncode == 0 and run.stdout == "(2,)\n", run.stderr[-300:]


def test_build_tower_tells_factor_orders_apart():
    left, right = build_tower(make_group([2, 4])), build_tower(make_group([4, 2]))
    assert left is not right
    assert left.group.moduli == (2, 4) and right.group.moduli == (4, 2)
    vec = random_vector(8, np.random.default_rng(5))
    for tower in (left, right):
        out, _ = fft_tower(tower.group, tower, vec)
        assert np.max(np.abs(out - apply_dense(tower.group, vec))) < 1e-12


@pytest.mark.parametrize("moduli, held", [
    ((1 << 16,), True),  # 2^16 x (16 x 2) = 2^21 entries
    ((2,) * 16, True),
    ((1 << 17,), False),
    ((1447,), True),  # 1447 x 1447 < 2^21
    ((1453,), False),  # the next prime: 1453 x 1453 > 2^21
    ((4093,), False),
])
def test_build_tower_keeps_only_towers_with_small_plans(moduli, held):
    group = make_group(list(moduli))
    fastfft._held_tower.cache_clear()
    first = build_tower(group)
    assert (build_tower(group) is first) == held
    assert fastfft._held_tower.cache_info().currsize == int(held)


def test_cached_plan_is_read_only():
    group = make_group([4, 9, 5])
    tower = build_tower(group)
    fft_tower(group, tower, np.ones(group.order))
    plan = tower._plan
    arrays = [*plan.reps, *plan.twiddles, plan.spectrum_order, plan.base_gather, plan.base_table]
    arrays += [level._indices for level in tower.levels]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]


def test_hand_built_tower_plans_once(monkeypatch):
    built = []

    class CountedPlan(_TowerPlan):
        def __init__(self, tower):
            built.append(tower)
            super().__init__(tower)

    monkeypatch.setattr(fastfft, "_TowerPlan", CountedPlan)
    group = make_group([12])
    tower = SubgroupTower(group, tuple(subgroup_from_generators(group, [(g,)]) for g in (2, 6)))
    vec = random_vector(group.order, np.random.default_rng(12))
    first = fft_tower(group, tower, vec)
    plan = tower._plan
    second = fft_tower(group, tower, vec)
    assert tower._plan is plan and built == [tower]
    assert first[0].tobytes() == second[0].tobytes() and first[1] == second[1]


def test_upward_pass_memory_stays_near_one_node():
    # The last step of Z16xZ1021's tower has 16 parents of 1021 classes and 1021 reps; combining
    # them all at once would hold two (16, 1021, 1021) complex temporaries of about 255 MiB each.
    moduli = (16, 1021)
    group = make_group(list(moduli))
    tower = build_tower(group)
    vec = random_vector(group.order, np.random.default_rng(44))
    tracemalloc.start()
    try:
        out, _ = fft_tower(group, tower, vec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    want = np.fft.ifftn(vec.reshape(moduli), norm="ortho").reshape(-1)
    assert np.max(np.abs(out - want)) < TOL_TRANSFORM


def _towers(group, rng):
    # build_tower's tower, the trivial tower, and random chains through the subgroup lattice.
    yield build_tower(group)
    yield SubgroupTower(group, (trivial_subgroup(group),))
    subgroups = enumerate_subgroups(group)
    below = {sub.members: [s for s in subgroups if s.order < sub.order and set(s.members) <= set(sub.members)]
             for sub in subgroups}
    for _ in range(4):
        levels, current = [], subgroups[-1]
        while below[current.members] and (not levels or rng.random() < 0.8):
            current = below[current.members][rng.integers(len(below[current.members]))]
            levels.append(current)
        yield SubgroupTower(group, tuple(levels))


@pytest.mark.parametrize("group", abelian_group_types(64), ids=lambda g: g.spec_string())
def test_plan_representatives_are_the_parent_level_part_of_coset_decompose(group):
    rng = np.random.default_rng(group.order)
    for tower in _towers(group, rng):
        plan = _TowerPlan(tower)
        parents = [full_subgroup(group)] + list(tower.levels[:-1])
        assert len(plan.reps) == len(tower.levels)
        for reps, parent, level in zip(plan.reps, parents, tower.levels):
            oracle = [r for r in coset_decompose(group, level).representatives if r in parent.members]
            assert reps.tolist() == oracle


def _generated_chains(group, rng, count=4, entries=1 << 21):
    # Random chains on groups too large to enumerate: each level is p times the level above, for a
    # prime p dividing its order, joined with the most of a few random members that leaves it proper.
    # A chain stops before a level whose twiddle table (classes above times index) passes `entries`.
    for _ in range(count):
        levels, current = [], full_subgroup(group)
        while current.order > 1:
            p = int(rng.choice(list(_factorize(current.order))))
            gens = [tuple(p * c % m for c, m in zip(group.coords_of(g), group.moduli)) for g in current.generators()]
            extra = [group.coords_of(int(x)) for x in rng.choice(current._indices, size=rng.integers(group.rank + 1))]
            while (level := subgroup_from_generators(group, gens + extra)).order == current.order:
                extra.pop()
            if current.order * (current.order // level.order) > entries:
                break
            levels.append(current := level)
        if levels:
            yield SubgroupTower(group, tuple(levels))


def _label_classes(group, level):
    # The class of every label on the level (labels agreeing on its generators), numbered by least label.
    gens = group._coords(np.asarray(level.generators(), dtype=np.int64)).reshape(-1, group.rank)
    key = np.column_stack([_phases(group, group.coords_table, gens), np.zeros(group.order, dtype=np.int64)])
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse.reshape(-1)]


def _gather_pass(group, tower, vec):
    # The upward pass as it ran when every level gathered its children through a class map, with
    # classes numbered by least label, each found here from the labels' phases on the level.  It
    # shares only the coset reps and the base gather and table with the plan.
    plan = tower._plan
    class_of = [np.arange(group.order)] + [_label_classes(group, level) for level in tower.levels]
    values = vec[plan.base_gather]
    k = values.shape[1]
    out = values @ plan.base_table.T
    mults = len(values) * k * k
    adds = len(values) * k * (k - 1)
    for depth in reversed(range(len(tower.levels))):
        least = np.unique(class_of[depth], return_index=True)[1]
        child_class = class_of[depth + 1][least]
        twiddles = _characters(group, group._coords(least), group._coords(plan.reps[depth]))
        classes, reps = twiddles.shape
        children = out.reshape(-1, reps, out.shape[1])
        if reps <= fastfft._REP_BY_REP:
            out = twiddles[:, 0] * children[:, 0, child_class]
            for j in range(1, reps):
                out += twiddles[:, j] * children[:, j, child_class]
        else:
            out = np.empty((len(children), classes), dtype=np.complex128)
            step = max(1, fastfft._LEVEL_BLOCK_ENTRIES // twiddles.size)
            for start in range(0, len(children), step):
                block = children[start:start + step].transpose(0, 2, 1)[:, child_class]
                out[start:start + step] = np.sum(twiddles * block, axis=2)
        mults += out.size * reps
        adds += out.size * (reps - 1)
    spectrum = out[0] / np.sqrt(group.order)
    mults += group.order
    return spectrum, OpCountReport(mults, adds, predict_cost(group.order, tower.levels[0].order))


def _signed_inputs(order, rng):
    # A random vector, and one whose parts are +0, -0, +1, -1 and 0.3, so signed zeros meet in every sum.
    parts = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 0.3]), size=(2, order))
    return random_vector(order, rng), parts[0] + 1j * parts[1]


def _assert_broadcast_pass_is_the_gather_pass(group, towers, rng):
    for tower in towers:
        for vec in _signed_inputs(group.order, rng):
            out, report = fft_tower(group, tower, vec)
            want, want_report = _gather_pass(group, tower, vec)
            assert out.tobytes() == want.tobytes(), [level.order for level in tower.levels]
            assert report == want_report


@pytest.mark.parametrize("group", abelian_group_types(64), ids=lambda g: g.spec_string())
def test_broadcast_pass_equals_the_gather_pass_on_lattice_chains(group):
    rng = np.random.default_rng(4000 + group.order)
    _assert_broadcast_pass_is_the_gather_pass(group, _towers(group, rng), rng)


@pytest.mark.parametrize("moduli", [(7,) * 4, (3,) * 8, (2, 4, 8, 16), (16, 1021)], ids=str)
def test_broadcast_pass_equals_the_gather_pass_on_generated_chains(moduli):
    group = make_group(list(moduli))
    rng = np.random.default_rng(len(moduli))
    towers = [build_tower(group), *_generated_chains(group, rng)]
    _assert_broadcast_pass_is_the_gather_pass(group, towers, rng)


@pytest.mark.parametrize("moduli, levels", [
    ((4, 2), ([(1, 1)], [(2, 0)], [])),
    ((2, 2), ([(1, 1)], [])),
], ids=str)
def test_towers_whose_labels_end_out_of_order(moduli, levels):
    # Hand-built towers whose first class map is not periodic: the top level is renumbered, so the
    # spectrum needs its permutation.
    group = make_group(list(moduli))
    tower = SubgroupTower(group, tuple(subgroup_from_generators(group, gens) for gens in levels))
    assert not np.array_equal(tower._plan.spectrum_order, np.arange(group.order))
    _assert_broadcast_pass_is_the_gather_pass(group, [tower], np.random.default_rng(group.order))


_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@_SETTINGS
@given(st.lists(st.integers(1, 12), min_size=1, max_size=5).filter(lambda moduli: 1 < prod(moduli) <= 4096))
def test_build_tower_needs_no_final_permutation(moduli):
    group = make_group(moduli)
    tower = build_tower(group)
    assert tower._plan.spectrum_order.tobytes() == np.arange(group.order).tobytes()
    _assert_broadcast_pass_is_the_gather_pass(group, [tower], np.random.default_rng(group.order))


# High rank, then a long cyclic group and a large mixed one: the sizes where the plan's phase
# filter and the upward pass's rep-by-rep and blocked paths run on many nodes at once.
@pytest.mark.parametrize("moduli", [(2,) * 16, (2, 2, 2, 3, 3, 3, 5), (65536,), (64, 27, 25)], ids=str)
def test_tower_matches_ifftn_at_high_rank(moduli):
    group = make_group(list(moduli))
    tower = build_tower(group)
    vec = random_vector(group.order, np.random.default_rng(group.rank))
    out, report = fft_tower(group, tower, vec)
    want = np.fft.ifftn(vec.reshape(moduli), norm="ortho").reshape(-1)
    assert np.max(np.abs(out - want)) < TOL_TRANSFORM
    assert report.complex_multiplies == group.order * (sum(tower.indices) + 2)
    assert report.complex_adds == group.order * sum(index - 1 for index in tower.indices)


def test_predict_cost_values():
    assert predict_cost(16, 8) == 160
    assert predict_cost(64, 8) == 1024
    assert predict_cost(6, 6) == 6 * 7
    with pytest.raises(ValueError):
        predict_cost(6, 4)
    with pytest.raises(ValueError):
        predict_cost(6, 0)


@pytest.mark.parametrize("m", range(0, 11))
def test_radix2_matches_dense(m):
    g = radix2_group(m)
    vec = random_vector(1 << m, np.random.default_rng(100 + m))
    out, report = fft_radix2(m, vec)
    assert np.max(np.abs(out - apply_dense(g, vec))) < 1e-9
    assert report.complex_multiplies == m * (1 << m)
    assert report.complex_adds == m * (1 << m)
    assert report.predicted_bound == m * (1 << m)


@pytest.mark.parametrize("m", [16, 20])
def test_radix2_matches_ifft_at_large_sizes(m):
    vec = random_vector(1 << m, np.random.default_rng(200 + m))
    out, report = fft_radix2(m, vec)
    assert np.max(np.abs(out - np.fft.ifft(vec, norm="ortho"))) < TOL_TRANSFORM
    assert report.complex_multiplies == report.complex_adds == m * (1 << m)


def test_radix2_frozen_small_cases():
    out, _ = fft_radix2(1, np.array([1.0, 0.0]))
    assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)
    delta = np.zeros(8)
    delta[0] = 1.0
    out, _ = fft_radix2(3, delta)
    assert np.allclose(out, np.full(8, 1 / np.sqrt(8)), atol=1e-14)


def test_radix2_count_recursion_constant():
    # count(2^m) - 2*count(2^(m-1)) == a * 2^m with a == 1 for every m
    counts = {}
    for m in range(1, 13):
        vec = random_vector(1 << m, np.random.default_rng(m))
        _, report = fft_radix2(m, vec)
        counts[m] = report.complex_multiplies
    for m in range(2, 13):
        extra = counts[m] - 2 * counts[m - 1]
        assert extra % (1 << m) == 0
        assert extra // (1 << m) == 1


def test_radix2_count_upper_bound_n8():
    n = 8
    vec = random_vector(1 << n, np.random.default_rng(8))
    _, report = fft_radix2(n, vec)
    assert report.complex_multiplies <= 2 * n * (1 << n)


def test_radix2_linearity_and_norm():
    rng = np.random.default_rng(9)
    u = random_vector(64, rng)
    v = random_vector(64, rng)
    a, b = 1.2 + 0.5j, -0.3 + 2.0j
    combo, _ = fft_radix2(6, a * u + b * v)
    fu, _ = fft_radix2(6, u)
    fv, _ = fft_radix2(6, v)
    assert np.max(np.abs(combo - (a * fu + b * fv))) < 1e-10
    assert np.linalg.norm(fu) == pytest.approx(np.linalg.norm(u), abs=1e-10)


def test_radix2_rejects_bad_input():
    with pytest.raises(ValueError):
        fft_radix2(3, np.ones(6))
    with pytest.raises(ValueError):
        fft_radix2(-1, np.ones(1))


def test_radix2_twiddle_drift_bounded():
    # repeated-multiplication tables must stay near the unit circle at size 4096
    vec = random_vector(4096, np.random.default_rng(0))
    out, _ = fft_radix2(12, vec)
    assert np.max(np.abs(out - apply_dense(make_group([4096]), vec))) < 1e-9


@lru_cache(maxsize=None)
def _scaled_twiddles(size):
    return _twiddle_table(size) * _INV_SQRT2


def _radix2_oracle(n, vec):
    # The stage-by-stage kernel the constant-geometry network replaced: the input permuted into
    # bit-reversed order, then stage m combines the two halves of every run of 2^m entries in place.
    data = vec.reshape((2,) * n).transpose().flatten()
    mults = adds = 0
    for level in range(1, n + 1):
        size = 1 << level
        halves = data.reshape(-1, 2, size // 2)
        even = halves[:, 0] * _INV_SQRT2
        odd = halves[:, 1] * _scaled_twiddles(size)
        halves[:, 0] = even + odd
        halves[:, 1] = even - odd
        mults += data.size
        adds += data.size
    return data, OpCountReport(mults, adds, n * (1 << n))


def _radix2_inputs(n, rng):
    size = 1 << n
    # Parts drawn from +0, -0, +1, -1 and a random magnitude, so signed zeros meet in every butterfly.
    parts = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 0.3]), size=(2, size))
    # Every basis vector up to 16 entries, a few past that.
    basis = range(size) if n <= 4 else [0, 1, int(rng.integers(size)), size - 1]
    yield random_vector(size, rng)
    yield parts[0] + 1j * parts[1]
    for index in basis:
        vec = np.zeros(size, dtype=np.complex128)
        vec[index] = 1.0
        yield vec


@pytest.mark.parametrize("n", list(range(0, 17)) + [20])
def test_radix2_equals_the_stage_by_stage_kernel_bit_for_bit(n):
    for vec in _radix2_inputs(n, np.random.default_rng(3000 + n)):
        out, report = fft_radix2(n, vec)
        want, want_report = _radix2_oracle(n, vec)
        assert out.tobytes() == want.tobytes(), n
        assert report == want_report


def test_stage_twiddles_are_their_definition_read_only_and_bounded():
    for stage in range(15):
        table = _stage_twiddles(stage)
        width = 1 << stage
        reversed_rows = [int(format(r, f"0{stage}b")[::-1], 2) for r in range(width)]
        assert table.tobytes() == _scaled_twiddles(2 * width)[reversed_rows].tobytes(), stage
        with pytest.raises(ValueError):
            table[0] = 0
        assert _stage_twiddles(stage) is table
    limit = _stage_twiddles.cache_info().maxsize
    assert limit is not None and limit >= 20
    # The scaled tables are the only cached twiddles: the tower of w^j tables is built per stage.
    assert not hasattr(_twiddle_table, "cache_info")


def test_radix2_peak_memory_is_two_state_buffers():
    n = 20
    vec = random_vector(1 << n, np.random.default_rng(20))
    fft_radix2(n, vec)  # warm the stage tables
    tracemalloc.start()
    try:
        out, _ = fft_radix2(n, vec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The two buffers the stages alternate between, one of which returns as the spectrum.  The
    # stage-by-stage kernel peaked at 40 MiB: its two buffers and the bit-reversal's copy.
    assert peak < 2 * vec.nbytes + 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert not np.shares_memory(out, vec)


@pytest.mark.parametrize("n", range(0, 11))
def test_walsh_hadamard_matches_dense(n):
    g = boolean_group(n)
    vec = random_vector(1 << n, np.random.default_rng(200 + n))
    out = walsh_hadamard(n, vec)
    assert np.max(np.abs(out - apply_dense(g, vec))) < 1e-9


@pytest.mark.parametrize("n", range(0, 11))
def test_walsh_hadamard_self_inverse(n):
    vec = random_vector(1 << n, np.random.default_rng(300 + n))
    twice = walsh_hadamard(n, walsh_hadamard(n, vec))
    assert np.max(np.abs(twice - vec)) < 1e-10


def test_walsh_frozen_small_cases():
    assert np.allclose(walsh_hadamard(1, [1.0, 0.0]), [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)
    delta = np.zeros(4)
    delta[0] = 1.0
    assert np.allclose(walsh_hadamard(2, np.full(4, 0.5)), delta, atol=1e-14)
    pair = np.zeros(4)
    pair[0] = pair[3] = 1 / np.sqrt(2)  # indicator of {00, 11}, normalised
    out = walsh_hadamard(2, pair)
    want = np.zeros(4)
    want[0] = want[3] = 1 / np.sqrt(2)
    assert np.allclose(out, want, atol=1e-14)


# Digests as above, taken when each stage still copied both halves and built their sum and difference.
_WALSH_DIGESTS = (
    "adaff6d59038b059", "b48fc8a367c5b0c4", "c270f2c559ea1ff7", "1d9bb2df6642fc53", "787ff14b9d9b58b0",
    "dafd1c4d59511980", "a6f9d85a0fa0abe4", "a304a5d5944bafc0", "84245eb3ab46c429", "245752af64fcf674",
    "d612e7ebc9ddc6db", "19a1ab7ab75dbcc7", "7ef381671455bcc1", "cd4e00b4f09408c9", "cad6c2aee4f185e2",
    "c3e5cfc71202f5b9", "508ebcc88b535ca2",
)


def test_walsh_spectra_pinned_and_input_left_alone():
    for n, digest in enumerate(_WALSH_DIGESTS):
        vec = random_vector(1 << n, np.random.default_rng(400 + n))
        before = vec.copy()
        out = walsh_hadamard(n, vec)
        assert _digest(out) == digest, n
        assert np.array_equal(vec, before) and not np.shares_memory(out, vec), n


def test_walsh_rejects_bad_input():
    with pytest.raises(ValueError):
        walsh_hadamard(2, np.ones(3))
    with pytest.raises(ValueError):
        walsh_hadamard(-1, np.ones(1))


def test_group_constructors():
    assert radix2_group(3).moduli == (8,)
    assert boolean_group(3).moduli == (2, 2, 2)
    assert radix2_group(0).order == 1
