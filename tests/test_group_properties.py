"""Property tests over random groups: the array group arithmetic against coordinate arithmetic,
build_tower's levels against their validated construction, the tower transform against the
dense oracle whatever tower it runs on, the transform's
Parseval identity and shift duality, the stabiliser route against the brute-force oracle, and the
nondegeneracy check against the coset table on arbitrary subgroups."""
from __future__ import annotations

import re
from math import prod

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from abelianfft import (
    FunctionTable,
    Subgroup,
    SubgroupTower,
    apply_dense,
    build_tower,
    character_phases,
    check_nondegenerate,
    coset_decompose,
    fft_tower,
    label_distribution,
    make_group,
    shift_vector,
    stabilizer_bruteforce,
    subgroup_from_generators,
    trivial_subgroup,
)
from abelianfft.groups import _annihilated
from abelianfft.period import _nondegenerate_stabilizer

from test_acceptance import TOL_EXACT_DIST, TOL_TRANSFORM

MAX_ORDER = 512

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def groups(draw):
    moduli: list[int] = []
    for _ in range(draw(st.integers(1, 3))):
        moduli.append(draw(st.integers(1, MAX_ORDER // prod(moduli, start=1))))
    return make_group(moduli)


@st.composite
def group_and_elements(draw, max_size=12):
    group = draw(groups())
    elements = draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=max_size))
    return group, elements


@_SETTINGS
@given(group_and_elements())
def test_translate_and_negate_match_coordinate_arithmetic(case):
    group, elements = case
    coords = [group.coords_of(e) for e in elements]
    shift = elements[-1]
    assert group.translate(elements, shift).tolist() == [
        group.index_of(group.add(c, coords[-1])) for c in coords
    ]
    assert group.negate(elements).tolist() == [group.index_of(group.neg(c)) for c in coords]
    table = group.translate(np.asarray(elements)[:, None], np.asarray(elements)[None, :])
    assert table.tolist() == [[group.index_of(group.add(a, b)) for b in coords] for a in coords]


@_SETTINGS
@given(group_and_elements(max_size=3))
def test_coset_decompose_invariants(case):
    group, gens = case
    subgroup = subgroup_from_generators(group, [group.coords_of(g) for g in gens])
    dec = coset_decompose(group, subgroup)
    reps = np.asarray(dec.representatives)
    for e in range(group.order):
        rep = group.coords_of(int(reps[dec.coset_of[e]]))
        offset = group.coords_of(subgroup.members[dec.slot_of[e]])
        assert group.index_of(group.add(rep, offset)) == e
    # Every coset has each subgroup slot exactly once, and its representative is its minimum.
    pairs = dec.coset_of * subgroup.order + dec.slot_of
    assert sorted(pairs.tolist()) == list(range(group.order))
    smallest = np.full(len(reps), group.order)
    np.minimum.at(smallest, dec.coset_of, np.arange(group.order))
    assert np.array_equal(smallest, reps)
    assert np.all(np.diff(reps) > 0)


@_SETTINGS
@given(group_and_elements(max_size=3))
def test_closure_matches_set_closure(case):
    group, gens = case
    closure = {0}
    frontier = {0}
    while frontier:
        frontier = {
            group.index_of(group.add(group.coords_of(x), group.coords_of(g))) for x in frontier for g in gens
        } - closure
        closure |= frontier
    subgroup = subgroup_from_generators(group, [group.coords_of(g) for g in gens])
    assert subgroup.members == tuple(sorted(closure))


def _coords(group, indices):
    return np.stack(np.unravel_index(np.asarray(indices, dtype=np.int64), group.moduli), axis=-1)


def _index(group, coords):
    return np.ravel_multi_index(tuple(np.moveaxis(coords % np.array(group.moduli), -1, 0)), group.moduli)


def _generated(group, elements) -> set[int]:
    # The subgroup the elements generate, one cyclic subgroup at a time in coordinate arithmetic:
    # H + <s> is H + {0, s, ..., (j - 1)s} for the least j >= 1 with js in H.
    closed = np.zeros(1, dtype=np.int64)
    inside = np.zeros(group.order, dtype=bool)
    inside[0] = True
    for s in elements:
        if not inside[s]:
            multiples = np.arange(group.order + 1)[:, None] * _coords(group, s)
            j = 1 + int(np.argmax(inside[_index(group, multiples[1:])]))
            closed = _index(group, _coords(group, closed)[:, None, :] + multiples[:j]).ravel()
            inside[closed] = True
    return set(closed.tolist())


@st.composite
def member_sets(draw):
    # A group of order at most 4096 and a set S that contains 0: the subgroup that a few elements
    # generate, with some random elements added or some removed, or just those elements.  Each
    # coordinate of the generating elements is a multiple of a divisor d < m of its modulus m, so
    # proper subgroups of many orders come up, not only the trivial one and the whole group.
    moduli: list[int] = []
    for _ in range(draw(st.integers(1, 3))):
        moduli.append(draw(st.integers(1, 4096 // prod(moduli, start=1))))
    group = make_group(moduli)
    coordinates = []
    for m in moduli:
        d = draw(st.sampled_from([d for d in range(1, m) if m % d == 0] or [1]))
        coordinates.append(st.integers(0, m // d - 1).map(lambda r, d=d: r * d))
    elements = [group.index_of(e) for e in draw(st.lists(st.tuples(*coordinates), min_size=1, max_size=4))]
    if draw(st.booleans()):
        elements = sorted(_generated(group, elements))
    added = draw(st.lists(st.integers(0, group.order - 1), max_size=2))
    removed = set(draw(st.lists(st.sampled_from(elements), max_size=2)))
    return group, sorted({0, *added} | set(elements) - (removed - {0}))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(member_sets())
def test_subgroup_accepts_exactly_the_sets_closed_under_addition(case):
    group, members = case
    inside = np.zeros(group.order, dtype=bool)
    inside[members] = True
    coords = _coords(group, members)
    # S + S, a block of rows of the pair table at a time.
    block = max(1, 2**18 // len(members))
    closed = all(
        inside[_index(group, coords[i : i + block, None, :] + coords)].all() for i in range(0, len(members), block)
    )
    try:
        subgroup = Subgroup(group, members[::-1])
    except ValueError as err:
        listed = [int(x) for x in re.fullmatch(r".*\(missing \[(.*)\]\)", str(err)).group(1).split(", ")]
        assert not closed
        assert 1 <= len(listed) <= 4
        assert set(listed) <= _generated(group, members) - set(members)
    else:
        assert closed
        assert subgroup.members == tuple(members)


@_SETTINGS
@given(st.one_of(groups(), st.lists(st.integers(1, 6), min_size=4, max_size=6).map(make_group))
       .filter(lambda group: group.order > 1))
def test_tower_levels_equal_their_validated_construction(group):
    # build_tower skips the closure check and states each level's greedy generators in closed
    # form; the checked construction must find the same members and the same generators.
    for level in build_tower(group).levels:
        checked = Subgroup(group, level._indices)
        assert level.members == checked.members
        assert level.generators() == checked.generators()
        assert np.array_equal(level._indices, checked._indices) and not level._indices.flags.writeable


@_SETTINGS
@given(groups().filter(lambda group: group.order > 1), st.integers(0, 2**32 - 1))
def test_tower_transform_matches_dense_on_any_tower(group, seed):
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    want = apply_dense(group, vec)
    built = build_tower(group)
    towers = [built, SubgroupTower(group, (trivial_subgroup(group),))]
    if len(built.levels) > 1:
        towers.append(SubgroupTower(group, built.levels[:-1]))  # stops above the trivial subgroup
    for tower in towers:
        out, report = fft_tower(group, tower, vec)
        assert np.max(np.abs(out - want)) < TOL_TRANSFORM
        # Closed form: index multiplies per element at each level, the base blocks, the final scale.
        base = tower.levels[-1].order
        assert report.complex_multiplies == group.order * (sum(tower.indices) + base + 1)
        assert report.complex_adds == group.order * (sum(i - 1 for i in tower.indices) + base - 1)


def _random_vector(group, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)


@_SETTINGS
@given(groups().filter(lambda group: group.order > 1), st.integers(0, 2**32 - 1))
def test_tower_transform_keeps_the_norm(group, seed):
    vec = _random_vector(group, seed)
    out, _ = fft_tower(group, build_tower(group), vec)
    assert abs(np.linalg.norm(out) - np.linalg.norm(vec)) < TOL_EXACT_DIST * np.linalg.norm(vec)


@_SETTINGS
@given(group_and_elements(max_size=1).filter(lambda case: case[0].order > 1), st.integers(0, 2**32 - 1))
def test_shift_multiplies_each_spectral_line_by_its_character(case, seed):
    group, (shift,) = case
    vec = _random_vector(group, seed)
    tower = build_tower(group)
    spectrum, _ = fft_tower(group, tower, vec)
    shifted, _ = fft_tower(group, tower, shift_vector(group, shift, vec))
    eig = np.exp((2j * np.pi / group.lcm) * character_phases(group, shift))
    assert np.max(np.abs(shifted - eig * spectrum)) < TOL_EXACT_DIST


@_SETTINGS
@given(
    st.one_of(groups(), st.sampled_from([(2,) * 9, (2, 4, 4), (3,) * 5, (8, 9, 5)]).map(make_group)),
    st.data(),
)
def test_annihilated_in_passes_equals_one_label_at_a_time(group, data):
    # Up to 6 random labels with repeats and the identity, or every element as a label; every
    # element, or a given subset in a given order.  In the listed groups a random label mostly
    # shrinks the survivors, so dropping any one label mostly changes the result.
    element = st.integers(0, group.order - 1)
    labels = data.draw(st.one_of(st.lists(element, max_size=6), st.just(list(range(group.order)))))
    elements = data.draw(st.one_of(st.none(), st.lists(element, unique=True, max_size=40)))
    if elements is not None:
        elements = np.array(elements, dtype=np.int64)
    want = np.arange(group.order, dtype=np.int64) if elements is None else elements
    for label in labels:
        want = want[character_phases(group, label, want) == 0]
    assert np.array_equal(_annihilated(group, labels, elements), want)


@st.composite
def function_tables(draw):
    # Planted tables are one-to-one on the cosets of a random subgroup; merging two of their
    # values, or drawing values at random from a small range, mostly makes them degenerate.  Runs
    # of b consecutive indices, b dividing |G|, are the translates of the first run on a cyclic
    # group, where that run is a subgroup only for b = 1 or |G|; on other groups they are
    # sometimes the cosets of a subgroup and sometimes no translates at all.
    group = draw(groups().filter(lambda group: group.order > 1))
    gens = draw(st.lists(st.integers(0, group.order - 1), max_size=2))
    kind = draw(st.sampled_from(("planted", "merged", "random", "runs")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return FunctionTable(group, rng.integers(0, draw(st.integers(1, 4)), size=group.order))
    if kind == "runs":
        run = draw(st.sampled_from([b for b in range(1, group.order + 1) if group.order % b == 0]))
        return FunctionTable(group, rng.permutation(group.order // run)[np.arange(group.order) // run])
    subgroup = subgroup_from_generators(group, [group.coords_of(g) for g in gens])
    coset_of = coset_decompose(group, subgroup).coset_of
    values = rng.permutation(int(coset_of.max()) + 1)[coset_of]
    if kind == "merged":
        kept, merged = rng.integers(0, values.max() + 1, size=2)
        values[values == merged] = kept
    return FunctionTable(group, values)


@_SETTINGS
@given(function_tables())
def test_stabiliser_route_matches_the_oracle(f):
    want = stabilizer_bruteforce(f)
    try:
        got, labels = _nondegenerate_stabilizer(f)
    except ValueError as error:
        assert str(error) == "function table is degenerate: equal values on distinct stabiliser cosets"
        assert not check_nondegenerate(f, want)
    else:
        assert check_nondegenerate(f, want) and got == want and got.generators() == want.generators()
        assert np.array_equal(labels, np.flatnonzero(label_distribution(f.group, want)))


def _one_to_one_on_cosets(f: FunctionTable, subgroup) -> bool:
    # The coset-table formula: every value equals its coset representative's, and the
    # representatives' values are distinct.
    dec = coset_decompose(f.group, subgroup)
    rep_values = f._values[np.asarray(dec.representatives, dtype=np.int64)]
    if not np.array_equal(f._values, rep_values[dec.coset_of]):
        return False
    return len(set(rep_values.tolist())) == len(dec.representatives)


@_SETTINGS
@given(function_tables(), st.sampled_from(("random", "stabiliser", "inside", "above")), st.integers(0, 2**32 - 1))
def test_nondegeneracy_matches_the_coset_table_on_any_subgroup(f, kind, seed):
    # H is a random subgroup, the stabiliser K, K less one generator (f is constant on the cosets of
    # such an H but takes fewer than [G:H] values), or K plus a random element.
    group = f.group
    rng = np.random.default_rng(seed)
    gens = list(stabilizer_bruteforce(f).generators())
    if kind == "random":
        gens = rng.integers(0, group.order, size=rng.integers(0, 3)).tolist()
    elif kind == "inside":
        gens = gens[:-1]
    elif kind == "above":
        gens.append(int(rng.integers(0, group.order)))
    subgroup = subgroup_from_generators(group, [group.coords_of(g) for g in gens])
    assert check_nondegenerate(f, subgroup) == _one_to_one_on_cosets(f, subgroup)
