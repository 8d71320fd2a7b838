"""Property tests of the array group arithmetic against coordinate arithmetic, over random groups."""
from __future__ import annotations

from math import prod

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from abelianfft import coset_decompose, make_group, subgroup_from_generators

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
