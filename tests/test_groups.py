"""Group plumbing: indexing, characters, subgroups, cosets, annihilators."""
from __future__ import annotations

import re
import tracemalloc
from math import ceil, log2

import numpy as np
import pytest

from abelianfft import (
    annihilator,
    character_eval,
    character_phase,
    coset_decompose,
    enumerate_subgroups,
    make_group,
    parse_group_spec,
    subgroup_from_generators,
)
from abelianfft import groups as groups_module
from abelianfft.groups import Subgroup, _annihilated, character_phases, full_subgroup, trivial_subgroup

from testutil import abelian_group_types


def test_mixed_radix_indexing_first_factor_most_significant():
    g = make_group([2, 3])
    assert [g.coords_of(i) for i in range(6)] == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert g.index_of((1, 2)) == 5
    assert g.order == 6
    assert g.weights == (3, 1)


def test_add_neg_roundtrip():
    g = make_group([4, 3])
    assert g.add((3, 2), (2, 2)) == (1, 1)
    assert g.neg((1, 2)) == (3, 1)
    assert g.add((1, 2), g.neg((1, 2))) == (0, 0)


def test_translate_and_negate_broadcast():
    g = make_group([4, 3])
    assert g.translate([[1, 2], [3, 4]], 5).tolist() == [[3, 4], [8, 6]]
    assert g.translate(np.arange(12)[:, None], np.arange(12)).shape == (12, 12)
    assert g.negate([1, 5, 0]).tolist() == [2, 10, 0]
    assert g.add_index(4, 5) == 6 and g.neg_index(5) == 10


def test_translate_rejects_bad_indices():
    g = make_group([4, 3])
    for bad in (-1, 12, [0, -3], 1.5, True, 2**70):
        with pytest.raises(ValueError):
            g.translate(bad, 0)
        with pytest.raises(ValueError):
            g.translate(0, bad)
        with pytest.raises(ValueError):
            g.negate(bad)
        with pytest.raises(ValueError):
            g.add_index(bad, 0)


def test_translate_exact_for_moduli_near_the_index_limit():
    g = make_group([2**63 - 1])
    assert g.add_index(2**62, 2**62) == 1
    assert g.neg_index(5) == 2**63 - 6


def _random_groups(rng):
    # Ranks 1 to 16 with orders up to a few thousand, plus cyclic groups of order near 2**63.
    for rank in range(1, 17):
        for _ in range(3):
            budget = 4096
            moduli = []
            for _ in range(rank):
                moduli.append(int(rng.integers(1, max(2, budget) + 1)))
                budget //= moduli[-1]
            yield make_group(moduli)
    for order in (2**63 - 1, 2**63 - 25, 2**62 + 1, 3 * 2**61):
        yield make_group([order])


def test_translate_negate_and_coords_table_match_the_scalar_oracle():
    rng = np.random.default_rng(2024)
    for g in _random_groups(rng):
        if g.order <= 4096:
            assert g.coords_table.tolist() == [list(g.coords_of(i)) for i in range(g.order)]
            assert not g.coords_table.flags.writeable
        a = rng.integers(0, g.order, 40, dtype=np.int64)
        b = rng.integers(0, g.order, 40, dtype=np.int64)
        sums = [g.index_of(g.add(g.coords_of(int(x)), g.coords_of(int(y)))) for x, y in zip(a, b)]
        negs = [g.index_of(g.neg(g.coords_of(int(x)))) for x in a]
        assert g.translate(a, b).tolist() == sums
        assert g.negate(a).tolist() == negs
        assert [g.add_index(int(x), int(y)) for x, y in zip(a, b)] == sums
        assert [g.neg_index(int(x)) for x in a] == negs
        label = g.coords_of(int(a[0]))
        phases = [character_phase(g, label, g.coords_of(int(y))) for y in b]
        assert character_phases(g, int(a[0]), b).tolist() == phases
        # Broadcast: a column of indices against a row of shifts, and a scalar shift.
        table = g.translate(a[:8, None], b[None, :5])
        assert table.tolist() == [[g.add_index(int(x), int(y)) for y in b[:5]] for x in a[:8]]
        assert g.translate(a, int(b[0])).tolist() == [g.add_index(int(x), int(b[0])) for x in a]
        for bad in (-1, g.order, [0, -3], [[1, g.order]], np.array([0.0, 1.0]), 1.5):
            with pytest.raises(ValueError):
                g.translate(bad, 0)
            with pytest.raises(ValueError):
                g.translate(a[:3, None], bad)
            with pytest.raises(ValueError):
                g.negate(bad)


def test_few_element_arithmetic_needs_no_coords_table():
    # A two-factor group of order 3 * 2**61 has a coords_table of 2**62 rows, which nothing can
    # hold; a few elements read their coordinates by division and agree with the scalar oracle.
    g = make_group([2**61, 3])
    elements = [0, 5, 7, 8, 2**61 + 1, g.order - 1]
    for x in elements:
        cx = g.coords_of(x)
        assert g.neg_index(x) == g.index_of(g.neg(cx))
        for y in elements:
            assert g.add_index(x, y) == g.index_of(g.add(cx, g.coords_of(y)))
    assert g.translate(elements, 5).tolist() == [g.add_index(x, 5) for x in elements]
    assert g.negate(elements).tolist() == [g.neg_index(x) for x in elements]
    for label in ((5, 1), (2**61 - 1, 2)):
        expected = [character_phase(g, label, g.coords_of(x)) for x in elements]
        assert character_phases(g, label, elements).tolist() == expected
    assert "coords_table" not in vars(g)
    # On a group small enough to tabulate, the digits read by division are the table's rows.
    small, few = make_group([4, 9, 5]), np.array([0, 7, 179])
    digits = small._coords(few)
    assert "coords_table" not in vars(small)
    assert digits.dtype == small.coords_table.dtype and digits.tolist() == small.coords_table[few].tolist()


def test_group_shape_predicates():
    expected = {
        (1,): (False, False),
        (2,): (True, True),
        (8,): (True, False),
        (6,): (False, False),
        (2, 2): (False, True),
        (1, 2): (False, False),
        (4, 2): (False, False),
    }
    for moduli, flags in expected.items():
        g = make_group(moduli)
        assert (g.is_cyclic_power_of_two, g.is_boolean) == flags


def test_make_group_rejects_bad_moduli():
    with pytest.raises(ValueError):
        make_group([])
    with pytest.raises(ValueError):
        make_group([0])
    with pytest.raises(ValueError):
        make_group([2, -3])
    with pytest.raises(ValueError):
        make_group([2**40, 2**40])
    with pytest.raises(ValueError, match="modulus True is not a positive integer"):
        make_group([True, 4])
    with pytest.raises(ValueError, match="modulus 2.0 is not a positive integer"):
        make_group([2.0])
    # Numpy integers are moduli too, stored as int.
    g = make_group(np.array([4, 6]))
    assert g == make_group([4, 6]) and all(type(m) is int for m in g.moduli)
    assert g.spec_string() == "Z4xZ6"


def test_coords_validation():
    g = make_group([4])
    with pytest.raises(ValueError):
        g.index_of((4,))
    with pytest.raises(ValueError):
        g.index_of((1, 0))
    with pytest.raises(ValueError):
        g.coords_of(4)
    h = make_group([4, 6])
    for bad in (1.5, True, "1"):
        with pytest.raises(ValueError, match="element index"):
            h.coords_of(bad)
    with pytest.raises(ValueError):
        h.index_of((True, 1))
    assert h.coords_of(np.int64(7)) == (1, 1) and all(type(c) is int for c in h.coords_of(np.int64(7)))


def test_parse_group_spec():
    assert parse_group_spec("Z4").moduli == (4,)
    assert parse_group_spec("Z2xZ3").moduli == (2, 3)
    assert parse_group_spec("Z2^3").moduli == (2, 2, 2)
    assert parse_group_spec("z4 X z2^2").moduli == (4, 2, 2)
    for bad in ("", "Q8", "Z", "Z4x", "Z2^0", "Z0"):
        with pytest.raises(ValueError):
            parse_group_spec(bad)


def test_character_frozen_values():
    g = make_group([4])
    assert character_eval(g, (0,), (3,)) == pytest.approx(1.0)
    assert character_eval(g, (1,), (1,)) == pytest.approx(1j)
    assert character_eval(g, (1,), (2,)) == pytest.approx(-1.0)
    assert character_eval(g, (2,), (3,)) == pytest.approx(-1.0)
    h = make_group([2, 3])
    # phase of chi_(1,1) at (1,1) is 1/2 + 1/3 = 5/6 of a turn
    assert character_phase(h, (1, 1), (1, 1)) == 5
    assert h.lcm == 6
    assert character_eval(h, (1, 1), (1, 1)) == pytest.approx(np.exp(2j * np.pi * 5 / 6))


def test_characters_multiplicative_and_root_of_unity():
    g = make_group([4, 3])
    rng = np.random.default_rng(11)
    for _ in range(50):
        label = tuple(int(rng.integers(m)) for m in g.moduli)
        a = tuple(int(rng.integers(m)) for m in g.moduli)
        b = tuple(int(rng.integers(m)) for m in g.moduli)
        lhs = character_eval(g, label, g.add(a, b))
        rhs = character_eval(g, label, a) * character_eval(g, label, b)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert character_eval(g, label, a) ** g.order == pytest.approx(1.0, abs=1e-10)


def test_character_pairing_symmetric():
    g = make_group([6, 2])
    for i in range(g.order):
        for j in range(g.order):
            assert character_phase(g, g.coords_of(i), g.coords_of(j)) == character_phase(
                g, g.coords_of(j), g.coords_of(i)
            )


@pytest.mark.parametrize("group", abelian_group_types(24), ids=lambda g: g.spec_string())
def test_character_orthogonality_small(group):
    table = np.empty((group.order, group.order), dtype=np.complex128)
    for i in range(group.order):
        phases = character_phases(group, i)
        table[i] = np.exp(2j * np.pi * phases / group.lcm)
    gram = (table @ table.conj().T) / group.order
    assert np.max(np.abs(gram - np.eye(group.order))) < 1e-10


@pytest.mark.parametrize("group", abelian_group_types(24), ids=lambda g: g.spec_string())
def test_characters_pairwise_distinct_exact(group):
    rows = {tuple(character_phases(group, i).tolist()) for i in range(group.order)}
    assert len(rows) == group.order


@pytest.mark.parametrize("group", abelian_group_types(24), ids=lambda g: g.spec_string())
def test_character_phases_on_an_element_subset(group):
    # A subset reads the same phases as the whole group, in the subset's order; the pairing is symmetric.
    full = np.stack([character_phases(group, i) for i in range(group.order)])
    subset = np.random.default_rng(group.order).permutation(group.order)[: max(1, group.order // 3)]
    for i in range(group.order):
        assert np.array_equal(character_phases(group, i, subset), full[i, subset])
        assert np.array_equal(character_phases(group, group.coords_of(i), subset), full[subset, i])
    with pytest.raises(ValueError):
        character_phases(group, 0, [group.order])
    with pytest.raises(ValueError):
        character_phases(group, 0, [-1])


def test_subgroup_validation():
    g = make_group([8])
    with pytest.raises(ValueError):
        Subgroup(g, ())
    with pytest.raises(ValueError):
        Subgroup(g, (2, 4, 6))  # no identity
    with pytest.raises(ValueError):
        Subgroup(g, (0, 2))  # not closed: 2+2=4 missing
    with pytest.raises(ValueError):
        Subgroup(g, (0, 9))
    assert Subgroup(g, (0, 4)).order == 2
    assert Subgroup(g, (0, 2, 4, 6)).order == 4


def test_subgroup_check_stops_once_the_closure_outgrows_the_set():
    # {0, 1, -1} is closed under negation but generates all of Z_(2^22); the check must reject it
    # without building that closure (32 MiB of indices).
    g = make_group([2**22])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="not closed under addition"):
            Subgroup(g, (0, 1, g.order - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "build, members",
    [
        (lambda: Subgroup(make_group([2**28]), [0, 2**27]), (0, 2**27)),
        (lambda: trivial_subgroup(make_group([2**40])), (0,)),
        (lambda: Subgroup(make_group([2**40]), [0, 3]), "missing [6, 9]"),
    ],
    ids=["order 2 in Z_(2^28)", "trivial in Z_(2^40)", "refused in Z_(2^40)"],
)
def test_subgroup_memory_follows_its_own_order(build, members):
    # A subgroup is built, or refused, in memory that grows with its own size, not the group's.
    tracemalloc.start()
    try:
        if isinstance(members, str):
            with pytest.raises(ValueError, match=re.escape(members)):
                build()
        else:
            assert build().members == members
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_subgroup_from_generators():
    g = make_group([12])
    h = subgroup_from_generators(g, [(8,)])
    assert h.members == (0, 4, 8)
    k = subgroup_from_generators(g, [(4,), (6,)])
    assert k.members == (0, 2, 4, 6, 8, 10)
    assert subgroup_from_generators(g, []).members == (0,)
    b = make_group([2, 2, 2])
    s = subgroup_from_generators(b, [(1, 0, 1), (0, 1, 0)])
    assert s.order == 4


def test_subgroup_generators_regenerate():
    g = make_group([2, 4, 3])
    for sub in enumerate_subgroups(g):
        gens = [g.coords_of(i) for i in sub.generators()]
        assert subgroup_from_generators(g, gens).members == sub.members


def test_coset_decomposition_structure():
    g = make_group([12])
    h = Subgroup(g, (0, 4, 8))
    dec = coset_decompose(g, h)
    assert dec.representatives == (0, 1, 2, 3)
    seen = set()
    for e in range(12):
        rep = dec.representatives[dec.coset_of[e]]
        offset = h.members[dec.slot_of[e]]
        assert g.add_index(rep, offset) == e
        assert rep == min(g.add_index(rep, m) for m in h.members)
        seen.add(e)
    assert len(seen) == 12


def test_lagrange_over_catalog():
    for group in abelian_group_types(16):
        for sub in enumerate_subgroups(group):
            assert group.order % sub.order == 0


def test_annihilator_sizes_and_duality():
    for group in abelian_group_types(20):
        for sub in enumerate_subgroups(group):
            ann = annihilator(group, sub)
            assert ann.order * sub.order == group.order
            assert annihilator(group, ann).members == sub.members


def test_subgroup_of_another_group_is_refused():
    z4, z2 = make_group([4]), make_group([2, 2])
    for foreign in (full_subgroup(z2), Subgroup(make_group([4, 1]), (0, 2))):
        with pytest.raises(ValueError, match="^subgroup belongs to a different group$"):
            coset_decompose(z4, foreign)
        with pytest.raises(ValueError, match="^subgroup belongs to a different group$"):
            annihilator(z4, foreign)


def test_annihilator_trivial_cases():
    g = make_group([6])
    assert annihilator(g, trivial_subgroup(g)).order == 6
    assert annihilator(g, full_subgroup(g)).members == (0,)


@pytest.mark.parametrize("labels", [[6], [-1], [1.0], [True], [True, 2], ["1"]])
def test_annihilator_refuses_labels_that_are_not_element_indices(labels):
    with pytest.raises(ValueError):
        annihilator(make_group([6]), labels)


def test_annihilated_takes_distinct_labels_in_logarithmically_many_passes(monkeypatch):
    # Each pass pairs the survivors with as many labels as keeps its phase matrix within |G|
    # entries; reading the 4095 nonzero elements of Z2^12 as labels takes about log2 of them.
    group = make_group([2] * 12)
    shapes = []
    inner = groups_module._phases
    monkeypatch.setattr(groups_module, "_phases", lambda *a: (shapes.append((len(a[1]), len(a[2]))), inner(*a))[1])
    assert _annihilated(group, np.arange(1, 4096)).tolist() == [0]
    assert len(shapes) <= ceil(log2(4095)) + 2
    assert all(rows * columns <= group.order for rows, columns in shapes)


def test_enumerate_subgroups_counts():
    # Z_12 has one subgroup per divisor; (Z_2)^n has as many as F_2^n has subspaces.
    cases = (([12], 6), ([2, 2, 2], 16), ([2, 2, 2, 2], 67), ([2, 2, 2, 2, 2], 374), ([4, 4], 15))
    for moduli, count in cases:
        assert len(enumerate_subgroups(make_group(moduli))) == count
