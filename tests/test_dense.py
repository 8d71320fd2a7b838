"""Dense transform: unitarity, frozen matrices, basis interchange, shift duality, streaming."""
from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from abelianfft import (
    apply_dense,
    character_eval,
    dense_fourier_matrix,
    fourier_basis_state,
    make_group,
    shift_vector,
)
from abelianfft import dense

from test_acceptance import TOL_TRANSFORM
from testutil import abelian_group_types, random_vector


def test_frozen_small_matrices():
    f2 = dense_fourier_matrix(make_group([2])).entries
    assert np.allclose(f2, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-14)
    f4 = dense_fourier_matrix(make_group([4])).entries
    want = np.array([[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]]) / 2
    assert np.allclose(f4, want, atol=1e-14)
    w = np.exp(2j * np.pi / 3)
    f3 = dense_fourier_matrix(make_group([3])).entries
    assert np.allclose(f3, np.array([[1, 1, 1], [1, w, w * w], [1, w * w, w]]) / np.sqrt(3), atol=1e-14)


def test_entries_match_characters():
    g = make_group([3, 4])
    f = dense_fourier_matrix(g).entries
    for i in range(g.order):
        for j in range(g.order):
            chi = character_eval(g, g.coords_of(i), g.coords_of(j))
            assert f[i, j] == pytest.approx(chi / np.sqrt(g.order), abs=1e-13)


@pytest.mark.parametrize("group", abelian_group_types(32), ids=lambda g: g.spec_string())
def test_unitarity_catalog(group):
    f = dense_fourier_matrix(group).entries
    assert np.max(np.abs(f @ f.conj().T - np.eye(group.order))) < 1e-10


def test_unitarity_larger_cyclic():
    for order in (128, 512, 1024):
        g = make_group([order])
        f = dense_fourier_matrix(g).entries
        assert np.max(np.abs(f @ f.conj().T - np.eye(order))) < 1e-10


def test_apply_dense_matches_matrix():
    g = make_group([6, 5])
    vec = random_vector(g.order, np.random.default_rng(5))
    assert np.allclose(apply_dense(g, vec), dense_fourier_matrix(g).entries @ vec, atol=1e-12)


def test_streaming_path_matches_matrix_path(monkeypatch):
    g = make_group([36])
    vec = random_vector(36, np.random.default_rng(9))
    from_matrix = apply_dense(g, vec)
    monkeypatch.setattr(dense, "DENSE_CAP", 8)
    misses = dense._cached_entries.cache_info().misses
    streamed = apply_dense(g, vec)
    assert dense._cached_entries.cache_info().misses == misses
    assert np.max(np.abs(streamed - from_matrix)) < 1e-12


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()[:16]


# First 16 hex digits of the SHA-256 of the output bytes, per group: apply_dense through the
# cached matrix, apply_dense through the streamed row blocks (DENSE_CAP lowered to 8, so Z2xZ3
# still takes the matrix), and every fourier_basis_state stacked by k.  Recorded from the
# float64 phase product these integer phases replaced: the phases must be the same integers.
_DENSE_DIGESTS = {
    (12,): ("7ea1af3b087726c7", "1e4e8aac2c966162", "83ad9d9f2646b7e3"),
    (2, 3): ("7f15ab2e32f53dd3", "7f15ab2e32f53dd3", "4dd271109c2d3f50"),
    (7, 7): ("f7214126b3396939", "0e6100935154a95c", "f55c94054e3df0a1"),
    (2,) * 8: ("9f89308c9e36b034", "9f89308c9e36b034", "c364425275acc776"),
    (4, 9, 5): ("325e57657c2c15ba", "78790fb0c6a647da", "50772c5816e7c592"),
}


@pytest.mark.parametrize("moduli", list(_DENSE_DIGESTS), ids=lambda m: make_group(m).spec_string())
def test_dense_outputs_pinned(monkeypatch, moduli):
    g = make_group(moduli)
    vec = random_vector(g.order, np.random.default_rng(g.order))
    from_matrix = apply_dense(g, vec)
    monkeypatch.setattr(dense, "DENSE_CAP", 8)
    streamed = apply_dense(g, vec)
    basis = np.stack([fourier_basis_state(g, k) for k in range(g.order)])
    assert (_digest(from_matrix), _digest(streamed), _digest(basis)) == _DENSE_DIGESTS[moduli]


def test_streaming_memory_stays_below_the_matrix_it_avoids():
    # Z4xZ1025 (order 4100) is just above the cap; its matrix would take 256 MiB.
    moduli = (4, 1025)
    g = make_group(list(moduli))
    assert g.order > dense.DENSE_CAP
    vec = random_vector(g.order, np.random.default_rng(43))
    tracemalloc.start()
    try:
        streamed = apply_dense(g, vec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    want = np.fft.ifftn(vec.reshape(moduli), norm="ortho").reshape(-1)
    assert np.max(np.abs(streamed - want)) < TOL_TRANSFORM


def test_dense_matrix_cap():
    # Refused just above the cap and far above it; nothing above the cap is built.
    for order in (dense.DENSE_CAP + 1, 8192):
        refusal = f"^group order {order} exceeds the dense matrix cap {dense.DENSE_CAP}$"
        with pytest.raises(ValueError, match=refusal):
            dense_fourier_matrix(make_group([order]))


def test_input_validation():
    g = make_group([4])
    with pytest.raises(ValueError):
        apply_dense(g, np.ones(3))
    with pytest.raises(ValueError):
        apply_dense(g, np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        apply_dense(g, np.array([1.0, np.inf, 0.0, 0.0]))


@pytest.mark.parametrize("group", abelian_group_types(24), ids=lambda g: g.spec_string())
def test_basis_interchange(group):
    for k in range(group.order):
        state = fourier_basis_state(group, k)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
        image = apply_dense(group, state)
        want = np.zeros(group.order)
        want[k] = 1.0
        assert np.max(np.abs(image - want)) < 1e-10


def test_shift_vector_is_exact_permutation():
    g = make_group([3, 4])
    vec = random_vector(g.order, np.random.default_rng(2))
    shifted = shift_vector(g, (1, 2), vec)
    for i in range(g.order):
        j = g.index_of(g.add(g.coords_of(i), (1, 2)))
        assert shifted[j] == vec[i]
    assert np.array_equal(shift_vector(g, 0, vec), vec)


def test_shift_eigenstate_identity():
    g = make_group([4, 3])
    for k in range(g.order):
        chi_state = fourier_basis_state(g, k)
        for shift in (1, 5, 7):
            eigenvalue = character_eval(g, g.coords_of(k), g.coords_of(shift))
            lhs = shift_vector(g, shift, chi_state)
            assert np.max(np.abs(lhs - eigenvalue * chi_state)) < 1e-10


def test_shift_phase_duality():
    rng = np.random.default_rng(21)
    for moduli in ([12], [2, 2, 2, 2], [6, 5], [36]):
        g = make_group(moduli)
        vec = random_vector(g.order, rng)
        base = np.abs(apply_dense(g, vec))
        for k in range(g.order):
            shifted = np.abs(apply_dense(g, shift_vector(g, k, vec)))
            assert np.max(np.abs(shifted - base)) < 1e-10
