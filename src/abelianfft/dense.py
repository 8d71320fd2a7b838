"""Dense group Fourier transform: the quadratic-cost oracle every fast path is checked against."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from typing import Sequence

import numpy as np

from .groups import AbelianGroup, Coords, _characters, _check_order, _element_coords, character_phases

# Largest group order for which the full transform matrix is materialised.
DENSE_CAP = 4096

# Row-block size target for the streaming path above the cap, in matrix entries.  A block's
# float64, int64 and complex128 temporaries then take a few tens of MiB, well under the
# 256 MiB matrix the cap avoids.
_STREAM_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class FourierMatrix:
    """The unitary F with F[g, k] = chi_g(k) / sqrt(|G|)."""

    group: AbelianGroup
    entries: np.ndarray


def _as_vector(f: Sequence[complex] | np.ndarray, length: int) -> np.ndarray:
    vec = np.asarray(f, dtype=np.complex128)
    if vec.shape != (length,):
        raise ValueError(f"vector has shape {vec.shape}, expected ({length},)")
    if not np.all(np.isfinite(vec)):
        raise ValueError("vector contains NaN or Inf entries")
    return vec


@lru_cache(maxsize=2)
def _cached_entries(moduli: Coords) -> np.ndarray:
    group = AbelianGroup(moduli)
    entries = _characters(group, group.coords_table, group.coords_table) / sqrt(group.order)
    entries.setflags(write=False)
    return entries


def dense_fourier_matrix(group: AbelianGroup) -> FourierMatrix:
    """Materialise the full transform matrix (refuses orders above DENSE_CAP)."""
    _check_order(group.order, DENSE_CAP, "dense matrix")
    return FourierMatrix(group, _cached_entries(group.moduli))


def apply_dense(group: AbelianGroup, f: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Transform by direct summation: out[k] = (1/sqrt(|G|)) sum_g chi_k(g) f(g).

    Up to DENSE_CAP the cached matrix is used; above it rows are streamed in
    blocks, each row summed in a fixed order.
    """
    vec = _as_vector(f, group.order)
    if group.order <= DENSE_CAP:
        return _cached_entries(group.moduli) @ vec
    out = np.empty(group.order, dtype=np.complex128)
    block = max(1, _STREAM_BLOCK_ENTRIES // group.order)
    scale = 1.0 / sqrt(group.order)
    for start in range(0, group.order, block):
        rows = np.arange(start, min(start + block, group.order))
        out[rows] = (_characters(group, group.coords_table[rows], group.coords_table) @ vec) * scale
    return out


def fourier_basis_state(group: AbelianGroup, k: int | Sequence[int]) -> np.ndarray:
    """The unit vector with components conj(chi_k(g)) / sqrt(|G|); the transform maps it to basis k."""
    phases = character_phases(group, k)
    return np.exp((-2j * np.pi / group.lcm) * phases) / sqrt(group.order)


def shift_vector(group: AbelianGroup, k: int | Sequence[int], f: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Permute components by translation: out[g + k] = f[g].  Exact, no arithmetic on values."""
    vec = _as_vector(f, group.order)
    out = np.empty_like(vec)
    out[group.translate(np.arange(group.order), group.index_of(_element_coords(group, k)))] = vec
    return out
