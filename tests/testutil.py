"""Shared helpers for the test suite: a catalog of group presentations and
dense gate oracles built independently of the strided kernels."""
from __future__ import annotations

import itertools
import os
from pathlib import Path

import numpy as np

from abelianfft import AbelianGroup, make_group

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def package_env() -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH, for a child interpreter."""
    source = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH")))))


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    out = []
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            out.append((k,) + rest)
    return out


def abelian_group_types(max_order: int, min_order: int = 2) -> list[AbelianGroup]:
    """One presentation per isomorphism type of abelian group with order in range."""
    groups = []
    for n in range(min_order, max_order + 1):
        per_prime = []
        for p, e in sorted(_factorize(n).items()):
            per_prime.append([tuple(p**part for part in parts) for parts in _partitions(e)])
        for combo in itertools.product(*per_prime):
            moduli = sorted((m for part in combo for m in part), reverse=True)
            groups.append(make_group(moduli))
    return groups


def one_qubit_dense(n: int, matrix: np.ndarray, target: int) -> np.ndarray:
    """Kronecker-product operator for a 2x2 gate; qubit 0 is the least significant index bit."""
    op = np.eye(1, dtype=np.complex128)
    for q in range(n - 1, -1, -1):
        op = np.kron(op, matrix if q == target else np.eye(2, dtype=np.complex128))
    return op


def two_qubit_dense(n: int, matrix: np.ndarray, hi: int, lo: int) -> np.ndarray:
    """Dense operator for a 4x4 gate built entry-by-entry from the basis action."""
    size = 1 << n
    op = np.zeros((size, size), dtype=np.complex128)
    for col in range(size):
        b_hi = (col >> hi) & 1
        b_lo = (col >> lo) & 1
        base = col & ~(1 << hi) & ~(1 << lo)
        for new_hi in (0, 1):
            for new_lo in (0, 1):
                row = base | (new_hi << hi) | (new_lo << lo)
                op[row, col] += matrix[(new_hi << 1) | new_lo, (b_hi << 1) | b_lo]
    return op


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR factorisation of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_vector(order: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(order) + 1j * rng.standard_normal(order)
