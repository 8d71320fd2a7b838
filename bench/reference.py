"""Computations made apart from abelianfft, used to check every output of the benchmark.

Nothing here imports the package: transforms come from numpy.fft, subgroups from a
numpy closure, gate sequences from a tensordot simulator, and operation tallies
from closed forms of the recursions.
"""
from __future__ import annotations

import json
from math import gcd, prod
from pathlib import Path

import numpy as np

# Largest entrywise error accepted between a unit-norm transform and its numpy reference.
TOL = 1e-9


def transform(x: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """The group transform with the package's sign and scale: f_hat(k) = |G|^-1/2 sum_g e^{+2 pi i g.k/m} f(g)."""
    return np.fft.ifftn(np.asarray(x).reshape(moduli), norm="ortho").ravel()


def close(actual: np.ndarray, expected: np.ndarray) -> bool:
    actual = np.asarray(actual)
    return actual.shape == expected.shape and float(np.max(np.abs(actual - expected), initial=0.0)) <= TOL


def unit_vector(rng: np.random.Generator, length: int) -> np.ndarray:
    x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return x / np.linalg.norm(x)


# ---------------------------------------------------------------- operation tallies

def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while n > 1:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out


def tower_indices(moduli: tuple[int, ...]) -> list[int]:
    """Indices of the prime-peeling tower: each factor's primes, smallest first, leftmost factor first."""
    return [p for m in moduli for p in _prime_factors(m)]


def tower_tallies(moduli: tuple[int, ...]) -> tuple[int, int]:
    """Closed form of the coset recursion down to the trivial subgroup (last level of order 1).

    multiplies = |G| (sum of indices + |last level| + 1), adds = |G| sum (index - 1).
    """
    order = prod(moduli)
    indices = tower_indices(moduli)
    return order * (sum(indices) + 1 + 1), order * sum(i - 1 for i in indices)


def radix2_multiplies(m: int) -> int:
    return m << m


def qft_gate_counts(m: int) -> dict[str, int]:
    return {"H": m, "CPHASE": m * (m - 1) // 2, "SWAP": m * (m - 1) // 2}


# ---------------------------------------------------------------- subgroups and planted tables

def weights(moduli: tuple[int, ...]) -> np.ndarray:
    """Mixed-radix place values, first factor most significant."""
    return np.array([prod(moduli[i + 1:]) for i in range(len(moduli))], dtype=np.int64)


def coords_table(moduli: tuple[int, ...]) -> np.ndarray:
    idx = np.arange(prod(moduli), dtype=np.int64)[:, None]
    return (idx // weights(moduli)) % np.asarray(moduli, dtype=np.int64)


def _element_order(g: np.ndarray, moduli: tuple[int, ...]) -> int:
    out = 1
    for x, m in zip(g.tolist(), moduli):
        o = m // gcd(x, m)
        out = out * o // gcd(out, o)
    return out


def _closure(members: np.ndarray, gen: np.ndarray, moduli: np.ndarray, order: int) -> np.ndarray:
    # Members (coordinate rows) of the subgroup generated by the members and gen.
    shifts = (np.arange(order, dtype=np.int64)[:, None] * gen) % moduli
    grown = (members[:, None, :] + shifts[None, :, :]) % moduli
    return np.unique(grown.reshape(-1, len(moduli)), axis=0)


def random_subgroup(moduli: tuple[int, ...], generator_orders: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Sorted member indices of a random subgroup isomorphic to the product of Z_e for e in generator_orders."""
    mod = np.asarray(moduli, dtype=np.int64)
    members = np.zeros((1, len(moduli)), dtype=np.int64)
    for e in generator_orders:
        while True:
            g = rng.integers(0, mod)
            o = _element_order(g, moduli)
            if o % e:
                continue
            h = (g * (o // e)) % mod
            grown = _closure(members, h, mod, e)
            if len(grown) == len(members) * e:
                members = grown
                break
    return np.sort(members @ weights(moduli))


def annihilated(moduli: tuple[int, ...], labels: list[int]) -> list[int]:
    """Member indices of the elements g with sum_i g_i k_i / m_i an integer for every label k."""
    order = prod(moduli)
    table = coords_table(moduli)
    scale = np.array([order // m for m in moduli], dtype=np.int64)
    keep = np.ones(order, dtype=bool)
    for k in labels:
        keep &= (table @ (table[k] * scale)) % order == 0
    return np.nonzero(keep)[0].tolist()


def planted_values(moduli: tuple[int, ...], members: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A nondegenerate table with stabiliser `members`: one distinct random value per coset."""
    mod = np.asarray(moduli, dtype=np.int64)
    table = coords_table(moduli)
    shifted = (table[:, None, :] + table[members][None, :, :]) % mod
    reps = (shifted @ weights(moduli)).min(axis=1)
    distinct, coset = np.unique(reps, return_inverse=True)
    return rng.permutation(len(distinct))[coset]


# ---------------------------------------------------------------- gate sequences

def apply_gate(amps: np.ndarray, n: int, matrix: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """One gate by tensor contraction; qubit q is tensor axis n-1-q, the first target the most significant."""
    k = len(targets)
    axes = [n - 1 - t for t in targets]
    out = np.tensordot(np.asarray(matrix).reshape((2,) * (2 * k)), amps.reshape((2,) * n),
                       axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes).reshape(-1)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sample_on_support(counts: dict[str, int], probs: np.ndarray, shots: int) -> bool:
    """Outcomes lie where the reference state has weight, and their counts sum to the shot count."""
    return sum(counts.values()) == shots and all(probs[int(key, 2)] > 1e-12 for key in counts)


# ---------------------------------------------------------------- CLI output shapes

class Schemas:
    """Draft 2020-12 validators for the CLI's JSON outputs, with cross-file references resolved."""

    def __init__(self, directory: Path) -> None:
        import jsonschema
        from referencing import Registry, Resource

        loaded, resources = {}, []
        for path in sorted(directory.glob("*.schema.json")):
            schema = json.loads(path.read_text(encoding="utf-8"))
            resource = Resource.from_contents(schema)
            resources += [(path.name, resource), (schema["$id"], resource)]
            loaded[path.name] = schema
        registry = Registry().with_resources(resources)
        self._validators = {
            name: jsonschema.Draft202012Validator(schema, registry=registry) for name, schema in loaded.items()
        }

    def valid(self, command: str, payload: object) -> bool:
        return self._validators[f"{command}.schema.json"].is_valid(payload)
