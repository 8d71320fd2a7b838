"""Per-layer timing from outside the program: wrap public functions, record self time and calls.

A wrapped function's self time is its duration minus the time of the wrapped calls
it made.  Time no wrapper covers is left for the caller to report as unattributed.
`from .x import f` copies a name into other modules, so every `abelianfft*` module
namespace that holds the same object is patched, and restored afterwards.
"""
from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable

# (layer, owner in the module, attribute, timed).  An owner of None means a module-level
# function; otherwise the attribute is a method of that class, which keeps the class itself
# (and isinstance checks on it) untouched.  Untimed entries only count calls.
TARGETS = (
    ("groups", "Subgroup", "__post_init__", True),
    ("groups", None, "coset_decompose", True),
    ("groups", None, "annihilator", True),
    ("groups", None, "character_phases", True),
    ("groups", "AbelianGroup", "add_index", False),
    ("groups", None, "parse_group_spec", True),
    ("dense", None, "apply_dense", True),
    ("fastfft", None, "build_tower", True),
    ("fastfft", None, "fft_tower", True),
    ("fastfft", None, "fft_radix2", True),
    ("fastfft", None, "walsh_hadamard", True),
    ("simulator", None, "apply_1q", True),
    ("simulator", None, "apply_2q", True),
    ("simulator", "QState", "__post_init__", True),
    ("simulator", None, "collapse_register", True),
    ("simulator", None, "sample", True),
    ("simulator", None, "program_from_json", True),
    ("simulator", None, "run_program", True),
    ("simulator", None, "measure_qubit_distribution", True),
    ("qft_circuit", None, "compile_qft", True),
    ("qft_circuit", None, "apply_qft", True),
    ("qft_circuit", None, "apply_wire_permutation", True),
    ("period", None, "stabilizer_bruteforce", True),
    ("period", None, "check_nondegenerate", True),
    ("period", None, "label_distribution", True),
    ("period", None, "fourier_sample", True),
    ("period", None, "find_period", True),
    ("period", None, "two_to_one_table", True),
    ("period", "FunctionTable", "__post_init__", True),
    ("cli", None, "main", True),
)

# Exact counts read off the results the program returns: span -> (counter, reader).
_COUNTS = {
    "fastfft.fft_tower": ("fastfft.complex_multiplies", lambda result: result[1].complex_multiplies),
    "fastfft.fft_radix2": ("fastfft.complex_multiplies", lambda result: result[1].complex_multiplies),
    "period.find_period": ("period.samples_used", lambda result: result.samples_used),
}


def span_name(layer: str, owner: str | None, attr: str) -> str:
    """`groups.Subgroup` for a class's construction check, `groups.add_index` for other methods."""
    return f"{layer}.{owner if attr == '__post_init__' else attr}"


def _dense_cache_misses() -> int:
    # Each miss of the dense module's matrix cache builds one |G| x |G| matrix.
    return sys.modules["abelianfft.dense"]._cached_entries.cache_info().misses


class Tracer:
    """Installs the wrappers; `stats[name]` is [calls, self seconds], `covered` the top-level span time."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counters = {"fastfft.complex_multiplies": 0, "period.samples_used": 0, "dense.matrix_builds": 0}
        self._stack = [0.0]
        self._restore: list[tuple[object, str, object]] = []
        self._misses = 0

    @property
    def covered(self) -> float:
        return self._stack[0]

    def _wrap(self, name: str, fn: Callable, timed: bool) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0])
        if not timed:
            def counted(*args, **kwargs):
                stats[0] += 1
                return fn(*args, **kwargs)
            return counted

        stack, counters, count = self._stack, self.counters, _COUNTS.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stats[0] += 1
                stats[1] += elapsed - stack.pop()
                stack[-1] += elapsed
            if count is not None:
                counters[count[0]] += count[1](result)
            return result
        return traced

    def install(self) -> None:
        self._misses = _dense_cache_misses()
        modules = [m for key, m in list(sys.modules.items()) if key == "abelianfft" or key.startswith("abelianfft.")]
        for layer, owner, attr, timed in TARGETS:
            module = sys.modules[f"abelianfft.{layer}"]
            name = span_name(layer, owner, attr)
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, timed))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, timed)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        self.counters["dense.matrix_builds"] += _dense_cache_misses() - self._misses
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()
