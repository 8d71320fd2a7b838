"""The benchmark's per-layer tracer (bench/tracing.py) wraps package functions named by strings.
Each name must resolve, so deleting or renaming a wrapped function fails the suite, not only a
benchmark run."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from abelianfft import dense

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


_TARGETS = _targets()


@pytest.mark.parametrize(
    "layer, owner, attr", [t[:3] for t in _TARGETS], ids=[".".join(filter(None, t[:3])) for t in _TARGETS]
)
def test_traced_name_resolves(layer, owner, attr):
    module = importlib.import_module(f"abelianfft.{layer}")
    if owner is None:
        assert callable(getattr(module, attr))
    else:
        # The tracer replaces the method in the class's own namespace.
        assert callable(vars(getattr(module, owner))[attr])


def test_dense_matrix_cache_reports_its_misses():
    # The tracer counts matrix builds as misses of this cache.
    assert isinstance(dense._cached_entries.cache_info().misses, int)
