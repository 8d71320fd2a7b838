"""A mutation property over the JSON inputs of the command line: replacing any one node of a valid
`fft`, `simulate` or `period-find` document with a hostile value, or dropping one node below the
root, either succeeds with output that validates against the subcommand's schema or fails with exit
code 1 and one `error:` line."""
from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abelianfft.cli import main

from test_cli import _validator

_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# (argv before the input file, the input flag, a valid document, the output schema)
_DOCUMENTS = {
    "fft": (
        ["fft", "--group", "Z4", "--emit-counts"],
        "--input",
        [[1, 0], [0.5, -0.5], [0, 0], [0, 1]],
        "fft.schema.json",
    ),
    "simulate": (
        ["simulate", "--shots", "16"],
        "--program",
        {
            "n": 2,
            "steps": [
                {"gate": "H", "targets": [0]},
                {"gate": "CNOT", "targets": [0, 1]},
                {"gate": "CPHASE", "targets": [1, 0], "param": 2},
                {"targets": [1], "matrix": [[[0.6, 0], [0, 0.8]], [[0, 0.8], [0.6, 0]]]},
            ],
        },
        "simulate.schema.json",
    ),
    "period-find": (
        ["period-find", "--shots", "40"],
        "--function",
        {"group": "Z6", "values": [0, 1, 2, 0, 1, 2]},
        "period-find.schema.json",
    ),
}

_HOSTILE = (
    None,
    True,
    False,
    2**63,
    2**64,
    1e308,
    -1e308,
    float("inf"),
    float("-inf"),
    float("nan"),
    "",
    "Z2",
    [],
    {},
)

# Stands for dropping the node: its key from an object, or its element from a list.
_DROP = type("Drop", (), {"__repr__": lambda self: "<drop>"})()


def _paths(node, path=()):
    # Every node of the document, the root first, as the keys and indices that reach it.
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    if len(path) == 1 and value is _DROP:
        del copy[path[0]]
    else:
        copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


_schema_validator = lru_cache(maxsize=None)(_validator)

_MUTATIONS = [(command, path) for command, (_, _, doc, _) in _DOCUMENTS.items() for path in _paths(doc)]


@_SETTINGS
@given(st.sampled_from(_MUTATIONS), st.sampled_from(_HOSTILE + (_DROP,)))
def test_one_mutated_node_is_a_result_or_one_error_line(tmp_path_factory, mutation, value):
    command, path = mutation
    # The root has no parent to drop it from.
    assume(path or value is not _DROP)
    argv, flag, document, schema = _DOCUMENTS[command]
    source = tmp_path_factory.getbasetemp() / "mutated.json"
    # json writes NaN and the infinities as bare tokens, which json.load reads back.
    source.write_text(json.dumps(_replaced(document, path, value)))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, flag, str(source)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        _schema_validator(schema).validate(json.loads(out))
