"""Command line front end: JSON shape against the schemas, determinism, exit codes."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")
from referencing import Registry, Resource

from abelianfft import DENSE_CAP, apply_dense, dense_fourier_matrix, make_group
from abelianfft import cli, dense
from abelianfft.cli import DEFAULT_SEED, main
from abelianfft.simulator import SHOT_CAP

from testutil import SCHEMA_DIR


def _load_schema(name: str) -> dict:
    with open(SCHEMA_DIR / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _validator(name: str) -> "jsonschema.Validator":
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        with open(path, "r", encoding="utf-8") as handle:
            schema = json.load(handle)
        resource = Resource.from_contents(schema)
        resources.append((path.name, resource))
        resources.append((schema["$id"], resource))
    registry = Registry().with_resources(resources)
    return jsonschema.Draft202012Validator(_load_schema(name), registry=registry)


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv) -> dict:
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def _write_vector(path, vec):
    path.write_text(json.dumps([[float(z.real), float(z.imag)] for z in vec]))
    return str(path)


def test_fft_dense_output(tmp_path, capsys):
    g = make_group([6])
    rng = np.random.default_rng(1)
    vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    source = _write_vector(tmp_path / "vec.json", vec)
    payload = _run_json(capsys, "fft", "--group", "Z6", "--input", source, "--emit-counts")
    _validator("fft.schema.json").validate(payload)
    assert payload["group"] == "Z6"
    assert payload["order"] == 6
    assert payload["method"] == "dense"
    got = np.array([complex(re, im) for re, im in payload["spectrum"]])
    want = apply_dense(g, vec)
    assert np.max(np.abs(got - want)) < 1e-12
    assert payload["counts"] == {
        "complex_multiplies": 36,
        "complex_adds": 30,
        "predicted_bound": 36,
    }


def test_fft_dense_streams_above_the_matrix_cap(tmp_path, capsys):
    moduli = (4, 1025)
    assert DENSE_CAP < 4 * 1025
    rng = np.random.default_rng(41)
    vec = rng.standard_normal(4100) + 1j * rng.standard_normal(4100)
    source = _write_vector(tmp_path / "v4100.json", vec)
    misses = dense._cached_entries.cache_info().misses
    payload = _run_json(capsys, "fft", "--group", "Z4xZ1025", "--input", source, "--method", "dense")
    assert dense._cached_entries.cache_info().misses == misses
    got = np.array([complex(re, im) for re, im in payload["spectrum"]])
    want = np.fft.ifftn(vec.reshape(moduli), norm="ortho").reshape(-1)
    assert np.max(np.abs(got - want)) < 1e-9


def test_fft_methods_agree(tmp_path, capsys):
    rng = np.random.default_rng(2)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    source = _write_vector(tmp_path / "vec8.json", vec)
    spectra = {}
    for method in ("dense", "tower", "radix2"):
        payload = _run_json(capsys, "fft", "--group", "Z8", "--input", source, "--method", method)
        spectra[method] = np.array([complex(re, im) for re, im in payload["spectrum"]])
    assert np.max(np.abs(spectra["dense"] - spectra["tower"])) < 1e-9
    assert np.max(np.abs(spectra["dense"] - spectra["radix2"])) < 1e-9


def test_fft_walsh_method(tmp_path, capsys):
    vec = np.array([0.5, 0.5, 0.5, 0.5])
    source = _write_vector(tmp_path / "flat.json", vec)
    payload = _run_json(capsys, "fft", "--group", "Z2^2", "--input", source, "--method", "walsh")
    _validator("fft.schema.json").validate(payload)
    got = np.array([complex(re, im) for re, im in payload["spectrum"]])
    assert np.max(np.abs(got - np.array([1, 0, 0, 0]))) < 1e-12


def test_fft_method_domain_errors(tmp_path, capsys):
    vec_six = _write_vector(tmp_path / "six.json", np.zeros(6) + 1.0)
    code, out, err = _run(capsys, "fft", "--group", "Z6", "--input", vec_six, "--method", "radix2")
    assert code == 1 and out == "" and "error:" in err
    code, _, err = _run(capsys, "fft", "--group", "Z6", "--input", vec_six, "--method", "walsh")
    assert code == 1 and "error:" in err
    code, _, err = _run(capsys, "fft", "--group", "Zx", "--input", vec_six)
    assert code == 1 and "error:" in err
    code, _, err = _run(capsys, "fft", "--group", "Z6", "--input", str(tmp_path / "missing.json"))
    assert code == 1 and "error:" in err


def test_fft_rejects_malformed_vector(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[[1.0], [2.0, 0.0]]")
    code, _, err = _run(capsys, "fft", "--group", "Z2", "--input", str(bad))
    assert code == 1 and "error:" in err
    bad.write_text("not json")
    code, _, err = _run(capsys, "fft", "--group", "Z2", "--input", str(bad))
    assert code == 1 and "error:" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["fft", "--group", "Z4"])  # missing --input
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def _outcome(argv) -> tuple[object, str, str]:
    # Exit code (main's return value or SystemExit's code), stdout and stderr of one in-process call.
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once_per_process():
    cli._build_parser.cache_clear()
    calls = [
        ["qft-compile", "--m", "3"],
        ["no-such-command"],
        ["--version"],
        ["bench", "--group", "Z4"],
        ["fft", "--group", "Z4"],
        ["simon", "--n", "2", "--mask", "11", "--shots", "20"],
        ["qft-compile", "--m", "0"],
    ]
    codes = [_outcome(argv)[0] for argv in calls]
    assert codes == [0, 2, 0, 0, 2, 0, 1]
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)


def _argv_sequences():
    # Imported here: test_cli_mutations imports this module.
    from test_cli_mutations import _argv

    return st.lists(_argv(), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.deferred(_argv_sequences))
def test_shared_parser_answers_as_a_fresh_one(sequence):
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(argv))
    cli._build_parser.cache_clear()
    assert [_outcome(argv) for argv in sequence] == fresh
    assert cli._build_parser.cache_info().misses == 1


def test_help_reflows_when_the_width_changes(monkeypatch):
    cli._build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "40")
    narrow = _outcome(["--help"])
    monkeypatch.setenv("COLUMNS", "160")
    wide = _outcome(["--help"])
    assert narrow[0] == wide[0] == 0
    assert narrow[1] != wide[1]
    assert len(narrow[1].splitlines()) > len(wide[1].splitlines())
    assert cli._build_parser.cache_info().misses == 1


def test_module_entry_point_exit_codes():
    # `python -m abelianfft.cli` runs cli.run, as the installed console script does.
    source = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH")))))

    def run(*argv):
        command = [sys.executable, "-m", "abelianfft.cli", *argv]
        return subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)

    version = run("--version")
    assert version.returncode == 0 and version.stdout.startswith("abelianfft ")
    compiled = run("qft-compile", "--m", "3")
    assert compiled.returncode == 0 and compiled.stderr == ""
    _validator("qft-compile.schema.json").validate(json.loads(compiled.stdout))
    refused = run("qft-compile", "--m", "0")
    assert refused.returncode == 1 and refused.stdout == ""
    assert refused.stderr.startswith("error: ") and refused.stderr.count("\n") == 1
    usage = run("qft-compile")
    assert usage.returncode == 2 and usage.stdout == ""


def test_simulate_bell_program(tmp_path, capsys):
    program = {
        "n": 2,
        "steps": [{"gate": "H", "targets": [0]}, {"gate": "CNOT", "targets": [0, 1]}],
    }
    source = tmp_path / "bell.json"
    source.write_text(json.dumps(program))
    payload = _run_json(capsys, "simulate", "--program", str(source), "--shots", "500")
    _validator("simulate.schema.json").validate(payload)
    assert payload["n"] == 2
    assert payload["seed"] == DEFAULT_SEED
    assert set(payload["distribution"]) == {"00", "11"}
    assert payload["distribution"]["00"] == pytest.approx(0.5, abs=1e-10)
    assert set(payload["counts"]) <= {"00", "11"}
    assert sum(payload["counts"].values()) == 500


def test_simulate_single_qubit_measure(tmp_path, capsys):
    program = {"n": 2, "steps": [{"gate": "H", "targets": [1]}]}
    source = tmp_path / "h1.json"
    source.write_text(json.dumps(program))
    payload = _run_json(capsys, "simulate", "--program", str(source), "--measure", "1")
    _validator("simulate.schema.json").validate(payload)
    assert payload["distribution"]["0"] == pytest.approx(0.5, abs=1e-10)
    assert "counts" not in payload
    payload = _run_json(
        capsys, "simulate", "--program", str(source), "--measure", "1", "--shots", "40"
    )
    assert sum(payload["counts"].values()) == 40


@pytest.mark.parametrize("measure", ["foo", "1.5", ""])
def test_simulate_parses_measure_before_running_the_program(tmp_path, capsys, monkeypatch, measure):
    def refuse(*args, **kwargs):
        raise AssertionError("the program ran")

    monkeypatch.setattr(cli, "run_program", refuse)
    source = tmp_path / "h.json"
    source.write_text(json.dumps({"n": 1, "steps": [{"gate": "H", "targets": [0]}]}))
    code, out, err = _run(capsys, "simulate", "--program", str(source), "--measure", measure)
    assert code == 1 and out == ""
    assert err == f'error: --measure must be "all" or a qubit index, got {measure!r}\n'


@pytest.mark.parametrize("qubit", ["5", "-1"])
def test_simulate_checks_the_measured_qubit_before_running_the_program(tmp_path, capsys, monkeypatch, qubit):
    def refuse(*args, **kwargs):
        raise AssertionError("the program ran")

    monkeypatch.setattr(cli, "run_program", refuse)
    source = tmp_path / "h.json"
    source.write_text(json.dumps({"n": 1, "steps": [{"gate": "H", "targets": [0]}]}))
    code, out, err = _run(capsys, "simulate", "--program", str(source), "--measure", qubit)
    assert code == 1 and out == ""
    assert err == f"error: target qubit {qubit} out of range for 1-qubit state\n"


@pytest.mark.parametrize("measure", ["all", "0", "7"])
def test_simulate_refuses_shots_past_the_cap_before_loading_the_program(tmp_path, capsys, monkeypatch, measure):
    # A 24-qubit program would take seconds to run; the cap is checked right after parsing.
    def refuse(*args, **kwargs):
        raise AssertionError("the program was loaded or run")

    monkeypatch.setattr(cli, "program_from_json", refuse)
    monkeypatch.setattr(cli, "run_program", refuse)
    source = tmp_path / "wide.json"
    source.write_text(json.dumps({"n": 24, "steps": [{"gate": "H", "targets": [t]} for t in range(24)]}))
    shots = SHOT_CAP + 1
    code, out, err = _run(capsys, "simulate", "--program", str(source), "--shots", str(shots), "--measure", measure)
    assert code == 1 and out == ""
    assert err == f"error: shot count {shots} exceeds the shot cap {SHOT_CAP}\n"


def test_simulate_measure_takes_what_int_takes(tmp_path, capsys):
    source = tmp_path / "h1.json"
    source.write_text(json.dumps({"n": 2, "steps": [{"gate": "H", "targets": [1]}]}))
    want = _run_json(capsys, "simulate", "--program", str(source), "--measure", "1")["distribution"]
    for spelling in (" 1", "+1", "01"):
        payload = _run_json(capsys, "simulate", "--program", str(source), "--measure", spelling)
        assert payload["measure"] == spelling and payload["distribution"] == want


# SHA-256 of the stdout of `simulate --shots 1000` on _program20(), taken before the simulator
# ran its gates in place and counted outcomes over the support only.
_SIMULATE20_DIGEST = "bb3e44f701a69b8ff1b425a4648333806099aaed83f6ab4b13da7dbf64fac628"


def _program20() -> dict:
    steps = [{"gate": "H", "targets": [w]} for w in (0, 3, 7, 12, 19)]
    steps += [
        {"gate": "CNOT", "targets": [0, 18]},
        {"gate": "CNOT", "targets": [19, 1]},
        {"gate": "SWAP", "targets": [3, 15]},
        {"gate": "X", "targets": [10]},
        {"gate": "CPHASE", "targets": [7, 12], "param": 3},
        {"targets": [19], "matrix": [[[0.6, 0.0], [0.0, 0.8]], [[0.0, 0.8], [0.6, 0.0]]]},
    ]
    return {"n": 20, "steps": steps}


def test_simulate_output_pinned(tmp_path, capsys):
    source = tmp_path / "program20.json"
    source.write_text(json.dumps(_program20()))
    code, out, err = _run(capsys, "simulate", "--program", str(source), "--shots", "1000")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == _SIMULATE20_DIGEST
    payload = json.loads(out)
    assert len(payload["distribution"]) == 64 and sum(payload["counts"].values()) == 1000


_THREE_QUBITS = {
    "n": 3,
    "steps": [
        {"gate": "H", "targets": [0]},
        {"gate": "H", "targets": [1]},
        {"gate": "CPHASE", "targets": [1, 0], "param": 2},
        {"gate": "H", "targets": [1]},
        {"gate": "CNOT", "targets": [1, 2]},
    ],
}


@pytest.mark.parametrize(
    "measure, counts",
    [
        ("all", {"000": 75196, "001": 37395, "111": 37409}),
        ("1", {"0": 112591, "1": 37409}),
        ("2", {"0": 112591, "1": 37409}),
    ],
)
def test_simulate_counts_pinned_across_draw_blocks(tmp_path, capsys, measure, counts):
    # Recorded when all 150,000 shots were drawn in one call; they now take three blocks.
    source = tmp_path / "three.json"
    source.write_text(json.dumps(_THREE_QUBITS))
    argv = ("simulate", "--program", str(source), "--shots", "150000", "--measure", measure, "--seed", "9")
    assert _run_json(capsys, *argv)["counts"] == counts


@pytest.mark.parametrize("measure", ["all", "0"])
def test_simulate_shot_memory_follows_the_draw_block(tmp_path, capsys, measure):
    # Drawing 4,000,000 shots at once peaked at 61-69 MiB; blocks of draws keep far below a quarter of it.
    source = tmp_path / "h.json"
    source.write_text(json.dumps({"n": 1, "steps": [{"gate": "H", "targets": [0]}]}))
    tracemalloc.start()
    try:
        payload = _run_json(capsys, "simulate", "--program", str(source), "--shots", "4000000", "--measure", measure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(payload["counts"].values()) == 4_000_000
    assert peak < 61 * 2**20 / 4, f"peak {peak / 2**20:.1f} MiB"


def test_simulate_rejects_bad_program(tmp_path, capsys):
    source = tmp_path / "bad.json"
    source.write_text(json.dumps({"n": 1, "steps": [{"gate": "CNOT", "targets": [0, 1]}]}))
    code, _, err = _run(capsys, "simulate", "--program", str(source))
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("measure", [[], ["--measure", "0"]], ids=["all", "qubit 0"])
def test_simulate_refuses_negative_shots(tmp_path, capsys, measure):
    # The simulate schema's shot count has minimum 0, so a negative one is a domain error.
    source = tmp_path / "h.json"
    source.write_text(json.dumps({"n": 1, "steps": [{"gate": "H", "targets": [0]}]}))
    code, out, err = _run(capsys, "simulate", "--program", str(source), "--shots", "-5", *measure)
    assert code == 1 and out == ""
    assert err == "error: shot count -5 must not be negative\n"


_RAW_NULL_ENTRY = {"n": 1, "steps": [{"matrix": [[[1, None], [0, 0]], [[0, 0], [1, 0]]], "targets": [0]}]}
_RAW_BOOLEAN_ENTRY = {"n": 1, "steps": [{"matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]], "targets": [0]}]}
# json writes a NaN as the bare token NaN, which json.load reads back.
_RAW_NAN_ENTRY = {"n": 1, "steps": [{"matrix": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]], "targets": [0]}]}
# Its unitarity product overflows to inf and inf - inf.
_RAW_HUGE_ENTRY = {"n": 1, "steps": [{"matrix": [[[1e308, 0], [0, 0]], [[0, 0], [1, 0]]], "targets": [0]}]}


@pytest.mark.parametrize(
    "argv, flag, document",
    [
        (["fft", "--group", "Z2"], "--input", [[1, None], [0, 0]]),
        (["simulate"], "--program", _RAW_NULL_ENTRY),
        (["simulate"], "--program", _RAW_NAN_ENTRY),
        (["simulate"], "--program", {"n": 1, "steps": 5}),
        (["simulate"], "--program", {"n": 1, "steps": [{"matrix": [1, 2], "targets": [0]}]}),
        (["period-find"], "--function", {"group": 5, "values": [0]}),
        (["period-find"], "--function", {"group": "Z2", "values": [True, False]}),
        (["simulate"], "--program", {"n": 2, "steps": [{"gate": "CPHASE", "targets": [0, 1], "param": True}]}),
        (["simulate"], "--program", {"n": 1, "steps": [{"gate": "H", "targets": [False]}]}),
        (["simulate"], "--program", {"n": True, "steps": []}),
        (["simulate"], "--program", _RAW_BOOLEAN_ENTRY),
        (["simulate"], "--program", _RAW_HUGE_ENTRY),
        (["simulate"], "--program", {"n": 1, "steps": [{"gate": [0], "targets": [0]}]}),
    ],
    ids=[
        "vector null entry",
        "raw matrix null entry",
        "raw matrix NaN entry",
        "steps not a list",
        "matrix row not a list",
        "group not a string",
        "table values boolean",
        "gate param boolean",
        "gate target boolean",
        "register width boolean",
        "raw matrix boolean entry",
        "raw matrix entry overflows",
        "gate name not a string",
    ],
)
def test_malformed_json_is_a_domain_error(tmp_path, capsys, argv, flag, document):
    source = tmp_path / "input.json"
    source.write_text(json.dumps(document))
    code, out, err = _run(capsys, *argv, flag, str(source))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_deeply_nested_json_is_a_domain_error(tmp_path, capsys):
    # json.dumps cannot write a document this deep, so it is written as text.
    source = tmp_path / "deep.json"
    source.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = _run(capsys, "simulate", "--program", str(source))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unwritable_out_path_is_a_domain_error(tmp_path, capsys):
    target = tmp_path / "missing" / "result.json"
    code, out, err = _run(capsys, "qft-compile", "--m", "2", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_qft_compile_json(capsys):
    payload = _run_json(capsys, "qft-compile", "--m", "3")
    _validator("qft-compile.schema.json").validate(payload)
    assert payload["m"] == 3
    assert payload["reorder"] == "relabel"
    assert payload["final_permutation"] == [2, 1, 0]
    assert payload["gate_counts"] == {"hadamards": 3, "cphases": 3, "swaps": 0, "total": 6}
    names = [step["gate"] for step in payload["program"]["steps"]]
    assert names == ["H", "CPHASE", "H", "CPHASE", "CPHASE", "H"]


def test_qft_compile_swaps_and_text(capsys):
    payload = _run_json(capsys, "qft-compile", "--m", "3", "--reorder", "swaps")
    _validator("qft-compile.schema.json").validate(payload)
    assert payload["final_permutation"] == [0, 1, 2]
    assert payload["gate_counts"]["swaps"] == 3

    code, out, err = _run(capsys, "qft-compile", "--m", "2", "--emit", "text")
    assert code == 0, err
    assert "wires: 2" in out
    assert "final permutation:" in out
    assert "CPHASE" in out


def test_qft_compile_domain_error(capsys):
    code, _, err = _run(capsys, "qft-compile", "--m", "0")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("m", [25, 800])
def test_qft_compile_rejects_oversized_width_before_emitting(capsys, m):
    # Emission is quadratic in m (m = 800 is 320,400 gates), so the width is refused first.
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, "qft-compile", "--m", str(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == f"error: qubit count {m} outside [1, 24]\n"
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_period_find_output(tmp_path, capsys):
    table = {"group": "Z12", "values": [v % 3 for v in range(12)]}
    source = tmp_path / "table.json"
    source.write_text(json.dumps(table))
    payload = _run_json(capsys, "period-find", "--function", str(source))
    _validator("period-find.schema.json").validate(payload)
    assert payload["group"] == "Z12"
    assert payload["converged"] is True
    assert payload["subgroup"]["members"] == [0, 3, 6, 9]
    assert payload["subgroup"]["order"] == 4
    assert all(int(l) % 4 == 0 for l in payload["labels_histogram"])
    assert sum(payload["labels_histogram"].values()) == payload["samples_used"]


def test_period_find_simulate_mode(tmp_path, capsys):
    table = {"group": "Z6", "values": [0, 1, 0, 1, 0, 1]}
    source = tmp_path / "table6.json"
    source.write_text(json.dumps(table))
    payload = _run_json(capsys, "period-find", "--function", str(source), "--mode", "simulate")
    _validator("period-find.schema.json").validate(payload)
    assert payload["subgroup"]["members"] == [0, 2, 4]


def test_period_find_rejects_degenerate(tmp_path, capsys):
    source = tmp_path / "degenerate.json"
    source.write_text(json.dumps({"group": "Z4", "values": [0, 1, 0, 2]}))
    code, _, err = _run(capsys, "period-find", "--function", str(source))
    assert code == 1 and "error:" in err


def test_simon_output(capsys):
    payload = _run_json(capsys, "simon", "--n", "3", "--mask", "101")
    _validator("simon.schema.json").validate(payload)
    assert payload["mask"] == "101"
    assert payload["recovered_mask"] == "101"
    assert payload["converged"] is True
    for label in payload["labels_histogram"]:
        assert len(label) == 3
        dot = sum(int(a) * int(b) for a, b in zip(label, "101"))
        assert dot % 2 == 0


def test_simon_rejects_bad_mask(capsys):
    code, _, err = _run(capsys, "simon", "--n", "3", "--mask", "000")
    assert code == 1 and "error:" in err
    code, _, err = _run(capsys, "simon", "--n", "3", "--mask", "10")
    assert code == 1 and "error:" in err
    code, _, err = _run(capsys, "simon", "--n", "3", "--mask", "10x")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_simon_refuses_a_bit_count_below_one_before_reading_the_mask(capsys, n):
    code, out, err = _run(capsys, "simon", "--n", n, "--mask", "")
    assert code == 1 and out == ""
    assert err == f"error: --n must be at least 1, got {n}\n"


@pytest.mark.parametrize(
    "command, argv",
    [
        ("period-find", ["--function", "table.json"]),
        ("simon", ["--n", "3", "--mask", "101"]),
        ("bench", ["--group", "Z4"]),
        ("simulate", ["--program", "h.json", "--shots", "5"]),
        ("simulate", ["--program", "h.json", "--shots", "5", "--measure", "0"]),
    ],
    ids=["period-find", "simon", "bench", "simulate all", "simulate qubit 0"],
)
def test_negative_seed_is_refused_before_any_generator_is_seeded(tmp_path, monkeypatch, capsys, command, argv):
    (tmp_path / "table.json").write_text(json.dumps({"group": "Z4", "values": [0, 1, 0, 1]}))
    (tmp_path / "h.json").write_text(json.dumps({"n": 1, "steps": [{"gate": "H", "targets": [0]}]}))
    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("a generator was seeded")

    monkeypatch.setattr(cli.np.random, "default_rng", refuse)
    code, out, err = _run(capsys, command, *argv, "--seed", "-1")
    assert code == 1 and out == ""
    assert err == "error: --seed must be a non-negative integer, got -1\n"


def test_simulate_without_shots_ignores_the_seed(tmp_path, capsys):
    source = tmp_path / "h.json"
    source.write_text(json.dumps({"n": 1, "steps": [{"gate": "H", "targets": [0]}]}))
    payload = _run_json(capsys, "simulate", "--program", str(source), "--seed", "-1")
    assert payload["shots"] == 0 and "counts" not in payload


@pytest.mark.parametrize("argv", [("--n", "30"), ("--n", "9", "--mode", "simulate")], ids=["exact", "simulate"])
def test_simon_rejects_oversized_group_before_building_the_table(monkeypatch, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the table was built")

    monkeypatch.setattr(cli, "two_to_one_table", refuse)
    mask = "1" * int(argv[1])
    code, out, err = _run(capsys, "simon", *argv, "--mask", mask)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bench_output(capsys):
    payload = _run_json(capsys, "bench", "--group", "Z16", "--methods", "dense,tower,radix2")
    _validator("bench.schema.json").validate(payload)
    assert payload["order"] == 16
    assert payload["methods"]["dense"]["complex_multiplies"] == 256
    assert payload["methods"]["radix2"]["complex_multiplies"] == 4 * 16
    assert payload["methods"]["tower"]["predicted_bound"] == 16 * (8 + 2)


def test_bench_rejects_oversized_group_before_drawing_its_vector(capsys):
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, "bench", "--group", "Z2^40", "--methods", "walsh")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("method", ["dense", "tower", "radix2", "walsh"])
def test_fft_rejects_oversized_group_before_allocating(tmp_path, capsys, method):
    source = _write_vector(tmp_path / "short.json", np.array([1.0, 0.0]))
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, "fft", "--group", "Z2^40", "--input", source, "--method", method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_memory_error_is_one_error_line(monkeypatch, capsys):
    def exhaust(args):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setitem(cli._HANDLERS, "bench", exhaust)
    code, out, err = _run(capsys, "bench", "--group", "Z8")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bench_checks_every_method_before_running_any(monkeypatch, capsys):
    # The default methods are dense,radix2: dense on Z2^20 would run for hours before radix2 refused it.
    def refuse(*args, **kwargs):
        raise AssertionError("the dense transform ran")

    monkeypatch.setattr(cli, "apply_dense", refuse)
    code, out, err = _run(capsys, "bench", "--group", "Z2^20")
    assert code == 1 and out == ""
    assert err == f"error: radix2 method needs a cyclic group of order 2^n, got {'x'.join(['Z2'] * 20)}\n"


def test_bench_refuses_dense_above_the_matrix_cap(monkeypatch, capsys):
    # Bench keeps only tallies, and dense's are a closed form, but the transform would still run.
    def refuse(*args, **kwargs):
        raise AssertionError("the dense transform ran")

    monkeypatch.setattr(cli, "apply_dense", refuse)
    code, out, err = _run(capsys, "bench", "--group", f"Z{2 * DENSE_CAP}")
    assert code == 1 and out == ""
    assert err == f"error: group order {2 * DENSE_CAP} exceeds the dense matrix cap {DENSE_CAP}\n"
    # Without dense the same group runs.
    payload = _run_json(capsys, "bench", "--group", f"Z{2 * DENSE_CAP}", "--methods", "radix2")
    assert payload["order"] == 2 * DENSE_CAP and "radix2" in payload["methods"]


def test_bench_rejects_unknown_method(capsys):
    code, _, err = _run(capsys, "bench", "--group", "Z8", "--methods", "dense,fancy")
    assert code == 1 and "error:" in err
    code, _, err = _run(capsys, "bench", "--group", "Z8", "--methods", ",")
    assert code == 1 and "error:" in err


def test_byte_identical_reruns(tmp_path, capsys):
    vec = _write_vector(tmp_path / "v.json", np.arange(4) + 0.5)
    first = _run(capsys, "fft", "--group", "Z4", "--input", vec)
    second = _run(capsys, "fft", "--group", "Z4", "--input", vec)
    assert first == second

    a = _run(capsys, "simon", "--n", "4", "--mask", "0110", "--shots", "64")
    b = _run(capsys, "simon", "--n", "4", "--mask", "0110", "--shots", "64")
    assert a == b

    x = _run(capsys, "bench", "--group", "Z32", "--methods", "dense,radix2")
    y = _run(capsys, "bench", "--group", "Z32", "--methods", "dense,radix2")
    assert x == y


def test_seed_changes_sampling(capsys):
    base = _run_json(capsys, "simon", "--n", "4", "--mask", "1001", "--shots", "64")
    other = _run_json(
        capsys, "simon", "--n", "4", "--mask", "1001", "--shots", "64", "--seed", "7"
    )
    assert base["seed"] != other["seed"]
    assert base["recovered_mask"] == other["recovered_mask"] == "1001"


def test_out_flag_and_pretty(tmp_path, capsys):
    vec = _write_vector(tmp_path / "v2.json", np.ones(2))
    target = tmp_path / "result.json"
    code, out, err = _run(capsys, "fft", "--group", "Z2", "--input", vec, "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    _validator("fft.schema.json").validate(payload)

    compact = _run(capsys, "fft", "--group", "Z2", "--input", vec)[1]
    pretty = _run(capsys, "fft", "--group", "Z2", "--input", vec, "--pretty")[1]
    assert json.loads(compact) == json.loads(pretty)
    assert "\n  " in pretty and "\n  " not in compact


def test_compact_output_is_single_sorted_line(tmp_path, capsys):
    vec = _write_vector(tmp_path / "v3.json", np.ones(2))
    _, out, _ = _run(capsys, "fft", "--group", "Z2", "--input", vec)
    assert out.count("\n") == 1 and out.endswith("\n")
    keys = list(json.loads(out).keys())
    assert keys == sorted(keys)


def test_spectrum_matches_library_matrix(tmp_path, capsys):
    g = make_group([2, 3])
    rng = np.random.default_rng(6)
    vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    source = _write_vector(tmp_path / "v23.json", vec)
    payload = _run_json(capsys, "fft", "--group", "Z2xZ3", "--input", source, "--method", "tower")
    got = np.array([complex(re, im) for re, im in payload["spectrum"]])
    want = dense_fourier_matrix(g).entries @ vec
    assert np.max(np.abs(got - want)) < 1e-9


# SHA-256 prefixes of the stdout of every command in the README's command-line section, plus two
# larger simon runs, each run in-process on the input files _write_readme_inputs makes.  Taken
# while check_nondegenerate still built a coset decomposition.
_README_DIGESTS = {
    "fft --group Z4 --input delta.json --method dense --emit-counts": "5f75c1e84e428fb8",
    "fft --group Z2^3 --input vec8.json --method walsh": "7a1ac322bf0c8419",
    "fft --group Z8 --input vec8.json --method radix2": "b88d45c3edb6b291",
    "fft --group Z2xZ3 --input vec6.json --method tower": "e3f625296978fbd0",
    "simulate --program bell.json --shots 1000": "a8dbe126cd6aacd3",
    "simulate --program bell.json --measure 0": "2b58deaa343dfffc",
    "qft-compile --m 4": "9762253f35135f5b",
    "qft-compile --m 4 --reorder swaps": "2f2b0d31f1d2b152",
    "qft-compile --m 4 --emit text": "ca0e0676305d3031",
    "period-find --function table.json --mode exact": "3d723869fa859fd0",
    "period-find --function table.json --mode simulate --shots 100": "2dfb0891ddd40ffd",
    "simon --n 4 --mask 0110": "9f84defe22092b82",
    "bench --group Z16 --methods dense,tower,radix2": "3f4ee1a1dd3e5d3b",
    "simon --n 12 --mask 100000000001": "412913f7fc6bd26e",
    "simon --n 8 --mask 01100001 --mode simulate": "02545ca9d0774a7d",
}


def _write_readme_inputs(directory) -> None:
    rng = np.random.default_rng(2012)
    (directory / "delta.json").write_text("[[1,0],[0,0],[0,0],[0,0]]")
    _write_vector(directory / "vec8.json", rng.standard_normal(8) + 1j * rng.standard_normal(8))
    _write_vector(directory / "vec6.json", rng.standard_normal(6) + 1j * rng.standard_normal(6))
    (directory / "bell.json").write_text(
        '{"n":2,"steps":[{"gate":"H","targets":[0]},{"gate":"CNOT","targets":[0,1]}]}'
    )
    (directory / "table.json").write_text('{"group":"Z12","values":[0,1,2,0,1,2,0,1,2,0,1,2]}')


@pytest.mark.parametrize("command", list(_README_DIGESTS))
def test_readme_commands_pinned(tmp_path, monkeypatch, capsys, command):
    _write_readme_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, *command.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == _README_DIGESTS[command]
