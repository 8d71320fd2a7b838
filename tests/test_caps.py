"""Every group-order cap and the shot cap, through their public entry points one past the cap: one
message form per kind of cap, and a refusal before anything of that size is allocated or drawn."""
from __future__ import annotations

import json
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from abelianfft import (
    DENSE_CAP, STATE_CAP, FunctionTable, dense_fourier_matrix, find_period, make_group, parse_group_spec,
)
from abelianfft.cli import main
from abelianfft.groups import MAX_ORDER, _SPEC_RANK_CAP
from abelianfft.period import EXACT_CAP, SIMULATE_CAP
from abelianfft.simulator import SHOT_CAP, new_state, sample

from testutil import package_env

# Built before any measurement: only the refusal of find_period is measured.
_Z4097_TABLE = FunctionTable(make_group([4097]), tuple(range(4097)))
_Z257_TABLE = FunctionTable(make_group([257]), tuple(range(257)))


def _api(run):
    def call(capsys) -> str:
        with pytest.raises(ValueError) as refused:
            run()
        return str(refused.value)

    return call


def _cli(*argv: str):
    def call(capsys) -> str:
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and err.count("\n") == 1 and err.startswith("error: ")
        return err[len("error: ") : -1]

    return call


@pytest.mark.parametrize(
    "order, what, cap, call",
    [
        pytest.param(2**63, "64-bit index", MAX_ORDER, _api(lambda: make_group([2**62, 2])), id="make_group"),
        pytest.param(4097, "dense matrix", DENSE_CAP, _api(lambda: dense_fourier_matrix(make_group([4097]))),
                     id="dense_fourier_matrix"),
        pytest.param(4097, "exact-mode", EXACT_CAP,
                     _api(lambda: find_period(_Z4097_TABLE, 10, np.random.default_rng(0))), id="find_period-exact"),
        pytest.param(257, "simulate-mode", SIMULATE_CAP,
                     _api(lambda: find_period(_Z257_TABLE, 10, np.random.default_rng(0), mode="simulate")),
                     id="find_period-simulate"),
        pytest.param(8192, "exact-mode", EXACT_CAP, _cli("simon", "--n", "13", "--mask", "1000000000000"),
                     id="simon-exact"),
        pytest.param(512, "simulate-mode", SIMULATE_CAP,
                     _cli("simon", "--n", "9", "--mask", "100000000", "--mode", "simulate"), id="simon-simulate"),
        pytest.param(2**25, "bench", 1 << STATE_CAP, _cli("bench", "--group", "Z2^25", "--methods", "walsh"),
                     id="bench"),
        pytest.param(8192, "dense matrix", DENSE_CAP, _cli("bench", "--group", "Z8192"), id="bench-dense"),
    ],
)
def test_every_order_cap_refuses_one_message_before_allocating(order, what, cap, call, capsys):
    tracemalloc.start()
    try:
        message = call(capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message == f"group order {order} exceeds the {what} cap {cap}"
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("route", ["sample", "simulate all", "simulate qubit"])
def test_shot_cap_refuses_before_the_first_draw(route, tmp_path, capsys):
    # sample and both CLI simulate paths share one shot loop; a count past its cap returns at once.
    program = tmp_path / "x.json"
    program.write_text(json.dumps({"n": 1, "steps": [{"gate": "H", "targets": [0]}]}), encoding="utf-8")
    argv = ["simulate", "--program", str(program), "--shots", str(SHOT_CAP + 1)]
    calls = {
        "sample": _api(lambda: sample(new_state(1), SHOT_CAP + 1, np.random.default_rng(0))),
        "simulate all": _cli(*argv),
        "simulate qubit": _cli(*argv, "--measure", "0"),
    }
    tracemalloc.start()
    try:
        message = calls[route](capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message == f"shot count {SHOT_CAP + 1} exceeds the shot cap {SHOT_CAP}"
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("spec, factor", [("Z2^63", "Z2^63"), ("Z3x Z2^62", "Z2^62"), ("Z4^31xZ2", "Z2"),
                                          ("Z9223372036854775807xZ2", "Z2"), ("Z2^64", "Z2^64")])
def test_group_spec_is_refused_by_factor_before_it_is_expanded(spec, factor):
    with pytest.raises(ValueError) as refused:
        parse_group_spec(spec)
    assert str(refused.value) == f"group factor {factor!r} takes the order past the 64-bit index cap {MAX_ORDER}"


@pytest.mark.parametrize("spec, factor", [("Z1^129", "Z1^129"), ("Z2xZ1^1000000", "Z1^1000000"),
                                          ("Z1^100xZ2^28xZ5", "Z5"), ("x".join(["Z1"] * 200), "Z1")])
def test_group_spec_past_the_factor_cap_is_refused_by_factor(spec, factor):
    with pytest.raises(ValueError) as refused:
        parse_group_spec(spec)
    assert str(refused.value) == f"group factor {factor!r} takes the rank past the factor cap {_SPEC_RANK_CAP}"


def test_group_spec_at_the_factor_cap_is_accepted():
    # A spec past both caps, such as Z2^1000000, is named by the order cap (the hostile specs below).
    assert _SPEC_RANK_CAP == 128
    assert len(parse_group_spec("Z1^128").moduli) == len(parse_group_spec("Z2^62xZ1^66").moduli) == 128
    # make_group itself has no rank bound.
    assert make_group([1] * 1000).order == 1


def test_group_spec_at_the_cap_is_accepted():
    assert parse_group_spec("Z2^62xZ1^3").order == 2**62
    assert parse_group_spec("Z9223372036854775807").order == MAX_ORDER
    # Leading zeros are not digits of the value.
    assert parse_group_spec("Z" + "0" * 30 + "2^" + "0" * 30 + "3").moduli == (2, 2, 2)


@pytest.mark.parametrize(
    "spec",
    ["Z" + "9" * 20, "Z" + "9" * 5000, "Z2^" + "9" * 20, "Z2^" + "9" * 5000],
    ids=["modulus of 20 digits", "modulus of 5000 digits", "exponent of 20 digits", "exponent of 5000 digits"],
)
def test_group_spec_with_more_digits_than_the_cap_is_refused_before_it_is_read(spec):
    # Python refuses to read more than 4300 digits with a message that names no cap.
    with pytest.raises(ValueError) as refused:
        parse_group_spec(spec)
    shown = repr(spec) if len(spec) <= 40 else f"{spec[:40]!r}..."
    assert str(refused.value) == f"group factor {shown} takes the order past the 64-bit index cap {MAX_ORDER}"


def test_bad_group_factor_echoes_a_bounded_prefix():
    token = "Z" + "q" * 5000
    with pytest.raises(ValueError) as refused:
        parse_group_spec(f"Z2x{token}")
    assert str(refused.value) == (
        f"bad group factor {token[:40]!r}... in {('Z2x' + token)[:40]!r}... (expected Z<m> or Z<m>^<k>)"
    )
    with pytest.raises(ValueError, match=r"^bad group factor '' in 'Z2x' \(expected"):
        parse_group_spec("Z2x")


def test_order_past_64_bits_is_named_by_its_bit_length():
    with pytest.raises(ValueError) as refused:
        make_group([2] * 100000)
    assert str(refused.value) == f"group order of 100001 bits exceeds the 64-bit index cap {MAX_ORDER}"


def _address_space_of_2_gib():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


# Specs whose expansion alone would take seconds or all of memory, orders with tens of thousands
# of digits, more than Python will format, a modulus with more digits than Python will read, and
# a malformed factor as long.
@pytest.mark.parametrize(
    "spec, named",
    [("Z2^64", "64-bit index cap"), ("Z2^100000", "64-bit index cap"), ("Z2^1000000", "64-bit index cap"),
     ("Z2^1000000000", "64-bit index cap"), ("Z" + "9" * 5000, "64-bit index cap"),
     ("Z" + "q" * 5000, "bad group factor"), ("Z2xZ1^1000000", "factor cap")],
    ids=["Z2^64", "Z2^100000", "Z2^1000000", "Z2^1000000000", "Z9x5000", "Zqx5000", "Z2xZ1^1000000"],
)
def test_hostile_group_spec_exits_with_one_short_error_line(spec, named, tmp_path):
    vector = tmp_path / "vector.json"
    vector.write_text("[[1, 0], [0, 0]]", encoding="utf-8")
    command = [sys.executable, "-m", "abelianfft.cli", "fft", "--group", spec, "--input", str(vector)]
    # One BLAS thread, so that the address space numpy maps at import does not grow with the cores.
    env = dict(package_env(), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run(command, capture_output=True, text=True, env=env, timeout=20,
                         preexec_fn=_address_space_of_2_gib)
    lines = run.stderr.splitlines()
    assert run.returncode == 1 and run.stdout == "" and len(lines) == 1, run.stderr[:300]
    assert lines[0].startswith("error: ") and named in lines[0] and len(lines[0].encode()) < 200
