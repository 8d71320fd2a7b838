"""Command line front end: every subcommand emits a single JSON document."""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Sequence

import numpy as np

from . import __version__
from .dense import apply_dense
from .fastfft import OpCountReport, build_tower, fft_radix2, fft_tower, walsh_hadamard
from .groups import AbelianGroup, parse_group_spec
from .period import FunctionTable, _check_mode_order, find_period, two_to_one_table
from .qft_circuit import REORDER_MODES, compile_qft
from .simulator import (
    STATE_CAP,
    _cdf,
    _complex_from_json,
    _draw,
    _is_int,
    measure_qubit_distribution,
    program_from_json,
    program_to_json,
    run_program,
    sample,
)

# Used whenever --seed is omitted, so repeated runs are byte-identical.
DEFAULT_SEED = 20120712

_METHODS = ("dense", "tower", "radix2", "walsh")


def _emit(payload: dict, args: argparse.Namespace) -> None:
    if args.command == "qft-compile" and args.emit == "text":
        text = _format_qft_text(payload)
    elif args.pretty:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _vector_from_json(obj: object, length: int) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != length:
        raise ValueError(f"input vector must be a list of {length} [re, im] pairs")
    return np.array([_complex_from_json(entry) for entry in obj], dtype=np.complex128)


def _vector_to_json(vec: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vec]


def _counts_to_json(report: OpCountReport) -> dict:
    return {
        "complex_multiplies": report.complex_multiplies,
        "complex_adds": report.complex_adds,
        "predicted_bound": report.predicted_bound,
    }


def _load_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _run_method(group: AbelianGroup, method: str, vec: np.ndarray) -> tuple[np.ndarray, dict]:
    if method == "dense":
        spectrum = apply_dense(group, vec)
        n = group.order
        counts = {
            "complex_multiplies": n * n,
            "complex_adds": n * (n - 1),
            "predicted_bound": n * n,
        }
    elif method == "tower":
        if group.order == 1:
            raise ValueError("tower method needs a group of order at least 2")
        spectrum, report = fft_tower(group, build_tower(group), vec)
        counts = _counts_to_json(report)
    elif method == "radix2":
        if not group.is_cyclic_power_of_two:
            raise ValueError(f"radix2 method needs a cyclic group of order 2^n, got {group.spec_string()}")
        n = (group.order - 1).bit_length()
        spectrum, report = fft_radix2(n, vec)
        counts = _counts_to_json(report)
    elif method == "walsh":
        if not group.is_boolean:
            raise ValueError(f"walsh method needs a product of Z2 factors, got {group.spec_string()}")
        n = group.rank
        spectrum = walsh_hadamard(n, vec)
        counts = {
            "complex_multiplies": 1 << n,
            "complex_adds": n * (1 << n),
            "predicted_bound": n * (1 << n),
        }
    else:
        raise ValueError(f"unknown method {method!r}")
    return spectrum, counts


def _cmd_fft(args: argparse.Namespace) -> dict:
    group = parse_group_spec(args.group)
    vec = _vector_from_json(_load_json(args.input), group.order)
    spectrum, counts = _run_method(group, args.method, vec)
    payload = {
        "group": group.spec_string(),
        "order": group.order,
        "method": args.method,
        "spectrum": _vector_to_json(spectrum),
    }
    if args.emit_counts:
        payload["counts"] = counts
    return payload


def _cmd_simulate(args: argparse.Namespace) -> dict:
    program = program_from_json(_load_json(args.program))
    state = run_program(program)
    payload: dict = {
        "n": program.n_qubits,
        "measure": args.measure,
        "seed": args.seed,
        "shots": args.shots,
    }
    if args.measure == "all":
        probs = np.abs(state.amps)
        probs *= probs
        support = np.flatnonzero(probs > 1e-15)
        n = program.n_qubits
        payload["distribution"] = {
            format(i, f"0{n}b"): p for i, p in zip(support.tolist(), probs[support].tolist())
        }
        del probs  # sampling builds its own normalised copy
        if args.shots > 0:
            payload["counts"] = sample(state, args.shots, np.random.default_rng(args.seed))
    else:
        dist = measure_qubit_distribution(state, int(args.measure))
        payload["distribution"] = {"0": dist[0], "1": dist[1]}
        if args.shots > 0:
            draws = _draw(np.random.default_rng(args.seed), _cdf(np.array([dist[0], dist[1]])), args.shots)
            ones = int(draws.sum())
            payload["counts"] = {"0": args.shots - ones, "1": ones}
    return payload


def _cmd_qft_compile(args: argparse.Namespace) -> dict:
    compiled = compile_qft(args.m, args.reorder)
    counts = compiled.counts()
    return {
        "m": args.m,
        "reorder": args.reorder,
        "program": program_to_json(compiled.to_program()),
        "final_permutation": list(compiled.final_permutation),
        "gate_counts": {
            "hadamards": counts.hadamards,
            "cphases": counts.cphases,
            "swaps": counts.swaps,
            "total": counts.total,
        },
    }


def _format_qft_text(payload: dict) -> str:
    lines = [f"wires: {payload['m']}  reorder: {payload['reorder']}"]
    for step in payload["program"]["steps"]:
        param = f" param={step['param']}" if "param" in step else ""
        lines.append(f"{step['gate']} {step['targets']}{param}")
    lines.append(f"final permutation: {payload['final_permutation']}")
    c = payload["gate_counts"]
    lines.append(f"gates: {c['hadamards']} H, {c['cphases']} CPHASE, {c['swaps']} SWAP")
    return "\n".join(lines) + "\n"


def _function_from_json(obj: object) -> FunctionTable:
    if not isinstance(obj, dict) or "group" not in obj or "values" not in obj:
        raise ValueError('function table needs "group" and "values" fields')
    if not isinstance(obj["group"], str):
        raise ValueError(f'function table field "group" must be a string, got {obj["group"]!r}')
    group = parse_group_spec(obj["group"])
    values = obj["values"]
    if not isinstance(values, list) or not all(_is_int(v) for v in values):
        raise ValueError('function table field "values" must be a list of integers')
    return FunctionTable(group, tuple(values))


def _subgroup_payload(subgroup) -> dict:
    group = subgroup.parent
    return {
        "order": subgroup.order,
        "members": list(subgroup.members),
        "generators": [list(group.coords_of(g)) for g in subgroup.generators()],
    }


def _cmd_period_find(args: argparse.Namespace) -> dict:
    table = _function_from_json(_load_json(args.function))
    rng = np.random.default_rng(args.seed)
    result = find_period(table, args.shots, rng, mode=args.mode)
    return {
        "group": table.group.spec_string(),
        "mode": args.mode,
        "seed": args.seed,
        "converged": result.converged,
        "samples_used": result.samples_used,
        "subgroup": _subgroup_payload(result.subgroup),
        "labels_histogram": dict(Counter(map(str, result.labels_seen))),
    }


def _cmd_simon(args: argparse.Namespace) -> dict:
    n = args.n
    if len(args.mask) != n or any(c not in "01" for c in args.mask):
        raise ValueError(f"mask {args.mask!r} must be a {n}-character bit-string")
    mask = int(args.mask, 2)
    if mask == 0:
        raise ValueError("mask must be nonzero: a two-to-one table needs a nontrivial period")
    _check_mode_order(1 << n, args.mode)
    rng = np.random.default_rng(args.seed)
    table = two_to_one_table(n, mask, rng)
    result = find_period(table, args.shots, rng, mode=args.mode)
    recovered = None
    if result.converged and result.subgroup.order == 2:
        recovered = format(result.subgroup.members[1], f"0{n}b")
    return {
        "n": n,
        "mask": args.mask,
        "seed": args.seed,
        "converged": result.converged,
        "samples_used": result.samples_used,
        "recovered_mask": recovered,
        "labels_histogram": dict(Counter(format(label, f"0{n}b") for label in result.labels_seen)),
    }


def _cmd_bench(args: argparse.Namespace) -> dict:
    group = parse_group_spec(args.group)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValueError("no methods listed")
    for m in methods:
        if m not in _METHODS:
            raise ValueError(f"unknown method {m!r} (choose from {', '.join(_METHODS)})")
    if group.order > 1 << STATE_CAP:
        raise ValueError(f"group order {group.order} exceeds the bench limit 2^{STATE_CAP}")
    rng = np.random.default_rng(args.seed)
    vec = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    vec /= np.linalg.norm(vec)
    results = {}
    for m in methods:
        _, counts = _run_method(group, m, vec)
        results[m] = counts
    return {
        "group": group.spec_string(),
        "order": group.order,
        "seed": args.seed,
        "methods": results,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abelianfft",
        description="Fourier transforms on finite abelian groups, qubit simulation, and period finding",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write the JSON result to this file instead of stdout")
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed (fixed default)")

    p_fft = sub.add_parser("fft", help="transform a vector over a group")
    p_fft.add_argument("--group", required=True, help='group description, e.g. "Z4", "Z2xZ3", "Z2^3"')
    p_fft.add_argument("--input", required=True, help="JSON file holding a list of [re, im] pairs")
    p_fft.add_argument("--method", choices=_METHODS, default="dense")
    p_fft.add_argument("--emit-counts", action="store_true", help="include operation tallies")
    common(p_fft)

    p_sim = sub.add_parser("simulate", help="run a gate program")
    p_sim.add_argument("--program", required=True, help="JSON program file")
    p_sim.add_argument("--shots", type=int, default=0, help="number of sampled outcomes")
    p_sim.add_argument("--measure", default="all", help='"all" or a qubit index')
    common(p_sim)

    p_qft = sub.add_parser("qft-compile", help="compile the transform network for Z_(2^m)")
    p_qft.add_argument("--m", type=int, required=True, help="number of wires")
    p_qft.add_argument("--reorder", choices=REORDER_MODES, default="relabel")
    p_qft.add_argument("--emit", choices=("json", "text"), default="json")
    common(p_qft)

    p_period = sub.add_parser("period-find", help="recover the stabiliser of a function table")
    p_period.add_argument("--function", required=True, help='JSON file {"group": ..., "values": [...]}')
    p_period.add_argument("--shots", type=int, default=200, help="sample budget")
    p_period.add_argument("--mode", choices=("exact", "simulate"), default="exact")
    common(p_period)

    p_simon = sub.add_parser("simon", help="generate a two-to-one table on (Z_2)^n and recover its mask")
    p_simon.add_argument("--n", type=int, required=True, help="number of bits")
    p_simon.add_argument("--mask", required=True, help="period as a bit-string, e.g. 101")
    p_simon.add_argument("--shots", type=int, default=200, help="sample budget")
    p_simon.add_argument("--mode", choices=("exact", "simulate"), default="exact")
    common(p_simon)

    p_bench = sub.add_parser("bench", help="operation tallies of each method on one random vector")
    p_bench.add_argument("--group", required=True)
    p_bench.add_argument("--methods", default="dense,radix2", help="comma-separated method list")
    common(p_bench)
    return parser


_HANDLERS = {
    "fft": _cmd_fft,
    "simulate": _cmd_simulate,
    "qft-compile": _cmd_qft_compile,
    "period-find": _cmd_period_find,
    "simon": _cmd_simon,
    "bench": _cmd_bench,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(_HANDLERS[args.command](args), args)
    except (ValueError, OSError, json.JSONDecodeError) as error:
        sys.stderr.write(f"error: {error}\n")
        return 1
    except MemoryError as error:
        detail = f": {error}" if str(error) else ""
        sys.stderr.write(f"error: out of memory{detail}\n")
        return 1
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
