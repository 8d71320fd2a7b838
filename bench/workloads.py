"""The four workloads.  Each pass runs a fixed case list on fresh seeded inputs.

A workload has three steps per pass:
- `inputs(rng)` makes the inputs, outside the timer;
- `run(inputs)` makes one call into abelianfft per case, inside the timer, and keeps
  each result or the exception it raised;
- `check(inputs, results)` judges each case against reference.py, outside the timer,
  as "ok", "failed" (it raised, or find_period stopped early on a strict supergroup of
  the planted stabiliser) or a message saying what was wrong.

Library calls go through the module attribute at call time (`af.fft_tower`), so the
wrappers of tracing.py see them.
"""
from __future__ import annotations

import contextlib
import io
import json
from math import prod
from pathlib import Path

import numpy as np

import abelianfft as af
from abelianfft import cli

import reference as ref

OK = "ok"
FAILED = "failed"


class Raised:
    """A case whose call raised instead of returning."""

    def __init__(self, error: Exception) -> None:
        self.error = error

    def __repr__(self) -> str:
        return f"{type(self.error).__name__}: {self.error}"


def attempt(fn, *args, **kwargs):
    # The benchmark must finish every pass, so any exception becomes a failed case.
    try:
        return fn(*args, **kwargs)
    except Exception as error:  # noqa: BLE001
        return Raised(error)


def _judge(ok: bool, what: str) -> str:
    return OK if ok else what


def _recovery(converged: bool, found, planted) -> str:
    """A recovery is ok on exactly the planted stabiliser K.

    find_period's candidate always contains K, since every label lies in K^perp, so a
    false early stop converges on a strict supergroup of K: that is a failed case.  Any
    other subgroup, or no convergence within the shot budget, is a wrong result.
    """
    found, planted = set(found), set(planted)
    if converged and found == planted:
        return OK
    if converged and planted < found:
        return FAILED
    return f"{'converged' if converged else 'not converged'} on a subgroup of order {len(found)}"


class Transform:
    """Tower transforms on three shapes (plan built each call), radix-2 at 2^12, Walsh at 2^14."""

    TOWER_SHAPES = ((256,), (2,) * 7, (4, 9, 5))
    RADIX2_BITS = 12
    WALSH_BITS = 14

    def __init__(self, workdir: Path) -> None:
        self.groups = [af.make_group(shape) for shape in self.TOWER_SHAPES]
        self.cases = [f"tower Z{'xZ'.join(map(str, s))}" for s in self.TOWER_SHAPES] + ["radix2", "walsh"]

    def inputs(self, rng: np.random.Generator) -> list[np.ndarray]:
        sizes = [g.order for g in self.groups] + [1 << self.RADIX2_BITS, 1 << self.WALSH_BITS]
        return [ref.unit_vector(rng, n) for n in sizes]

    @staticmethod
    def _tower(group, x):
        return af.fft_tower(group, af.build_tower(group), x)

    def run(self, inputs: list) -> list:
        out = [attempt(self._tower, g, x) for g, x in zip(self.groups, inputs)]
        out.append(attempt(af.fft_radix2, self.RADIX2_BITS, inputs[-2]))
        out.append(attempt(af.walsh_hadamard, self.WALSH_BITS, inputs[-1]))
        return out

    def check(self, inputs: list, results: list) -> list[str]:
        verdicts = []
        for shape, x, result in zip(self.TOWER_SHAPES, inputs, results):
            if isinstance(result, Raised):
                verdicts.append(FAILED)
                continue
            spectrum, report = result
            tallies = (report.complex_multiplies, report.complex_adds)
            verdicts.append(_judge(ref.close(spectrum, ref.transform(x, shape)), "spectrum")
                            if tallies == ref.tower_tallies(shape) else f"tallies {tallies}")
        m, radix2 = self.RADIX2_BITS, results[-2]
        if isinstance(radix2, Raised):
            verdicts.append(FAILED)
        elif radix2[1].complex_multiplies != ref.radix2_multiplies(m):
            verdicts.append(f"radix-2 multiplies {radix2[1].complex_multiplies}")
        else:
            verdicts.append(_judge(ref.close(radix2[0], ref.transform(inputs[-2], (1 << m,))), "spectrum"))
        walsh = results[-1]
        if isinstance(walsh, Raised):
            verdicts.append(FAILED)
        else:
            expected = ref.transform(inputs[-1], (2,) * self.WALSH_BITS)
            verdicts.append(_judge(ref.close(walsh, expected), "spectrum"))
        return verdicts


class Stabiliser:
    """find_period on freshly planted tables: three exact-mode shapes, one simulate-mode shape.

    Three shapes in turn defeat the two-entry dense-matrix cache, so every exact
    recovery pays the cold costs a fresh CLI process pays.
    """

    # (mode, group shape, orders of the planted stabiliser's independent generators)
    CASES = (
        ("exact", (1024,), (4,)),
        ("exact", (2,) * 8, (2, 2)),
        ("exact", (8, 9, 5), (6,)),
        ("simulate", (16,), (2,)),
    )
    MAX_SHOTS = 200
    # Consecutive unchanged samples before find_period stops.  A wrong early stop has
    # probability at most p^-WINDOW per candidate (p the smallest prime of the group), so at
    # 30 it is below 1e-8 per recovery here, while the default of 10 would stop wrongly about
    # once in a thousand 2-group recoveries and make the failed count differ between runs.
    WINDOW = 30

    def __init__(self, workdir: Path) -> None:
        self.groups = [af.make_group(shape) for _, shape, _ in self.CASES]
        self.cases = [f"{mode} Z{'xZ'.join(map(str, shape))}" for mode, shape, _ in self.CASES]

    def inputs(self, rng: np.random.Generator) -> list:
        out = []
        for (mode, shape, gens), group in zip(self.CASES, self.groups):
            members = ref.random_subgroup(shape, gens, rng)
            table = af.FunctionTable(group, tuple(ref.planted_values(shape, members, rng).tolist()))
            out.append((table, members, np.random.default_rng(rng.integers(2**63))))
        return out

    def run(self, inputs: list) -> list:
        return [
            attempt(af.find_period, table, self.MAX_SHOTS, sampler, mode=mode, window=self.WINDOW)
            for (mode, _, _), (table, _, sampler) in zip(self.CASES, inputs)
        ]

    def check(self, inputs: list, results: list) -> list[str]:
        verdicts = []
        for (_, members, _), result in zip(inputs, results):
            if isinstance(result, Raised):
                verdicts.append(FAILED)
            else:
                verdicts.append(_recovery(result.converged, result.subgroup.members, members.tolist()))
        return verdicts


class Circuit:
    """The compiled Z_(2^14) network two ways, and a random raw-unitary circuit sampled by the Born rule."""

    QUBITS = 14
    RAW, CNOTS, XS = 16, 12, 8  # gates in the random circuit
    RAW_WIRES = 6  # raw 4x4 unitaries act on the low wires, so the state keeps some zero amplitudes
    SHOTS = 1024

    def __init__(self, workdir: Path) -> None:
        self.cases = ["apply_qft", "swaps program", "random circuit"]

    def inputs(self, rng: np.random.Generator) -> dict:
        n = self.QUBITS
        gates = [("U", ref.random_unitary(rng, 4), tuple(rng.choice(self.RAW_WIRES, 2, replace=False).tolist()))
                 for _ in range(self.RAW)]
        gates += [("CNOT", None, tuple(rng.choice(n, 2, replace=False).tolist())) for _ in range(self.CNOTS)]
        gates += [("X", None, (int(rng.integers(n)),)) for _ in range(self.XS)]
        order = rng.permutation(len(gates))
        return {
            "qft": ref.unit_vector(rng, 1 << n),
            "swaps": ref.unit_vector(rng, 1 << n),
            "gates": [gates[i] for i in order],
            "sampler": np.random.default_rng(rng.integers(2**63)),
        }

    def _swaps_program(self, x: np.ndarray):
        compiled = af.compile_qft(self.QUBITS, "swaps")
        text = json.dumps(af.program_to_json(compiled.to_program()))
        program = af.program_from_json(json.loads(text))
        return compiled, af.run_program(program, af.QState(self.QUBITS, x))

    def _random_circuit(self, gates: list, sampler: np.random.Generator):
        builders = {"U": lambda m, t: af.Gate(m, t), "CNOT": lambda m, t: af.cnot(*t), "X": lambda m, t: af.pauli_x(*t)}
        program = af.Program(self.QUBITS, tuple(builders[kind](m, t) for kind, m, t in gates))
        state = af.run_program(program)
        return state, af.sample(state, self.SHOTS, sampler)

    def run(self, inputs: dict) -> list:
        return [
            attempt(af.apply_qft, af.QState(self.QUBITS, inputs["qft"])),
            attempt(self._swaps_program, inputs["swaps"]),
            attempt(self._random_circuit, inputs["gates"], inputs["sampler"]),
        ]

    def check(self, inputs: dict, results: list) -> list[str]:
        n = self.QUBITS
        qft, swaps, rand = results
        verdicts = []
        if isinstance(qft, Raised):
            verdicts.append(FAILED)
        else:
            verdicts.append(_judge(ref.close(qft.amps, ref.transform(inputs["qft"], (1 << n,))), "qft amplitudes"))
        if isinstance(swaps, Raised):
            verdicts.append(FAILED)
        else:
            compiled, state = swaps
            names = [g.name for g in compiled.gates]
            counts = {name: names.count(name) for name in ("H", "CPHASE", "SWAP")}
            if counts != ref.qft_gate_counts(n) or len(names) != sum(counts.values()):
                verdicts.append(f"gate counts {counts}")
            else:
                verdicts.append(_judge(ref.close(state.amps, ref.transform(inputs["swaps"], (1 << n,))), "amplitudes"))
        if isinstance(rand, Raised):
            verdicts.append(FAILED)
        else:
            state, counts = rand
            expected = np.zeros(1 << n, dtype=np.complex128)
            expected[0] = 1.0
            named = {"CNOT": _CNOT, "X": _X}
            for kind, matrix, targets in inputs["gates"]:
                expected = ref.apply_gate(expected, n, matrix if kind == "U" else named[kind], targets)
            if not ref.close(state.amps, expected):
                verdicts.append("amplitudes")
            else:
                verdicts.append(_judge(ref.sample_on_support(counts, np.abs(expected) ** 2, self.SHOTS), "samples"))
        return verdicts


_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
_CNOT = np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]]
_SWAP = np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]]


def _cphase(exponent: int) -> np.ndarray:
    return np.diag([1, 1, 1, np.exp(2j * np.pi / (1 << exponent))])


def _pairs(x: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in x]


def _spectrum(payload: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in payload["spectrum"]])


class Cli:
    """Every subcommand through `abelianfft.cli.main`, reading JSON input files and writing JSON output.

    Three commands must fail cleanly (exit 1, one `error:` line).  Two more feed malformed
    input that today escapes as a TypeError; they are fixed inputs and fail on every pass.
    """

    FFT = (("dense", (12,)), ("tower", (4, 6)), ("radix2", (16,)), ("walsh", (2, 2, 2, 2)))
    PROGRAM_QUBITS = 4
    PERIOD_SHAPE = (7, 7)  # p = 7: a wrong early stop at the CLI's window of 10 has probability <= 7^-10
    SIMON = ("5", "10110")  # the CLI's default seed: simon's 2-group would stop wrongly about once in 1e3
    BENCH_GROUP = (16,)

    def __init__(self, workdir: Path) -> None:
        self.dir = workdir
        self.schemas = ref.Schemas(Path(__file__).resolve().parent.parent / "schemas")
        self._write("null_entry.json", [[1, None], [0, 0]])
        self._write("steps_not_list.json", {"n": 1, "steps": 5})
        self._write("degenerate.json", {"group": "Z4", "values": [0, 1, 0, 2]})
        # (case, argv) for the commands whose input files do not depend on the seed.
        self.fixed = [
            ("simon", ["simon", "--n", self.SIMON[0], "--mask", self.SIMON[1]]),
            ("error radix2 on Z6", ["fft", "--group", "Z6", "--method", "radix2", "--input", self._path("z6.json")]),
            ("error degenerate", ["period-find", "--function", self._path("degenerate.json")]),
            ("error mask length", ["simon", "--n", "4", "--mask", "101"]),
            ("fault null entry", ["fft", "--group", "Z2", "--input", self._path("null_entry.json")]),
            ("fault steps", ["simulate", "--program", self._path("steps_not_list.json")]),
        ]
        self.cases = [f"fft {m}" for m, _ in self.FFT] + [
            "simulate all", "simulate qubit", "qft-compile json", "qft-compile text",
            "period-find exact", "period-find simulate", "bench"] + [c for c, _ in self.fixed]

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def _write(self, name: str, obj: object) -> None:
        (self.dir / name).write_text(json.dumps(obj), encoding="utf-8")

    def _random_program(self, rng: np.random.Generator) -> tuple[dict, list]:
        # A JSON program of named gates and one raw matrix, with the matrices the reference applies.
        n, steps, ops = self.PROGRAM_QUBITS, [], []
        for _ in range(10):
            kind = ["H", "X", "CNOT", "SWAP", "CPHASE"][int(rng.integers(5))]
            if kind in ("H", "X"):
                t = [int(rng.integers(n))]
                steps.append({"gate": kind, "targets": t})
                ops.append((_H if kind == "H" else _X, t))
                continue
            t = rng.choice(n, 2, replace=False).tolist()
            if kind == "CPHASE":
                s = int(rng.integers(1, 4))
                steps.append({"gate": kind, "targets": t, "param": s})
                ops.append((_cphase(s), t))
            else:
                steps.append({"gate": kind, "targets": t})
                ops.append((_CNOT if kind == "CNOT" else _SWAP, t))
        u = ref.random_unitary(rng, 2)
        t = [int(rng.integers(n))]
        steps.append({"matrix": [_pairs(row) for row in u], "targets": t})
        ops.append((u, t))
        return {"n": n, "steps": steps}, ops

    def _planted(self, rng: np.random.Generator, name: str) -> np.ndarray:
        members = ref.random_subgroup(self.PERIOD_SHAPE, (7,), rng)
        values = ref.planted_values(self.PERIOD_SHAPE, members, rng)
        self._write(name, {"group": "Z7xZ7", "values": values.tolist()})
        return members

    def inputs(self, rng: np.random.Generator) -> dict:
        for stale in self.dir.glob("out_*"):
            stale.unlink()
        data: dict = {}
        argvs = []
        for method, shape in self.FFT:
            x = ref.unit_vector(rng, prod(shape))
            data[f"fft {method}"] = (x, shape)
            self._write(f"fft_{method}.json", _pairs(x))
            group = "x".join(f"Z{m}" for m in shape)
            argvs.append(["fft", "--group", group, "--method", method, "--emit-counts",
                          "--input", self._path(f"fft_{method}.json")])
        program, ops = self._random_program(rng)
        self._write("program.json", program)
        data["program"] = ops
        seeds = [str(int(s)) for s in rng.integers(0, 2**31, size=5)]
        argvs.append(["simulate", "--program", self._path("program.json"), "--shots", "256", "--seed", seeds[0]])
        argvs.append(["simulate", "--program", self._path("program.json"), "--shots", "100", "--measure", "1",
                      "--seed", seeds[1]])
        argvs.append(["qft-compile", "--m", "5"])
        argvs.append(["qft-compile", "--m", "4", "--reorder", "swaps", "--emit", "text"])
        data["exact"] = self._planted(rng, "table_exact.json")
        data["simulate"] = self._planted(rng, "table_simulate.json")
        argvs.append(["period-find", "--function", self._path("table_exact.json"), "--seed", seeds[2]])
        argvs.append(["period-find", "--function", self._path("table_simulate.json"), "--mode", "simulate",
                      "--seed", seeds[3]])
        argvs.append(["bench", "--group", "Z16", "--methods", "dense,tower,radix2", "--seed", seeds[4]])
        self._write("z6.json", _pairs(ref.unit_vector(rng, 6)))
        argvs += [argv for _, argv in self.fixed]
        data["argv"] = [argv + ["--out", self._path(f"out_{i}")] for i, argv in enumerate(argvs)]
        return data

    def run(self, inputs: dict) -> list:
        out = []
        for argv in inputs["argv"]:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = attempt(cli.main, argv)
            out.append(code if isinstance(code, Raised) else (code, stderr.getvalue()))
        return out

    def _payload(self, index: int) -> object:
        text = Path(self._path(f"out_{index}")).read_text(encoding="utf-8")
        return text if self.cases[index] == "qft-compile text" else json.loads(text)

    def check(self, inputs: dict, results: list) -> list[str]:
        verdicts = []
        for index, (case, result) in enumerate(zip(self.cases, results)):
            if isinstance(result, Raised):
                verdicts.append(FAILED)
                continue
            code, stderr = result
            if case.startswith(("error", "fault")):
                lines = stderr.splitlines()
                clean = code == 1 and len(lines) == 1 and lines[0].startswith("error:")
                verdicts.append(_judge(clean, f"exit {code}, stderr {stderr!r}"))
                continue
            if code != 0:
                verdicts.append(f"exit {code}: {stderr.strip()}")
                continue
            verdicts.append(self._check_output(case, self._payload(index), inputs))
        return verdicts

    def _check_output(self, case: str, payload, inputs: dict) -> str:
        command = case.split()[0]
        if command != "qft-compile" or case.endswith("json"):
            if not self.schemas.valid(command, payload):
                return "schema"
        if command == "fft":
            x, shape = inputs[case]
            method, order = case.split()[1], prod(shape)
            expected_counts = {"dense": (order * order, order * (order - 1)), "tower": ref.tower_tallies(shape),
                               "radix2": (ref.radix2_multiplies(order.bit_length() - 1),) * 2,
                               "walsh": (order, len(shape) * order)}[method]
            counts = payload["counts"]
            if (counts["complex_multiplies"], counts["complex_adds"]) != expected_counts:
                return f"counts {counts}"
            return _judge(ref.close(_spectrum(payload), ref.transform(x, shape)), "spectrum")
        if command == "simulate":
            n = self.PROGRAM_QUBITS
            amps = np.zeros(1 << n, dtype=np.complex128)
            amps[0] = 1.0
            for matrix, targets in inputs["program"]:
                amps = ref.apply_gate(amps, n, matrix, tuple(targets))
            probs = np.abs(amps) ** 2
            if case == "simulate all":
                dist = payload["distribution"]
                shown = {int(k, 2): v for k, v in dist.items()}
                if any(abs(shown.get(i, 0.0) - p) > 1e-9 for i, p in enumerate(probs)):
                    return "distribution"
                return _judge(ref.sample_on_support(payload["counts"], probs, 256), "samples")
            p1 = float(probs.reshape(-1, 2, 2)[:, 1, :].sum())
            dist = payload["distribution"]
            ok = abs(dist["1"] - p1) <= 1e-9 and abs(dist["0"] - (1 - p1)) <= 1e-9
            counts = payload["counts"]
            return _judge(ok and counts["0"] + counts["1"] == 100, "qubit distribution")
        if command == "qft-compile":
            return self._check_compiled(case, payload)
        if command in ("period-find", "simon") and sum(payload["labels_histogram"].values()) != payload["samples_used"]:
            return "labels histogram"
        if command == "period-find":
            sub = payload["subgroup"]
            if sub["order"] != len(sub["members"]):
                return f"subgroup order {sub['order']}"
            return _recovery(payload["converged"], sub["members"], inputs[case.split()[1]].tolist())
        if command == "simon":
            # The CLI reports no subgroup, so the candidate is rebuilt from the labels it saw.
            n, mask = int(self.SIMON[0]), int(self.SIMON[1], 2)
            labels = [int(key, 2) for key in payload["labels_histogram"]]
            verdict = _recovery(payload["converged"], ref.annihilated((2,) * n, labels), (0, mask))
            shown = self.SIMON[1] if verdict == OK else None
            if verdict in (OK, FAILED) and payload["recovered_mask"] != shown:
                return f"recovered mask {payload['recovered_mask']}"
            return verdict
        if command == "bench":
            order = prod(self.BENCH_GROUP)
            expected = {"dense": (order * order, order * (order - 1)), "tower": ref.tower_tallies(self.BENCH_GROUP),
                        "radix2": (ref.radix2_multiplies(4), order * 4)}
            got = {m: (c["complex_multiplies"], c["complex_adds"]) for m, c in payload["methods"].items()}
            return _judge(got == expected, f"tallies {got}")
        return f"no check for {case}"

    def _check_compiled(self, case: str, payload) -> str:
        if case.endswith("text"):
            lines = payload.splitlines()
            names = [line.split()[0] for line in lines[1:-2]]
            expected = ref.qft_gate_counts(4)
            ok = all(names.count(k) == v for k, v in expected.items()) and len(names) == sum(expected.values())
            return _judge(ok and lines[-1].startswith("gates: 4 H, 6 CPHASE, 6 SWAP"), "text listing")
        m, steps = payload["m"], payload["program"]["steps"]
        names = [s["gate"] for s in steps]
        expected = dict(ref.qft_gate_counts(m), SWAP=0)
        if any(names.count(k) != v for k, v in expected.items()) or len(names) != m * (m + 1) // 2:
            return f"gate counts {payload['gate_counts']}"
        # Run the listed network on a fixed state by the reference kernel and undo the relabelling.
        x = ref.unit_vector(np.random.default_rng(m), 1 << m)
        amps = x
        for s in steps:
            matrix = {"H": _H, "CPHASE": _cphase(s.get("param", 1))}[s["gate"]]
            amps = ref.apply_gate(amps, m, matrix, tuple(s["targets"]))
        perm = payload["final_permutation"]
        idx = np.arange(1 << m)
        source = np.zeros(1 << m, dtype=np.int64)
        for bit, wire in enumerate(perm):
            source |= ((idx >> bit) & 1) << wire
        return _judge(ref.close(amps[source], ref.transform(x, (1 << m,))), "network")


WORKLOADS = {"transform": Transform, "stabiliser": Stabiliser, "circuit": Circuit, "cli": Cli}
