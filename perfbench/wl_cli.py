"""cli: sequential `python -m dwtl.cli` processes, one at a time.

A round runs gen (3), verify (6), tt (2), eval (2), report (2) and solve (7)
on adders of up to 4 bits and tables of 3 inputs, in text and --format json:
22 processes. Interpreter start and the dwtl import dominate every call, so
library speed-ups should leave this workload unchanged. The seed picks the
adder widths, input order, which netlist has a toggled output, the eval
vector and the solve tables.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import wl_synth
from harness import Op, Tracer

OP_CLASSES = ()
TIMEOUT_S = 120
BUILDERS = {"minority": "minority_adder", "weighted": "ripple_adder", "nand": "nand_adder"}


def child_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "dwtl.cli", *args],
        env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def interpreter_costs(env: dict, repeats: int = 5) -> dict[str, float]:
    """Median wall time of a bare interpreter, and of `import dwtl.cli` beyond it."""

    def median_of(code: str) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=TIMEOUT_S)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    bare = median_of("pass")
    return {"cli.interpreter_s": bare, "cli.import_s": median_of("import dwtl.cli") - bare}


def setup(mods, seed: int, tr, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    env = child_env()
    C = mods.constructions
    print_netlist = mods.textio.print_netlist

    nets = {}
    toggled_style = rng.choice(tuple(BUILDERS))
    for style, builder in BUILDERS.items():
        bits = rng.randint(2, 4)
        net = getattr(C, builder)(bits)
        inputs = list(net.inputs)
        rng.shuffle(inputs)
        outputs = list(net.outputs)
        flip = None
        if style == toggled_style:
            i = rng.randrange(len(outputs))
            o = outputs[i]
            outputs[i] = type(o)(o.name, o.ref, not o.invert)
            flip = o.name
        net = type(net)(tuple(inputs), net.gates, tuple(outputs))
        path = workdir / f"{style}.dwtl"
        path.write_text(print_netlist(net), encoding="utf-8")
        nets[style] = (net, bits, flip, str(path))

    ops: list[Op] = []

    def add(sub, args, check, canon):
        def run():
            return run_cli(args, env)

        def traced(tr: Tracer):
            with tr.span(f"cli.{sub}"):
                return run_cli(args, env)

        ops.append(Op(sub, run, traced, check, canon))

    def full_output(p):
        return {"verdict": [p.returncode, p.stdout]}

    for style, builder in BUILDERS.items():
        bits = rng.randint(1, 4)
        want = print_netlist(getattr(C, builder)(bits))
        add("gen", ["gen", "adder", "--bits", str(bits), "--style", style],
            _expect(0, lambda out, want=want: out == want), full_output)

    for style, (net, bits, flip, path) in nets.items():
        for fmt in ("text", "json"):
            add("verify", ["verify", path, "--spec", f"adder:{bits}", "--format", fmt],
                _verify_check(net, bits, flip, fmt), full_output)

    for fmt in ("text", "json"):
        net, bits, flip, path = nets[rng.choice(tuple(nets))]
        add("tt", ["tt", path, "--format", fmt], _tt_check(net, bits, flip, fmt), full_output)

    net, bits, flip, path = nets[rng.choice(tuple(nets))]
    vector = {name: rng.getrandbits(1) for name in net.free_inputs}
    outs = oracles.adder_outputs(vector, bits)
    if flip:
        outs[flip] ^= 1
    setting = ",".join(f"{k}={v}" for k, v in vector.items())
    want_text = " ".join(f"{o.name}={outs[o.name]}" for o in net.outputs) + "\n"
    add("eval", ["eval", path, "--set", setting, "--format", "text"],
        _expect(0, lambda out: out == want_text), full_output)
    add("eval", ["eval", path, "--set", setting, "--format", "json"],
        _expect(0, lambda out: json.loads(out) == {"outputs": outs}), full_output)

    net, bits, flip, path = nets[rng.choice(tuple(nets))]
    fields = oracles.cost_fields(net, 15 * bits)
    want_line = (
        f"gates={fields['gates']} fanin_sum={fields['fanin_sum']} "
        f"max_fanout={fields['max_fanout']} depth={fields['depth']} "
        f"inverted_outputs={fields['inverted_outputs']} baseline={fields['baseline']} "
        f"reduction={fields['reduction_percent']}% (≈{fields['reduction_percent_rounded']}%)\n"
    )
    add("report", ["report", path, "--baseline", str(15 * bits), "--format", "text"],
        _expect(0, lambda out: out == want_line), full_output)
    add("report", ["report", path, "--baseline", str(15 * bits), "--format", "json"],
        _expect(0, lambda out: json.loads(out) == fields), full_output)

    bits, weights = wl_synth.threshold_table(3, rng)
    tt = f"3:0x{bits:x}"
    for fmt in ("text", "json"):
        for minimize in (False, True):
            args = ["solve", "--tt", tt, "--format", fmt] + (["--minimize"] if minimize else [])
            canon = full_output if minimize else _exit_code_only
            add("solve", args, _solve_check(bits, weights, minimize, fmt), canon)
    bits, _ = wl_synth.non_unate_table(3, rng)
    tt = f"3:0x{bits:x}"
    for fmt, extra in (("text", []), ("json", []), ("text", ["--minimize"])):
        add("solve", ["solve", "--tt", tt, "--format", fmt, *extra],
            _not_threshold_check(fmt), _exit_code_only)
    return ops


def _exit_code_only(p) -> dict:
    # LP weights and constraint counts may legitimately change
    return {"verdict": p.returncode}


def _expect(code: int, ok):
    def check(p) -> str | None:
        if p.returncode != code:
            return f"exit {p.returncode}, want {code}: {p.stderr.strip()[-200:]}"
        try:
            good = ok(p.stdout)
        except (ValueError, KeyError) as exc:
            return f"unreadable output {p.stdout[:200]!r}: {exc}"
        return None if good else f"unexpected output {p.stdout[:200]!r}"

    return check


def _verify_check(net, bits: int, flip, fmt: str):
    rows = 1 << len(net.free_inputs)

    def ok(out: str) -> bool:
        if fmt == "json":
            doc = json.loads(out)
            summary = (doc["equivalent"], doc["mode"], doc["vectors_checked"])
            if summary != (flip is None, "exhaustive", rows):
                return False
            if flip is None:
                return True
            cx = doc["counterexample"]
            assignment, output, got, want = cx["assignment"], cx["output"], cx["got"], cx["want"]
        else:
            lines = out.splitlines()
            how = f"({rows}/{rows} rows exhaustive)"
            if flip is None:
                return lines == [f"EQUIVALENT {how}"]
            if len(lines) != 2 or lines[0] != f"NOT EQUIVALENT {how}":
                return False
            head, _, tail = lines[1].partition(" -> ")
            pairs = head.removeprefix("counterexample: ").split(",")
            assignment = {k: int(v) for k, v in (kv.split("=") for kv in pairs)}
            output, _, rest = tail.partition(" got ")
            got, _, want = rest.partition(", want ")
            got, want = int(got), int(want)
        if output != flip:
            return False
        reproduced = net.evaluate(assignment)[output] == got
        return reproduced and oracles.adder_outputs(assignment, bits)[output] == want != got

    return _expect(0 if flip is None else 1, ok)


def _tt_check(net, bits: int, flip, fmt: str):
    def ok(out: str) -> bool:
        # the expected tables are built here, after the round, so that
        # set-up time covers only input generation
        order = list(net.free_inputs)
        n = len(order)
        tables = {}
        for o in net.outputs:
            value = oracles.adder_table(bits, order, o.name)
            if o.name == flip:
                value ^= (1 << (1 << n)) - 1
            tables[o.name] = f"{n}:0x{value:x}"
        if fmt == "json":
            return json.loads(out) == {"tables": tables}
        return out.splitlines() == [f"{name} = {v}" for name, v in tables.items()]

    return _expect(0, ok)


def _solve_check(bits: int, gen_weights, minimize: bool, fmt: str):
    def ok(out: str) -> bool:
        if fmt == "json":
            doc = json.loads(out)
            weights, t, minimal = tuple(doc["weights"]), doc["T"], doc["minimal"]
        else:
            words = dict(w.split("=") for w in out.split()[1:])
            weights = tuple(int(w) for w in words["weights"].split(","))
            t, minimal = int(words["T"]), words["minimal"] == "yes"
        if oracles.threshold_bits(weights, t) != bits or minimal != minimize:
            return False
        if not minimize:
            return True
        total = sum(map(abs, weights))
        return total == oracles.min_weight_sum(3, bits) <= sum(map(abs, gen_weights))

    return _expect(0, ok)


def _not_threshold_check(fmt: str):
    def ok(out: str) -> bool:
        if fmt == "json":
            return json.loads(out)["threshold"] is False
        return out == "NOT THRESHOLD\n"

    return _expect(1, ok)
