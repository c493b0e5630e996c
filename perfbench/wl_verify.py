"""verify: adders from .dwtl text, checked exhaustively (6-8 bits) or on
10^5 sampled vectors (32 and 64 bits), in minority, weighted and NAND styles.

Each round holds, per style, three 32-bit and four 64-bit sampled checks,
one 6-bit and two 7-bit exhaustive checks, plus one 8-bit exhaustive check
in a seeded style: 31 ops. Sorted by latency, the 64-bit minority and
weighted checks overlap the 32-bit NAND checks, and op_s.p50 falls in the
middle of that band; op_s.p90 falls inside the 7-bit class. Neither lands
on a gap between classes. The seed picks the input declaration order, the
op order, which quarter of the netlists have one output's inversion
toggled, and the sampling seeds; none of these changes the work done.
"""

from __future__ import annotations

import random

import oracles
from harness import Op, Tracer

STYLES = ("minority", "weighted", "nand")
OP_CLASSES = ("exhaustive", "sampled")


def setup(mods, seed: int, tr, workdir) -> list[Op]:
    rng = random.Random(seed)
    builders = {
        "minority": mods.constructions.minority_adder,
        "weighted": mods.constructions.ripple_adder,
        "nand": mods.constructions.nand_adder,
    }
    plan = []
    for style in STYLES:
        plan += [("sampled", 32, style)] * 3 + [("sampled", 64, style)] * 4
        plan += [("exhaustive", 6, style)] + [("exhaustive", 7, style)] * 2
    plan.append(("exhaustive", 8, rng.choice(STYLES)))
    rng.shuffle(plan)
    toggled = set(rng.sample(range(len(plan)), len(plan) // 4))

    ops = []
    for k, (mode, bits, style) in enumerate(plan):
        with tr.span("constructions.generate"):
            net = builders[style](bits)
        inputs = list(net.inputs)
        rng.shuffle(inputs)
        outputs = list(net.outputs)
        flip = None
        if k in toggled:
            i = rng.randrange(len(outputs))
            o = outputs[i]
            outputs[i] = type(o)(o.name, o.ref, not o.invert)
            flip = o.name
        net = type(net)(tuple(inputs), net.gates, tuple(outputs))
        with tr.span("textio.print_netlist"):
            text = mods.textio.print_netlist(net)
        ops.append(_make_op(mods, mode, bits, text, flip, rng.getrandbits(32)))
    return ops


def _make_op(mods, mode: str, bits: int, text: str, flip, sample_seed: int) -> Op:
    parse = mods.textio.parse_netlist
    C = mods.constructions
    N = mods.netlist
    n_vectors = N.DEFAULT_SAMPLE_VECTORS

    def run():
        net = parse(text)
        if mode == "exhaustive":
            return net, N.check_equivalence(net, C.adder_spec_tables(bits, net.free_inputs))
        return net, N.check_equivalence_sampled(
            net, C.adder_reference_patterns(bits), seed=sample_seed
        )

    def traced(tr: Tracer):
        with tr.span("textio.parse_netlist"):
            net = parse(text)
        names = net.free_inputs
        n = len(names)
        if mode == "exhaustive":
            width = 1 << n
            with tr.span("constructions.adder_spec_tables", rows=width):
                spec = C.adder_spec_tables(bits, names)
            patterns = {}
            for j, name in enumerate(names):
                with tr.span("table.input_pattern"):
                    patterns[name] = mods.table.input_pattern(j, n)
        else:
            # the same vectors check_equivalence_sampled draws: seeded random
            # bits, then all-zeros, all-ones and each single-hot input
            sampler = random.Random(sample_seed)
            width = n_vectors + 2 + n
            patterns = {}
            for j, name in enumerate(names):
                p = sampler.getrandbits(n_vectors)
                patterns[name] = p | 1 << (n_vectors + 1) | 1 << (n_vectors + 2 + j)
        for gdef in net.gates:
            with tr.span("gates.truth_table"):
                gdef.gate.truth_table()
        with tr.span("netlist.evaluate_patterns", gate_vectors=len(net.gates) * width):
            got = net.evaluate_patterns(patterns, width)
        if mode == "exhaustive":
            want = {name: tt.bits for name, tt in spec.items()}
        else:
            reference = C.adder_reference_patterns(bits)
            with tr.span("constructions.reference", vectors=width):
                want = reference(patterns, width)
        with tr.span("netlist.compare"):
            best = None
            for o in net.outputs:
                diff = got[o.name] ^ want[o.name]
                if diff:
                    idx = (diff & -diff).bit_length() - 1
                    if best is None or idx < best[0]:
                        best = (idx, o.name)
        kind = "exhaustive" if mode == "exhaustive" else "random"
        seed = None if mode == "exhaustive" else sample_seed
        if best is None:
            return net, N.EquivalenceResult(True, kind, width, seed=seed)
        idx, name = best
        assignment = {inp: (patterns[inp] >> idx) & 1 for inp in names}
        cx = N.Counterexample(assignment, name, (got[name] >> idx) & 1, (want[name] >> idx) & 1)
        return net, N.EquivalenceResult(False, kind, width, cx, seed=seed)

    def check(result) -> str | None:
        net, res = result
        n = len(net.free_inputs)
        vectors = 1 << n if mode == "exhaustive" else n_vectors + 2 + n
        if res.vectors_checked != vectors:
            return f"vectors_checked {res.vectors_checked}, want {vectors}"
        if flip is None:
            return None if res.equivalent else "clean netlist reported NOT EQUIVALENT"
        if res.equivalent:
            return "toggled netlist reported EQUIVALENT"
        cx = res.counterexample
        if cx.output != flip:
            return f"counterexample on {cx.output}, toggled output is {flip}"
        got = net.evaluate(cx.assignment)[cx.output]
        want = oracles.adder_outputs(cx.assignment, bits)[cx.output]
        if (got, want) != (cx.got, cx.want) or got == want:
            return (
                f"counterexample does not reproduce: got {got} want {want},"
                f" reported {cx.got}/{cx.want}"
            )
        return None

    def canon(result) -> dict:
        net, res = result
        rec = {
            "verdict": "EQUIVALENT" if res.equivalent else "NOT EQUIVALENT",
            "vectors": res.vectors_checked,
        }
        if res.counterexample is not None:
            cx = res.counterexample
            rec["counterexample"] = [sorted(cx.assignment.items()), cx.output, cx.got, cx.want]
        return rec

    return Op(mode, run, traced, check, canon)
