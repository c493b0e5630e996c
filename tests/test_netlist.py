import random
import tracemalloc

import pytest
from fractions import Fraction

import dwtl.gates

from dwtl import (
    GateDef,
    Netlist,
    NetlistError,
    OutputDef,
    ParseError,
    SpinMinorityGate,
    TieError,
    TruthTable,
    check_equivalence,
    check_equivalence_sampled,
    cost_report,
    parse_netlist,
)
from dwtl.constructions import (
    adder_reference_patterns,
    adder_spec_tables,
    minority_adder,
    nand_adder,
    ripple_adder,
)
from tests_util import complement, random_valid_netlist, spin_eval

MIN3 = SpinMinorityGate((-1, -1, -1))


def single_gate_net(gate, n_inputs):
    names = tuple(f"x{i}" for i in range(n_inputs))
    return Netlist(
        inputs=names,
        gates=(GateDef("g", gate, names),),
        outputs=(OutputDef("y", "g"),),
    )


def test_adder_validates():
    # the check runs at first use, passes, and is kept for every later use
    net = minority_adder(1)
    assert net.evaluate({"a0": 1, "b0": 1, "cin": 0}) == {"sum0": 0, "cout": 1}
    assert "_plan" in vars(net)
    assert net.truth_tables()["cout"].bits == 0xE8
    assert cost_report(net, 15).gate_count == 3


def test_forward_reference_reported():
    net = Netlist(
        inputs=("a", "b", "c"),
        gates=(
            GateDef("g1", MIN3, ("a", "b", "g2")),
            GateDef("g2", MIN3, ("a", "b", "c")),
        ),
        outputs=(OutputDef("y", "g1"),),
    )
    with pytest.raises(NetlistError, match="gate 'g1': forward reference 'g2'"):
        net.truth_tables()
    with pytest.raises(NetlistError, match="gate 'g1'.*'g2'"):
        net.evaluate({"a": 0, "b": 0, "c": 0})
    dangling = Netlist(net.inputs, net.gates[1:], (OutputDef("y", "zzz"),))
    with pytest.raises(NetlistError, match="output 'y'.*'zzz'"):
        dangling.truth_tables()


def test_tie_prone_gate_reported():
    # a gate that can tie raises when it is built, before a netlist holds it,
    # so no netlist check looks for ties: an even-sum gate that cannot tie
    # (every partial sum of (-2, -2, -2) is even, half of 6 is odd) just works
    with pytest.raises(TieError, match=r"^tie at assignment \(1, 0\)$") as exc:
        SpinMinorityGate((-1, -1))
    assert exc.value.assignment == (1, 0)
    net = single_gate_net(SpinMinorityGate((-2, -2, -2)), 3)
    assert net.truth_tables()["y"] == MIN3.truth_table()
    assert cost_report(net, 2).gate_count == 1


def test_duplicate_and_dangling():
    # one netlist per violation, each raised at first use
    g = GateDef("g", MIN3, ("a", "b", "c"))
    y = (OutputDef("y", "g"),)
    cases = [
        (Netlist(("a", "a"), (GateDef("g", MIN3, ("a", "a", "a")),), y),
         "duplicate name 'a'"),
        (Netlist(("a", "b", "c"), (GateDef("g", MIN3, ("a", "b", "zzz")),), y),
         "gate 'g': unknown reference 'zzz'"),
        (Netlist(("a", "b", "c"), (g, GateDef("g", MIN3, ("a", "b", "g"))), y),
         "duplicate name 'g'"),
        (Netlist(("a", "b", "c"), (g,), ()), "netlist has no outputs"),
        (Netlist(("a", "b", "c"), (g,), y + (OutputDef("y", "a"),)),
         "duplicate output name 'y'"),
        (Netlist(("a", "b", "c"), (g,), (OutputDef("y", "zzz"),)),
         "output 'y': unknown reference 'zzz'"),
    ]
    for net, message in cases:
        with pytest.raises(NetlistError, match=message):
            net.truth_tables()


def test_first_violation_in_declaration_order():
    # inputs, then gates, then outputs: the earliest broken rule is reported
    net = Netlist(
        inputs=("a", "b", "b"),
        gates=(GateDef("g", MIN3, ("a", "zzz")),),
        outputs=(OutputDef("y", "nope"), OutputDef("y", "g")),
    )
    with pytest.raises(NetlistError, match="duplicate name 'b'"):
        net.truth_tables()
    net = Netlist(("a", "b"), net.gates, net.outputs)
    with pytest.raises(NetlistError, match="gate 'g': 2 refs for fan-in 3"):
        net.truth_tables()
    net = Netlist(("a", "b"), (), net.outputs)
    with pytest.raises(NetlistError, match="output 'y': unknown reference 'nope'"):
        net.truth_tables()


def test_names_the_text_format_cannot_write_refused():
    # print_netlist would write `input a b`, which parse_netlist refuses; the
    # first bad name raises, inputs before gates before outputs
    g = GateDef("g", MIN3, ("a", "b", "c"))
    bad_gate = GateDef("g\u00e9", MIN3, ("a", "b", "c"))
    y = (OutputDef("y", "g"),)
    cases = [
        (Netlist(("a", "b c", "c"), (bad_gate,), (OutputDef("y z", "g"),)), "b c"),
        (Netlist(("a", "b", "c"), (bad_gate,), (OutputDef("y z", "g\u00e9"),)), "g\u00e9"),
        (Netlist(("a", "b", "c"), (g,), y + (OutputDef("y z", "g"),)), "y z"),
        (Netlist(("a", "b", "c"), (g,), (OutputDef("", "g"),)), ""),
    ]
    for net, name in cases:
        for use in (net.truth_tables, lambda: cost_report(net, 3)):
            with pytest.raises(NetlistError, match=f"^invalid name '{name}'$"):
                use()
    net = Netlist(("a b", "c", "d"), (GateDef("g", MIN3, ("a b", "c", "d")),), y)
    with pytest.raises(NetlistError, match="^invalid name 'a b'$"):
        net.evaluate({"a b": 1, "c": 0, "d": 1})


def test_duplicate_output_names_refused_by_equivalence_checks():
    # y = minority and y = !minority once collapsed into one dict key, so
    # the majority spec compared only the second and passed
    net = Netlist(
        inputs=("a", "b", "c"),
        gates=(GateDef("g", MIN3, ("a", "b", "c")),),
        outputs=(OutputDef("y", "g"), OutputDef("y", "g", invert=True)),
    )
    majority = complement(MIN3.truth_table())
    with pytest.raises(NetlistError, match="duplicate output name 'y'"):
        check_equivalence(net, {"y": majority})

    def reference(patterns, width):
        a, b, c = (patterns[name] for name in "abc")
        return {"y": (a & b) | (a & c) | (b & c)}

    with pytest.raises(NetlistError, match="duplicate output name 'y'"):
        check_equivalence_sampled(net, reference, seed=1, num_vectors=20)


def test_cost_report_unknown_reference_raises_netlist_error():
    net = Netlist(
        inputs=("a", "b"),
        gates=(GateDef("g", MIN3, ("a", "b", "zzz")),),
        outputs=(OutputDef("y", "g"),),
    )
    with pytest.raises(NetlistError, match="gate 'g': unknown reference 'zzz'"):
        cost_report(net, 3)


def test_gate_reusing_an_input_name_refused():
    net = Netlist(
        inputs=("a", "b", "c"),
        gates=(GateDef("b", MIN3, ("a", "b", "c")),),
        outputs=(OutputDef("y", "b"),),
    )
    with pytest.raises(NetlistError, match="duplicate name 'b'"):
        net.evaluate({"a": 0, "b": 1, "c": 1})
    with pytest.raises(NetlistError, match="duplicate name 'b'"):
        net.truth_tables()
    with pytest.raises(NetlistError, match="duplicate name 'b'"):
        cost_report(net, 3)


def _rowwise_tables(net):
    """Per-output tables, one row at a time through the ``spin_eval`` oracle."""
    names = net.free_inputs
    bits = {o.name: 0 for o in net.outputs}
    for row in range(1 << len(names)):
        values = {name: (row >> j) & 1 for j, name in enumerate(names)}
        for gdef in net.gates:
            values[gdef.name] = spin_eval(
                gdef.gate.weights, [values[r] for r in gdef.refs]
            )
        for o in net.outputs:
            bits[o.name] |= (values[o.ref] ^ o.invert) << row
    return {name: TruthTable(len(names), b) for name, b in bits.items()}


def test_mutated_random_netlists_raise():
    rng = random.Random(12)
    for _ in range(300):
        net = random_valid_netlist(rng)
        assert net.truth_tables() == _rowwise_tables(net)
        gates, outputs = list(net.gates), list(net.outputs)
        mutation = rng.choice(("rename", "output", "drop") if gates else ("output",))
        if mutation == "output":
            twin = rng.choice(outputs)
            outputs.append(OutputDef(twin.name, net.inputs[0]))
            message = f"duplicate output name '{twin.name}'"
        else:
            k = rng.randrange(len(gates))
            gdef = gates[k]
            if mutation == "rename":
                earlier = rng.choice(net.inputs + tuple(g.name for g in gates[:k]))
                gates[k] = GateDef(earlier, gdef.gate, gdef.refs)
                message = f"duplicate name '{earlier}'"
            else:
                gates[k] = GateDef(gdef.name, gdef.gate, gdef.refs[1:])
                message = f"gate '{gdef.name}': {gdef.gate.fan_in - 1} refs for fan-in"
        bad = Netlist(net.inputs, tuple(gates), tuple(outputs))
        with pytest.raises(NetlistError, match=message):
            bad.truth_tables()
        with pytest.raises(NetlistError, match=message):
            cost_report(bad, 10)


def test_evaluate_adder_vectors():
    fa = minority_adder(1)
    assert fa.evaluate({"a0": 1, "b0": 0, "cin": 1}) == {"sum0": 0, "cout": 1}
    assert fa.evaluate({"a0": 0, "b0": 0, "cin": 0}) == {"sum0": 0, "cout": 0}


def test_evaluate_ripple_three_bits():
    net = ripple_adder(3)
    # 7 + 1 + 0 = 8
    x = {"a0": 1, "a1": 1, "a2": 1, "b0": 1, "b1": 0, "b2": 0, "cin": 0}
    out = net.evaluate(x)
    assert (out["sum0"], out["sum1"], out["sum2"], out["cout"]) == (0, 0, 0, 1)


def test_evaluate_missing_input():
    with pytest.raises(NetlistError, match="missing value for input 'b0'"):
        minority_adder(1).evaluate({"a0": 1})


def test_evaluate_patterns_names_a_missing_input():
    with pytest.raises(NetlistError, match="missing value for input 'b0'"):
        minority_adder(1).evaluate_patterns({"a0": 1}, 1)
    with pytest.raises(NetlistError, match="missing value for input 'cin'"):
        minority_adder(1).evaluate_patterns({"a0": 0b01, "b0": 0b10}, 2)


def test_evaluate_refuses_unknown_inputs():
    fa = minority_adder(1)
    with pytest.raises(NetlistError, match=r"^unknown inputs: \['zz'\]$"):
        fa.evaluate({"a0": 1, "b0": 1, "cin": 0, "zz": 1})
    # the pinned constant is not a free input; the names come sorted
    with pytest.raises(NetlistError, match=r"^unknown inputs: \['one', 'zz'\]$"):
        fa.evaluate_patterns({"zz": 1, "a0": 0b01, "b0": 0b10, "cin": 0, "one": 3}, 2)
    # checked before a missing input
    with pytest.raises(NetlistError, match=r"^unknown inputs: \['b1'\]$"):
        fa.evaluate_patterns({"a0": 1, "b1": 1}, 1)


@pytest.mark.parametrize("value", [2, 3, -1])
def test_evaluate_refuses_values_other_than_0_and_1(value):
    fa = minority_adder(1)
    with pytest.raises(NetlistError, match="input 'b0' must be 0 or 1"):
        fa.evaluate({"a0": 1, "b0": value, "cin": 0})
    assert fa.evaluate({"a0": True, "b0": 0, "cin": 1}) == {"sum0": 0, "cout": 1}


def test_evaluate_tie_names_gate():
    # a gate built in code has no name yet; the parser names the one it builds
    tie = r"^line 3, col 6: gate 'gx': tie at assignment \(1, 0\)$"
    with pytest.raises(ParseError, match=tie):
        parse_netlist("input a\ninput b\ngate gx w=-1:a w=-1:b\noutput y = gx\n")


def test_evaluate_refuses_tie_prone_gate_off_the_tie():
    # wired to (a, a) the spin sum is never zero, but the gate can tie
    tie = r"^line 2, col 6: gate 'gx': tie at assignment \(1, 0\)$"
    with pytest.raises(ParseError, match=tie):
        parse_netlist("input a\ngate gx w=-1:a w=-1:a\noutput y = gx\n")


def test_ref_count_mismatch_names_gate():
    net = Netlist(
        inputs=("a", "b", "c"),
        gates=(GateDef("g1", MIN3, ("a", "b")),),
        outputs=(OutputDef("y", "g1"),),
    )
    with pytest.raises(NetlistError, match="gate 'g1': 2 refs for fan-in 3"):
        net.evaluate({"a": 0, "b": 0, "c": 0})
    with pytest.raises(NetlistError, match="gate 'g1': 2 refs for fan-in 3"):
        net.truth_tables()


def test_packed_evaluation_matches_gate_eval():
    # the bit-sliced weighted sum against a per-vector spin sum
    rng = random.Random(11)
    magnitudes = [1, 2, 3, 5, 8, 1 << 40]
    checked = 0
    while checked < 100:
        n = rng.randint(1, 6)
        try:
            gate = SpinMinorityGate(
                tuple(rng.choice((-1, 1)) * rng.choice(magnitudes) for _ in range(n))
            )
        except TieError:
            continue
        net = single_gate_net(gate, n)
        patterns = {name: rng.getrandbits(64) for name in net.inputs}
        got = net.evaluate_patterns(patterns, 64)["y"]
        for v in range(64):
            x = [(patterns[name] >> v) & 1 for name in net.inputs]
            assert (got >> v) & 1 == spin_eval(gate.weights, x)
        checked += 1


def test_evaluate_wide_gate_without_its_table():
    # 2^24 rows would take minutes to tabulate; one vector needs only the sum
    gate = SpinMinorityGate((-1,) * 23 + (2,))
    net = single_gate_net(gate, 24)
    for ones in (0, 12, 13, 24):
        x = {name: int(j < ones) for j, name in enumerate(net.inputs)}
        assert net.evaluate(x) == {"y": spin_eval(gate.weights, list(x.values()))}


def test_wide_even_weight_gate_checked_without_row_list():
    # sum|w| = 48 is even, so only the full tie check shows the gate is
    # tie-free (the sum of |w_j| y_j is at most 23 or at least 25, never 24)
    gate = SpinMinorityGate((-1,) * 23 + (25,))
    text = "".join(f"input x{j}\n" for j in range(24))
    text += "gate g " + " ".join(f"w={w}:x{j}" for j, w in enumerate(gate.weights))
    text += "\noutput y = g\n"
    net = parse_netlist(text)
    x = {f"x{j}": j % 2 for j in range(24)}
    assert net.evaluate(x) == {"y": spin_eval(gate.weights, list(x.values()))}
    # 24 unit weights tie on C(24, 12) = 2.7 M rows; only the lowest is decoded
    tracemalloc.start()
    try:
        with pytest.raises(TieError) as exc:
            SpinMinorityGate((1,) * 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.assignment == (1,) * 12 + (0,) * 12
    # 24 input patterns of 2 MB each, plus the digits of the sum
    assert peak < 200_000_000


def test_tie_check_sweeps_each_gate_once(monkeypatch):
    sweeps = []
    all_rows = dwtl.gates._all_rows
    monkeypatch.setattr(
        dwtl.gates, "_all_rows", lambda n: sweeps.append(n) or all_rows(n)
    )
    # sum|w| = 8 is even for both gates, so building each sweeps every row
    net = parse_netlist(
        "input a\ninput b\ninput c\ninput d\n"
        "gate g w=1:a w=1:b w=1:c w=5:d\n"
        "gate h w=-1:a w=-1:b w=-1:c w=5:g\n"
        "output y = h\n"
    )
    assert sweeps == [4, 4]
    x = {"a": 1, "b": 0, "c": 1, "d": 0}
    assert net.evaluate(x) == net.evaluate(x) == {"y": 0}
    assert (net.truth_tables()["y"].bits >> 5) & 1 == 0
    assert cost_report(net, 2).depth == 2
    assert sweeps == [4, 4]
    # built in code, with new gate objects: swept when built, never at use
    fresh = tuple(
        GateDef(g.name, SpinMinorityGate(g.gate.weights), g.refs) for g in net.gates
    )
    assert sweeps == [4, 4, 4, 4]
    built = Netlist(net.inputs, fresh, net.outputs)
    assert built.evaluate(x) == {"y": 0}
    assert built.truth_tables() == net.truth_tables()
    assert cost_report(built, 2) == cost_report(net, 2)
    assert sweeps == [4, 4, 4, 4]


def test_signal_release_keeps_outputs():
    # outputs read primary inputs and a gate that later gates also read;
    # g reads a twice; the three min gates share one parsed gate object
    net = parse_netlist(
        "input a\ninput b\ninput c\n"
        "gate g min a a b\ngate h min g b c\ngate k min g h a\n"
        "gate m w=1:k w=-1:g w=1:c\n"
        "output pa = a\noutput pc = !c\noutput pg = !g\noutput pm = m\n"
    )
    assert net.gates[0].gate is net.gates[1].gate is net.gates[2].gate
    patterns = {"a": 0xF0, "b": 0xCC, "c": 0xAA}
    want = {}
    for v in range(8):
        x = {name: (p >> v) & 1 for name, p in patterns.items()}
        g = spin_eval(MIN3.weights, (x["a"], x["a"], x["b"]))
        h = spin_eval(MIN3.weights, (g, x["b"], x["c"]))
        k = spin_eval(MIN3.weights, (g, h, x["a"]))
        m = spin_eval(net.gates[3].gate.weights, (k, g, x["c"]))
        for name, bit in (("pa", x["a"]), ("pc", 1 - x["c"]), ("pg", 1 - g), ("pm", m)):
            want[name] = want.get(name, 0) | bit << v
    # the second call reuses the last readers found by the first
    assert net.evaluate_patterns(patterns, 8) == want
    assert net.evaluate_patterns(patterns, 8) == want
    # a pattern of -1 or one wider than ``width`` is masked to ``width``
    wide = {"a": -1, "b": 0xCC | 1 << 70, "c": 0xAA | 0xF00}
    assert net.evaluate_patterns(wide, 8)["pa"] == 0xFF
    assert net.evaluate_patterns(wide, 8)["pc"] == 0x55
    assert net.evaluate_patterns(wide, 8) == net.evaluate_patterns(
        {"a": 0xFF, "b": 0xCC, "c": 0xAA}, 8
    )


def test_evaluation_holds_only_live_signals():
    # a ripple adder's live frontier is a few signals; keeping all 576 gates
    # of the 64-bit NAND adder at 10^5 vectors would hold about 7 MB
    net = nand_adder(64)
    rng = random.Random(3)
    width = 100_000
    patterns = {name: rng.getrandbits(width) for name in net.free_inputs}
    tracemalloc.start()
    try:
        net.evaluate_patterns(patterns, width)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 65 outputs alone are about 0.8 MB
    assert peak < 2_000_000


def test_truth_tables_adder():
    tts = minority_adder(1).truth_tables()
    assert tts["sum0"].bits == 0x96
    assert tts["cout"].bits == 0xE8


def test_truth_tables_single_gate():
    net = single_gate_net(MIN3, 3)
    assert net.truth_tables()["y"] == MIN3.truth_table()


def test_truth_tables_passthrough():
    net = Netlist(
        inputs=("x0",), gates=(), outputs=(OutputDef("y", "x0"),)
    )
    assert net.truth_tables()["y"].bits == 0b10
    pinned = Netlist(inputs=("one",), gates=(), outputs=(OutputDef("y", "one"),))
    with pytest.raises(NetlistError, match="^netlist has no free inputs$"):
        pinned.truth_tables()


def test_pinned_one_gates_match_a_scalar_sum():
    # gates that read ``one`` twice, only ``one``, or ``one`` at weights +/-2
    # and +/-3, and gates that read a constant gate, against spin_eval with
    # one = 1: the kernel folds each constant source into its bound
    gates = (
        ("twice", (1, -1, 1, 1, -1), ("a", "one", "b", "one", "c")),
        ("only0", (1, -2), ("one", "one")),
        ("only1", (3,), ("one",)),
        ("p2", (2, -1, -1, 1), ("one", "a", "b", "only0")),
        ("m2", (-2, 1, 1, 1), ("one", "a", "b", "c")),
        ("p3", (3, -1, -1, -1, -1), ("one", "a", "b", "c", "p2")),
        ("m3", (1, -3, 1, 1, 1), ("only1", "one", "a", "m2", "c")),
        ("reads0", (1, 1, 1), ("only0", "a", "b")),
    )
    net = Netlist(
        inputs=("a", "one", "b", "c"),
        gates=tuple(GateDef(n, SpinMinorityGate(w), refs) for n, w, refs in gates),
        outputs=tuple(OutputDef(f"y_{n}", n) for n, _, _ in gates),
    )
    tables = net.truth_tables()
    for row in range(8):
        x = {"a": row & 1, "b": row >> 1 & 1, "c": row >> 2 & 1}
        values = {**x, "one": 1}
        for name, weights, refs in gates:
            values[name] = spin_eval(weights, [values[r] for r in refs])
        want = {f"y_{n}": values[n] for n, _, _ in gates}
        assert {o: t.bits >> row & 1 for o, t in tables.items()} == want, x
        assert net.evaluate(x) == want, x
    assert (tables["y_only0"].bits, tables["y_only1"].bits) == (0, 0xFF)
    assert tables["y_p2"].bits == 0x77 and tables["y_m2"].bits == 0x80


def test_output_invert_complements_table():
    net = single_gate_net(MIN3, 3)
    flipped = Netlist(net.inputs, net.gates, (OutputDef("y", "g", invert=True),))
    assert flipped.truth_tables()["y"] == complement(net.truth_tables()["y"])


def test_equivalence_adder_spec():
    res = check_equivalence(minority_adder(1), adder_spec_tables(1))
    assert res.equivalent and res.mode == "exhaustive" and res.vectors_checked == 8


def test_equivalence_swapped_spec_counterexample():
    spec = adder_spec_tables(1)
    swapped = {"sum0": spec["cout"], "cout": spec["sum0"]}
    res = check_equivalence(minority_adder(1), swapped)
    assert not res.equivalent
    # first disagreeing row: index 1 (a0=1, b0=0, cin=0), XOR=1 vs MAJ=0
    assert res.counterexample.assignment == {"a0": 1, "b0": 0, "cin": 0}


def test_equivalence_reflexive():
    net = ripple_adder(2)
    assert check_equivalence(net, net.truth_tables()).equivalent


def test_equivalence_name_mismatch():
    fa = minority_adder(1)
    with pytest.raises(NetlistError):
        check_equivalence(fa, {"nope": TruthTable(3, 0)})
    narrow = {"sum0": TruthTable(2, 0b0110), "cout": TruthTable(3, 0xE8)}
    with pytest.raises(
        NetlistError, match="^spec table for 'sum0' has 2 inputs, netlist has 3$"
    ):
        check_equivalence(fa, narrow)
    with pytest.raises(
        NetlistError, match="^reference output names do not match netlist outputs$"
    ):
        check_equivalence_sampled(fa, lambda patterns, width: {"sum0": 0}, num_vectors=4)


def test_truth_tables_match_pointwise_evaluate():
    rng = random.Random(3)
    net = ripple_adder(2)
    tts = net.truth_tables()
    names = net.free_inputs
    for _ in range(64):
        row = rng.randrange(1 << len(names))
        x = {name: (row >> j) & 1 for j, name in enumerate(names)}
        out = net.evaluate(x)
        for o, v in out.items():
            assert (tts[o].bits >> row) & 1 == v


def test_sampled_equivalence_clean():
    net = ripple_adder(4)
    res = check_equivalence_sampled(
        net, adder_reference_patterns(4), seed=1, num_vectors=2000
    )
    assert res.equivalent and res.mode == "random"
    assert res.vectors_checked == 2000 + 2 + 9


def test_sampled_equivalence_detects_break():
    net = ripple_adder(4)
    # corrupt: invert flag on sum2
    outs = tuple(
        OutputDef(o.name, o.ref, not o.invert if o.name == "sum2" else o.invert)
        for o in net.outputs
    )
    bad = Netlist(net.inputs, net.gates, outs)
    res = check_equivalence_sampled(
        bad, adder_reference_patterns(4), seed=1, num_vectors=2000
    )
    assert not res.equivalent
    assert res.counterexample.output == "sum2"


def test_sampled_vectors_are_seeded_bits_then_corners():
    # bit v < 50 of input j is the seed's stream; then all-zeros (bit 50),
    # all-ones (bit 51) and single-hot j (bit 52 + j)
    seen = {}
    oracle = adder_reference_patterns(2)

    def reference(patterns, width):
        seen.update(patterns)
        return oracle(patterns, width)

    net = ripple_adder(2)
    assert check_equivalence_sampled(net, reference, seed=3, num_vectors=50)
    rng = random.Random(3)
    assert list(seen) == list(net.free_inputs)
    for j, name in enumerate(net.free_inputs):
        assert seen[name] == rng.getrandbits(50) | (0b10 | 1 << (j + 2)) << 50


def test_sampled_equivalence_refuses_negative_vector_count():
    with pytest.raises(NetlistError, match="got -1"):
        check_equivalence_sampled(
            ripple_adder(4), adder_reference_patterns(4), num_vectors=-1
        )


def test_sampled_equivalence_refuses_a_count_past_the_ceiling():
    # each input would draw num_vectors bits: the count is refused before any draw
    from dwtl.table import MAX_SAMPLE_VECTORS

    assert MAX_SAMPLE_VECTORS == 1 << 24
    with pytest.raises(NetlistError, match=f"at most {1 << 24}, got {10**10}$"):
        check_equivalence_sampled(
            nand_adder(64), adder_reference_patterns(64), num_vectors=10**10
        )
    with pytest.raises(NetlistError, match=f"got {(1 << 24) + 1}$"):
        check_equivalence_sampled(
            ripple_adder(4), adder_reference_patterns(4), num_vectors=(1 << 24) + 1
        )


def test_sampled_equivalence_refuses_negative_seed():
    # random.Random(-5) would draw the vectors of Random(5)
    with pytest.raises(NetlistError, match="seed must be non-negative, got -5"):
        check_equivalence_sampled(
            ripple_adder(4), adder_reference_patterns(4), seed=-5, num_vectors=10
        )
    assert check_equivalence_sampled(
        ripple_adder(4), adder_reference_patterns(4), seed=0, num_vectors=10
    )


def test_cost_report_fig1():
    rep = cost_report(minority_adder(1), 15)
    assert rep.gate_count == 3
    assert rep.reduction_percent == Fraction(80)
    assert rep.reduction_one_decimal() == "80.0"
    assert rep.reduction_rounded() == 80
    assert rep.depth == 3
    assert rep.fanin_sum == 9
    assert rep.max_fanout == 3
    assert rep.inverted_outputs == 2


def test_cost_report_fig2b():
    rep = cost_report(ripple_adder(3), 45)
    assert rep.gate_count == 6
    assert rep.reduction_percent == Fraction(100) * Fraction(39, 45)
    assert rep.reduction_one_decimal() == "86.7"
    assert rep.reduction_rounded() == 87


def test_cost_report_zero_reduction():
    net = ripple_adder(2)
    rep = cost_report(net, net.gate_count)
    assert rep.reduction_percent == 0
    assert rep.reduction_one_decimal() == "0.0"
    with pytest.raises(NetlistError, match="^baseline_count must be >= 1$"):
        cost_report(net, 0)


def test_cost_report_bounds():
    net = ripple_adder(3)
    rep = cost_report(net, 45)
    assert rep.depth <= rep.gate_count
    assert rep.fanin_sum == sum(g.gate.fan_in for g in net.gates)
