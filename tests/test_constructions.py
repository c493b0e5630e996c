import hashlib
import random
import time

import pytest

from dwtl import (
    CONST_ONE,
    GateDef,
    Netlist,
    OutputDef,
    TooManyInputsError,
    check_equivalence,
    check_equivalence_sampled,
    cost_report,
)
from dwtl.constructions import (
    MIN3,
    adder_reference_patterns,
    adder_spec_tables,
    minority_adder,
    nand_adder,
    ripple_adder,
)
from dwtl.table import assignment_of, input_patterns
from dwtl.textio import print_netlist
from tests_util import SUM4, spin_eval


def test_minority_full_adder_shape():
    fa = minority_adder(1)
    assert fa.gate_count == 3
    for g in fa.gates:
        assert g.gate.fan_in == 3
        assert all(abs(w) == 1 for w in g.gate.weights)


def test_minority_full_adder_all_ones():
    out = minority_adder(1).evaluate({"a0": 1, "b0": 1, "cin": 1})
    assert out == {"sum0": 1, "cout": 1}


def test_minority_full_adder_tables():
    tts = minority_adder(1).truth_tables()
    assert tts["sum0"].bits == 0x96
    assert tts["cout"].bits == 0xE8


def test_weighted_sum_gate_weights():
    # bit 0 reads cin direct, so its sum gate is the paper's, weight -1 on it
    assert ripple_adder(1).gates[1].gate.weights == SUM4.weights == (-1, -1, -1, -2)


def test_weighted_sum_gate_single_row():
    # 1 + 1 + 0 has sum bit 0, so the complement output is 1
    assert spin_eval(SUM4.weights, (1, 1, 0, 0)) == 1


def test_weighted_sum_gate_composed_table():
    # wired to (a, b, cin, q) with q = MIN3(a, b, cin): output = not(xor3)
    net = Netlist(
        inputs=("a", "b", "cin"),
        gates=(
            GateDef("q", MIN3, ("a", "b", "cin")),
            GateDef("s", SUM4, ("a", "b", "cin", "q")),
        ),
        outputs=(OutputDef("nsum", "s"),),
    )
    assert net.truth_tables()["nsum"].bits == 0x69


def test_adder_spec_tables_shuffled_order_match_integer_addition():
    rng = random.Random(5)
    for n in range(1, 5):
        order = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)] + ["cin"]
        rng.shuffle(order)
        tables = adder_spec_tables(n, tuple(order))
        for row in range(1 << len(order)):
            x = {name: (row >> j) & 1 for j, name in enumerate(order)}
            a = sum(x[f"a{i}"] << i for i in range(n))
            b = sum(x[f"b{i}"] << i for i in range(n))
            total = a + b + x["cin"]
            for i in range(n):
                assert (tables[f"sum{i}"].bits >> row) & 1 == (total >> i) & 1
            assert (tables["cout"].bits >> row) & 1 == (total >> n) & 1


def test_adder_spec_tables_refuses_25_inputs_at_once():
    start = time.perf_counter()
    with pytest.raises(TooManyInputsError):
        adder_spec_tables(12)
    assert time.perf_counter() - start < 1.0


def test_adder_refuses_bit_counts_and_input_orders_out_of_range():
    for n_bits in (0, 65):
        with pytest.raises(ValueError, match=f"^n_bits must be in 1..64, got {n_bits}$"):
            adder_spec_tables(n_bits)
        with pytest.raises(ValueError, match=f"got {n_bits}$"):
            ripple_adder(n_bits)
    with pytest.raises(ValueError, match="does not cover the adder inputs"):
        adder_spec_tables(1, ("a0", "b0", "c"))
    with pytest.raises(ValueError, match="does not cover the adder inputs"):
        adder_spec_tables(1, ("a0", "b0"))


def test_ripple_gate_counts():
    assert ripple_adder(3).gate_count == 6
    assert ripple_adder(1).gate_count == 2


def test_ripple_one_bit_equivalent():
    assert check_equivalence(ripple_adder(1), adder_spec_tables(1)).equivalent


def test_ripple_arithmetic_vector():
    # 5 + 3 + 1 = 9 = 0b1001
    x = {"a0": 1, "a1": 0, "a2": 1, "b0": 1, "b1": 1, "b2": 0, "cin": 1}
    out = ripple_adder(3).evaluate(x)
    assert (out["sum0"], out["sum1"], out["sum2"], out["cout"]) == (1, 0, 0, 1)


def test_ripple_exhaustive_small_widths():
    for n in range(1, 6):
        res = check_equivalence(ripple_adder(n), adder_spec_tables(n))
        assert res.equivalent, f"n={n}"


def test_minority_style_multi_bit():
    for n in (1, 2, 3):
        net = minority_adder(n)
        assert net.gate_count == 3 * n
        assert check_equivalence(net, adder_spec_tables(n)).equivalent


def test_minority_equals_ripple_one_bit_tables():
    assert (
        minority_adder(1).truth_tables() == ripple_adder(1).truth_tables()
    )


def test_all_generated_gates_tie_free():
    for net in (minority_adder(4), ripple_adder(4), nand_adder(2)):
        for g in net.gates:
            assert g.gate.weight_magnitude_sum % 2 == 1
            for i in range(1 << g.gate.fan_in):  # spin_eval raises on a tie
                spin_eval(g.gate.weights, assignment_of(i, g.gate.fan_in))


def test_nand_adder_equivalent():
    assert check_equivalence(nand_adder(1), adder_spec_tables(1)).equivalent
    assert check_equivalence(nand_adder(2), adder_spec_tables(2)).equivalent


def test_nand_adder_gate_count():
    # the classical 9-NAND wiring; the paper-claim report still uses 15
    assert nand_adder(1).gate_count == 9


def test_nand_style_gates_are_nor2():
    # MIN3(x, y, one) is 1 only at x = y = 0: each gate of the "nand" style
    # is NOR of its two free refs, on every row
    net = nand_adder(1)
    probe = Netlist(
        net.inputs, net.gates, tuple(OutputDef(g.name, g.name) for g in net.gates)
    )
    tables = probe.truth_tables()
    signal = dict(zip(net.free_inputs, input_patterns(3)))
    signal.update((name, tt.bits) for name, tt in tables.items())
    for g in net.gates:
        assert g.gate == MIN3 and g.refs[2] == CONST_ONE
        x, y = (signal[r] for r in g.refs[:2])
        assert tables[g.name].bits == (x | y) ^ 0xFF, g.name


def test_nand_style_report_counts_the_pinned_refs():
    # fanin_sum counts each gate's ``one`` ref, and ``one`` has the top fanout
    rep = cost_report(nand_adder(3), 45)
    assert (rep.gate_count, rep.fanin_sum, rep.max_fanout, rep.depth) == (27, 81, 27, 10)
    assert (rep.inverted_outputs, rep.reduction_one_decimal()) == (0, "40.0")


def test_reduction_claims():
    assert cost_report(minority_adder(1), 15).reduction_one_decimal() == "80.0"
    rep = cost_report(ripple_adder(3), 45)
    assert rep.reduction_one_decimal() == "86.7"
    assert rep.reduction_rounded() == 87


def test_wide_ripple_sampled():
    net = ripple_adder(16)
    res = check_equivalence_sampled(
        net, adder_reference_patterns(16), seed=5, num_vectors=5000
    )
    assert res.equivalent


def test_random_vectors_match_python_arithmetic():
    rng = random.Random(41)
    net = ripple_adder(8)
    for _ in range(50):
        a = rng.randrange(256)
        b = rng.randrange(256)
        cin = rng.randrange(2)
        x = {f"a{i}": (a >> i) & 1 for i in range(8)}
        x.update({f"b{i}": (b >> i) & 1 for i in range(8)})
        x["cin"] = cin
        out = net.evaluate(x)
        total = sum(out[f"sum{i}"] << i for i in range(8)) + (out["cout"] << 8)
        assert total == a + b + cin


@pytest.mark.parametrize(
    "builder, digest",
    [
        (minority_adder, "cb652e8750b37c21"),
        (ripple_adder, "22e21732e8c502ba"),
        (nand_adder, "c2aff9548f3addb0"),
    ],
)
def test_every_generator_prints_its_pinned_text_at_1_to_64_bits(builder, digest):
    # sha256 of print_netlist(builder(bits)) for bits 1..64, concatenated in order
    text = "".join(print_netlist(builder(bits)) for bits in range(1, 65))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
