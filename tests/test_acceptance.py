"""End-to-end acceptance checks, one per headline claim, with runtime budgets.

Each test prints a single PASS line on success so a plain ``pytest -s
tests/test_acceptance.py`` doubles as the acceptance report.
"""

import random
import time

from dwtl import (
    ThresholdRealization,
    TruthTable,
    check_equivalence,
    check_equivalence_sampled,
    parse_netlist,
    print_netlist,
    solve_threshold,
)
from dwtl.cli import run
from dwtl.constructions import (
    adder_reference_patterns,
    adder_spec_tables,
    ripple_adder,
)
from dwtl.netlist import (
    DEFAULT_SAMPLE_VECTORS,
    DEFAULT_SEED,
    GateDef,
    Netlist,
    OutputDef,
)
from dwtl.gates import SpinMinorityGate
from dwtl.tsolve import (
    ENUMERATE_MAX_INPUTS,
    enumerate_threshold_functions,
    threshold_tables_by_search,
)


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def test_acceptance_1_one_bit_minority_adder(tmp_path, capsys):
    t0 = time.perf_counter()
    path = tmp_path / "fa1.dwtl"
    assert run(["gen", "adder", "--bits", "1", "--style", "minority",
                "-o", str(path)]) == 0
    net = parse_netlist(path.read_text())
    gates_ok = net.gate_count == 3
    equiv = check_equivalence(net, adder_spec_tables(1))
    code = run(["report", str(path), "--baseline", "15"])
    out = capsys.readouterr().out
    report_ok = code == 0 and "reduction=80.0%" in out
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(
            1,
            gates_ok and equiv.equivalent and report_ok and elapsed < 1.0,
            f"3 gates, 8/8 rows, 80.0% vs baseline 15, {elapsed:.3f}s",
        )


def test_acceptance_2_three_bit_weighted_adder(tmp_path, capsys):
    t0 = time.perf_counter()
    path = tmp_path / "fa3.dwtl"
    assert run(["gen", "adder", "--bits", "3", "--style", "weighted",
                "-o", str(path)]) == 0
    net = parse_netlist(path.read_text())
    gates_ok = net.gate_count == 6
    equiv = check_equivalence(net, adder_spec_tables(3))
    rows_ok = equiv.equivalent and equiv.vectors_checked == 128
    code = run(["report", str(path), "--baseline", "45"])
    out = capsys.readouterr().out
    report_ok = code == 0 and "reduction=86.7%" in out and "87%" in out
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(
            2,
            gates_ok and rows_ok and report_ok and elapsed < 1.0,
            f"6 gates, 128/128 rows, 86.7% -> 87% vs baseline 45, {elapsed:.3f}s",
        )


def test_acceptance_3_weighted_gate(capsys):
    gate = ripple_adder(1).gates[1].gate  # bit 0's sum gate, cin read direct
    weights_ok = gate.weights == (-1, -1, -1, -2)
    net = Netlist(
        inputs=("a", "b", "cin"),
        gates=(
            GateDef("q", SpinMinorityGate((-1, -1, -1)), ("a", "b", "cin")),
            GateDef("s", gate, ("a", "b", "cin", "q")),
        ),
        outputs=(OutputDef("nsum", "s"),),
    )
    table_ok = net.truth_tables()["nsum"].bits == 0x69
    with capsys.disabled():
        _report(
            3,
            weights_ok and table_ok,
            "weights (-1,-1,-1,-2); composed 8-row table = 0x69",
        )


def test_acceptance_4_solver_completeness_n3(capsys):
    t0 = time.perf_counter()
    positives = set()
    sound = True
    for f in range(256):
        tt = TruthTable(3, f)
        res = solve_threshold(tt)
        if isinstance(res, ThresholdRealization):
            positives.add(f)
            if res.gate.truth_table() != tt:
                sound = False
    oracle = set(threshold_tables_by_search(3, 2))
    elapsed = time.perf_counter() - t0
    ok = len(positives) == 104 and positives == oracle and sound and elapsed < 10
    with capsys.disabled():
        _report(
            4,
            ok,
            f"{len(positives)}/256 threshold at n=3, LP = enumeration oracle, "
            f"all realizations exact, {elapsed:.2f}s",
        )


def test_acceptance_5_solver_completeness_n4(capsys):
    t0 = time.perf_counter()
    enum = enumerate_threshold_functions(4)
    oracle = set(threshold_tables_by_search(4, 3))
    elapsed = time.perf_counter() - t0
    ok = enum.count == 1882 and set(enum.tables) == oracle and elapsed < 300
    with capsys.disabled():
        _report(
            5,
            ok,
            f"{enum.count}/65536 threshold at n=4, LP classification = "
            f"enumeration oracle, {elapsed:.2f}s",
        )


def test_acceptance_6_property_suites(capsys):
    from tests_util import (
        complement, negated, random_valid_netlist, spin_sums, to_threshold,
    )

    t0 = time.perf_counter()
    rng = random.Random(0xD0DA11)

    # spin/threshold-form agreement: 10^4 random gates, exhaustive per gate
    for _ in range(10_000):
        fan_in = rng.randint(1, 8)
        weights = None
        while weights is None or sum(abs(w) for w in weights) % 2 == 0:
            weights = tuple(
                rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(fan_in)
            )
        g = SpinMinorityGate(weights)
        assert g.truth_table() == to_threshold(g).truth_table()

    # parity tie-freedom
    for _ in range(2_000):
        fan_in = rng.randint(1, 10)
        weights = tuple(
            rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(fan_in)
        )
        if sum(abs(w) for w in weights) % 2 == 1:
            assert 0 not in spin_sums(weights)
            assert SpinMinorityGate(weights).fan_in == fan_in

    # complement involution and scaling invariance
    for _ in range(2_000):
        fan_in = rng.randint(1, 6)
        weights = None
        while weights is None or sum(abs(w) for w in weights) % 2 == 0:
            weights = tuple(
                rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(fan_in)
            )
        g = SpinMinorityGate(weights)
        assert negated(negated(g)) == g
        assert negated(g).truth_table() == complement(g.truth_table())
        k = rng.randint(2, 4)
        assert (
            SpinMinorityGate(tuple(k * w for w in weights)).truth_table()
            == g.truth_table()
        )

    # parser round-trip on 10^3 random netlists
    for _ in range(1_000):
        net = random_valid_netlist(rng)
        assert parse_netlist(print_netlist(net)) == net

    # check_equivalence reflexivity
    for _ in range(50):
        net = random_valid_netlist(rng)
        assert check_equivalence(net, net.truth_tables()).equivalent

    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(
            6,
            elapsed < 30,
            f"agreement/tie/involution/scaling/round-trip/reflexivity, "
            f"{elapsed:.2f}s",
        )


def test_acceptance_7_scale_check_32_bit(capsys):
    t0 = time.perf_counter()
    net = ripple_adder(32)
    gates_ok = net.gate_count == 64
    res = check_equivalence_sampled(
        net,
        adder_reference_patterns(32),
        seed=DEFAULT_SEED,
        num_vectors=DEFAULT_SAMPLE_VECTORS,
    )
    elapsed = time.perf_counter() - t0
    ok = gates_ok and res.equivalent and elapsed < 5
    with capsys.disabled():
        _report(
            7,
            ok,
            f"64 gates, {res.vectors_checked} vectors incl. corners, "
            f"0 mismatches, {elapsed:.2f}s",
        )


def test_acceptance_8_classify_every_5_input_function(capsys):
    t0 = time.perf_counter()
    enum = enumerate_threshold_functions(5)
    elapsed = time.perf_counter() - t0
    increasing = all(a < b for a, b in zip(enum.tables, enum.tables[1:]))
    inside = set(enum.tables)
    rng = random.Random(0xA000609)
    sample_in = rng.sample(enum.tables, 200)
    sample_out = []
    while len(sample_out) < 200:
        f = rng.randrange(1 << 32)
        if f not in inside:
            sample_out.append(f)
    agree = all(
        isinstance(solve_threshold(TruthTable(5, f)), ThresholdRealization)
        == (f in inside)
        for f in sample_in + sample_out
    )
    ok = (
        ENUMERATE_MAX_INPUTS == 5
        and enum.count == len(enum.tables) == 94_572
        and increasing
        and agree
        and elapsed < 30
    )
    with capsys.disabled():
        _report(
            8,
            ok,
            f"{enum.count}/2^32 threshold at n=5, 200 in / 200 out agree with "
            f"solve_threshold, {elapsed:.2f}s",
        )
