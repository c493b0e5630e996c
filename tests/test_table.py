import copy
import pickle

import pytest

from dwtl.constructions import ripple_adder
from dwtl.gates import SpinMinorityGate, ThresholdGate
from dwtl.netlist import Netlist, NetlistError, OutputDef
from dwtl.table import Record, TooManyInputsError, TruthTable, input_pattern
from dwtl.textio import parse_netlist, print_netlist
from dwtl.tsolve import solve_threshold


def test_input_pattern_bit_i_is_bit_j_of_i():
    for n in range(1, 11):
        for j in range(n):
            p = input_pattern(j, n)
            assert p < 1 << (1 << n)
            assert all((p >> i) & 1 == (i >> j) & 1 for i in range(1 << n))


class Pair(Record):
    left: int
    right: int = 0


class OtherPair(Record):
    left: int
    right: int = 0


def test_record_positional_keyword_and_default_construction():
    assert Pair(1, 2) == Pair(left=1, right=2) == Pair(1, right=2)
    assert Pair(1) == Pair(1, 0) and Pair(left=3).right == 0
    assert OutputDef("s", "g") == OutputDef("s", "g", False)
    assert OutputDef(name="s", ref="g", invert=True).invert is True
    assert Pair._fields == ("left", "right")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Pair(), "missing 1 required positional argument: 'left'"),
        (lambda: TruthTable(3), "missing 1 required positional argument: 'bits'"),
        (lambda: Pair(1, 2, 3), "takes from 2 to 3 positional arguments"),
        (lambda: Pair(1, middle=2), "unexpected keyword argument 'middle'"),
        (lambda: Pair(1, left=2), "got multiple values for argument 'left'"),
    ],
    ids=["missing", "missing-bits", "too-many", "unknown", "repeated"],
)
def test_record_refuses_bad_arguments(make, message):
    with pytest.raises(TypeError, match=message):
        make()


def test_record_refuses_assignment_and_deletion():
    tt = TruthTable(3, 0xE8)
    with pytest.raises(AttributeError, match="cannot assign to field 'bits'"):
        tt.bits = 0
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        tt.extra = 0
    with pytest.raises(AttributeError, match="cannot delete field 'bits'"):
        del tt.bits
    assert tt == TruthTable(3, 0xE8)


def test_records_of_different_classes_never_compare_equal():
    assert Pair(1, 2) != OtherPair(1, 2)
    assert not Pair(1, 2) == OtherPair(1, 2)
    assert Pair(1, 2) != (1, 2)
    assert SpinMinorityGate((1, 1, 1)) != ThresholdGate((1, 1, 1), 2)
    assert Pair(1, 2) != Pair(2, 1)


def test_equal_records_hash_equal():
    assert hash(Pair(1, 2)) == hash(Pair(left=1, right=2))
    assert hash(TruthTable(3, 0xE8)) == hash(TruthTable(3, 0xE8))
    assert hash(SpinMinorityGate((1, -2, 4))) == hash(SpinMinorityGate((1, -2, 4)))
    assert len({TruthTable(2, 8), TruthTable(2, 8), TruthTable(2, 6)}) == 2


def test_record_repr_matches_dataclass_text():
    assert repr(TruthTable(3, 0xE8)) == "TruthTable(num_inputs=3, bits=232)"
    assert repr(ThresholdGate((1, -2), 2)) == "ThresholdGate(weights=(1, -2), threshold=2)"
    assert repr(OutputDef("s", "g")) == "OutputDef(name='s', ref='g', invert=False)"


def test_post_init_still_rejects_bad_input():
    with pytest.raises(ValueError, match="out of range"):
        TruthTable(3, 256)
    with pytest.raises(TooManyInputsError):
        TruthTable(0, 0)
    with pytest.raises(ValueError, match="nonzero integers"):
        SpinMinorityGate((1, 0, 1))


def test_cached_property_still_works():
    # an even magnitude sum: the constructor's tie check reads and caches it
    gate = SpinMinorityGate((2, -2, 4, 2))
    assert vars(gate)["weight_magnitude_sum"] == 10
    assert gate.weight_magnitude_sum == 10
    net = parse_netlist(print_netlist(ripple_adder(2)))
    plan = net._plan
    assert len(plan) == net.gate_count and net._plan is plan
    # a violation is not cached: every use raises it again
    broken = Netlist(net.inputs, net.gates, net.outputs * 2)
    for _ in range(2):
        with pytest.raises(NetlistError, match="duplicate output name 'sum0'"):
            broken.truth_tables()
    assert "_plan" not in vars(broken)
    assert net.evaluate({"a0": 1, "a1": 1, "b0": 1, "b1": 0, "cin": 1}) == {
        "sum0": 1, "sum1": 0, "cout": 1,
    }


def test_copy_and_pickle_round_trip_give_equal_records():
    gate = SpinMinorityGate((1, -2, 4))
    gate.weight_magnitude_sum  # a cached value travels with the record
    records = [
        Pair(1), TruthTable(3, 0xE8), gate, ThresholdGate((2, 1), 2),
        parse_netlist(print_netlist(ripple_adder(2))),
        solve_threshold(TruthTable(3, 0x96)), solve_threshold(TruthTable(3, 0xE8)),
    ]
    for rec in records:
        for twin in (copy.copy(rec), pickle.loads(pickle.dumps(rec))):
            assert twin == rec and hash(twin) == hash(rec) and type(twin) is type(rec)
            assert repr(twin) == repr(rec)
    assert pickle.loads(pickle.dumps(gate)).weight_magnitude_sum == 7
