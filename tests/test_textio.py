import random
from pathlib import Path

import pytest

from dwtl import (
    GateDef,
    Netlist,
    OutputDef,
    ParseError,
    SpinMinorityGate,
    format_truth_table,
    parse_netlist,
    parse_truth_table,
    print_netlist,
)
from dwtl.constructions import minority_adder
from tests_util import random_valid_netlist

GOLDEN = Path(__file__).parent / "golden" / "adder1_minority.dwtl"


def test_golden_file_parses_to_fig1_tables():
    net = parse_netlist(GOLDEN.read_text())
    assert net.gate_count == 3
    tts = net.truth_tables()
    assert tts["sum0"].bits == 0x96
    assert tts["cout"].bits == 0xE8


def test_golden_file_is_canonical_fixpoint():
    text = GOLDEN.read_text()
    assert print_netlist(parse_netlist(text)) == text


def test_generator_matches_golden():
    assert print_netlist(minority_adder(1)) == GOLDEN.read_text()


def test_min_sugar_only_for_plain_min3():
    g = SpinMinorityGate((-1, -1, -1, -2))
    net = Netlist(
        ("a", "b", "c", "d"),
        (GateDef("g", g, ("a", "b", "c", "d")),),
        (OutputDef("y", "g"),),
    )
    text = print_netlist(net)
    assert "w=-2:d" in text
    assert " min " not in text


def test_print_idempotent():
    net = minority_adder(1)
    once = print_netlist(net)
    assert print_netlist(parse_netlist(once)) == once


def test_roundtrip_random_netlists():
    rng = random.Random(1234)
    for _ in range(200):
        net = random_valid_netlist(rng)
        assert parse_netlist(print_netlist(net)) == net


def test_crlf_accepted():
    text = GOLDEN.read_text().replace("\n", "\r\n")
    assert parse_netlist(text) == parse_netlist(GOLDEN.read_text())


def test_comments_and_blank_lines():
    text = "# header\ninput a\n\ngate g w=-1:a  # inverter\noutput y = g\n"
    net = parse_netlist(text)
    assert net.truth_tables()["y"].bits == 0b01


def test_zero_weight_rejected():
    with pytest.raises(ParseError) as exc:
        parse_netlist("input a\ngate g w=0:a\noutput y = g\n")
    assert "zero weight" in str(exc.value)
    assert exc.value.line == 2


def test_unknown_reference_rejected():
    with pytest.raises(ParseError) as exc:
        parse_netlist("input a\ngate g w=-1:a\noutput s = !g9\n")
    assert "unknown reference 'g9'" in str(exc.value)
    assert exc.value.line == 3


def test_error_column_is_the_offending_token():
    # each name also occurs earlier on its line, inside a keyword or a token
    cases = [
        ("input p\ninput p\n", (2, 7), "duplicate name 'p'"),
        ("input x\ngate g w=-1:x w=1:e\n", (2, 19), "unknown reference 'e'"),
        ("input a\ngate mine min a a\n", (2, 11), "exactly 3 refs"),
        ("input t\noutput t = !u\n", (2, 13), "unknown reference 'u'"),
        ("input a\ngate g w=-1:a w=-0:a\n", (2, 15), "zero weight"),
        ("input a\ngate w w=1:a w=1\n", (2, 14), "got 'w=1'"),
        ("input a\ninput b\ngate bc min a b c\n", (3, 17), "unknown reference 'c'"),
        ("input a\ngate a1 w=1:a w=1:a1\n", (2, 19), "unknown reference 'a1'"),
        # tabs are one column each; the comment's tokens are not read
        ("input\ta\ngate\tg\tw=-1:a\tw=1:q\n", (2, 19), "unknown reference 'q'"),
        ("input a\ngate g min a a #b\n", (2, 8), "exactly 3 refs"),
        # every other refusal, at its token
        ("  input a b\n", (1, 3), "expected: input <name>"),
        ("input ab-\n", (1, 7), "invalid name 'ab-'"),
        ("input a\n gate g\n", (2, 2), "expected: gate <name> ..."),
        ("input a\ngate 9g min a a a\n", (2, 6), "invalid name '9g'"),
        ("input g\ngate g min g g g\n", (2, 6), "duplicate name 'g'"),
        ("input a\n output y a\n", (2, 2), "expected: output <name> = [!]<ref>"),
        ("input a\noutput 1y = a\n", (2, 8), "invalid name '1y'"),
        ("input a\noutput a = a\noutput a = !a\n", (3, 8), "duplicate output name 'a'"),
        ("input a\noutput y = !-a\n", (2, 13), "invalid reference '-a'"),
        ("input a\n  wire w a\n", (2, 3), "unknown statement 'wire'"),
    ]
    for text, position, reason in cases:
        with pytest.raises(ParseError) as exc:
            parse_netlist(text)
        assert reason in exc.value.reason
        assert (exc.value.line, exc.value.column) == position


def test_duplicate_name_rejected():
    with pytest.raises(ParseError) as exc:
        parse_netlist("input a\ninput a\ngate g w=-1:a\noutput y = g\n")
    assert exc.value.line == 2


def test_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse_netlist("input a\ngate g bogus\noutput y = g\n")
    assert exc.value.line == 2


def test_missing_output_rejected():
    with pytest.raises(ParseError):
        parse_netlist("input a\ngate g w=-1:a\n")


def test_tie_gate_rejected_at_parse():
    with pytest.raises(ParseError) as exc:
        parse_netlist("input a\ninput b\ngate g w=-1:a w=-1:b\noutput y = g\n")
    assert "tie" in str(exc.value)
    assert (exc.value.line, exc.value.column) == (3, 6)


def test_fan_in_above_ceiling_rejected_at_parse():
    refs = " ".join(f"w=-1:x{i}" for i in range(25))
    text = "".join(f"input x{i}\n" for i in range(25))
    text += f"gate  big {refs}\noutput y = big\n"
    with pytest.raises(ParseError) as exc:
        parse_netlist(text)
    assert "fan-in 25" in exc.value.reason
    assert (exc.value.line, exc.value.column) == (26, 7)


def test_parse_truth_table_examples():
    assert parse_truth_table("3:0x96").bits == 0x96
    assert parse_truth_table("1:0x2").bits == 0b10
    with pytest.raises(ParseError):
        parse_truth_table("2:0x100")
    with pytest.raises(ParseError):
        parse_truth_table("junk")
    for n in (0, 25):
        with pytest.raises(ParseError) as exc:
            parse_truth_table(f"{n}:0x0")
        assert exc.value.reason == f"input count {n} out of range 1..24"
        assert (exc.value.line, exc.value.column) == (1, 1)


def test_format_truth_table_roundtrip():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 6)
        bits = rng.randrange(1 << (1 << n))
        from dwtl import TruthTable

        tt = TruthTable(n, bits)
        assert parse_truth_table(format_truth_table(tt)) == tt
