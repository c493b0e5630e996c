import json
import time

import pytest

import dwtl.tsolve
from dwtl import parse_netlist, print_netlist
from dwtl.cli import run


@pytest.fixture
def fa1(tmp_path):
    path = tmp_path / "fa1.dwtl"
    assert run(["gen", "adder", "--bits", "1", "--style", "minority",
                "-o", str(path)]) == 0
    return path


@pytest.fixture
def fa3(tmp_path):
    path = tmp_path / "fa3.dwtl"
    assert run(["gen", "adder", "--bits", "3", "--style", "weighted",
                "-o", str(path)]) == 0
    return path


def test_gen_then_verify(fa1, capsys):
    assert run(["verify", str(fa1), "--spec", "adder:1"]) == 0
    out = capsys.readouterr().out
    assert "EQUIVALENT (8/8 rows exhaustive)" in out


def test_report_fig2b(fa3, capsys):
    assert run(["report", str(fa3), "--baseline", "45"]) == 0
    out = capsys.readouterr().out
    assert "gates=6" in out
    assert "reduction=86.7%" in out
    assert "87%" in out


def test_solve_xor_not_threshold(capsys):
    assert run(["solve", "--tt", "2:0x6"]) == 1
    assert "NOT THRESHOLD" in capsys.readouterr().out


def test_solve_minimize_not_threshold_runs_no_lp(monkeypatch, capsys):
    # XOR's 4 witness rows refute it, so no LP is built, whatever its rows
    def unused(nv):
        raise AssertionError("a non-unate table built an LP")

    monkeypatch.setattr(dwtl.tsolve, "_SeparationLP", unused)
    assert run(["solve", "--tt", "2:0x6", "--minimize"]) == 1
    assert "NOT THRESHOLD" in capsys.readouterr().out


def test_solve_and2(capsys):
    assert run(["solve", "--tt", "2:0x8", "--minimize"]) == 0
    out = capsys.readouterr().out
    assert "THRESHOLD" in out
    assert "weights=1,1 T=2" in out


def test_eval(fa1, capsys):
    assert run(["eval", str(fa1), "--set", "a0=1,b0=0,cin=1"]) == 0
    assert capsys.readouterr().out.strip() == "sum0=0 cout=1"


def test_eval_bad_input(fa1, capsys):
    assert run(["eval", str(fa1), "--set", "a0=1,b0=2,cin=1"]) == 2
    assert "error" in capsys.readouterr().err
    assert run(["eval", str(fa1), "--set", "a0=1,b0,cin=1"]) == 2
    assert capsys.readouterr().err == "error: bad assignment 'b0', expected name=0|1\n"


def test_eval_refuses_repeated_input(fa1, capsys):
    assert run(["eval", str(fa1), "--set", "cin=1,a0=1,b0=0,cin=0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: input 'cin' is set more than once\n"
    assert captured.out == ""


def test_eval_refuses_unknown_input(fa1, capsys):
    assert run(["eval", str(fa1), "--set", "a0=1,zz=1,b0=0,cin=1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown inputs: ['zz']\n"
    assert captured.out == ""


def test_tt_text(fa1, capsys):
    assert run(["tt", str(fa1)]) == 0
    out = capsys.readouterr().out
    assert "sum0 = 3:0x96" in out
    assert "cout = 3:0xe8" in out


def test_json_output_matches_text_fields(fa3, capsys):
    assert run(["report", str(fa3), "--baseline", "45", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gates"] == 6
    assert payload["reduction_percent"] == "86.7"
    assert payload["reduction_percent_rounded"] == 87


def test_verify_inline_spec(fa1, capsys):
    code = run(["verify", str(fa1), "--spec", "sum0=3:0x96,cout=3:0xe8"])
    assert code == 0
    code = run(["verify", str(fa1), "--spec", "sum0=3:0xe8,cout=3:0x96"])
    assert code == 1
    assert "NOT EQUIVALENT" in capsys.readouterr().out


@pytest.mark.parametrize(
    "bits, spec, err",
    [
        (1, "sum0=3:0x00,sum0=3:0x96,cout=3:0xe8",
         "output 'sum0' is specified more than once"),
        (1, "adder:x", "bad spec 'adder:x', expected adder:<n>"),
        (1, "adder:", "bad spec 'adder:', expected adder:<n>"),
        (1, "adder:2", "netlist inputs ['a0', 'b0', 'cin'] do not match "
         "adder:2 inputs ['a0', 'a1', 'b0', 'b1', 'cin']"),
        (12, "sum0=3:0x96", "inline truth-table specs need <= 24 inputs; netlist has 25"),
        # a table's column counts from the start of the --spec argument
        (1, "sum0=3:0x96,cout=3:0x1ff",
         "line 1, col 22: output 'cout': table value out of range for n=3"),
        (1, "sum0=3:0x96,cout=3:zz",
         "line 1, col 18: output 'cout': expected <n>:<hex>, got '3:zz'"),
        (1, "sum0=3:0x96,cout", "bad spec item 'cout', expected <output>=<n:hex>"),
        (1, "", "bad spec item '', expected <output>=<n:hex>"),
    ],
)
def test_verify_refuses_bad_spec(tmp_path, capsys, bits, spec, err):
    path = tmp_path / "adder.dwtl"
    assert run(["gen", "adder", "--bits", str(bits), "--style", "weighted",
                "-o", str(path)]) == 0
    assert run(["verify", str(path), "--spec", spec]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""


def test_verify_wide_adder_states_sampling(tmp_path, capsys):
    path = tmp_path / "fa16.dwtl"
    assert run(["gen", "adder", "--bits", "16", "--style", "weighted",
                "-o", str(path)]) == 0
    assert run(["verify", str(path), "--spec", "adder:16",
                "--vectors", "3000"]) == 0
    out = capsys.readouterr().out
    assert "random sampling" in out
    assert "seed=0xd0da11" in out


def test_verify_refuses_negative_vector_count(tmp_path, capsys):
    path = tmp_path / "fa12.dwtl"
    assert run(["gen", "adder", "--bits", "12", "--style", "weighted",
                "-o", str(path)]) == 0
    assert run(["verify", str(path), "--spec", "adder:12",
                "--vectors", "-1"]) == 2
    err = capsys.readouterr().err
    assert "number of vectors must be non-negative, got -1" in err


def test_verify_refuses_a_vector_count_past_the_ceiling(tmp_path, capsys):
    # 10^10 vectors would draw about 1.25 GB per input: refused, exit 2
    path = tmp_path / "fa64.dwtl"
    assert run(["gen", "adder", "--bits", "64", "--style", "nand",
                "-o", str(path)]) == 0
    assert run(["verify", str(path), "--spec", "adder:64",
                "--vectors", "10000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: number of vectors must be at most 16777216, got 10000000000\n"
    )
    assert captured.out == ""


def test_verify_refuses_negative_seed(tmp_path, capsys):
    path = tmp_path / "fa12.dwtl"
    assert run(["gen", "adder", "--bits", "12", "--style", "weighted",
                "-o", str(path)]) == 0
    assert run(["verify", str(path), "--spec", "adder:12",
                "--vectors", "10", "--seed", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be non-negative, got -5\n"
    assert "seed=0x-5" not in captured.out


@pytest.mark.parametrize(
    "options, error",
    [
        (["--vectors", "-1"], "number of vectors must be non-negative, got -1"),
        (["--vectors", "99999999999999", "--seed", "-4"],
         "number of vectors must be at most 16777216, got 99999999999999"),
        (["--seed", "-1"], "seed must be non-negative, got -1"),
    ],
    ids=["negative-count", "huge-count", "negative-seed"],
)
def test_verify_refuses_bad_sampling_options_on_an_exhaustive_check(
    tmp_path, capsys, options, error
):
    # a 2-bit adder (5 inputs) is checked exhaustively and draws no vector,
    # but the options are refused as on the sampled path, not ignored
    path = tmp_path / "a2.dwtl"
    assert run(["gen", "adder", "--bits", "2", "--style", "nand", "-o", str(path)]) == 0
    capsys.readouterr()
    assert run(["verify", str(path), "--spec", "adder:2", *options]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("seed", ["abc", "010", "0x"])
def test_verify_refuses_a_seed_that_is_no_integer(tmp_path, capsys, seed):
    # int(s, 0) refuses 010 (a leading zero is no decimal literal); the
    # message names the type "int", as argparse does for int itself
    path = tmp_path / "fa2.dwtl"
    assert run(["gen", "adder", "--bits", "2", "--style", "weighted",
                "-o", str(path)]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["verify", str(path), "--spec", "adder:2", "--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"dwtl verify: error: argument --seed: invalid int value: '{seed}'\n"
    )


def test_verify_reads_vectors_as_the_seed_is_read(tmp_path, capsys):
    # --vectors takes the same literals as --seed: 0x10 is 16, and 010,
    # which int(s, 0) refuses, is not read as 10
    path = tmp_path / "fa16.dwtl"
    assert run(["gen", "adder", "--bits", "16", "--style", "weighted",
                "-o", str(path)]) == 0
    for count in ("16", "0x10"):
        assert run(["verify", str(path), "--spec", "adder:16", "--vectors", count]) == 0
    decimal, hexadecimal = capsys.readouterr().out.splitlines()
    assert decimal == hexadecimal
    assert run(["verify", str(path), "--spec", "adder:16", "--vectors", "17"]) == 0
    assert capsys.readouterr().out.strip() != decimal
    with pytest.raises(SystemExit) as exc:
        run(["verify", str(path), "--spec", "adder:16", "--vectors", "010"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "dwtl verify: error: argument --vectors: invalid int value: '010'\n"
    )


def test_verify_seed_changes_are_deterministic(tmp_path, capsys):
    path = tmp_path / "fa14.dwtl"
    run(["gen", "adder", "--bits", "14", "--style", "nand", "-o", str(path)])
    run(["verify", str(path), "--spec", "adder:14", "--vectors", "2000",
         "--seed", "7"])
    first = capsys.readouterr().out
    run(["verify", str(path), "--spec", "adder:14", "--vectors", "2000",
         "--seed", "7"])
    assert capsys.readouterr().out == first


def test_missing_file_is_usage_error(capsys):
    assert run(["tt", "no_such_file.dwtl"]) == 2


def test_malformed_netlist_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.dwtl"
    path.write_text("input a\ngate g w=0:a\noutput y = g\n")
    assert run(["tt", str(path)]) == 2
    assert "zero weight" in capsys.readouterr().err


def test_gen_nand_verifies(tmp_path):
    path = tmp_path / "nand1.dwtl"
    assert run(["gen", "adder", "--bits", "1", "--style", "nand",
                "-o", str(path)]) == 0
    assert run(["verify", str(path), "--spec", "adder:1"]) == 0


def _carry_recurrence(assignment, bits):
    carry, out = assignment["cin"], {}
    for i in range(bits):
        a, b = assignment[f"a{i}"], assignment[f"b{i}"]
        out[f"sum{i}"] = a ^ b ^ carry
        carry = (a & b) | (carry & (a ^ b))
    out["cout"] = carry
    return out


@pytest.mark.parametrize(
    "style, toggled", [("minority", "sum3"), ("weighted", "cout"), ("nand", "sum10")]
)
def test_verify_adder_11_exhaustive_within_5_s(tmp_path, capsys, style, toggled):
    path = tmp_path / "fa11.dwtl"
    assert run(["gen", "adder", "--bits", "11", "--style", style,
                "-o", str(path)]) == 0
    t0 = time.perf_counter()
    code = run(["verify", str(path), "--spec", "adder:11"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert capsys.readouterr().out == "EQUIVALENT (8388608/8388608 rows exhaustive)\n"
    assert elapsed < 5

    net = parse_netlist(path.read_text())
    mutant = type(net)(net.inputs, net.gates, tuple(
        type(o)(o.name, o.ref, not o.invert) if o.name == toggled else o
        for o in net.outputs
    ))
    path.write_text(print_netlist(mutant))
    assert run(["verify", str(path), "--spec", "adder:11", "--format", "json"]) == 1
    result = json.loads(capsys.readouterr().out)
    assert (result["equivalent"], result["mode"], result["vectors_checked"]) == (
        False, "exhaustive", 1 << 23
    )
    cx = result["counterexample"]
    assert cx["output"] == toggled
    assert mutant.evaluate(cx["assignment"])[toggled] == cx["got"]
    assert _carry_recurrence(cx["assignment"], 11)[toggled] == cx["want"] != cx["got"]
