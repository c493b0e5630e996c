"""What each import and each CLI subcommand loads, checked in fresh processes."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dwtl.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(code: str, cwd=None, flags=()) -> str:
    """Run ``code`` in a new interpreter that imports dwtl from ./src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_dwtl_loads_no_submodule():
    out = _fresh("import sys, dwtl; print([m for m in sys.modules if 'dwtl.' in m])")
    assert out == "[]\n"


def test_every_public_name_is_its_home_modules_object():
    out = _fresh(
        "import importlib, dwtl\n"
        "bad = []\n"
        "for name in dwtl.__all__:\n"
        "    home = importlib.import_module('dwtl.' + dwtl._HOME[name])\n"
        "    want = home if name == dwtl._HOME[name] else getattr(home, name)\n"
        "    got = getattr(dwtl, name)\n"
        "    defined_in = getattr(got, '__module__', home.__name__)\n"
        "    if got is not want or defined_in != home.__name__:\n"
        "        bad.append(name)\n"
        "print(len(dwtl.__all__), bad, dwtl.__all__ == sorted(dwtl.__all__))\n"
    )
    assert out == "29 [] True\n"


def test_test_only_names_are_gone():
    # the scalar evaluators' error, the spin/bit maps, the Chow and unateness
    # APIs, the table row and complement methods and the sum gate are test
    # code now, not library names; minimize_weights returns its NotThreshold
    # certificate instead of raising it in an error; _solve takes the table alone
    out = _fresh(
        "import dwtl\n"
        "gone = ['ArityError', 'bit_to_spin', 'spin_to_bit', 'ChowVector',\n"
        "        'chow_parameters', 'NotThresholdError', 'is_unate', 'Unateness',\n"
        "        'NotUnate']\n"
        "print([n for n in gone if n in dwtl.__all__ or hasattr(dwtl, n)])\n"
        "from dwtl import constructions, gates, table, tsolve\n"
        "print([n for n in ('eval', 'is_well_defined', 'complemented', 'to_threshold')\n"
        "       if hasattr(gates.SpinMinorityGate, n)],\n"
        "      hasattr(gates.ThresholdGate, 'eval'),\n"
        "      [n for n in ('on_set_size', 'bit', 'complement')\n"
        "       if hasattr(table.TruthTable, n)],\n"
        "      hasattr(constructions, 'weighted_sum_gate'),\n"
        "      hasattr(tsolve, '_unateness'))\n"
    )
    assert out == "[]\n[] False [] False False\n"


def test_star_import_binds_all():
    out = _fresh(
        "from dwtl import *\n"
        "import dwtl\n"
        "print(all(globals()[n] is getattr(dwtl, n) for n in dwtl.__all__))\n"
    )
    assert out == "True\n"


def test_unknown_name_raises_attribute_error():
    out = _fresh(
        "import dwtl\n"
        "try:\n"
        "    dwtl.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(hasattr(dwtl, 'parse_spec'), 'solve_threshold' in dir(dwtl))\n"
    )
    assert out == "module 'dwtl' has no attribute 'no_such_name'\nFalse True\n"


def test_constructions_is_the_module():
    out = _fresh(
        "import sys, dwtl\n"
        "print(dwtl.constructions is sys.modules['dwtl.constructions'])\n"
    )
    assert out == "True\n"


BASE = {"dwtl", "dwtl.cli", "dwtl.table"}
EVALUATE = BASE | {"dwtl.gates", "dwtl.netlist", "dwtl.textio"}
SOLVE = BASE | {"dwtl.gates", "dwtl.textio", "dwtl.tsolve"}


# fractions loads only for a cost report, never for a solve; each
# case runs once more under -S, where no site hook has loaded typing already
@pytest.mark.parametrize(
    "argv, modules, loads_fractions",
    [
        (["solve", "--tt", "3:0xe8", "--minimize"], SOLVE, False),
        (["solve", "--tt", "3:0x96"], SOLVE, False),
        (["eval", "fa.dwtl", "--set", "a0=1,a1=0,b0=1,b1=1,cin=0"], EVALUATE, False),
        (["tt", "fa.dwtl"], EVALUATE, False),
        (["report", "fa.dwtl", "--baseline", "30"], EVALUATE, True),
        (["verify", "fa.dwtl", "--spec", "adder:2"],
         EVALUATE | {"dwtl.constructions"}, False),
        (["verify", "fa.dwtl", "--spec", "sum0=5:0x0,sum1=5:0x0,cout=5:0x0"],
         EVALUATE | {"dwtl.constructions"}, False),
        (["gen", "adder", "--bits", "2", "--style", "nand"],
         EVALUATE | {"dwtl.constructions"}, False),
    ],
    ids=["solve", "solve-not-threshold", "eval", "tt", "report", "verify",
         "verify-tables", "gen"],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_subcommand_loads_only_its_modules(tmp_path, argv, modules, loads_fractions,
                                           fmt):
    assert run(["gen", "adder", "--bits", "2", "--style", "weighted",
                "-o", str(tmp_path / "fa.dwtl")]) == 0
    if fmt == "json" and argv[0] != "gen":
        argv = argv + ["--format", "json"]
    for flags in ((), ("-S",)):
        out = _fresh(
            "import sys\n"
            "before = set(sys.modules)\n"
            "import io\n"
            "from contextlib import redirect_stdout\n"
            "from dwtl.cli import run\n"
            "with redirect_stdout(io.StringIO()):\n"
            f"    code = run({argv!r})\n"
            "new = set(sys.modules) - before\n"
            "print(repr([code, sorted(m for m in new if m.startswith('dwtl')),\n"
            "            sorted(new & {'json', 'dataclasses', 'inspect', 'ast', 'dis',\n"
            "                          'fractions', 'typing'})]))\n",
            cwd=tmp_path, flags=flags,
        )
        code, loaded, stdlib = ast.literal_eval(out)
        assert code in (0, 1)
        assert set(loaded) == modules
        assert not {"dataclasses", "inspect", "ast", "dis", "typing"} & set(stdlib)
        assert ("fractions" in stdlib) == loads_fractions
        if fmt == "text":
            assert "json" not in stdlib
