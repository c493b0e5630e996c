"""Line-oriented text format for netlists (.dwtl) and truth-table strings.

Grammar, one statement per line, ``#`` starts a comment:

    input <name>
    gate <name> min <ref> <ref> <ref>          # sugar for weights -1,-1,-1
    gate <name> w=<int>:<ref> [w=<int>:<ref> ...]
    output <name> = [!]<ref>

Names match [A-Za-z_][A-Za-z0-9_]*. Statements must define every reference
before it is used. Canonical printing emits inputs, then gates, then outputs,
single-spaced, newline-terminated, and round-trips bit-exactly.
"""

from __future__ import annotations

import re

from .gates import SpinMinorityGate, TieError
from .table import MAX_INPUTS, TruthTable

TYPE_CHECKING = False  # not typing.TYPE_CHECKING: importing typing costs 3-4 ms
if TYPE_CHECKING:
    from .netlist import Netlist

WEIGHT_RE = re.compile(r"^w=(-?\d+):(.*)$")  # its reference must pass _is_name
TOKEN_RE = re.compile(r"\S+")
TT_RE = re.compile(r"^\s*(\d+):(?:0[xX])?([0-9a-fA-F]+)\s*$")


class ParseError(ValueError):
    """Rejection of netlist or truth-table text, with a 1-based position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


def parse_netlist(text: str) -> Netlist:
    from .netlist import GateDef, Netlist, OutputDef, _is_name  # here: tables need none

    inputs: list[str] = []
    gates: list[GateDef] = []
    outputs: list[OutputDef] = []
    defined: set[str] = set()
    out_names: set[str] = set()
    # one gate object per weight tuple: built, and so tie-checked, once
    gate_of: dict[tuple[int, ...], SpinMinorityGate] = {}

    # columns are found only on error: str.split splits at TOKEN_RE's whitespace
    def error(index: int, message: str, offset: int = 0) -> ParseError:
        column = [m.start() for m in TOKEN_RE.finditer(line)][index] + 1
        return ParseError(lineno, column + offset, message)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        kind = tokens[0]

        if kind == "input":
            if len(tokens) != 2:
                raise error(0, "expected: input <name>")
            name = tokens[1]
            if not _is_name(name):
                raise error(1, f"invalid name '{name}'")
            if name in defined:
                raise error(1, f"duplicate name '{name}'")
            inputs.append(name)
            defined.add(name)

        elif kind == "gate":
            if len(tokens) < 3:
                raise error(0, "expected: gate <name> ...")
            name = tokens[1]
            if not _is_name(name):
                raise error(1, f"invalid name '{name}'")
            if name in defined:
                raise error(1, f"duplicate name '{name}'")
            if tokens[2] == "min":
                first = 3
                refs = tokens[3:]
                if len(refs) != 3:
                    raise error(2, "min gate takes exactly 3 refs")
                weights = (-1, -1, -1)
            else:
                first = 2
                refs, weights_list = [], []
                for k, tok in enumerate(tokens[2:], 2):
                    m = WEIGHT_RE.match(tok)
                    if not (m and _is_name(m.group(2))):
                        raise error(k, f"expected w=<int>:<ref>, got '{tok}'")
                    w = int(m.group(1))
                    if w == 0:
                        raise error(k, "zero weight")
                    weights_list.append(w)
                    refs.append(m.group(2))
                weights = tuple(weights_list)
            for k, ref in enumerate(refs, first):
                if ref not in defined:
                    # a w= token's reference starts after its colon
                    offset = tokens[k].index(":") + 1 if first == 2 else 0
                    raise error(k, f"unknown reference '{ref}'", offset)
            if len(refs) > MAX_INPUTS:
                raise error(
                    1,
                    f"gate '{name}': fan-in {len(refs)} exceeds the "
                    f"{MAX_INPUTS}-input ceiling",
                )
            gate = gate_of.get(weights)
            if gate is None:
                try:
                    gate = gate_of[weights] = SpinMinorityGate(weights)
                except TieError as exc:
                    raise error(1, f"gate '{name}': {exc}") from None
            gates.append(GateDef(name, gate, tuple(refs)))
            defined.add(name)

        elif kind == "output":
            if len(tokens) != 4 or tokens[2] != "=":
                raise error(0, "expected: output <name> = [!]<ref>")
            name = tokens[1]
            if not _is_name(name):
                raise error(1, f"invalid name '{name}'")
            if name in out_names:
                raise error(1, f"duplicate output name '{name}'")
            target = tokens[3]
            invert = target.startswith("!")
            ref = target[1:] if invert else target
            if not _is_name(ref):
                raise error(3, f"invalid reference '{ref}'", invert)
            if ref not in defined:
                raise error(3, f"unknown reference '{ref}'", invert)
            outputs.append(OutputDef(name, ref, invert))
            out_names.add(name)

        else:
            raise error(0, f"unknown statement '{kind}'")

    if not outputs:
        raise ParseError(max(1, text.count("\n") + 1), 1, "netlist has no outputs")

    return Netlist(tuple(inputs), tuple(gates), tuple(outputs))


def print_netlist(net: Netlist) -> str:
    lines = [f"input {name}" for name in net.inputs]
    for gdef in net.gates:
        if gdef.gate.weights == (-1, -1, -1):
            lines.append(f"gate {gdef.name} min {' '.join(gdef.refs)}")
        else:
            parts = " ".join(
                f"w={w}:{r}" for w, r in zip(gdef.gate.weights, gdef.refs)
            )
            lines.append(f"gate {gdef.name} {parts}")
    for odef in net.outputs:
        bang = "!" if odef.invert else ""
        lines.append(f"output {odef.name} = {bang}{odef.ref}")
    return "\n".join(lines) + "\n"


def parse_truth_table(text: str) -> TruthTable:
    m = TT_RE.match(text)
    if not m:
        raise ParseError(1, 1, f"expected <n>:<hex>, got {text!r}")
    n = int(m.group(1))
    if not 1 <= n <= MAX_INPUTS:
        raise ParseError(1, 1, f"input count {n} out of range 1..{MAX_INPUTS}")
    value = int(m.group(2), 16)
    if value >= 1 << (1 << n):
        raise ParseError(1, m.start(2) + 1, f"table value out of range for n={n}")
    return TruthTable(n, value)


def format_truth_table(tt: TruthTable) -> str:
    return f"{tt.num_inputs}:0x{tt.bits:x}"
