"""Generators for the minority-gate adder circuits and a NOR2 baseline.

The three styles share one ripple scaffold; each states only its bit cell. The
minority styles carry inverted: the gate that would produce carry-out holds its
complement, which downstream gates absorb by flipping the sign of the weight on
it. Output inversion is a free flag on the netlist, never a gate.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from .gates import SpinMinorityGate
from .netlist import CONST_ONE, GateDef, Netlist, OutputDef
from .table import TruthTable, input_patterns

MAX_ADDER_BITS = 64

MIN3 = SpinMinorityGate((-1, -1, -1))


def adder_names(n_bits: int) -> list[str]:
    """The n-bit adder's input names, a0.. then b0.. then cin."""
    if not 1 <= n_bits <= MAX_ADDER_BITS:
        raise ValueError(f"n_bits must be in 1..{MAX_ADDER_BITS}, got {n_bits}")
    return [f"a{i}" for i in range(n_bits)] + [f"b{i}" for i in range(n_bits)] + ["cin"]


def _ripple(
    n_bits: int, cell: Callable[[int, str], tuple[list[GateDef], str, str]],
    invert: bool = True, pinned: tuple[str, ...] = (),
) -> Netlist:
    """The one ripple scaffold behind every adder style.

    ``cell(i, carry)`` returns bit i's gates, the signal ``sum{i}`` reads and
    the carry bit i + 1 reads; bit 0 reads ``cin``, and ``cout`` the last one.
    Styles differ only in their cell, in ``invert`` on every output and in the
    ``pinned`` inputs after the adder's own."""
    inputs = tuple(adder_names(n_bits)) + pinned
    gates: list[GateDef] = []
    outputs: list[OutputDef] = []
    carry = "cin"
    for i in range(n_bits):
        bit_gates, sum_ref, carry = cell(i, carry)
        gates += bit_gates
        outputs.append(OutputDef(f"sum{i}", sum_ref, invert))
    outputs.append(OutputDef("cout", carry, invert))
    return Netlist(inputs, tuple(gates), tuple(outputs))


def _carry_gate(i: int, carry: str) -> tuple[GateDef, int]:
    """Bit i's g1_i = MIN3(a_i, b_i, carry), which holds carry-out's complement, and
    its weight on ``carry``: -1 on ``cin`` at bit 0, +1 on g1_{i-1}'s complement."""
    cw = -1 if i == 0 else 1
    gate = SpinMinorityGate((-1, -1, cw))
    return GateDef(f"g1_{i}", gate, (f"a{i}", f"b{i}", carry)), cw


def minority_adder(n_bits: int) -> Netlist:
    """Ripple adder from three-gate minority blocks (three gates per bit)."""

    def cell(i: int, carry: str) -> tuple[list[GateDef], str, str]:
        g1, cw = _carry_gate(i, carry)
        g2 = GateDef(f"g2_{i}", MIN3, (f"a{i}", f"b{i}", g1.name))
        g3 = GateDef(f"g3_{i}", SpinMinorityGate((cw, -1, 1)), (carry, g1.name, g2.name))
        return [g1, g2, g3], g3.name, g1.name

    return _ripple(n_bits, cell)


def ripple_adder(n_bits: int) -> Netlist:
    """Ripple adder with two gates per bit using the double-weight sum gate."""

    def cell(i: int, carry: str) -> tuple[list[GateDef], str, str]:
        g1, cw = _carry_gate(i, carry)
        gate = SpinMinorityGate((-1, -1, cw, -2))
        g2 = GateDef(f"g2_{i}", gate, (f"a{i}", f"b{i}", carry, g1.name))
        return [g1, g2], g2.name, g1.name

    return _ripple(n_bits, cell)


def nand_adder(n_bits: int) -> Netlist:
    """Baseline adder of nine NOR2 gates per bit: the ``nand`` style.

    It keeps the textbook nine-NAND full adder's wiring, but each gate is
    MIN3(x, y, one), a fan-in-3 minority gate whose third input is pinned to
    the constant-1 netlist input (a two-input minority gate would tie). That
    gate is 1 only at x = y = 0, so it is NOR(x, y): Luo et al.'s
    reconfigurable gate with its control at 1, which reads NAND at 0. NOR in
    place of NAND makes every signal the dual of the NAND circuit's; sum and
    carry are self-dual, so the adder still adds.
    """

    def cell(i: int, carry: str) -> tuple[list[GateDef], str, str]:
        a, b = f"a{i}", f"b{i}"
        t1, t2, t3, t4, t5 = f"t1_{i}", f"t2_{i}", f"t3_{i}", f"t4_{i}", f"t5_{i}"
        t6, t7, t8, t9 = f"t6_{i}", f"t7_{i}", f"t8_{i}", f"t9_{i}"
        return [
            GateDef(t1, MIN3, (a, b, CONST_ONE)),
            GateDef(t2, MIN3, (a, t1, CONST_ONE)),
            GateDef(t3, MIN3, (b, t1, CONST_ONE)),
            GateDef(t4, MIN3, (t2, t3, CONST_ONE)),  # a xnor b
            GateDef(t5, MIN3, (t4, carry, CONST_ONE)),
            GateDef(t6, MIN3, (t4, t5, CONST_ONE)),
            GateDef(t7, MIN3, (carry, t5, CONST_ONE)),
            GateDef(t8, MIN3, (t6, t7, CONST_ONE)),  # sum bit
            GateDef(t9, MIN3, (t1, t5, CONST_ONE)),  # carry out
        ], t8, t9

    return _ripple(n_bits, cell, invert=False, pinned=(CONST_ONE,))


def adder_spec_tables(
    n_bits: int, input_order: tuple[str, ...] | None = None
) -> dict[str, TruthTable]:
    """Per-output truth tables of n-bit addition: ``adder_reference_patterns``
    applied to the exhaustive input patterns.

    Row ordering follows ``input_order`` (default a0..b0..cin); only feasible
    while 2*n_bits + 1 stays within the table-size ceiling.
    """
    names = adder_names(n_bits)
    if input_order is None:
        input_order = tuple(names)
    if sorted(input_order) != sorted(names):
        raise ValueError(
            f"input order {input_order} does not cover the adder inputs {names}"
        )
    n = len(input_order)
    patterns = dict(zip(input_order, input_patterns(n)))
    outs = adder_reference_patterns(n_bits)(patterns, 1 << n)
    return {name: TruthTable(n, bits) for name, bits in outs.items()}


def adder_reference_patterns(n_bits: int):
    """Bit-parallel addition oracle for exhaustive and sampled equivalence checks.

    Returns a callable mapping packed input patterns to packed output
    patterns, computed with the carry recurrence sum = a ^ b ^ c,
    c' = majority(a, b, c) rather than any gate machinery.
    """

    def reference(patterns: Mapping[str, int], width: int) -> dict[str, int]:
        mask = (1 << width) - 1
        carry = patterns["cin"] & mask
        outs: dict[str, int] = {}
        for i in range(n_bits):
            a = patterns[f"a{i}"] & mask
            b = patterns[f"b{i}"] & mask
            outs[f"sum{i}"] = a ^ b ^ carry
            carry = (a & b) | (a & carry) | (b & carry)
        outs["cout"] = carry
        return outs

    return reference
