"""Generators for the minority-gate adder circuits and a NOR2 baseline.

Carry signals ride the chain in inverted form: the minority gate that would
produce carry-out actually holds its complement, and downstream gates absorb
the inversion by flipping the sign of the weight on that reference. Output
inversion is a free flag on the netlist, never a gate.
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
    n_bits: int, sum_cell: Callable[[int, int, str], list[GateDef]]
) -> Netlist:
    """Carry chain shared by the minority-gate adders.

    Bit i's gate g1_i = MIN3(a_i, b_i, carry) holds the complement of
    carry-out; ``sum_cell(i, cw, carry_ref)`` returns the bit's remaining
    gates, the last of which holds the complement of the sum bit. ``cw`` is
    the weight that reads ``carry_ref`` as a minority input.
    """
    inputs = adder_names(n_bits)
    gates: list[GateDef] = []
    outputs: list[OutputDef] = []
    carry_ref = "cin"
    carry_direct = True  # whether carry_ref holds the carry or its complement
    for i in range(n_bits):
        cw = -1 if carry_direct else 1
        g1 = f"g1_{i}"
        gates.append(
            GateDef(g1, SpinMinorityGate((-1, -1, cw)), (f"a{i}", f"b{i}", carry_ref))
        )
        gates += sum_cell(i, cw, carry_ref)
        outputs.append(OutputDef(f"sum{i}", gates[-1].name, invert=True))
        carry_ref = g1  # holds the complement of carry-out
        carry_direct = False
    outputs.append(OutputDef("cout", carry_ref, invert=True))
    return Netlist(tuple(inputs), tuple(gates), tuple(outputs))


def minority_adder(n_bits: int) -> Netlist:
    """Ripple adder from three-gate minority blocks (three gates per bit)."""

    def sum_cell(i: int, cw: int, carry_ref: str) -> list[GateDef]:
        g1, g2 = f"g1_{i}", f"g2_{i}"
        return [
            GateDef(g2, MIN3, (f"a{i}", f"b{i}", g1)),
            GateDef(f"g3_{i}", SpinMinorityGate((cw, -1, 1)), (carry_ref, g1, g2)),
        ]

    return _ripple(n_bits, sum_cell)


def ripple_adder(n_bits: int) -> Netlist:
    """Ripple adder with two gates per bit using the double-weight sum gate."""

    def sum_cell(i: int, cw: int, carry_ref: str) -> list[GateDef]:
        return [
            GateDef(
                f"g2_{i}",
                SpinMinorityGate((-1, -1, cw, -2)),
                (f"a{i}", f"b{i}", carry_ref, f"g1_{i}"),
            )
        ]

    return _ripple(n_bits, sum_cell)


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
    inputs = adder_names(n_bits) + [CONST_ONE]
    gates: list[GateDef] = []
    outputs: list[OutputDef] = []

    def nor(name: str, x: str, y: str) -> str:
        gates.append(GateDef(name, MIN3, (x, y, CONST_ONE)))
        return name

    carry = "cin"
    for i in range(n_bits):
        a, b = f"a{i}", f"b{i}"
        t1 = nor(f"t1_{i}", a, b)
        t2 = nor(f"t2_{i}", a, t1)
        t3 = nor(f"t3_{i}", b, t1)
        t4 = nor(f"t4_{i}", t2, t3)  # a xnor b
        t5 = nor(f"t5_{i}", t4, carry)
        t6 = nor(f"t6_{i}", t4, t5)
        t7 = nor(f"t7_{i}", carry, t5)
        t8 = nor(f"t8_{i}", t6, t7)  # sum bit
        t9 = nor(f"t9_{i}", t1, t5)  # carry out
        outputs.append(OutputDef(f"sum{i}", t8))
        carry = t9
    outputs.append(OutputDef("cout", carry))
    return Netlist(tuple(inputs), tuple(gates), tuple(outputs))


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
