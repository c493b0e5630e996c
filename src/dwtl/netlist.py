"""Feed-forward circuits of spin-minority gates: evaluation, equivalence, cost.

A gate may only reference primary inputs or gates defined earlier in the
list, so a valid netlist is acyclic. Each netlist is checked once, before its
first evaluation or cost report; the first violation raises ``NetlistError``.
Its gates need no check: a gate that can tie cannot be built. The reserved
input name ``one`` is a pinned constant-1 and is not a truth-table variable.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping
from functools import cached_property

from .gates import SpinMinorityGate
from .table import (
    DEFAULT_SAMPLE_VECTORS, DEFAULT_SEED, MAX_SAMPLE_VECTORS, Record, TruthTable,
    input_patterns,
)

TYPE_CHECKING = False  # not typing.TYPE_CHECKING: importing typing costs 3-4 ms
if TYPE_CHECKING:
    from fractions import Fraction

CONST_ONE = "one"


class NetlistError(ValueError):
    """Structural or usage error on a netlist operation."""


def _is_name(name: str) -> bool:
    """Whether the text format can write ``name``: [A-Za-z_][A-Za-z0-9_]*."""
    return name.isascii() and name.isidentifier()


def _named(name: str) -> str:
    """``name``, if ``_is_name``, else NetlistError."""
    if _is_name(name):
        return name
    raise NetlistError(f"invalid name '{name}'")


class GateDef(Record):
    name: str
    gate: SpinMinorityGate
    refs: tuple[str, ...]


class OutputDef(Record):
    name: str
    ref: str
    invert: bool = False


class Netlist(Record):
    inputs: tuple[str, ...]
    gates: tuple[GateDef, ...]
    outputs: tuple[OutputDef, ...]

    @property
    def free_inputs(self) -> tuple[str, ...]:
        """Primary inputs excluding the pinned constant ``one``."""
        return tuple(n for n in self.inputs if n != CONST_ONE)

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def evaluate(self, assignment: Mapping[str, int]) -> dict[str, int]:
        """Single-vector evaluation: ``evaluate_patterns`` at width 1."""
        for name in self.free_inputs:
            if assignment.get(name, 0) not in (0, 1):
                raise NetlistError(f"input '{name}' must be 0 or 1")
        return self.evaluate_patterns(assignment, 1)

    def evaluate_patterns(
        self, patterns: Mapping[str, int], width: int
    ) -> dict[str, int]:
        """Bit-parallel evaluation of ``width`` vectors packed into integers.

        ``patterns[name]`` holds input ``name`` across all vectors, one bit per
        vector. Returns one packed integer per output. The netlist's first
        violation (``_plan``) raises before any gate runs. Each signal is
        dropped after its last reader unless an output reads it. A name that is
        not a free input raises ``NetlistError``. The pinned ``one`` is the row
        mask object itself, which the gate kernel folds into each reader's bound.
        """
        if extra := patterns.keys() - self.free_inputs:
            raise NetlistError(f"unknown inputs: {sorted(extra)}")
        dead_after = self._plan
        mask = (1 << width) - 1
        values: dict[str, int] = {}
        try:
            for name in self.inputs:
                p = mask if name == CONST_ONE else patterns[name]
                values[name] = p if 0 <= p <= mask else p & mask
        except KeyError as exc:
            raise NetlistError(f"missing value for input '{exc.args[0]}'") from None
        read = values.__getitem__  # a list comprehension would cost a frame per gate
        for gdef, dead in zip(self.gates, dead_after):
            srcs = list(map(read, gdef.refs))
            values[gdef.name] = gdef.gate.eval_patterns(srcs, mask)
            for name in dead:
                del values[name]
        return {
            o.name: (values[o.ref] ^ mask) if o.invert else values[o.ref]
            for o in self.outputs
        }

    @cached_property  # the netlist is frozen: checked once, then read by every use
    def _plan(self) -> tuple[tuple[str, ...], ...]:
        """Per gate, the signals it reads last; an output's signal is kept.

        First the netlist is checked: inputs, then gates, then outputs, in
        declaration order, and the first violation raises.
        """
        defined: set[str] = set()
        for name in map(_named, self.inputs):
            if name in defined:
                raise NetlistError(f"duplicate name '{name}'")
            defined.add(name)
        last: dict[str, int] = {}
        for i, gdef in enumerate(self.gates):
            name, gate, refs = _named(gdef.name), gdef.gate, gdef.refs
            if name in defined:
                raise NetlistError(f"duplicate name '{name}'")
            if len(refs) != gate.fan_in:
                raise NetlistError(
                    f"gate '{name}': {len(refs)} refs for fan-in {gate.fan_in}"
                )
            for ref in refs:
                if ref not in defined:
                    later = any(g.name == ref for g in self.gates)
                    kind = "forward reference" if later else "unknown reference"
                    raise NetlistError(f"gate '{name}': {kind} '{ref}'")
                last[ref] = i
            defined.add(name)
        if not self.outputs:
            raise NetlistError("netlist has no outputs")
        out_names: set[str] = set()
        for o in self.outputs:
            if _named(o.name) in out_names:
                raise NetlistError(f"duplicate output name '{o.name}'")
            if o.ref not in defined:
                raise NetlistError(f"output '{o.name}': unknown reference '{o.ref}'")
            out_names.add(o.name)
            last.pop(o.ref, None)
        dead: list[list[str]] = [[] for _ in self.gates]
        for ref, i in last.items():
            dead[i].append(ref)
        return tuple(map(tuple, dead))

    def _exhaustive_patterns(self) -> tuple[int, dict[str, int]]:
        """Free-input count and the packed patterns of all 2^n rows."""
        names = self.free_inputs
        if not names:
            raise NetlistError("netlist has no free inputs")
        return len(names), dict(zip(names, input_patterns(len(names))))

    def truth_tables(self) -> dict[str, TruthTable]:
        """Exhaustive per-output tables over the free inputs, in input order."""
        n, patterns = self._exhaustive_patterns()
        outs = self.evaluate_patterns(patterns, 1 << n)
        return {name: TruthTable(n, bits) for name, bits in outs.items()}


class Counterexample(Record):
    assignment: dict[str, int]
    output: str
    got: int
    want: int


class EquivalenceResult(Record):
    equivalent: bool
    mode: str  # "exhaustive" or "random"
    vectors_checked: int
    counterexample: Counterexample | None = None
    seed: int | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def check_equivalence(
    net: Netlist, spec: Mapping[str, TruthTable]
) -> EquivalenceResult:
    """Exhaustively compare the netlist against per-output truth tables.

    The counterexample, if any, is the lowest disagreeing row index; ties
    across outputs resolve to the earliest output in declaration order.
    """
    out_names = [o.name for o in net.outputs]
    if set(out_names) != set(spec):
        raise NetlistError(
            f"output name mismatch: netlist has {sorted(out_names)}, "
            f"spec has {sorted(spec)}"
        )
    n = len(net.free_inputs)
    for name, tt in spec.items():
        if tt.num_inputs != n:
            raise NetlistError(
                f"spec table for '{name}' has {tt.num_inputs} inputs, "
                f"netlist has {n}"
            )
    n, patterns = net._exhaustive_patterns()
    want = {name: tt.bits for name, tt in spec.items()}
    return _compare(net, patterns, 1 << n, want, "exhaustive")


def _check_sampling(seed: int, num_vectors: int) -> None:
    """Refuse a seed or vector count that sampling cannot use: ``NetlistError``."""
    if num_vectors < 0:
        raise NetlistError(f"number of vectors must be non-negative, got {num_vectors}")
    if num_vectors > MAX_SAMPLE_VECTORS:
        raise NetlistError(
            f"number of vectors must be at most {MAX_SAMPLE_VECTORS}, got {num_vectors}"
        )
    if seed < 0:
        # random.Random(-s) draws the same vectors as Random(s)
        raise NetlistError(f"seed must be non-negative, got {seed}")


def check_equivalence_sampled(
    net: Netlist,
    reference: Callable[[Mapping[str, int], int], Mapping[str, int]],
    seed: int = DEFAULT_SEED,
    num_vectors: int = DEFAULT_SAMPLE_VECTORS,
) -> EquivalenceResult:
    """Seeded random check plus corner vectors, for nets too wide to enumerate.

    ``reference(patterns, width)`` must return expected packed output patterns
    for the same bit-parallel input patterns the netlist sees. The corner
    vectors are all-zeros, all-ones, and each single-hot input. Each input
    draws ``num_vectors`` bits, so a count above ``MAX_SAMPLE_VECTORS`` (2^24)
    is refused before any draw.
    """
    _check_sampling(seed, num_vectors)
    names = net.free_inputs
    n = len(names)
    rng = random.Random(seed)
    width = num_vectors + 2 + n
    patterns: dict[str, int] = {}
    for j, name in enumerate(names):
        # corners: all-zeros at bit num_vectors (no-op), all-ones, single-hot j
        corners = (1 | 2 << j) << (num_vectors + 1)
        patterns[name] = rng.getrandbits(num_vectors) | corners
    want = reference(patterns, width)
    if set(want) != {o.name for o in net.outputs}:
        raise NetlistError("reference output names do not match netlist outputs")
    return _compare(net, patterns, width, want, "random", seed)


def _compare(
    net: Netlist,
    patterns: Mapping[str, int],
    width: int,
    want: Mapping[str, int],
    mode: str,
    seed: int | None = None,
) -> EquivalenceResult:
    """Evaluate ``net`` on packed patterns and compare with ``want`` per output.

    The counterexample, if any, is the lowest disagreeing vector; ties across
    outputs resolve to the earliest output in declaration order.
    """
    got = net.evaluate_patterns(patterns, width)
    best: tuple[int, str] | None = None
    for o in net.outputs:
        diff = got[o.name] ^ want[o.name]
        if diff:
            idx = (diff & -diff).bit_length() - 1
            if best is None or idx < best[0]:
                best = (idx, o.name)
    if best is None:
        return EquivalenceResult(True, mode, width, seed=seed)
    idx, name = best
    assignment = {inp: (patterns[inp] >> idx) & 1 for inp in net.free_inputs}
    return EquivalenceResult(
        False,
        mode,
        width,
        Counterexample(
            assignment, name, (got[name] >> idx) & 1, (want[name] >> idx) & 1
        ),
        seed=seed,
    )


class CostReport(Record):
    gate_count: int
    fanin_sum: int
    max_fanout: int
    depth: int
    inverted_outputs: int
    baseline_count: int
    reduction_percent: Fraction

    def reduction_one_decimal(self) -> str:
        """Reduction percentage rounded half-up to one decimal, e.g. '86.7'."""
        tenths = _round_half_up(self.reduction_percent * 10)
        sign = "-" if tenths < 0 else ""
        tenths = abs(tenths)
        return f"{sign}{tenths // 10}.{tenths % 10}"

    def reduction_rounded(self) -> int:
        """Reduction percentage rounded half-up to an integer, e.g. 87."""
        return _round_half_up(self.reduction_percent)


def _round_half_up(value: Fraction) -> int:
    return (2 * value.numerator + value.denominator) // (2 * value.denominator)


def cost_report(net: Netlist, baseline_count: int) -> CostReport:
    """Graph metrics plus the device-count reduction against a baseline."""
    from fractions import Fraction  # here, so evaluation never loads fractions

    if baseline_count < 1:
        raise NetlistError("baseline_count must be >= 1")
    net._plan  # raises the netlist's first violation; a valid one has outputs
    fanout: dict[str, int] = {}
    depth: dict[str, int] = {name: 0 for name in net.inputs}
    fanin_sum = 0
    for gdef in net.gates:
        fanin_sum += gdef.gate.fan_in
        for ref in gdef.refs:
            fanout[ref] = fanout.get(ref, 0) + 1
        depth[gdef.name] = 1 + max(depth[r] for r in gdef.refs)
    for odef in net.outputs:
        fanout[odef.ref] = fanout.get(odef.ref, 0) + 1
    gate_count = net.gate_count
    return CostReport(
        gate_count=gate_count,
        fanin_sum=fanin_sum,
        max_fanout=max(fanout.values()),
        depth=max(depth[o.ref] for o in net.outputs),
        inverted_outputs=sum(1 for o in net.outputs if o.invert),
        baseline_count=baseline_count,
        reduction_percent=100 * (1 - Fraction(gate_count, baseline_count)),
    )
