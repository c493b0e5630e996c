"""Spin-minority and threshold gate models with exact conversions.

A spin-minority gate sums weighted +/-1 spins and outputs 1 when the sum is
positive; logic 1 maps to spin +1, logic 0 to spin -1. Negative weights invert
their input for free. The 0/1-domain threshold gate is the derived canonical
form used by the weight solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .table import MAX_INPUTS, TruthTable, assignment_of


class ArityError(ValueError):
    """Input vector length does not match the gate's fan-in."""


class TieError(ValueError):
    """The weighted spin sum is zero: the output is physically indeterminate."""

    def __init__(self, message: str, assignment: tuple[int, ...] | None = None):
        super().__init__(message)
        self.assignment = assignment


class TooLargeFanIn(ValueError):
    def __init__(self, fan_in: int):
        super().__init__(
            f"fan-in {fan_in} exceeds the {MAX_INPUTS}-input exhaustive-sweep ceiling"
        )


def subset_sums(weights: Sequence[int], base: int = 0) -> list[int]:
    """``base`` plus the weights of the inputs set in each row, indexed by row.

    Row i adds ``weights[j]`` for every bit j set in i, the row order of
    every truth table here.
    """
    if len(weights) > MAX_INPUTS:
        raise TooLargeFanIn(len(weights))
    sums = [base]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def bit_to_spin(bit: int) -> int:
    """Map logic 0/1 to spin -1/+1."""
    return 2 * (bit & 1) - 1


def spin_to_bit(spin: int) -> int:
    if spin == 1:
        return 1
    if spin == -1:
        return 0
    raise ValueError(f"spin value must be +1 or -1, got {spin}")


@dataclass(frozen=True)
class SpinMinorityGate:
    """Gate over +/-1 spins: output is 1 iff the weighted spin sum is positive.

    With all weights -1 this is the plain minority function; a weight of
    magnitude k gives that input k times the pull of a unit input.
    """

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weights) < 1:
            raise ValueError("gate needs at least one input")
        for w in self.weights:
            if not isinstance(w, int) or w == 0:
                raise ValueError(f"weights must be nonzero integers, got {w!r}")

    @property
    def fan_in(self) -> int:
        return len(self.weights)

    @property
    def weight_magnitude_sum(self) -> int:
        return sum(map(abs, self.weights))

    def eval(self, x: Sequence[int]) -> int:
        if len(x) != self.fan_in:
            raise ArityError(f"gate has fan-in {self.fan_in}, got {len(x)} inputs")
        acc = sum(w * bit_to_spin(b) for w, b in zip(self.weights, x))
        if acc > 0:
            return 1
        if acc < 0:
            return 0
        raise TieError(
            f"tie at assignment {tuple(x)}: weighted spin sum is zero",
            assignment=tuple(x),
        )

    def _spin_sums(self) -> list[int]:
        """Weighted spin sum for every assignment, indexed by row number."""
        return subset_sums([2 * w for w in self.weights], -sum(self.weights))

    def truth_table(self) -> TruthTable:
        """Table of the gate; a gate that can tie raises at its lowest tie row."""
        bits = 0
        for i, s in enumerate(self._spin_sums()):
            if s > 0:
                bits |= 1 << i
            elif s == 0:
                raise TieError(
                    f"tie at assignment {assignment_of(i, self.fan_in)}",
                    assignment=assignment_of(i, self.fan_in),
                )
        return TruthTable(self.fan_in, bits)

    def tie_assignments(self) -> list[tuple[int, ...]]:
        """All assignments with zero spin sum; empty means the gate is usable.

        An odd magnitude sum makes every spin sum odd, so such a gate never
        ties, whatever its fan-in.
        """
        if self.weight_magnitude_sum % 2 == 1:
            return []
        return [
            assignment_of(i, self.fan_in)
            for i, s in enumerate(self._spin_sums())
            if s == 0
        ]

    def is_well_defined(self) -> bool:
        return not self.tie_assignments()

    def to_threshold(self) -> "ThresholdGate":
        """Exact 0/1-domain form: same table, weights doubled, T = sum(w) + 1.

        Follows from s = 2x - 1: the spin sum is positive iff
        2*sum(w_i x_i) >= sum(w_i) + 1 over integers.
        """
        return ThresholdGate(
            weights=tuple(2 * w for w in self.weights),
            threshold=sum(self.weights) + 1,
        )

    def complemented(self) -> "SpinMinorityGate":
        """Gate with all weight signs flipped; its table is the bitwise complement."""
        ties = self.tie_assignments()
        if ties:
            raise TieError(f"tie at assignment {ties[0]}", assignment=ties[0])
        return SpinMinorityGate(tuple(-w for w in self.weights))


@dataclass(frozen=True)
class ThresholdGate:
    """0/1-domain gate: output 1 iff sum(w_i * x_i) >= threshold."""

    weights: tuple[int, ...]
    threshold: int

    def __post_init__(self) -> None:
        if len(self.weights) < 1:
            raise ValueError("gate needs at least one input")

    @property
    def fan_in(self) -> int:
        return len(self.weights)

    @property
    def weight_magnitude_sum(self) -> int:
        return sum(abs(w) for w in self.weights)

    def eval(self, x: Sequence[int]) -> int:
        if len(x) != self.fan_in:
            raise ArityError(f"gate has fan-in {self.fan_in}, got {len(x)} inputs")
        return int(sum(w * (b & 1) for w, b in zip(self.weights, x)) >= self.threshold)

    def truth_table(self) -> TruthTable:
        bits = 0
        for i, s in enumerate(subset_sums(self.weights)):
            if s >= self.threshold:
                bits |= 1 << i
        return TruthTable(self.fan_in, bits)
