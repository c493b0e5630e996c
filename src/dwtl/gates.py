"""Spin-minority and threshold gate models.

A spin-minority gate sums weighted +/-1 spins and outputs 1 when the sum is
positive; logic 1 maps to spin +1, logic 0 to spin -1. Negative weights invert
their input for free. The 0/1-domain threshold gate is the form the weight
solver emits. Both share one core and differ only in its bound; their truth
tables, the tie check and netlist evaluation go through one bit-sliced
weighted-sum comparator, whose one constant source is the row mask object.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from .table import Record, TruthTable, assignment_of, input_patterns


class TieError(ValueError):
    """The weighted spin sum is zero: the output is physically indeterminate."""

    def __init__(self, message: str, assignment: tuple[int, ...] | None = None):
        super().__init__(message)
        self.assignment = assignment


def _weighted_at_least(
    weights: Sequence[int], srcs: Sequence[int], mask: int, bound: int
) -> int:
    """Packed rows of ``mask`` where sum(|w_j| * y_j) >= bound.

    y_j is source j, complemented where w_j < 0; zero weights add nothing.
    The sum is added up bit-sliced, one packed integer per binary digit, and
    compared with ``bound`` from the top digit down, so the cost grows with
    fan-in and log sum|w|, not with the number of rows. Every source must lie
    within ``mask``.

    A source that is the ``mask`` object itself (a pinned input) is the one
    constant: it leaves the sum, and where w_j > 0 it lowers ``bound`` by w_j.
    It is found by identity, in O(1); any other source, 0 or an equal copy of
    ``mask`` included, is summed. A bound of 1 over what is left is then one
    OR pass, and a bound equal to the live total one AND pass.

    If negative weights outweigh the rest, sum(|w_j| * y_j) >= bound is read
    as not sum(|w_j| * (1 - y_j)) >= total - bound + 1, so that only the
    smaller sign group is complemented, and the result once, at the end.
    """
    for src in srcs:  # a plain loop: any() over a generator costs a frame per call
        if src is mask:
            weights, srcs, bound = _fold(weights, srcs, mask, bound)
            break
    total = sum(map(abs, weights))
    if sum(weights) < 0:
        sign, bound, invert = -1, total - bound + 1, mask
    else:
        sign, invert = 1, 0
    if bound <= 0:
        return mask ^ invert
    if bound > total:
        return invert
    if bound == 1 or bound == total:  # any y_j, or every y_j, of nonzero weight
        acc = 0 if bound == 1 else mask
        for w, src in zip(weights, srcs):
            if w:
                y = src ^ mask if w * sign < 0 else src
                acc = acc | y if bound == 1 else acc & y
        return acc ^ invert
    top = total.bit_length() - 1
    digits = [0] * (top + 1)
    for w, src in zip(weights, srcs):
        y = src ^ mask if w * sign < 0 else src
        w, k = abs(w), 0
        while w:
            if w & 1:
                carry, i = y, k
                while carry:
                    d = digits[i]
                    # an empty digit takes a copy; the top digit never carries
                    if not d or i == top:
                        digits[i] = d ^ carry if d else carry
                        break
                    digits[i], carry = d ^ carry, d & carry
                    i += 1
            w >>= 1
            k += 1
    # ``equal``: rows whose digits so far match bound's; ``greater``: rows
    # already above it. Below bound's lowest set digit neither changes.
    greater, equal = 0, mask
    for k in range(top, (bound & -bound).bit_length() - 2, -1):
        t = digits[k] if equal is mask else equal & digits[k]
        if (bound >> k) & 1:
            equal = t
        else:
            greater |= t
            equal ^= t
    return (greater | equal) ^ invert


def _fold(
    weights: Sequence[int], srcs: Sequence[int], mask: int, bound: int
) -> tuple[list[int], list[int], int]:
    """The weights and sources left once each ``mask`` source leaves the sum,
    and ``bound`` less w_j for each of those with w_j > 0 (y_j = 1)."""
    live_w, live_srcs = [], []
    for w, src in zip(weights, srcs):
        if src is not mask:
            live_w.append(w)
            live_srcs.append(src)
        elif w > 0:
            bound -= w
    return live_w, live_srcs, bound


def _all_rows(fan_in: int) -> tuple[list[int], int]:
    """Packed input patterns and row mask of an exhaustive sweep."""
    return input_patterns(fan_in), (1 << (1 << fan_in)) - 1


def _check_weights(weights: Sequence[int], nonzero: bool) -> None:
    """Both gates' check: a tuple (a list could change under the gate) of ints (a
    bool would print as ``w=True``), at least one, and with ``nonzero`` none 0."""
    if type(weights) is not tuple:
        raise ValueError(f"weights must be a tuple, got {type(weights).__name__}")
    if len(weights) < 1:
        raise ValueError("gate needs at least one input")
    for w in weights:
        if type(w) is not int or (nonzero and w == 0):
            kind = "nonzero integers" if nonzero else "integers"
            raise ValueError(f"weights must be {kind}, got {w!r}")


class _WeightedGate:
    """Both gates' core: output 1 where sum(|w_j| * y_j) >= ``_bound``. A plain
    mixin: each ``Record`` gate class states ``weights`` and its own ``_bound``."""

    @property
    def fan_in(self) -> int:
        return len(self.weights)

    @cached_property  # weights are frozen
    def weight_magnitude_sum(self) -> int:
        return sum(map(abs, self.weights))

    def eval_patterns(self, srcs: Sequence[int], mask: int) -> int:
        """Packed output over packed input patterns; each lies within ``mask``."""
        return _weighted_at_least(self.weights, srcs, mask, self._bound)

    def truth_table(self) -> TruthTable:
        return TruthTable(self.fan_in, self.eval_patterns(*_all_rows(self.fan_in)))


class SpinMinorityGate(_WeightedGate, Record):
    """Gate over +/-1 spins: output is 1 iff the weighted spin sum is positive.

    With all weights -1 this is the plain minority function; a weight of
    magnitude k gives that input k times the pull of a unit input. A zero spin
    sum has no defined output, so building a gate that can tie raises
    ``TieError`` at its lowest tie row. An odd magnitude sum never ties; an
    even one takes a row sweep, so above 24 inputs it raises
    ``TooManyInputsError``.
    """

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_weights(self.weights, nonzero=True)
        # a tie row has sum(|w_j| * y_j) = sum|w_j| / 2; sum|w_j| has sum(w_j)'s parity
        if sum(self.weights) % 2 == 0:
            srcs, mask = _all_rows(self.fan_in)
            ties = _weighted_at_least(self.weights, srcs, mask, self._bound - 1)
            ties ^= self.eval_patterns(srcs, mask)
            if ties:
                tie = assignment_of((ties & -ties).bit_length() - 1, self.fan_in)
                raise TieError(f"tie at assignment {tie}", assignment=tie)

    @cached_property  # the spin sum is positive iff sum(|w_j| * y_j) > sum|w_j| / 2
    def _bound(self) -> int:
        return self.weight_magnitude_sum // 2 + 1


class ThresholdGate(_WeightedGate, Record):
    """0/1-domain gate: output 1 iff sum(w_i * x_i) >= threshold."""

    weights: tuple[int, ...]
    threshold: int

    def __post_init__(self) -> None:
        _check_weights(self.weights, nonzero=False)  # the solver emits zero weights
        if type(self.threshold) is not int:
            raise ValueError(f"threshold must be an integer, got {self.threshold!r}")

    @cached_property  # sum(w_j * x_j) >= T iff sum(|w_j| * y_j) >= T - sum of w_j < 0
    def _bound(self) -> int:
        return self.threshold - sum(w for w in self.weights if w < 0)
