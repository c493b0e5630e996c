"""Shared helpers for the test suite: random netlists, and reference code the
library does not carry. ``spin_eval`` and ``threshold_eval`` evaluate a gate
one vector at a time, apart from the packed weighted-sum kernel."""

import random

from dwtl import (
    GateDef, Netlist, OutputDef, SpinMinorityGate, ThresholdGate, TieError, TruthTable,
)
from dwtl.table import input_pattern

# the paper's sum gate: unit pull on three inputs, double pull on the fourth;
# wired to (a, b, cin, MIN3(a, b, cin)) it holds the complement of the sum bit
SUM4 = SpinMinorityGate((-1, -1, -1, -2))


def spin_eval(weights, x):
    """1 if the weighted spin sum of bits ``x`` (0 -> -1, 1 -> +1) is positive,
    0 if it is negative; a zero sum raises TieError at ``x``."""
    assert len(x) == len(weights), (weights, x)
    acc = sum(w * (2 * (b & 1) - 1) for w, b in zip(weights, x))
    if acc == 0:
        raise TieError(
            f"tie at assignment {tuple(x)}: weighted spin sum is zero",
            assignment=tuple(x),
        )
    return int(acc > 0)


def spin_sums(weights):
    """Every value the weighted spin sum of ``weights`` takes over all rows."""
    sums = {0}
    for w in weights:
        sums = {s + d for s in sums for d in (w, -w)}
    return sums


def threshold_eval(weights, threshold, x):
    """1 if sum(w_i * x_i) >= threshold over bits ``x``, else 0."""
    assert len(x) == len(weights), (weights, x)
    return int(sum(w * (b & 1) for w, b in zip(weights, x)) >= threshold)


def to_threshold(gate):
    """The 0/1-domain form of a spin-minority gate: weights doubled and
    T = sum(w) + 1, since with s = 2x - 1 the spin sum is positive iff
    2 * sum(w_i x_i) >= sum(w_i) + 1 over integers."""
    return ThresholdGate(tuple(2 * w for w in gate.weights), sum(gate.weights) + 1)


def complement(tt):
    """``tt`` with every row's value flipped."""
    return TruthTable(tt.num_inputs, tt.bits ^ ((1 << tt.num_rows) - 1))


def negated(gate):
    """The spin-minority gate with every weight's sign flipped."""
    return SpinMinorityGate(tuple(-w for w in gate.weights))


def chow_parameters(tt):
    """(m0, m): on-set balance m0 = 2|on-set| - 2^n and, per variable j, the
    sum of 2x_j - 1 over the on-set."""
    n, on = tt.num_inputs, tt.bits.bit_count()
    m = tuple(2 * (tt.bits & input_pattern(j, n)).bit_count() - on for j in range(n))
    return 2 * on - tt.num_rows, m


def polarities(tt):
    """Per variable, '+' if raising it from 0 to 1 only ever raises the table,
    '-' if it only ever lowers it, '0' if it never changes it; None if some
    variable does both. Row by row, with no packed masks."""
    n, f, signs = tt.num_inputs, tt.bits, ""
    for j in range(n):
        moves = {(f >> i & 1, f >> (i | 1 << j) & 1) for i in range(1 << n) if not i >> j & 1}
        rises, falls = (0, 1) in moves, (1, 0) in moves
        if rises and falls:
            return None
        signs += "+" if rises else "-" if falls else "0"
    return signs


def boundary_lp_verdict(n, f):
    """Whether the monotone n-input f is threshold, from one exact LP posed at
    once on all of its minimal true and maximal false rows under single-bit
    moves, with weights and T >= 0: no variable order and no cut loop."""
    from dwtl.tsolve import _SeparationLP

    lp = _SeparationLP(n + 1)
    for i in range(1 << n):
        on = f >> i & 1  # minimal true: no true row one bit below; maximal false
        if all(f >> (i ^ 1 << j) & 1 != on for j in range(n) if i >> j & 1 == on):
            s = -1 if on else 1  # on: -c.v <= 0, off: c.v <= -1, c = (row, -1)
            lp.add([s * (i >> j & 1) for j in range(n)] + [-s], on - 1)
    return bool(lp.solve())


def random_valid_netlist(rng: random.Random) -> Netlist:
    """Small random valid netlist; every gate has odd total weight (no ties)."""
    n_inputs = rng.randint(1, 6)
    inputs = tuple(f"x{i}" for i in range(n_inputs))
    refs_pool = list(inputs)
    gates = []
    for k in range(rng.randint(0, 8)):
        fan_in = rng.randint(1, 4)
        weights = None
        while weights is None or sum(abs(w) for w in weights) % 2 == 0:
            weights = tuple(
                rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(fan_in)
            )
        refs = tuple(rng.choice(refs_pool) for _ in range(fan_in))
        name = f"g{k}"
        gates.append(GateDef(name, SpinMinorityGate(weights), refs))
        refs_pool.append(name)
    outputs = tuple(
        OutputDef(f"y{k}", rng.choice(refs_pool), rng.random() < 0.5)
        for k in range(rng.randint(1, 3))
    )
    return Netlist(inputs, tuple(gates), outputs)
