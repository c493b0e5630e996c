"""Single-gate threshold realizability: exact LP solver and weight synthesis.

Realizability of a truth table as [sum(w_i x_i) >= T] is decided by a
phase-1 simplex over exact rationals with Bland's rule, so an infeasible
answer is a terminating proof rather than a search timeout. Strict
separation is posed with integer margin 1: on-set rows satisfy
sum(w x) >= T and off-set rows satisfy sum(w x) <= T - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Union

from .gates import ThresholdGate
from .table import TruthTable, assignment_of, input_pattern

SOLVE_MAX_INPUTS = 10
MINIMIZE_MAX_INPUTS = 6
ENUMERATE_MAX_INPUTS = 4


class NotThresholdError(ValueError):
    """Raised when an operation requires a threshold function and got none.

    ``certificate`` is the LP's proof that the table is not threshold.
    """

    def __init__(self, certificate: NotThreshold):
        super().__init__("function is not a threshold function")
        self.certificate = certificate


@dataclass(frozen=True)
class ChowVector:
    """On-set balance m0 = 2|on-set| - 2^n and per-variable spin correlations."""

    m0: int
    m: tuple[int, ...]


@dataclass(frozen=True)
class Unateness:
    """Per-variable polarity: '+' nondecreasing, '-' nonincreasing, '0' independent."""

    polarities: tuple[str, ...]


@dataclass(frozen=True)
class NotUnate:
    """Witness that some variable shows both polarities.

    Each witness is a pair of assignments differing only in ``variable``;
    ``increasing`` flips the function 0 -> 1, ``decreasing`` flips 1 -> 0.
    """

    variable: int
    increasing: tuple[tuple[int, ...], tuple[int, ...]]
    decreasing: tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class ThresholdRealization:
    gate: ThresholdGate
    minimal: bool = False


@dataclass(frozen=True)
class NotThreshold:
    """Infeasibility certificate from the exact separation LP.

    ``infeasibility_gap`` is the phase-1 optimum (strictly positive) and
    ``num_constraints`` the number of separation constraints posed.
    """

    num_constraints: int
    infeasibility_gap: Fraction


SolveResult = Union[ThresholdRealization, NotThreshold]


def chow_parameters(tt: TruthTable) -> ChowVector:
    n = tt.num_inputs
    on_size = tt.on_set_size()
    m = [0] * n
    for j in range(n):
        ones_j = (tt.bits & input_pattern(j, n)).bit_count()
        # sum of 2x_j - 1 over the on-set
        m[j] = 2 * ones_j - on_size
    return ChowVector(m0=2 * on_size - tt.num_rows, m=tuple(m))


def is_unate(tt: TruthTable) -> Unateness | NotUnate:
    n = tt.num_inputs
    full = (1 << tt.num_rows) - 1
    polarities = []
    for j in range(n):
        d = 1 << j
        low_mask = ~input_pattern(j, n) & full
        f = tt.bits
        increasing = (~f & (f >> d)) & low_mask
        decreasing = (f & ~(f >> d)) & low_mask
        if increasing and decreasing:
            i_up = (increasing & -increasing).bit_length() - 1
            i_dn = (decreasing & -decreasing).bit_length() - 1
            return NotUnate(
                variable=j,
                increasing=(assignment_of(i_up, n), assignment_of(i_up | d, n)),
                decreasing=(assignment_of(i_dn, n), assignment_of(i_dn | d, n)),
            )
        if increasing:
            polarities.append("+")
        elif decreasing:
            polarities.append("-")
        else:
            polarities.append("0")
    return Unateness(tuple(polarities))


def _phase1_simplex(tt: TruthTable) -> tuple[Fraction, list[Fraction]] | None:
    """Feasibility of the margin-1 separation LP via phase-1 simplex.

    Free variables (w_1..w_n, T) are split into nonnegative pairs. Returns
    (gap, values) where gap is the phase-1 optimum; values holds (w, T) as
    Fractions when gap == 0, otherwise the LP is infeasible and the second
    element is empty.
    """
    n = tt.num_inputs
    rows = tt.num_rows
    nfree = n + 1  # w_1..w_n, T
    ncols = 2 * nfree + rows  # split free vars + one slack/surplus per row
    off_rows = [i for i in range(rows) if not (tt.bits >> i) & 1]
    nart = len(off_rows)
    total = ncols + nart + 1  # + RHS

    zero = Fraction(0)
    one = Fraction(1)
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    art_col = {}
    for k, i in enumerate(off_rows):
        art_col[i] = ncols + k

    for i in range(rows):
        row = [zero] * total
        on = (tt.bits >> i) & 1
        # free-variable coefficients of the constraint, written so RHS >= 0:
        #   on row:   -(sum w x - T) + slack = 0          (slack basic)
        #   off row:  (T - sum w x) - surplus + art = 1   (artificial basic)
        for j in range(n):
            x = (i >> j) & 1
            if not x:
                continue
            c = -one  # coefficient of w_j in both forms above
            row[2 * j] = c
            row[2 * j + 1] = -c
        row[2 * n] = one  # +T
        row[2 * n + 1] = -one
        if on:
            row[2 * nfree + i] = one
            row[-1] = zero
            basis.append(2 * nfree + i)
        else:
            row[2 * nfree + i] = -one
            row[art_col[i]] = one
            row[-1] = one
            basis.append(art_col[i])
        tableau.append(row)

    # reduced-cost row for minimizing the sum of artificials
    obj = [zero] * total
    for k in range(nart):
        obj[ncols + k] = one
    for i, b in enumerate(basis):
        if b >= ncols:
            r = tableau[i]
            obj = [o - v for o, v in zip(obj, r)]

    while True:
        enter = -1
        for j in range(total - 1):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio = None
        for i in range(rows):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; formulation bug")
        piv_row = tableau[leave]
        piv = piv_row[enter]
        if piv != 1:
            tableau[leave] = piv_row = [v / piv for v in piv_row]
        for i in range(rows):
            if i == leave:
                continue
            f = tableau[i][enter]
            if f:
                tableau[i] = [v - f * p for v, p in zip(tableau[i], piv_row)]
        f = obj[enter]
        if f:
            obj = [v - f * p for v, p in zip(obj, piv_row)]
        basis[leave] = enter

    gap = -obj[-1]
    if gap != 0:
        return (gap, [])
    values = [zero] * ncols
    for i, b in enumerate(basis):
        if b < ncols:
            values[b] = tableau[i][-1]
    solution = [values[2 * j] - values[2 * j + 1] for j in range(nfree)]
    return (zero, solution)


def solve_threshold(tt: TruthTable) -> SolveResult:
    """Exact integer realization of ``tt`` as a single threshold gate, or proof
    that none exists."""
    n = tt.num_inputs
    if n > SOLVE_MAX_INPUTS:
        raise ValueError(
            f"solve_threshold supports up to {SOLVE_MAX_INPUTS} inputs, got {n}"
        )
    gap, sol = _phase1_simplex(tt)
    if gap != 0:
        return NotThreshold(num_constraints=tt.num_rows, infeasibility_gap=gap)
    scale = math.lcm(*(v.denominator for v in sol))
    ints = [int(v * scale) for v in sol]
    gate = ThresholdGate(weights=tuple(ints[:n]), threshold=ints[n])
    if gate.truth_table() != tt:
        raise RuntimeError("LP solution failed re-evaluation; solver bug")
    return ThresholdRealization(gate=gate, minimal=False)


def minimize_weights(tt: TruthTable) -> ThresholdRealization:
    """Realization with minimal total |w|, ties broken lexicographically.

    Iterative deepening on the per-weight bound B: any realization with
    sum|w| = S has every |w_j| <= S, so the first minimum found with
    sum|w| <= B + 1 is globally minimal.
    """
    n = tt.num_inputs
    if n > MINIMIZE_MAX_INPUTS:
        raise ValueError(
            f"minimize_weights supports up to {MINIMIZE_MAX_INPUTS} inputs, got {n}"
        )
    probe = solve_threshold(tt)
    if isinstance(probe, NotThreshold):
        raise NotThresholdError(probe)

    B = 0
    while True:
        B += 1
        best: tuple[int, tuple[int, ...], int] | None = None
        for w in product(range(-B, B + 1), repeat=n):
            s = sum(abs(v) for v in w)
            if best is not None and s > best[0]:
                continue
            sums = [0]
            for wj in w:
                sums += [v + wj for v in sums]
            t_max = n * B + 1
            min_on = t_max  # T may not exceed the allowed ceiling
            max_off = -n * B - 1  # T floor is -n*B
            for i, v in enumerate(sums):
                if (tt.bits >> i) & 1:
                    if v < min_on:
                        min_on = v
                else:
                    if v > max_off:
                        max_off = v
            if max_off < min_on:
                cand = (s, w, max_off + 1)
                if best is None or cand < best:
                    best = cand
        if best is not None and best[0] <= B + 1:
            s, w, t = best
            gate = ThresholdGate(weights=w, threshold=t)
            if gate.truth_table() != tt:
                raise RuntimeError("minimized gate failed re-evaluation")
            return ThresholdRealization(gate=gate, minimal=True)


@dataclass(frozen=True)
class ThresholdEnumeration:
    num_inputs: int
    count: int
    tables: tuple[int, ...]  # packed table values, increasing


def enumerate_threshold_functions(n: int) -> ThresholdEnumeration:
    """Classify every n-input function; count and list the threshold ones.

    Non-unate functions are rejected without an LP call (unateness is a
    necessary condition), and classification is shared across input
    permutations and output complement, both of which preserve thresholdness.
    Every positive answer still comes from the exact LP.
    """
    if not 1 <= n <= ENUMERATE_MAX_INPUTS:
        raise ValueError(
            f"enumerate_threshold_functions supports 1..{ENUMERATE_MAX_INPUTS}, got {n}"
        )
    rows = 1 << n
    full = (1 << rows) - 1
    index_maps = []
    for perm in permutations(range(n)):
        index_maps.append(
            [
                sum(((i >> j) & 1) << perm[j] for j in range(n))
                for i in range(rows)
            ]
        )

    def canonical(bits: int) -> int:
        best = None
        for variant in (bits, bits ^ full):
            for imap in index_maps:
                nb = 0
                v = variant
                while v:
                    low = v & -v
                    nb |= 1 << imap[low.bit_length() - 1]
                    v ^= low
                if best is None or nb < best:
                    best = nb
        return best

    cache: dict[int, bool] = {}
    tables: list[int] = []
    for f in range(1 << rows):
        tt = TruthTable(n, f)
        if isinstance(is_unate(tt), NotUnate):
            continue
        key = canonical(f)
        verdict = cache.get(key)
        if verdict is None:
            verdict = isinstance(solve_threshold(tt), ThresholdRealization)
            cache[key] = verdict
        if verdict:
            tables.append(f)
    return ThresholdEnumeration(num_inputs=n, count=len(tables), tables=tuple(tables))


def threshold_tables_by_search(n: int, max_weight: int) -> frozenset[int]:
    """Bounded brute-force enumeration oracle, independent of the LP solver.

    Returns the packed tables of every function realizable with integer
    weights in [-max_weight, max_weight] (zeros allowed) and any threshold.
    """
    found: set[int] = set()
    for w in product(range(-max_weight, max_weight + 1), repeat=n):
        sums = [0]
        for wj in w:
            sums += [v + wj for v in sums]
        thresholds = sorted(set(sums))
        for t in thresholds + [thresholds[-1] + 1]:
            bits = 0
            for i, v in enumerate(sums):
                if v >= t:
                    bits |= 1 << i
            found.add(bits)
    return frozenset(found)
