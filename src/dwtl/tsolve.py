"""Single-gate threshold realizability: exact LP solver and weight synthesis.

Realizability of a truth table as [sum(w_i x_i) >= T] is decided by an
exact phase-1 simplex with Bland's rule, so an infeasible answer is a
terminating proof rather than a search timeout. Strict separation is posed
with integer margin 1: on-set rows satisfy sum(w x) >= T and off-set rows
satisfy sum(w x) <= T - 1.

The LP never sees all 2^n rows. A non-unate table is refuted by its
unateness witness alone (4 rows). A unate table is solved in its positive
form, where only the minimal true and maximal false rows matter (Muroga,
*Threshold Logic and Its Applications*, 1971), and those are added to the
LP one at a time, each time the lowest one that the current integer
candidate, tabled by the packed gate kernel, gets wrong. Pivots run on
integers, fraction-free (Edmonds/Bareiss), on one tableau per solve: an
added row is written into the current basis and the pivots go on from
there, a warm start, instead of re-solving from an empty basis.
"""

from __future__ import annotations

import math
from itertools import product

from .gates import ThresholdGate, _weighted_at_least
from .table import ENUMERATE_MAX_INPUTS, MINIMIZE_MAX_INPUTS, SOLVE_MAX_INPUTS
from .table import Record, TruthTable, assignment_of, input_pattern, input_patterns

TYPE_CHECKING = False  # not typing.TYPE_CHECKING: importing typing costs 3-4 ms
if TYPE_CHECKING:
    from fractions import Fraction


class NotThresholdError(ValueError):
    """Raised when an operation requires a threshold function and got none.

    ``certificate`` is the LP's proof that the table is not threshold.
    """

    def __init__(self, certificate: NotThreshold):
        super().__init__("function is not a threshold function")
        self.certificate = certificate


class ChowVector(Record):
    """On-set balance m0 = 2|on-set| - 2^n and per-variable spin correlations."""

    m0: int
    m: tuple[int, ...]


class Unateness(Record):
    """Per-variable polarity: '+' nondecreasing, '-' nonincreasing, '0' independent."""

    polarities: tuple[str, ...]


class NotUnate(Record):
    """Witness that some variable shows both polarities.

    Each witness is a pair of assignments differing only in ``variable``;
    ``increasing`` flips the function 0 -> 1, ``decreasing`` flips 1 -> 0.
    """

    variable: int
    increasing: tuple[tuple[int, ...], tuple[int, ...]]
    decreasing: tuple[tuple[int, ...], tuple[int, ...]]


class ThresholdRealization(Record):
    gate: ThresholdGate
    minimal: bool = False


class NotThreshold(Record):
    """Infeasibility certificate from the exact separation LP.

    ``infeasibility_gap`` is the phase-1 optimum (strictly positive) of the
    warm-started LP, whose added rows carry their own artificial columns, and
    ``num_constraints`` the number of rows in the final working set, which
    alone are infeasible: the 4 witness rows of a non-unate table, else the
    boundary rows added before the LP failed.
    """

    num_constraints: int
    infeasibility_gap: Fraction


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


class _SeparationLP:
    """Phase-1 simplex with Bland's rule on an all-integer tableau, warm-started.

    Each row asks c . v >= 0 (on) or c . v <= -1 (off) over columns v >= 0,
    with its own slack s >= 0: -c.v + s = 0 or c.v + s = -1. Pivots are
    fraction-free (Edmonds/Bareiss): ``rows`` hold the true tableau times
    ``d``, the determinant of the current basis, with the RHS first, and
    every update divides exactly by the previous d. The tableau, basis and
    objective row persist between solves: ``add`` writes a new row in terms
    of the current basis and ``solve`` pivots on from wherever the basis
    stands, so a cold start is only rows added before the first solve.
    ``pivots`` counts the pivots made so far.
    """

    def __init__(self, nv: int):
        self.nv = nv
        self.d = 1
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        self.obj = [0] * (nv + 1)  # reduced costs of the sum of artificials, times d
        self.pivots = 0

    def add(self, c: list[int], on: bool) -> None:
        """Pose one row, written in the current basis as d * row minus each
        basic entry times its tableau row: exact, since every basic column
        holds d. Its slack, worth d, is basic if the RHS is >= 0; otherwise
        the row is negated and gets an artificial column worth d instead,
        and the objective row loses the row."""
        d, nv = self.d, self.nv
        r = [-v for v in c] if on else c
        new = [0 if on else -d] + [d * v for v in r] + [0] * (len(self.obj) - nv - 1)
        for b, row in zip(self.basis, self.rows):
            if b <= nv and r[b - 1]:
                new = [x - r[b - 1] * y for x, y in zip(new, row)]
        if new[0] < 0:  # slack -d, artificial d at cost d
            new = [-x for x in new] + [-d, d]
            self.obj = [o - x for o, x in zip(self.obj, new)] + [d, 0]
        else:
            new.append(d)
            self.obj.append(0)
        for row in self.rows:
            row += [0] * (len(new) - len(row))
        self.basis.append(len(new) - 1)
        self.rows.append(new)

    def solve(self) -> tuple[int, list[int]]:
        """Pivot to the phase-1 optimum. Returns (gap, values), both times d,
        in integers: a positive optimum ``gap`` proves the rows posed so far
        infeasible (values empty); with gap 0, ``values`` is a feasible v."""
        rows, basis, obj, d = self.rows, self.basis, self.obj, self.d
        while True:
            enter = next((k for k in range(1, len(obj)) if obj[k] < 0), 0)
            if not enter:
                break
            leave = -1
            for i, row in enumerate(rows):
                a = row[enter]
                # row[0] / a against the best ratio, cross-multiplied; ties by basis
                if a > 0 and (leave < 0 or (row[0] * rows[leave][enter], basis[i])
                              < (rows[leave][0] * a, basis[leave])):
                    leave = i
            if leave < 0:
                raise RuntimeError("phase-1 objective unbounded; formulation bug")
            piv_row = rows[leave]
            p = piv_row[enter]
            for i, row in enumerate(rows):
                f = row[enter]
                if i != leave and (f or p != d):
                    rows[i] = [(v * p - f * q) // d for v, q in zip(row, piv_row)]
            f = obj[enter]
            obj = [(v * p - f * q) // d for v, q in zip(obj, piv_row)]
            d = p
            basis[leave] = enter
            self.pivots += 1
        self.obj, self.d = obj, d
        if obj[0]:
            return -obj[0], []
        basic = {b: row[0] for row, b in zip(rows, basis)}
        return 0, [basic.get(k, 0) for k in range(1, self.nv + 1)]

    def certificate(self, num_constraints: int) -> NotThreshold:
        from fractions import Fraction  # only a proof of infeasibility loads it

        return NotThreshold(num_constraints, Fraction(-self.obj[0], self.d))


def _flip(bits: int, j: int, patterns: list[int]) -> int:
    """The table under x_j -> 1 - x_j: the blocks of input_pattern(j, n) swap."""
    return ((bits & patterns[j]) >> (1 << j)) | ((bits & ~patterns[j]) << (1 << j))


def _positive_form(
    tt: TruthTable, unate: Unateness, patterns: list[int]
) -> tuple[int, int, int]:
    """(g, mins, maxs): the table with its '-' variables flipped, its minimal
    true rows and its maximal false rows."""
    g = tt.bits
    for j, p in enumerate(unate.polarities):
        if p == "-":
            g = _flip(g, j, patterns)
    lowered = raised = 0  # rows with a true row below / a false row above
    for j, pattern in enumerate(patterns):
        lowered |= pattern & (g << (1 << j))
        raised |= ~pattern & (~g >> (1 << j))
    return g, g & ~lowered, ((1 << tt.num_rows) - 1) & ~g & ~raised


def _solve(
    tt: TruthTable, unate: Unateness | NotUnate
) -> ThresholdRealization | NotThreshold:
    """``solve_threshold`` given the table's unateness.

    A unate table is solved in its positive form: each '-' variable is
    flipped, each '0' variable gets weight 0, and the weights of the live
    variables are >= 0 with T >= 0 (a negative T only realizes constant 1,
    as T = 0 does). Under w >= 0 every true row dominates a minimal true
    row and every false row is dominated by a maximal false row, so those
    boundary rows decide the LP. They are added to a working set one at a
    time, each time the lowest one the integer candidate gets wrong, into
    one warm-started LP that pivots on from its last basis. Infeasibility
    on the working set is already a proof.
    """
    if isinstance(unate, NotUnate):
        # the witness's 4 rows alone force w_j >= 1 and w_j <= -1; weights
        # and T are free there, each split into a nonnegative pair
        rows = (*unate.increasing, *unate.decreasing)
        lp = _SeparationLP(2 * len(rows[0]) + 2)
        for row, on in zip(rows, (False, True, True, False)):
            lp.add([s * x for x in (*row, -1) for s in (1, -1)], on)
        if not lp.solve()[0]:
            raise RuntimeError("LP feasible on a unateness witness; solver bug")
        return lp.certificate(len(rows))
    n = tt.num_inputs
    full = (1 << tt.num_rows) - 1
    patterns = input_patterns(n)
    flipped = [j for j, p in enumerate(unate.polarities) if p == "-"]
    live = [j for j, p in enumerate(unate.polarities) if p != "0"]
    g, mins, maxs = _positive_form(tt, unate, patterns)
    boundary = mins | maxs

    lp = _SeparationLP(len(live) + 1)
    new = [r.bit_length() - 1 for r in (mins & -mins, maxs) if r]
    while True:
        for i in new:
            lp.add([(i >> j) & 1 for j in live] + [-1], bool((g >> i) & 1))
        gap, values = lp.solve()
        if gap:
            return lp.certificate(len(lp.rows))
        scale = math.gcd(*values) or 1
        weights = [0] * n
        for j, v in zip(live, values):
            weights[j] = v // scale
        threshold = values[-1] // scale
        # positive form: every weight >= 0, so the kernel's bound is T itself
        candidate = _weighted_at_least(weights, patterns, full, threshold)
        wrong = (candidate ^ g) & boundary
        if not wrong:
            break
        new = [(wrong & -wrong).bit_length() - 1]
    for j in flipped:  # w_j x_j over 1 - x_j: negate w_j and lower T by it
        threshold -= weights[j]
        weights[j] = -weights[j]
    gate = ThresholdGate(weights=tuple(weights), threshold=threshold)
    if gate.truth_table() != tt:
        raise RuntimeError("LP solution failed re-evaluation; solver bug")
    return ThresholdRealization(gate=gate, minimal=False)


def solve_threshold(tt: TruthTable) -> ThresholdRealization | NotThreshold:
    """Exact integer realization of ``tt`` as a single threshold gate, or proof
    that none exists."""
    n = tt.num_inputs
    if n > SOLVE_MAX_INPUTS:
        raise ValueError(
            f"solve_threshold supports up to {SOLVE_MAX_INPUTS} inputs, got {n}"
        )
    return _solve(tt, is_unate(tt))


def _max_off_below_on(
    mags: tuple[int, ...], on_rows: list[list[int]], off_rows: list[list[int]]
) -> int | None:
    """The largest sum of ``mags`` over an off row, if every on row sums above it."""
    max_off = max(sum(mags[k] for k in row) for row in off_rows)
    if all(sum(mags[k] for k in row) > max_off for row in on_rows):
        return max_off
    return None


def minimize_weights(tt: TruthTable) -> ThresholdRealization:
    """Realization with minimal total |w|, ties broken lexicographically.

    '0' variables get weight 0, live ones a magnitude signed by polarity.
    The compositions of S = live, live + 1, ... are tried as magnitudes on
    the positive form's boundary rows: feasible when every maximal false row
    sums below every minimal true row, and T is one above the largest false
    sum. The first feasible S is the minimum. Only compositions in strict
    Chow order are built: |m_i| > |m_j| forces |w_i| > |w_j| (Chow, 1961).
    A constant table gets zero weights and T = 1 (for 0) or -n (for 1).
    The exact LP runs first: a non-threshold table raises NotThresholdError,
    and its realization, a candidate in strict Chow order, caps S at its sum|w|.
    """
    n = tt.num_inputs
    if n > MINIMIZE_MAX_INPUTS:
        raise ValueError(
            f"minimize_weights supports up to {MINIMIZE_MAX_INPUTS} inputs, got {n}"
        )
    unate = is_unate(tt)
    probe = _solve(tt, unate)
    if isinstance(probe, NotThreshold):
        raise NotThresholdError(probe)

    chow = [abs(m) for m in chow_parameters(tt).m]
    live = [j for j, p in enumerate(unate.polarities) if p != "0"]
    order = sorted(live, key=lambda j: -chow[j])  # strongest first
    _, mins, maxs = _positive_form(tt, unate, input_patterns(n))
    on_rows, off_rows = (
        [[k for k, j in enumerate(order) if i >> j & 1]
         for i in range(tt.num_rows) if rows >> i & 1]
        for rows in (mins, maxs)
    )

    def parts(p: int, rem: int, cap: int, low: int):
        """Parts for order[p:]: each <= cap, below every part of a stronger group."""
        if p == len(order):
            yield ()
            return
        if p and chow[order[p]] != chow[order[p - 1]]:
            cap, low = low - 1, rem  # low: the least part of the current group
        rest = len(order) - p - 1
        for v in range(max(1, rem - rest * cap), min(cap, rem - rest) + 1):
            for tail in parts(p + 1, rem - v, cap, min(low, v)):
                yield (v, *tail)

    best = None
    total = len(order)
    while order and best is None:
        if total > probe.gate.weight_magnitude_sum:
            raise RuntimeError("minimizer passed the LP's weight sum; solver bug")
        for mags in parts(0, total, total, total):
            max_off = _max_off_below_on(mags, on_rows, off_rows)
            if max_off is not None:
                w = [0] * n
                for j, v in zip(order, mags):
                    w[j] = v if unate.polarities[j] == "+" else -v
                cand = (tuple(w), max_off + 1 + sum(v for v in w if v < 0))
                best = min(best or cand, cand)
        total += 1
    w, t = best or ((0,) * n, -n if tt.bits else 1)
    gate = ThresholdGate(weights=w, threshold=t)
    if gate.truth_table() != tt:
        raise RuntimeError("minimized gate failed re-evaluation")
    return ThresholdRealization(gate=gate, minimal=True)


class ThresholdEnumeration(Record):
    num_inputs: int
    count: int
    tables: tuple[int, ...]  # packed table values, increasing


def enumerate_threshold_functions(n: int) -> ThresholdEnumeration:
    """Classify every n-input function through the monotone functions, n <= 5.

    Every threshold function is unate, and flipping its '-' variables gives
    a positive threshold function, which is monotone. So the monotone
    functions are built bottom-up, as f0 | f1 << 2^k with f0 a subset of f1
    (7,581 at n = 5, the Dedekind number), each one is decided by the exact
    LP, and every positive threshold function is expanded into its flips
    over its essential variables (Muroga, *Threshold Logic and Its
    Applications*, 1971). Distinct flips give distinct polarities, so the
    union is disjoint. Every positive answer still comes from the exact LP.
    """
    if not 1 <= n <= ENUMERATE_MAX_INPUTS:
        raise ValueError(
            f"enumerate_threshold_functions supports 1..{ENUMERATE_MAX_INPUTS}, got {n}"
        )
    monotone = [0, 1]  # the 0-input functions
    for k in range(n):
        shift = 1 << k
        monotone = [
            f0 | f1 << shift for f1 in monotone for f0 in monotone if not f0 & ~f1
        ]
    patterns = input_patterns(n)
    tables: list[int] = []
    for f in monotone:
        tt = TruthTable(n, f)
        unate = is_unate(tt)
        if isinstance(_solve(tt, unate), NotThreshold):
            continue
        flips = [f]
        for j, p in enumerate(unate.polarities):
            if p == "+":
                flips += [_flip(g, j, patterns) for g in flips]
        tables += flips
    tables.sort()
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
