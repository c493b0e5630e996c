"""Single-gate threshold realizability: exact LP solver and weight synthesis.

Realizability of a truth table as [sum(w_i x_i) >= T] is decided by an
exact phase-1 simplex with Bland's rule, so an infeasible answer is a
terminating proof rather than a search timeout, and minimal weights come
from the same LP, continued by a lexicographic phase 2. Strict separation
is posed with integer margin 1: on-set rows satisfy sum(w x) >= T and
off-set rows satisfy sum(w x) <= T - 1.

The LP never sees all 2^n rows. A non-unate table is refuted by its
unateness witness alone (4 rows). A unate table is solved in its positive
form, where only the minimal true and maximal false rows matter (Muroga,
*Threshold Logic and Its Applications*, 1971), added one at a time, each the
lowest that the integer candidate, tabled by the packed gate kernel, gets
wrong. An ordered-regular function needs no such loop: under ordered weights
its shift-minimal true and shift-maximal false rows decide one LP, posed at
once. Pivots run on integers, fraction-free (Edmonds/Bareiss), on one tableau
per LP: an added row is written into the current basis and pivoting goes on.
"""

from __future__ import annotations

import math
from itertools import accumulate, product

from .gates import ThresholdGate, _weighted_at_least
from .table import ENUMERATE_MAX_INPUTS, SOLVE_MAX_INPUTS
from .table import Record, TruthTable, assignment_of, input_pattern, input_patterns

TYPE_CHECKING = False  # not typing.TYPE_CHECKING: importing typing costs 3-4 ms
if TYPE_CHECKING:
    from collections.abc import Sequence
    from fractions import Fraction


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
    """Simplex with Bland's rule on an all-integer tableau, warm-started.

    Each row asks r . v <= rhs over columns v >= 0, with its own slack
    s >= 0: r.v + s = rhs. Pivots are fraction-free (Edmonds/Bareiss):
    ``rows`` hold the true tableau times ``d``, the determinant of the
    current basis, with the RHS first, and every update divides exactly by
    the previous d. The tableau, basis and phase-1 objective row persist
    between solves: ``add`` writes a new row in terms of the current basis
    and ``solve`` pivots on from wherever the basis stands, so a cold start
    is only rows added before the first solve. ``pivots`` counts the pivots
    made so far.
    """

    def __init__(self, nv: int):
        self.nv = nv
        self.d = 1
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        self.obj = [0] * (nv + 1)  # reduced costs of the sum of artificials, times d
        self.pivots = 0

    def _in_basis(self, r: list[int], rhs: int) -> list[int]:
        """d * (rhs, r) less each basic entry of r times its row (exact: basic
        columns hold d). A cost row (rhs 0) gives -cost, then reduced costs."""
        d, nv = self.d, self.nv
        new = [d * rhs] + [d * v for v in r] + [0] * (len(self.obj) - nv - 1)
        for b, row in zip(self.basis, self.rows):
            if b <= nv and r[b - 1]:
                new = [x - r[b - 1] * y for x, y in zip(new, row)]
        return new

    def add(self, r: list[int], rhs: int) -> None:
        """Pose r . v <= rhs. Its slack, worth d, is basic if the RHS is >= 0;
        otherwise the row is negated and gets an artificial column worth d
        instead, and the objective row loses the row."""
        d, new = self.d, self._in_basis(r, rhs)
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

    def solve(self, costs: Sequence[list[int]] = ()) -> tuple[int, list[int]]:
        """Pivot to the phase-1 optimum, then to the minimum of each of ``costs``
        in turn (lexicographic: each prices only the columns at 0 in every
        objective before it, so those, phase 1 among them, stay optimal).
        Returns (gap, values), both times d: a positive ``gap`` proves the rows
        infeasible (values empty); with gap 0, ``values`` is a feasible v."""
        cols = range(1, len(self.obj))
        price = self._descend([self.obj], cols)
        if price[0]:
            return -price[0], []
        for c in costs:
            cols = [k for k in cols if not price[k]]
            if set(cols) <= set(self.basis):  # no pivot left: the optimum is one point
                break
            price = self._descend([self.obj, self._in_basis(c, 0)], cols)
        basic = {b: row[0] for row, b in zip(self.rows, self.basis)}
        return 0, [basic.get(k, 0) for k in range(1, self.nv + 1)]

    def _descend(self, objs: list[list[int]], cols: Sequence[int]) -> list[int]:
        """Bland's rule on the last of ``objs`` over ``cols``, to its minimum;
        every row of ``objs`` (phase 1 first) follows the basis."""
        rows, basis, d = self.rows, self.basis, self.d
        while True:
            price = objs[-1]
            enter = next((k for k in cols if price[k] < 0), 0)
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
                raise RuntimeError("simplex objective unbounded; formulation bug")
            piv_row = rows[leave]
            p = piv_row[enter]
            for i, row in enumerate(rows):
                f = row[enter]
                if i != leave and (f or p != d):
                    rows[i] = [(v * p - f * q) // d for v, q in zip(row, piv_row)]
            for i, o in enumerate(objs):
                f = o[enter]
                objs[i] = [(v * p - f * q) // d for v, q in zip(o, piv_row)]
            d = p
            basis[leave] = enter
            self.pivots += 1
        self.obj, self.d = objs[0], d
        return price

    def certificate(self, num_constraints: int) -> NotThreshold:
        from fractions import Fraction  # only a proof of infeasibility loads it

        return NotThreshold(num_constraints, Fraction(-self.obj[0], self.d))


def _lexmin(lp: _SeparationLP, costs: list[list[int]], ceiling: int) -> list[int] | None:
    """The integer point of ``lp`` that minimizes each cost in turn; the costs
    must fix one point, and ``ceiling`` bound each of them there. [] if the LP
    is infeasible, else None if it has no such point. Past a fractional optimum,
    the first cost is fixed at each integer from the optimum's up to ``ceiling``,
    on a copy, until one has an integer point or is infeasible."""
    _, values = lp.solve(costs)
    if all(v % lp.d == 0 for v in values):
        return [v // lp.d for v in values]
    from copy import deepcopy  # only a fractional optimum loads it

    first = costs[0]
    bound = -(-sum(c * v for c, v in zip(first, values)) // lp.d)
    while bound <= ceiling:
        branch = deepcopy(lp)
        branch.add(first, bound)
        branch.add([-c for c in first], -bound)
        point = _lexmin(branch, costs[1:], ceiling)
        if point is not None:  # [] : infeasible here, so at every larger bound
            return point or None
        bound += 1
    return None


def _delta_swap(bits: int, mask: int, shift: int) -> int:
    """Trade each row in ``mask`` for the row ``shift`` = 2^j above it: mask
    ~input_pattern(j, n) flips x_j; the rows with x_j = 1, x_{j+1} = 0 swap the two."""
    t = (bits ^ (bits >> shift)) & mask
    return bits ^ t ^ (t << shift)


def _extremal(g: int, full: int, drops, swaps) -> tuple[int, int]:
    """The minimal true and maximal false rows of g, monotone in the order the
    moves generate. A move (mask, shift) pairs each row r in mask with r +
    shift: a drop's r lies below it, a swap's above it."""
    below = above = 0  # rows with a true row just below / a false row just above
    for mask, shift in drops:
        below |= (mask & g) << shift
        above |= mask & ~(g >> shift)
    for mask, shift in swaps:
        below |= mask & (g >> shift)
        above |= (mask & ~g) << shift
    return g & ~below, full & ~g & ~above


def _solve(tt: TruthTable, minimize: bool = False) -> ThresholdRealization | NotThreshold:
    """``solve_threshold``, or with ``minimize``, ``minimize_weights``.

    A unate table is solved in its positive form: each '-' variable is
    flipped, each '0' variable gets weight 0, and the weights u of the live
    variables are >= 0 with T >= 0 (a negative T only realizes constant 1,
    as T = 0 does). Under u >= 0 every true row dominates a minimal true
    row and every false row is dominated by a maximal false row, so those
    boundary rows decide the LP. They are added to a working set one at a
    time, each time the lowest one the integer candidate gets wrong, into
    one warm-started LP that pivots on from its last basis. Infeasibility
    on the working set is already a proof. To minimize, the loop goes on,
    warm, with the integer lexicographic minimum on the working set of sum
    |w|, each live w_j in variable order (-u_j if flipped), then T.
    """
    if tt.num_inputs > SOLVE_MAX_INPUTS:
        caller = "minimize_weights" if minimize else "solve_threshold"
        raise ValueError(
            f"{caller} supports up to {SOLVE_MAX_INPUTS} inputs, got {tt.num_inputs}"
        )
    unate = is_unate(tt)
    if isinstance(unate, NotUnate):
        # the witness's 4 rows alone force w_j >= 1 and w_j <= -1; weights
        # and T are free there, each split into a nonnegative pair
        rows = (*unate.increasing, *unate.decreasing)
        lp = _SeparationLP(2 * len(rows[0]) + 2)
        for row, on in zip(rows, (False, True, True, False)):
            signs = (-1, 1) if on else (1, -1)  # on: -c.v <= 0, off: c.v <= -1
            lp.add([s * x for x in (*row, -1) for s in signs], on - 1)
        if not lp.solve()[0]:
            raise RuntimeError("LP feasible on a unateness witness; solver bug")
        return lp.certificate(len(rows))
    n = tt.num_inputs
    full = (1 << tt.num_rows) - 1
    patterns = input_patterns(n)
    live = [j for j, p in enumerate(unate.polarities) if p != "0"]
    g = tt.bits  # the positive form: each '-' variable flipped
    for j in live:
        if unate.polarities[j] == "-":
            g = _delta_swap(g, ~patterns[j], 1 << j)
    mins, maxs = _extremal(g, full, [(~p, 1 << j) for j, p in enumerate(patterns)], ())
    boundary = mins | maxs
    lp = _SeparationLP(len(live) + 1)

    def cut(new: list[int], costs: list[list[int]]) -> tuple[list[int], int] | None:
        """Pose ``new``, then each row the point gets wrong: its gate, or None."""
        while True:
            for i in new:
                on = (g >> i) & 1  # on: -c.v <= 0, off: c.v <= -1, c = (row, -1)
                s = -1 if on else 1
                lp.add([s * ((i >> j) & 1) for j in live] + [-s], on - 1)
            # costs come after the probe, ``point``: it fits every working set,
            # so its sum |w| bounds each stage
            values = _lexmin(lp, costs, sum(point[0])) if costs else lp.solve()[1]
            if not values:
                return None
            scale = math.gcd(*values) or 1
            weights = [0] * n
            for j, v in zip(live, values):
                weights[j] = v // scale
            threshold = values[-1] // scale
            # positive form: every weight >= 0, so the kernel's bound is T itself
            candidate = _weighted_at_least(weights, patterns, full, threshold)
            wrong = (candidate ^ g) & boundary
            if not wrong:
                return weights, threshold
            new = [(wrong & -wrong).bit_length() - 1]

    point = cut([r.bit_length() - 1 for r in (mins & -mins, maxs) if r], [])
    if point is None:
        return lp.certificate(len(lp.rows))
    weights, threshold = point
    signs = [-1 if unate.polarities[j] == "-" else 1 for j in live] + [1]
    if minimize:
        units = [[s * (i == k) for i in range(len(signs))] for k, s in enumerate(signs)]
        weights, threshold = cut([], [[1] * len(live) + [0], *units])
        if not threshold:  # constant 1: every T <= 0 fits; -n by convention
            threshold = -n
    for j, s in zip(live, signs):  # w_j x_j over 1 - x_j: negate w_j and lower T by it
        if s < 0:
            threshold -= weights[j]
            weights[j] = -weights[j]
    gate = ThresholdGate(weights=tuple(weights), threshold=threshold)
    if gate.truth_table() != tt:
        raise RuntimeError("LP solution failed re-evaluation; solver bug")
    return ThresholdRealization(gate=gate, minimal=minimize)


def solve_threshold(tt: TruthTable) -> ThresholdRealization | NotThreshold:
    """Exact integer realization of ``tt`` as a single threshold gate, or proof
    that none exists."""
    return _solve(tt)


def minimize_weights(tt: TruthTable) -> ThresholdRealization | NotThreshold:
    """Realization with minimal total |w|, ties broken lexicographically,
    from the LP's phase 2 (``_solve``), or proof that none exists. '0'
    variables get weight 0; a constant table gets zero weights and T = 1
    (for 0) or -n (for 1).
    """
    return _solve(tt, minimize=True)


def _ordered_regular(n: int) -> list[int]:
    """The monotone functions in which trading x_j = 1 for x_i = 1, i < j, keeps
    a true row true: 3 / 5 / 10 / 27 / 119 / 1,173 at n = 1..6."""
    regular = [0, 1]  # the 0-input functions
    for k in range(n):
        # f = f0 | f1 << 2^k: f0 within f1 keeps f monotone in x_k, and each
        # true row of f1 with x_{k-1} = 0, traded for x_{k-1} = 1, is in f0
        low, half = (~input_pattern(k - 1, k), 1 << (k - 1)) if k else (0, 0)
        regular = [
            f0 | f1 << (1 << k) for f1 in regular for f0 in regular
            if not f0 & ~f1 and not (f1 & low) << half & ~f0
        ]
    return regular


def _regular_point(f: int, patterns: list[int], swaps) -> tuple[list[int], int] | None:
    """Weights w_0 >= w_1 >= ... >= 0 and T realizing the ordered-regular f, from
    one exact LP, or None if it is infeasible. The variables are T and steps
    d_k >= 0, w_j = d_j + ... + d_{m-1} over the essential x_0..x_{m-1} (a
    prefix), so a row's coefficient for d_k is its ones among x_0..x_k. Ordered
    weights keep the sum monotone in the order of the adjacent ``swaps`` and of
    dropping x_{n-1}, so f's extremal rows in it decide the LP; and a regular
    threshold function has an ordered realization, so infeasible is a proof."""
    n = len(patterns)
    m = sum(_delta_swap(f, ~p, 1 << j) != f for j, p in enumerate(patterns))
    mins, maxs = _extremal(f, (1 << (1 << n)) - 1, [(~patterns[-1], 1 << (n - 1))], swaps)
    lp = _SeparationLP(m + 1)
    for rows, s, rhs in ((mins, -1, 0), (maxs, 1, -1)):  # on: -c.v <= 0, off: c.v <= -1
        while rows:
            i = (rows & -rows).bit_length() - 1
            rows &= rows - 1
            ones = accumulate((i >> k) & 1 for k in range(m))  # c = (ones, -1)
            lp.add([s * c for c in (*ones, -1)], rhs)
    gap, values = lp.solve()
    if gap:
        return None
    weights = [*accumulate(reversed(values[:m]))][::-1] + [0] * (n - m)
    scale = math.gcd(*weights, values[-1]) or 1
    return [w // scale for w in weights], values[-1] // scale


class ThresholdEnumeration(Record):
    num_inputs: int
    count: int
    tables: tuple[int, ...]  # packed table values, increasing


def enumerate_threshold_functions(n: int) -> ThresholdEnumeration:
    """Classify every n-input function through the ordered-regular functions, n <= 5.

    Flipping the '-' variables of a threshold function gives a positive one,
    and with x_0 >= x_1 >= ... in weight that is regular: trading x_j = 1 for
    x_i = 1, i < j, keeps a true row true. Each permutation class of positive
    threshold functions has exactly one such member (Muroga 1971; Peled and
    Simeone, *Discrete Applied Math.* 12, 1985). One exact LP on its extremal
    rows decides each (119 at n = 5), and its weights are re-evaluated; each
    threshold one is closed under adjacent swaps into its class, each member
    expanded into its flips over its essential variables, a disjoint union.
    """
    if not 1 <= n <= ENUMERATE_MAX_INPUTS:
        raise ValueError(
            f"enumerate_threshold_functions supports 1..{ENUMERATE_MAX_INPUTS}, got {n}"
        )
    full, patterns = (1 << (1 << n)) - 1, input_patterns(n)
    swaps = [(patterns[j] & ~patterns[j + 1], 1 << j) for j in range(n - 1)]
    tables: list[int] = []
    for f in _ordered_regular(n):
        point = _regular_point(f, patterns, swaps)
        if point is None:
            continue
        if _weighted_at_least(point[0], patterns, full, point[1]) != f:
            raise RuntimeError("LP solution failed re-evaluation; solver bug")
        orbit, new = {f}, {f}
        while new:  # breadth first: the closure of {f} under adjacent swaps
            new = {_delta_swap(g, m, s) for g in new for m, s in swaps} - orbit
            orbit |= new
        for g in orbit:
            flips = [g]
            for j, pattern in enumerate(patterns):
                if _delta_swap(g, ~pattern, 1 << j) != g:  # x_j is essential
                    flips += [_delta_swap(h, ~pattern, 1 << j) for h in flips]
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
