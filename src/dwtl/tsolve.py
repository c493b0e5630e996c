"""Single-gate threshold realizability: exact LP solver and weight synthesis.

Realizability of a truth table as [sum(w_i x_i) >= T] is decided by an
exact dual simplex with Bland's rule, so an infeasible answer is a
terminating proof rather than a search timeout, and minimal weights come
from the same LP, continued by lexicographic primal stages. Strict separation
is posed with integer margin 1: on-set rows satisfy sum(w x) >= T and
off-set rows satisfy sum(w x) <= T - 1.

The LP never sees all 2^n rows. ``_solve`` refutes a table by 4 rows, which
need no LP, or decides it by one LP over ordered weights on its shift-extremal
rows, each added when the integer candidate, tabled by the packed gate kernel,
gets it wrong (Muroga, *Threshold Logic and Its Applications*, 1971). Pivots
run on integers, fraction-free (Edmonds/Bareiss), on one tableau per LP: an
added row is written into the current basis and pivoting goes on.
"""

from __future__ import annotations

import math
from itertools import accumulate, product

from .gates import ThresholdGate, _weighted_at_least
from .table import ENUMERATE_MAX_INPUTS, SOLVE_MAX_INPUTS
from .table import Record, TruthTable, input_pattern, input_patterns

TYPE_CHECKING = False  # not typing.TYPE_CHECKING: importing typing costs 3-4 ms
if TYPE_CHECKING:
    from collections.abc import Sequence


class ThresholdRealization(Record):
    gate: ThresholdGate
    minimal: bool = False


class NotThreshold(Record):
    """Proof that no threshold gate realizes the table, by ``num_constraints``
    of its rows, which alone no gate separates: 4 (two true, two false, equal
    vector sums) if the table is not unate or not regular in Chow order, else
    the rows the exact ordered LP posed before it proved them infeasible.
    """

    num_constraints: int


class _SeparationLP:
    """Simplex with Bland's rule on an all-integer tableau, warm-started.

    Each row asks r . v <= rhs over columns v >= 0, with its own slack
    s >= 0: r.v + s = rhs. Pivots are fraction-free (Edmonds/Bareiss):
    ``rows`` hold the true tableau times ``d``, the determinant of the
    current basis, with the RHS first, and every update divides exactly by
    the previous d. The tableau and basis persist between solves: ``add``
    writes a new row in terms of the current basis, with its slack basic,
    and ``solve`` pivots on from wherever the basis stands, so a cold start
    is only rows added before the first solve. ``pivots`` counts the pivots
    made so far.
    """

    def __init__(self, nv: int):
        self.nv = nv
        self.d = 1
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        self.pivots = 0

    def _in_basis(self, r: list[int], rhs: int) -> list[int]:
        """d * (rhs, r) less each basic entry of r times its row (exact: basic
        columns hold d). A cost row (rhs 0) gives -cost, then reduced costs."""
        d, nv = self.d, self.nv
        new = [d * rhs] + [d * v for v in r] + [0] * len(self.rows)
        for b, row in zip(self.basis, self.rows):
            if b <= nv and r[b - 1]:
                new = [x - r[b - 1] * y for x, y in zip(new, row)]
        return new

    def add(self, r: list[int], rhs: int) -> None:
        """Pose r . v <= rhs, its slack basic and worth d: negative if the
        current point breaks the row, until ``solve`` restores it. Before the
        first pivot (d = 1, only slacks basic) it is written as posed."""
        new = self._in_basis(r, rhs) if self.pivots else [rhs, *r] + [0] * len(self.rows)
        new.append(self.d)
        for row in self.rows:
            row.append(0)
        self.basis.append(len(new) - 1)
        self.rows.append(new)

    def solve(self, costs: Sequence[list[int]] = ()) -> list[int]:
        """Restore each broken row (RHS < 0) by dual steps at zero cost, Bland's
        rule: the lowest basic column leaves, the lowest column negative in its
        row enters, each found by one scan. Then pivot to the minimum of each of
        ``costs`` in turn, each priced only on the columns at 0 in every cost
        before it, so those stay optimal. Returns a feasible v times d, or [] if
        a broken row has no negative entry: its slack entries weigh the rows
        into 0 <= r.v <= rhs < 0."""
        rows, basis = self.rows, self.basis
        while True:
            leave = -1
            for i, row in enumerate(rows):
                if row[0] < 0 and (leave < 0 or basis[i] < basis[leave]):
                    leave = i
            if leave < 0:
                break
            for enter, a in enumerate(rows[leave]):
                if a < 0 and enter:
                    break
            else:
                return []
            self._pivot(leave, enter)
        cols = range(1, self.nv + len(rows) + 1)
        for c in costs:
            if set(cols) <= set(basis):  # no pivot left: the optimum is one point
                break
            price = self._descend(self._in_basis(c, 0), cols)
            cols = [k for k in cols if not price[k]]
        basic = {b: row[0] for row, b in zip(rows, basis)}
        return [basic.get(k, 0) for k in range(1, self.nv + 1)]

    def _descend(self, cost: list[int], cols: Sequence[int]) -> list[int]:
        """Bland's rule on the row ``cost`` over ``cols``: pivots to its
        minimum and returns its reduced costs there."""
        rows, basis, price = self.rows, self.basis, [cost]
        while enter := next((k for k in cols if price[0][k] < 0), 0):
            leave = -1
            for i, row in enumerate(rows):
                a = row[enter]
                # row[0] / a against the best ratio, cross-multiplied; ties by basis
                if a > 0 and (leave < 0 or (row[0] * rows[leave][enter], basis[i])
                              < (rows[leave][0] * a, basis[leave])):
                    leave = i
            if leave < 0:
                raise RuntimeError("simplex objective unbounded; formulation bug")
            self._pivot(leave, enter, price)
        return price[0]

    def _pivot(self, leave: int, enter: int, price: list | tuple = ()) -> None:
        """Make ``enter`` basic in row ``leave``, each cost row in ``price`` too;
        a negative pivot (a dual step) negates its row first, so d stays > 0.
        A row with 0 in ``enter`` is only rescaled by p / d, and kept if p = d."""
        rows, d = self.rows, self.d
        if rows[leave][enter] < 0:
            rows[leave] = [-x for x in rows[leave]]
        piv_row, p = rows[leave], rows[leave][enter]
        for tab in (rows, price) if price else (rows,):
            for i, row in enumerate(tab):
                f = row[enter]
                if f and row is not piv_row:
                    tab[i] = [(v * p - f * q) // d for v, q in zip(row, piv_row)]
                elif not f and p != d:
                    tab[i] = [v * p // d for v in row]
        self.d, self.basis[leave] = p, enter
        self.pivots += 1


def _lexmin(lp: _SeparationLP, costs: list[list[int]], ceiling: int) -> list[int] | None:
    """The integer point of ``lp`` that minimizes each cost in turn; the costs
    must fix one point, and ``ceiling`` bound each of them there. [] if the LP
    is infeasible, else None if it has no such point. Past a fractional optimum,
    the first cost is fixed at each integer from the optimum's up to ``ceiling``,
    on a copy, until one has an integer point or is infeasible."""
    values = lp.solve(costs)
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


def _extremal(f: int, patterns: list[int], swaps) -> int:
    """The shift-minimal true and shift-maximal false rows of f: those with no
    true row just below, or no false row just above, in the order that
    dropping x_{n-1} and the adjacent ``swaps`` generate. A swap (mask, shift)
    pairs each row r in mask with r + shift, below it."""
    full, top = (1 << (1 << len(patterns))) - 1, 1 << (len(patterns) - 1)
    below = (~patterns[-1] & f) << top  # rows with a true row just below
    above = ~patterns[-1] & ~(f >> top)  # rows with a false row just above
    for mask, shift in swaps:
        below |= mask & (f >> shift)
        above |= (mask & ~f) << shift
    return f & ~below | full & ~f & ~above


def _crossings(f: int, mask: int, shift: int) -> tuple[int, int]:
    """The rows r in ``mask`` where f rises from r to r + ``shift``, and those
    where it falls: x_j 0 -> 1 for mask ~input_pattern(j, n), or a swap."""
    return mask & ~f & (f >> shift), mask & f & ~(f >> shift)


def _refute(f: int, shift: int, up: int, down: int) -> NotThreshold:
    """The proof by a row ``up`` where f rises across a move by ``shift`` and a
    row ``down`` where it falls: no threshold gate separates the true rows a =
    up + shift, b = down from the false c = up, d = down + shift, as their
    vector sums (bitwise: AND and OR) are equal: w.a + w.b >= 2T > w.c + w.d."""
    a, b, c, d = up + shift, down, up, down + shift
    if f >> a & f >> b & ~(f >> c | f >> d) & 1 and (a & b, a | b) == (c & d, c | d):
        return NotThreshold(4)
    raise RuntimeError("4 rows that do not refute the table; solver bug")


def _solve(tt: TruthTable, minimize: bool = False) -> ThresholdRealization | NotThreshold:
    """``solve_threshold``, or with ``minimize``, ``minimize_weights``.

    One pass over the moves x_j 0 -> 1 finds where f rises and falls; if it
    does both across some x_j, its lowest rise and lowest fall refute it. Else
    each x_j it only lowers ('-') is flipped, giving the positive form, and
    the variables are sorted by Chow parameter, the true rows with x_j = 1
    (an inessential x_j has half, fewer than any essential one): for a
    threshold function, a desirability order (Chow 1961; Winder, *J. ACM* 18,
    1971). As x_k then counts at least as many as x_{k+1}, f rising across
    their swap also falls across it: 4 rows of equal sums again. Else
    ``_regular_point`` decides on ordered weights, which lose nothing: a
    threshold function weighs a higher Chow parameter higher, and equal ones
    are symmetric. To minimize, the costs are sum |w|, each live w_j in
    variable order (-u_j if flipped), then T; Chow ties put '-' variables
    first by index, then '+' ones by descending index, so the ordered minimum
    is the unordered one.
    """
    if tt.num_inputs > SOLVE_MAX_INPUTS:
        caller = "minimize_weights" if minimize else "solve_threshold"
        raise ValueError(
            f"{caller} supports up to {SOLVE_MAX_INPUTS} inputs, got {tt.num_inputs}"
        )
    n, f = tt.num_inputs, tt.bits
    patterns = input_patterns(n)
    g, signs = f, []  # g: the positive form, each '-' variable flipped
    for j, p in enumerate(patterns):
        rise, fall = _crossings(f, ~p, 1 << j)
        if rise and fall:
            return _refute(f, 1 << j, *((r & -r).bit_length() - 1 for r in (rise, fall)))
        if fall:
            g = _delta_swap(g, ~p, 1 << j)
        signs.append(1 if rise else -1 if fall else 0)
    m = n - signs.count(0)
    swaps = [(patterns[k] & ~patterns[k + 1], 1 << k) for k in range(n - 1)]
    rank = [(-(g & p).bit_count(), s > 0, -j if s > 0 else j)
            for j, (s, p) in enumerate(zip(signs, patterns))]
    order = list(range(n))  # the variable at each position of g, bubble sorted
    for end in range(n - 1, 0, -1):
        for k in range(end):
            if rank[order[k]] > rank[order[k + 1]]:
                order[k : k + 2] = order[k + 1], order[k]
                g = _delta_swap(g, *swaps[k])
    for mask, shift in swaps:
        up, down = _crossings(g, mask, shift)
        if up:
            return _refute(g, shift, *((r & -r).bit_length() - 1 for r in (up, down)))
    costs = []
    if minimize:  # sum |w| = sum (k + 1) d_k, each live w_j in variable order, then T
        unit = {j: [0] * k + [signs[j]] * (m - k) + [0]
                for k, j in enumerate(order[:m])}  # w_j = +-(d_k + ... + d_{m-1})
        costs = [[*range(1, m + 1), 0], *(unit[j] for j in sorted(unit)), [0] * m + [1]]
    point = _regular_point(g, patterns, swaps, costs)
    if isinstance(point, NotThreshold):
        return point
    # constant 1 (T = 0) takes every T <= 0: -n by convention when minimal
    weights, threshold = [0] * n, point[1] or (-n if minimize else 0)
    for j, w in zip(order, point[0]):  # w_j x_j over 1 - x_j: negate w_j, lower T by it
        if signs[j] < 0:
            w, threshold = -w, threshold - w
        weights[j] = w
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
    from the LP's lexicographic stages (``_solve``), or proof that none
    exists. '0' variables get weight 0; a constant table gets zero weights
    and T = 1 (for 0) or -n (for 1).
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


def _regular_point(
    f: int, patterns: list[int], swaps, costs: Sequence[list[int]] = ()
) -> tuple[list[int], int] | NotThreshold:
    """Weights w_0 >= w_1 >= ... >= 0 and T realizing the ordered-regular f, or
    the rows that refute it: a regular threshold function has ordered weights.
    The LP's variables are steps d_k >= 0, w_j = d_j + ... + d_{m-1} over the
    essential x_0..x_{m-1} (a prefix, so m is found scanning down from x_{n-1}),
    then T, so row i's d_k coefficient is its ones among x_0..x_k: the bit count
    of i under the mask 2^(k+1) - 1. Ordered weights keep the sum monotone in
    the order of ``_extremal``, so its rows decide the LP: it starts from the
    lowest m + 1 and adds the lowest one the integer candidate gets wrong until
    that equals f. With ``costs``, the point goes on to their lexicographic
    integer minimum on the same LP, its sum |w| as ceiling."""
    n, full = len(patterns), (1 << (1 << len(patterns))) - 1
    m = n
    while m and _delta_swap(f, ~patterns[m - 1], 1 << m - 1) == f:
        m -= 1
    prefixes = [(2 << k) - 1 for k in range(m)]
    boundary = rest = _extremal(f, patterns, swaps)
    for _ in range(m + 1):
        rest &= rest - 1
    new, posed, stage, ceiling = boundary ^ rest, 0, [], 0  # first: feasibility alone
    lp = _SeparationLP(m + 1)
    while True:
        posed |= new
        while new:
            i = (new & -new).bit_length() - 1
            new &= new - 1
            if f >> i & 1:  # on: -c.v <= 0, off: c.v <= -1, c = (ones, -1)
                lp.add([-(i & k).bit_count() for k in prefixes] + [1], 0)
            else:
                lp.add([(i & k).bit_count() for k in prefixes] + [-1], -1)
        values = _lexmin(lp, stage, ceiling) if stage else lp.solve()
        if not values:  # once f is realized, its point stays within the ceiling
            if stage:
                raise RuntimeError("minimization lost a realizable point; solver bug")
            return NotThreshold(len(lp.rows))
        weights = [*accumulate(reversed(values[:m]))][::-1] + [0] * (n - m)
        scale = math.gcd(*weights, values[-1]) or 1
        weights, threshold = [w // scale for w in weights], values[-1] // scale
        wrong = _weighted_at_least(weights, patterns, full, threshold) ^ f
        if wrong:  # the lowest wrong extremal row, which must be new
            new = wrong & boundary & -(wrong & boundary)
            if not new or new & posed:
                raise RuntimeError("LP solution failed re-evaluation; solver bug")
        elif stage or not costs:
            return weights, threshold
        else:
            stage, ceiling = costs, sum(weights)


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
    patterns = input_patterns(n)
    swaps = [(patterns[j] & ~patterns[j + 1], 1 << j) for j in range(n - 1)]
    flips = [(~p, 1 << j) for j, p in enumerate(patterns)]  # x_j 0 <-> 1
    tables: list[int] = []
    for f in _ordered_regular(n):
        if isinstance(_regular_point(f, patterns, swaps), NotThreshold):
            continue
        orbit, new = {f}, {f}
        while new:  # breadth first: the closure of {f} under adjacent swaps
            new = {_delta_swap(g, m, s) for g in new for m, s in swaps} - orbit
            orbit |= new
        for g in orbit:
            flipped = [g]
            for mask, shift in flips:
                if _delta_swap(g, mask, shift) != g:  # x_j is essential
                    flipped += [_delta_swap(h, mask, shift) for h in flipped]
            tables += flipped
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
