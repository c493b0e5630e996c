import hashlib
import itertools
import random
import signal
import time

import pytest

from dwtl import (
    NotThreshold,
    ThresholdRealization,
    ThresholdGate,
    TruthTable,
    enumerate_threshold_functions,
    minimize_weights,
    solve_threshold,
    threshold_tables_by_search,
)
from dwtl import tsolve
from dwtl.table import ENUMERATE_MAX_INPUTS, assignment_of, input_pattern, input_patterns
from tests_util import SUM4, boundary_lp_verdict, chow_parameters, polarities

MAJ3 = TruthTable(3, 0xE8)
MIN3 = TruthTable(3, 0x17)
AND2 = TruthTable(2, 0b1000)
XOR2 = TruthTable(2, 0b0110)
NOT1 = TruthTable(1, 0b01)


def test_chow_maj3():
    assert chow_parameters(MAJ3) == (0, (2, 2, 2))


def test_chow_and2():
    assert chow_parameters(AND2) == (-2, (1, 1))


def test_chow_constant_zero():
    assert chow_parameters(TruthTable(2, 0)) == (-4, (0, 0))


def assert_minimal_weights_signed(tt, want):
    # each minimal weight has its variable's polarity
    weights = minimize_weights(tt).gate.weights
    assert "".join("+" if w > 0 else "-" if w < 0 else "0" for w in weights) == want


def test_unate_maj3():
    assert polarities(MAJ3) == "+++"
    assert_minimal_weights_signed(MAJ3, "+++")


def test_unate_xor2():
    # raising x0 lifts row 0b10 to 0b11 (1 -> 0) and row 0b00 to 0b01 (0 -> 1)
    assert polarities(XOR2) is None
    assert (XOR2.bits >> 0b00 & 1, XOR2.bits >> 0b01 & 1) == (0, 1)
    assert (XOR2.bits >> 0b10 & 1, XOR2.bits >> 0b11 & 1) == (1, 0)
    assert solve_threshold(XOR2) == minimize_weights(XOR2) == NotThreshold(4)


def test_unate_not():
    assert polarities(NOT1) == "-"
    assert_minimal_weights_signed(NOT1, "-")


def test_unate_independent_variable():
    # f(x0, x1) = x1 regardless of x0, so x0 gets weight 0
    f = TruthTable(2, 0b1100)
    assert polarities(f) == "0+"
    assert_minimal_weights_signed(f, "0+")


def test_solve_and2():
    res = solve_threshold(AND2)
    assert isinstance(res, ThresholdRealization)
    assert res.gate.truth_table() == AND2


def test_solve_xor2_not_threshold():
    res = solve_threshold(XOR2)
    assert res == NotThreshold(4)


def test_solve_min3_all_negative_weights():
    res = solve_threshold(MIN3)
    assert isinstance(res, ThresholdRealization)
    assert res.gate.truth_table() == MIN3
    assert all(w < 0 for w in res.gate.weights)


def test_chow_sign_consistency():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 4)
        tt = TruthTable(n, rng.randrange(1 << (1 << n)))
        res = solve_threshold(tt)
        if isinstance(res, ThresholdRealization):
            _, chow = chow_parameters(tt)
            for w, m in zip(res.gate.weights, chow):
                if m != 0:
                    assert w == 0 or (w > 0) == (m > 0)


def test_not_unate_implies_not_threshold():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(2, 4)
        tt = TruthTable(n, rng.randrange(1 << (1 << n)))
        if polarities(tt) is None:
            assert solve_threshold(tt) == NotThreshold(4)


def test_scaling_of_realizations():
    from dwtl import ThresholdGate

    res = solve_threshold(MAJ3)
    g = res.gate
    for k in (2, 3):
        scaled = ThresholdGate(
            tuple(k * w for w in g.weights), k * g.threshold
        )
        assert scaled.truth_table() == MAJ3


def test_minimize_maj3():
    res = minimize_weights(MAJ3)
    assert res.minimal
    assert res.gate.weights == (1, 1, 1)
    assert res.gate.threshold == 2


def test_minimize_not():
    res = minimize_weights(NOT1)
    assert res.gate.weight_magnitude_sum == 1


def test_minimize_weighted_sum_gate_function():
    tt = SUM4.truth_table()
    res = minimize_weights(tt)
    assert res.gate.weight_magnitude_sum == 5
    assert sorted(abs(w) for w in res.gate.weights) == [1, 1, 1, 2]
    assert res.gate.truth_table() == tt


def test_minimize_rejects_xor():
    # the certificate, as solve_threshold returns it: XOR2's 4 witness rows
    assert minimize_weights(XOR2) == NotThreshold(4)


def test_minimize_deterministic():
    a = minimize_weights(MAJ3)
    b = minimize_weights(MAJ3)
    assert a == b


@pytest.mark.parametrize("n,expected", [(1, 4), (2, 14), (3, 104), (4, 1882)])
def test_enumerate_counts(n, expected):
    enum = enumerate_threshold_functions(n)
    assert enum.count == expected
    oracle = threshold_tables_by_search(n, max(1, n - 1))
    assert set(enum.tables) == set(oracle)


@pytest.mark.parametrize("n", [2, 3])
def test_enumerate_matches_direct_solve(n):
    enum = enumerate_threshold_functions(n)
    direct = {
        f
        for f in range(1 << (1 << n))
        if isinstance(solve_threshold(TruthTable(n, f)), ThresholdRealization)
    }
    assert set(enum.tables) == direct


def test_enumerate_tables_match_pinned_digests():
    # sha256 of repr(tables), computed with the monotone-class enumerator that
    # the ordered-regular build replaced
    digests = {
        1: "c5c25158dde5b90a643a2185451fc876735019befa3aa97c963d56eaae22476b",
        2: "491cb8ed107939343162aa5707bfa93780d07a282999f22134ca0aa529342bc3",
        3: "3fb90ae9e318b5cb62444841f445e7b9c538a92b8a9f06b6409676ea0525215c",
        4: "f741ed33203027b0c8bc8c1223b6965e5701e4ca156afc9538153ea052039551",
        5: "dc0fb8c8015b323cdffc5dbdfa90e3f08441e85b9c11facf7637055ecb363222",
    }
    for n, digest in digests.items():
        tables = enumerate_threshold_functions(n).tables
        assert hashlib.sha256(repr(tables).encode()).hexdigest() == digest, n


def _checked_regular(f, n):
    """Assert that f is monotone and ordered-regular in x_0 >= x_1 >= ..."""
    for j in range(n):  # x_j = 0 to 1 keeps a true row true
        assert not (f & ~input_pattern(j, n)) << (1 << j) & ~f, (hex(f), j)
    for j in range(n - 1):  # x_j outweighs x_{j+1}: a true row with
        # x_j = 0, x_{j+1} = 1 stays true with the two traded
        low = ~input_pattern(j, n) & input_pattern(j + 1, n)
        assert not (f & low) >> (1 << j) & ~f, (hex(f), j)


def test_enumerate_solves_only_the_regular_functions(monkeypatch):
    # one LP per ordered-regular function, the one member x_0 >= x_1 >= ...
    # of each permutation class of positive threshold functions: 27 at 4
    # inputs, 119 at 5; each is threshold, so no LP refutes, and the general
    # solver does not run
    solved = []
    real_point = tsolve._regular_point

    def counting_point(f, patterns, swaps):
        _checked_regular(f, len(patterns))
        solved.append(f)
        point = real_point(f, patterns, swaps)
        assert not isinstance(point, NotThreshold), hex(f)
        return point

    def unused(*args, **kwargs):
        raise AssertionError("the enumerator called the general solver")

    monkeypatch.setattr(tsolve, "_regular_point", counting_point)
    monkeypatch.setattr(tsolve, "_solve", unused)
    assert enumerate_threshold_functions(4).count == 1882
    assert len(solved) == len(set(solved)) == 27
    solved.clear()
    assert enumerate_threshold_functions(5).count == 94_572
    assert len(solved) == len(set(solved)) == 119


def test_enumerate_skips_a_refuted_regular_function(monkeypatch):
    # no LP refutes a regular function at n <= 5, so refute MAJ3 by hand: its
    # class is itself (it is symmetric), and its 8 flips over its 3 essential
    # variables drop out, and nothing else
    unpatched = enumerate_threshold_functions(3).tables
    real_point, refuted = tsolve._regular_point, []

    def refuting_point(f, patterns, swaps):
        if (len(patterns), f) == (3, MAJ3.bits):
            refuted.append(f)
            return NotThreshold(4)
        return real_point(f, patterns, swaps)

    monkeypatch.setattr(tsolve, "_regular_point", refuting_point)
    enum = enumerate_threshold_functions(3)
    flips = {0x17, 0x2B, 0x4D, 0x71, 0x8E, 0xB2, 0xD4, 0xE8}
    assert refuted == [MAJ3.bits]
    assert enum.count == len(enum.tables) == 96
    assert set(unpatched) - set(enum.tables) == flips
    assert enum.tables == tuple(f for f in unpatched if f not in flips)


def test_regular_lp_matches_solve_on_every_regular_function_of_six_inputs(monkeypatch):
    # past the enumerator's ceiling, where 60 of the 1,173 ordered-regular
    # functions are not threshold: the ordered LP's verdict, reached directly
    # and through the solver, equals that of one LP on every minimal true and
    # maximal false row, and each point realizes its function; the 60 stay
    # regular in Chow order, so the ordered LP refutes them, not 4 rows
    def unused(*rows):
        raise AssertionError("a regular function refuted by 4 rows")

    monkeypatch.setattr(tsolve, "_refute", unused)
    n = 6
    patterns = input_patterns(n)
    swaps = [(patterns[j] & ~patterns[j + 1], 1 << j) for j in range(n - 1)]
    regular = tsolve._ordered_regular(n)
    assert len(regular) == len(set(regular)) == 1173
    verdicts = []
    for f in regular:
        _checked_regular(f, n)
        point = tsolve._regular_point(f, patterns, swaps)
        if not isinstance(point, NotThreshold):
            weights, threshold = point
            assert list(weights) == sorted(weights, reverse=True), hex(f)
            assert ThresholdGate(tuple(weights), threshold).truth_table().bits == f
        res = tsolve._solve(TruthTable(n, f))
        verdict = boundary_lp_verdict(n, f)
        assert (not isinstance(point, NotThreshold)) == verdict, hex(f)
        assert isinstance(res, ThresholdRealization) == verdict, hex(f)
        verdicts.append(verdict)
    assert verdicts.count(True) == 1113
    assert verdicts.count(False) == 60


def test_enumerate_refuses_a_point_that_fails_re_evaluation(monkeypatch):
    # an LP "solution" of all zeros is T = 0 with zero weights, constant 1,
    # which is wrong for the first regular function, constant 0, and for
    # MAJ3 on its maximal false row, which is posed at once: the loop raises
    # rather than pose that row again, and a loop that does not fails here
    calls = []

    def zeros(self, costs=()):
        calls.append(self)
        assert len(calls) <= 64, "the loop kept solving"
        return [0] * self.nv

    monkeypatch.setattr(tsolve._SeparationLP, "solve", zeros)
    for call in (
        lambda: enumerate_threshold_functions(3),
        lambda: solve_threshold(MAJ3),
        lambda: minimize_weights(MAJ3),
    ):
        with pytest.raises(RuntimeError, match="failed re-evaluation"):
            call()


def _moved(tables, n, move):
    """Each table with row x sent to row move(x), x decoded by assignment_of;
    the rows go through a byte at a time, each byte's image looked up once."""
    target = [
        sum(v << j for j, v in enumerate(move(assignment_of(i, n)))) for i in range(1 << n)
    ]
    step = min(8, 1 << n)
    images = [
        [sum(1 << target[k + r] for r in range(step) if c >> r & 1) for c in range(1 << step)]
        for k in range(0, 1 << n, step)
    ]
    return {
        sum(map(list.__getitem__, images, f.to_bytes(len(images), "little")))
        for f in tables
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_enumerate_closed_under_every_transposition(n):
    tables = set(enumerate_threshold_functions(n).tables)
    for a, b in itertools.combinations(range(n), 2):
        swap = {a: b, b: a}
        moved = _moved(tables, n, lambda x: [x[swap.get(k, k)] for k in range(n)])
        assert moved == tables, (a, b)


def test_solver_soundness_random_n5():
    rng = random.Random(31)
    for _ in range(20):
        tt = TruthTable(5, rng.randrange(1 << 32))
        res = solve_threshold(tt)
        if isinstance(res, ThresholdRealization):
            assert res.gate.truth_table() == tt


def test_solve_every_n4_table_matches_search_oracle():
    oracle = threshold_tables_by_search(4, 3)
    for f in range(1 << 16):
        tt = TruthTable(4, f)
        res = solve_threshold(tt)
        assert isinstance(res, ThresholdRealization) == (f in oracle), hex(f)
        if isinstance(res, NotThreshold):
            # a non-unate witness, or a table that is not regular in Chow order
            assert res.num_constraints == 4, hex(f)


def _literal(j, n, negated):
    p = input_pattern(j, n)
    return p ^ ((1 << (1 << n)) - 1) if negated else p


def test_solve_known_verdicts_n5_to_n10():
    # a seeded weighted sum is threshold; x_a x_b | x_c x_d (any polarities,
    # other inputs ignored) is unate but not threshold: w_a + w_b >= T and
    # w_c + w_d >= T, yet w_a + w_c < T and w_b + w_d < T
    rng = random.Random(37)
    for n in range(5, 11):
        for _ in range(4):
            w = tuple(rng.choice((-1, 1)) * rng.randint(1, 2 * n) for _ in range(n))
            t = rng.randint(sum(v for v in w if v < 0) + 1, sum(v for v in w if v > 0))
            tt = ThresholdGate(w, t).truth_table()
            res = solve_threshold(tt)
            assert isinstance(res, ThresholdRealization), (w, t)
            assert res.gate.truth_table() == tt

            picked = rng.sample(range(n), 4)
            a, b, c, d = (_literal(j, n, rng.random() < 0.5) for j in picked)
            res = solve_threshold(TruthTable(n, (a & b) | (c & d)))
            assert isinstance(res, NotThreshold)


@pytest.mark.parametrize(
    "weights,threshold", [((1,) * 10, 6), (tuple(range(1, 11)), 28)]
)
def test_solve_ten_inputs_in_seconds(weights, threshold):
    tt = ThresholdGate(weights, threshold).truth_table()
    start = time.perf_counter()
    res = solve_threshold(tt)
    assert time.perf_counter() - start < 10
    assert isinstance(res, ThresholdRealization)
    assert res.gate.truth_table() == tt


def _minimize_unrestricted(tt):
    # every weight in [-B, B], as before the polarities fixed the signs
    n = tt.num_inputs
    B = 0
    while True:
        B += 1
        best = None
        for w in itertools.product(range(-B, B + 1), repeat=n):
            s = sum(map(abs, w))
            sums = [0]
            for wj in w:
                sums += [v + wj for v in sums]
            min_on = n * B + 1
            max_off = -n * B - 1
            for i, v in enumerate(sums):
                if (tt.bits >> i) & 1:
                    min_on = min(min_on, v)
                else:
                    max_off = max(max_off, v)
            if max_off < min_on and (best is None or (s, w, max_off + 1) < best):
                best = (s, w, max_off + 1)
        if best is not None and best[0] <= B + 1:
            return best


def test_minimize_matches_unrestricted_search():
    rng = random.Random(41)
    n4 = rng.sample(sorted(threshold_tables_by_search(4, 3)), 12)
    cases = [TruthTable(3, f) for f in sorted(threshold_tables_by_search(3, 2))]
    cases += [TruthTable(4, f) for f in n4]
    for tt in cases:
        gate = minimize_weights(tt).gate
        assert (gate.weight_magnitude_sum, gate.weights, gate.threshold) == (
            _minimize_unrestricted(tt)
        ), tt


def _minimize_by_box(tt):
    # iterative deepening on the per-weight bound B, signs fixed by the
    # polarities: the first minimum found with sum|w| <= B + 1 is global
    n = tt.num_inputs
    signs = polarities(tt)
    B = 0
    while True:
        B += 1
        best = None
        signed = {"+": range(0, B + 1), "-": range(-B, 1), "0": (0,)}
        for w in itertools.product(*(signed[p] for p in signs)):
            s = sum(map(abs, w))
            sums = [0]
            for wj in w:
                sums += [v + wj for v in sums]
            min_on = n * B + 1
            max_off = -n * B - 1
            for i, v in enumerate(sums):
                if (tt.bits >> i) & 1:
                    min_on = min(min_on, v)
                else:
                    max_off = max(max_off, v)
            if max_off < min_on and (best is None or (s, w, max_off + 1) < best):
                best = (s, w, max_off + 1)
        if best is not None and best[0] <= B + 1:
            return best


def test_minimize_matches_box_search():
    rng = random.Random(43)
    cases = [TruthTable(3, f) for f in sorted(threshold_tables_by_search(3, 2))]
    n4 = sorted(threshold_tables_by_search(4, 3))
    cases += [TruthTable(4, f) for f in rng.sample(n4, 60)]
    for tt in cases:
        gate = minimize_weights(tt).gate
        assert (gate.weight_magnitude_sum, gate.weights, gate.threshold) == (
            _minimize_by_box(tt)
        ), tt


def _minimize_by_compositions(tt):
    # total weights S = live, live + 1, ..., each split into magnitudes in
    # strict Chow order (|m_i| > |m_j| forces |w_i| > |w_j|, Chow 1961) and
    # signed by polarity; the first S that separates the table is minimal,
    # with T one above the largest false sum
    n = tt.num_inputs
    signs = polarities(tt)
    chow = [abs(m) for m in chow_parameters(tt)[1]]
    live = [j for j, p in enumerate(signs) if p != "0"]
    order = sorted(live, key=lambda j: -chow[j])  # strongest first
    if not order:
        return 0, (0,) * n, -n if tt.bits else 1

    def parts(p, rem, cap, low):
        # parts for order[p:]: each <= cap, below every part of a stronger group
        if p == len(order):
            yield ()
            return
        if p and chow[order[p]] != chow[order[p - 1]]:
            cap, low = low - 1, rem  # low: the least part of the current group
        rest = len(order) - p - 1
        for v in range(max(1, rem - rest * cap), min(cap, rem - rest) + 1):
            for tail in parts(p + 1, rem - v, cap, min(low, v)):
                yield (v, *tail)

    total = len(order)
    while True:
        best = None
        for mags in parts(0, total, total, total):
            w = [0] * n
            for j, v in zip(order, mags):
                w[j] = v if signs[j] == "+" else -v
            sums = [0]
            for wj in w:
                sums += [v + wj for v in sums]
            on = [v for i, v in enumerate(sums) if tt.bits >> i & 1]
            off = [v for i, v in enumerate(sums) if not tt.bits >> i & 1]
            if max(off) < min(on):
                best = min(best or (tuple(w), max(off) + 1), (tuple(w), max(off) + 1))
        if best:
            return (total, *best)
        total += 1


def _seeded_threshold_tables(seed, sizes, count):
    rng = random.Random(seed)
    for n in sizes:
        for _ in range(count):
            w = tuple(rng.choice((-1, 1)) * rng.randint(1, 2 * n) for _ in range(n))
            t = rng.randint(sum(v for v in w if v < 0) + 1, sum(v for v in w if v > 0))
            yield w, ThresholdGate(w, t).truth_table()


def test_minimize_matches_composition_search():
    cases = [
        TruthTable(n, f)
        for n in range(1, 5)
        for f in enumerate_threshold_functions(n).tables
    ]
    cases += [tt for _, tt in _seeded_threshold_tables(71, (5, 6), 30)]
    for tt in cases:
        gate = minimize_weights(tt).gate
        assert (gate.weight_magnitude_sum, gate.weights, gate.threshold) == (
            _minimize_by_compositions(tt)
        ), tt


def test_minimize_eight_inputs_in_a_second():
    # 52 s for the composition search; the LP takes milliseconds
    tt = ThresholdGate((9, 10, 12, 15, 19, 24, 30, 37), 78).truth_table()
    start = time.perf_counter()
    res = minimize_weights(tt)
    assert time.perf_counter() - start < 1
    assert res.minimal
    assert (res.gate.weights, res.gate.threshold) == ((6, 7, 9, 11, 13, 17, 21, 26), 55)


def test_minimize_ten_inputs_in_a_second():
    for w, tt in _seeded_threshold_tables(73, (10,), 10):
        start = time.perf_counter()
        res = minimize_weights(tt)
        assert time.perf_counter() - start < 1, w
        assert res.minimal and res.gate.truth_table() == tt
        assert res.gate.weight_magnitude_sum <= sum(map(abs, w)), w


def test_minimize_refuses_past_the_solve_ceiling():
    with pytest.raises(ValueError, match="minimize_weights supports up to 10 inputs"):
        minimize_weights(TruthTable(11, 0))


@pytest.mark.parametrize("n", range(1, 11))
def test_minimize_constant_tables(n):
    zero = minimize_weights(TruthTable(n, 0))
    one = minimize_weights(TruthTable(n, (1 << (1 << n)) - 1))
    assert zero.minimal and one.minimal
    assert (zero.gate.weights, zero.gate.threshold) == ((0,) * n, 1)
    assert (one.gate.weights, one.gate.threshold) == ((0,) * n, -n)


@pytest.mark.parametrize(
    "weights,threshold,expected",
    [
        ((1, 2, 3, 4, 5, 6), 11, ((1, 2, 2, 3, 4, 5), 9)),
        ((1, 1, 1, 2, 2, 3), 5, ((1, 1, 1, 2, 2, 3), 5)),
    ],
)
def test_minimize_six_inputs_in_seconds(weights, threshold, expected):
    tt = ThresholdGate(weights, threshold).truth_table()
    start = time.perf_counter()
    gate = minimize_weights(tt).gate
    assert time.perf_counter() - start < 10
    assert (gate.weights, gate.threshold) == expected


def test_minimize_random_six_inputs_keep_chow_order():
    # |m_i| > |m_j| forces |w_i| > |w_j| in every realization
    rng = random.Random(47)
    start = time.perf_counter()
    for _ in range(20):
        w = tuple(rng.choice((-1, 1)) * rng.randint(1, 12) for _ in range(6))
        t = rng.randint(sum(v for v in w if v < 0) + 1, sum(v for v in w if v > 0))
        tt = ThresholdGate(w, t).truth_table()
        res = minimize_weights(tt)
        assert res.minimal and res.gate.truth_table() == tt
        assert res.gate.weight_magnitude_sum <= sum(map(abs, w))
        m = [abs(v) for v in chow_parameters(tt)[1]]
        got = [abs(v) for v in res.gate.weights]
        for i, j in itertools.permutations(range(6), 2):
            if m[i] > m[j]:
                assert got[i] > got[j], (w, t, res.gate)
    assert time.perf_counter() - start < 10


ColdLP = tsolve._SeparationLP


def _assert_farkas(lp):
    # an infeasible answer leaves a row with a negative RHS and no negative
    # entry; its slack entries y, one per posed row in order, weigh the rows
    # into a contradiction: y >= 0, sum y.r >= 0 in every column, sum y.rhs < 0
    row = next(row for row in lp.rows if row[0] < 0 and min(row[1:]) >= 0)
    y = row[1 + lp.nv :]
    assert len(y) == len(lp.posed) and min(y) >= 0
    for j in range(lp.nv):
        assert sum(w * r[j] for w, (r, _) in zip(y, lp.posed)) >= 0
    assert sum(w * rhs for w, (_, rhs) in zip(y, lp.posed)) < 0


@pytest.fixture
def lps(monkeypatch):
    """Every LP the solver builds, with the rows posed and its last answer;
    each infeasible answer is checked by its Farkas row, and the LPs that
    gave one (branches of ``_lexmin`` included) are in ``refuted``."""
    made = []

    class RecordingLP(ColdLP):
        refuted = []

        def __init__(self, nv):
            super().__init__(nv)
            self.posed = []
            made.append(self)

        def add(self, r, rhs):
            self.posed.append((list(r), rhs))
            super().add(r, rhs)

        def solve(self, costs=()):
            self.last = super().solve(costs)
            if self.last == []:
                _assert_farkas(self)
                self.refuted.append(self)
            return self.last

    monkeypatch.setattr(tsolve, "_SeparationLP", RecordingLP)
    return made


def _assert_satisfies(posed, d, values):
    # values is v times d, and every row asks r.v <= rhs
    for r, rhs in posed:
        s = sum(a * v for a, v in zip(r, values))
        assert s <= rhs * d, (r, rhs, d, values)


def _warm_start_cases():
    for f in range(1 << 16):
        tt = TruthTable(4, f)
        if polarities(tt) is not None:
            yield tt
    rng = random.Random(53)
    for n in range(5, 9):
        for _ in range(10):
            w = tuple(rng.choice((-1, 1)) * rng.randint(1, 2 * n) for _ in range(n))
            t = rng.randint(sum(v for v in w if v < 0) + 1, sum(v for v in w if v > 0))
            yield ThresholdGate(w, t).truth_table()
            picked = rng.sample(range(n), 4)
            a, b, c, d = (_literal(j, n, rng.random() < 0.5) for j in picked)
            yield TruthTable(n, (a & b) | (c & d))
    for f in tsolve._ordered_regular(6):  # 60 of them refuted by the ordered LP
        yield TruthTable(6, f)


def test_warm_start_agrees_with_cold_start(lps):
    # the final working set, posed at once to a fresh LP and solved once,
    # gives the incremental verdict, and every feasible answer fits each row;
    # a table refuted by 4 rows of equal sums builds no LP
    verdicts = set()
    for tt in _warm_start_cases():
        lps.clear()
        res = solve_threshold(tt)
        if not lps:
            assert res == NotThreshold(4), tt
            continue
        (lp,) = lps
        cold = ColdLP(lp.nv)
        for r, rhs in lp.posed:
            cold.add(r, rhs)
        values = cold.solve()
        threshold = isinstance(res, ThresholdRealization)
        assert bool(values) == bool(lp.last) == threshold, tt
        verdicts.add(threshold)
        if threshold:
            _assert_satisfies(lp.posed, lp.d, lp.last)
            _assert_satisfies(lp.posed, cold.d, values)
        else:
            assert res.num_constraints == len(lp.posed)
    assert verdicts == {True, False}


def test_warm_start_pivots_weights_1_to_10(lps):
    # 475 pivots over 26 cold solves before the warm start; on one warm LP
    # over ordered weights, 15 with a phase-1 objective, 11 with dual steps
    tt = ThresholdGate(tuple(range(1, 11)), 28).truth_table()
    assert isinstance(solve_threshold(tt), ThresholdRealization)
    (lp,) = lps
    assert lp.pivots <= 11


def test_pivot_sequence_is_pinned(lps):
    # one ordered LP per regular function, over all 1,173 of 6 inputs and
    # every 20th of 7: the pivot and row totals of Bland's rule as it stands,
    # which a change to the leaving row, the entering column or the rows
    # posed moves (the broken row of the highest basic column leaving, say,
    # takes 5,880 pivots at 6 inputs)
    for n, step, totals in ((6, 1, (5923, 6445, 1113)), (7, 20, (15466, 17679, 1435))):
        patterns = input_patterns(n)
        swaps = [(patterns[j] & ~patterns[j + 1], 1 << j) for j in range(n - 1)]
        lps.clear()
        regular = tsolve._ordered_regular(n)[::step]
        points = [tsolve._regular_point(f, patterns, swaps) for f in regular]
        assert len(lps) == len(regular)
        pivots, rows = sum(lp.pivots for lp in lps), sum(len(lp.posed) for lp in lps)
        threshold = sum(not isinstance(point, NotThreshold) for point in points)
        assert (pivots, rows, threshold) == totals, n


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
def test_a_cycling_dual_loop_fails_within_the_time_limit(monkeypatch):
    # a pivot that changes nothing leaves the broken row broken, so the dual
    # loop never ends; the per-test limit of conftest.py, re-armed short here,
    # fails the test instead of hanging the suite
    monkeypatch.setattr(tsolve._SeparationLP, "_pivot", lambda self, *args: None)
    signal.setitimer(signal.ITIMER_REAL, 0.2)
    with pytest.raises(TimeoutError, match="still running"):
        solve_threshold(MAJ3)


def test_every_infeasible_lp_has_a_farkas_row(lps, monkeypatch):
    # the 60 regular functions of 6 inputs that are not threshold, every 20th
    # regular function of 7, and the grid search's infeasible LPs and branches
    refuted, counts = tsolve._SeparationLP.refuted, []
    for n, step in ((6, 1), (7, 20)):
        patterns = input_patterns(n)
        swaps = [(patterns[j] & ~patterns[j + 1], 1 << j) for j in range(n - 1)]
        refuted.clear()
        for f in tsolve._ordered_regular(n)[::step]:
            point = tsolve._regular_point(f, patterns, swaps)
            assert isinstance(point, NotThreshold) == (lps[-1] in refuted), hex(f)
        counts.append(len(refuted))
    refuted.clear()
    monkeypatch.setitem(globals(), "ColdLP", tsolve._SeparationLP)  # the recording LP
    test_lexmin_matches_a_grid_search()
    counts.append(len(refuted))
    assert counts == [60, 781, 133]


@pytest.mark.parametrize(
    "spec, lps_built",
    [("3:0x96", 0), ("3:0xac", 0), ("4:0xf888", 0), ("6:0xeaaaeaa8eaa8e880", 1)],
    ids=["not-unate", "mux", "chow-irregular", "lp-refuted"],
)
def test_refutations_build_at_most_one_lp(lps, spec, lps_built):
    # a non-unate table, and x0x1 | x2x3, which is unate but not regular in
    # Chow order, are refuted by 4 rows of equal sums with no LP; the mux
    # x2 ? x0 : x1 is unate in x0 and x1 and crosses only x2, past them; a
    # regular table that is not threshold is refuted by the one ordered LP
    n, bits = spec.split(":")
    tt = TruthTable(int(n), int(bits, 16))
    for solve in (solve_threshold, minimize_weights):
        lps.clear()
        res = solve(tt)
        assert isinstance(res, NotThreshold)
        assert len(lps) == lps_built
        if lps:
            assert res.num_constraints == len(lps[0].posed) and lps[0].last == []
        else:
            assert res.num_constraints == 4


def test_refute_checks_its_rows():
    # XOR2 rises from row 0 and falls from row 2 across x0 (shift 1): rows 1
    # and 2 are true, 0 and 3 false, and 1 + 2 = 0 + 3 bitwise; across x1
    # (shift 2), from rows 0 and 1: rows 2 and 1 true, 0 and 3 false
    assert tsolve._refute(XOR2.bits, 1, 0, 2) == NotThreshold(4)
    assert tsolve._refute(XOR2.bits, 2, 0, 1) == NotThreshold(4)
    for shift, up, down in ((1, 2, 0), (2, 0, 0), (1, 0, 1)):
        with pytest.raises(RuntimeError, match="do not refute"):
            tsolve._refute(XOR2.bits, shift, up, down)
    # rows 2 and 4 are true, 1 and 5 false, but 1 + 1 carries into x1, so
    # their sums differ
    with pytest.raises(RuntimeError, match="do not refute"):
        tsolve._refute(0x14, 1, 1, 4)


@pytest.mark.parametrize("lost", [[], None])
def test_minimize_refuses_a_lost_point(monkeypatch, lost):
    # once the candidate realizes the table, its integer point is within the
    # ceiling, so a minimize stage that finds none is a solver fault, not a
    # proof that the table is not threshold
    monkeypatch.setattr(tsolve, "_lexmin", lambda lp, costs, ceiling: lost)
    assert isinstance(solve_threshold(MAJ3), ThresholdRealization)
    with pytest.raises(RuntimeError, match="minimization lost"):
        minimize_weights(MAJ3)


def test_minimize_sum_at_most_the_lp_vertex_sum():
    # the LP's own vertex is a realization, so no minimum exceeds its sum
    rng = random.Random(67)
    for n in range(2, 9):
        for _ in range(10):
            w = tuple(rng.choice((-1, 1)) * rng.randint(1, 2 * n) for _ in range(n))
            t = rng.randint(sum(v for v in w if v < 0) + 1, sum(v for v in w if v > 0))
            tt = ThresholdGate(w, t).truth_table()
            vertex = solve_threshold(tt).gate
            gate = minimize_weights(tt).gate
            assert gate.weight_magnitude_sum <= vertex.weight_magnitude_sum, (w, t)


def test_lexmin_branches_on_a_fractional_optimum():
    # x + 2y >= 1.5: the LP minimum of x + y is y = 0.75, the integer one 1,
    # where only x = 0, y = 1 fits; minimizing y first, its LP minimum at
    # x + y = 1 is 0.5, so the second stage branches too
    lp = ColdLP(2)
    lp.add([-2, -4], -3)
    assert tsolve._lexmin(lp, [[1, 1], [1, 0], [0, 1]], 3) == [0, 1]
    assert tsolve._lexmin(lp, [[1, 1], [0, 1], [1, 0]], 3) == [0, 1]
    assert tsolve._lexmin(lp, [[1, 0], [0, 1]], 3) == [0, 1]
    # 2x + y >= 1: the LP minimum x = 0.5, y = 0 rounds up to (1, 0), but
    # x = 0 comes first among the integer points of x + y = 1
    lp = ColdLP(2)
    lp.add([-2, -1], -1)
    assert tsolve._lexmin(lp, [[1, 1], [1, 0], [0, 1]], 3) == [0, 1]


def test_minimize_branches_where_solve_reaches_it(monkeypatch):
    # a seeded n = 8 table whose phase-2 optimum over ordered weights is
    # fractional, so _solve calls _lexmin's branch, with the probe's sum as
    # ceiling; the n = 7 table that branched over unordered weights has an
    # integer optimum over ordered ones, and the same minimum
    tt7 = TruthTable(7, 0xFFFFFFFAFFFAFA80FFFFFFE8FFE8E800)
    gate = minimize_weights(tt7).gate
    want = (15, (2, 1, 2, 3, 3, 3, 1), 6)
    assert (gate.weight_magnitude_sum, gate.weights, gate.threshold) == want
    assert _minimize_by_compositions(tt7) == want
    tt = ThresholdGate((1, -3, 16, -14, 10, 5, -12, -6), 0).truth_table()
    stages = []
    lexmin = tsolve._lexmin

    def recording(lp, costs, ceiling):
        stages.append(len(costs))
        return lexmin(lp, costs, ceiling)

    monkeypatch.setattr(tsolve, "_lexmin", recording)
    start = time.perf_counter()
    gate = minimize_weights(tt).gate
    assert time.perf_counter() - start < 1  # a few milliseconds
    assert min(stages) < max(stages)  # the branch re-entered on the later costs
    want = (63, (1, -3, 15, -13, 9, 5, -11, -6), 0)
    assert (gate.weight_magnitude_sum, gate.weights, gate.threshold) == want
    assert _minimize_by_compositions(tt) == want


def test_lexmin_matches_a_grid_search():
    # random rows over a box 0 <= v <= 6, stages sum(v), then each +-v_j
    rng = random.Random(79)
    for _ in range(300):
        nv = rng.randint(2, 3)
        rows = [
            ([rng.randint(-4, 4) for _ in range(nv)], rng.randint(-6, 3))
            for _ in range(rng.randint(1, 3))
        ]
        rows += [([int(i == j) for i in range(nv)], 6) for j in range(nv)]
        stages = [[1] * nv] + [
            [rng.choice((1, -1)) * int(i == j) for i in range(nv)]
            for j in rng.sample(range(nv), nv)
        ]
        lp = ColdLP(nv)
        for r, rhs in rows:
            lp.add(r, rhs)
        fits = [
            list(v) for v in itertools.product(range(7), repeat=nv)
            if all(sum(a * x for a, x in zip(r, v)) <= rhs for r, rhs in rows)
        ]
        key = lambda v: [sum(c * x for c, x in zip(stage, v)) for stage in stages]
        got = tsolve._lexmin(lp, stages, 6 * nv)  # bounds sum(v) and each v_j
        if fits:
            assert got == min(fits, key=key), (rows, stages)
        else:  # infeasible, or feasible with no integer point
            assert got in ([], None), (rows, stages)


def test_lexmin_reports_infeasible_and_integer_free_lps():
    infeasible = ColdLP(1)
    infeasible.add([1], -1)  # x <= -1
    assert tsolve._lexmin(infeasible, [[1]], 5) == []
    gap = ColdLP(1)
    gap.add([-2], -1)  # 0.5 <= x <= 0.75: no integer point
    gap.add([4], 3)
    assert tsolve._lexmin(gap, [[1]], 5) is None


def test_lexmin_gives_up_past_its_ceiling():
    # x - y = 0.5 has no integer point, and x + y is unbounded on it, so the
    # branch on x + y only ends at the ceiling
    lp = ColdLP(2)
    lp.add([2, -2], 1)
    lp.add([-2, 2], -1)
    start = time.perf_counter()
    assert tsolve._lexmin(lp, [[1, 1], [1, 0], [0, 1]], 50) is None
    assert time.perf_counter() - start < 2
    # x + 2y >= 1.5: the integer minimum of x + y is 1, above a ceiling of 0
    lp = ColdLP(2)
    lp.add([-2, -4], -3)
    assert tsolve._lexmin(lp, [[1, 1], [1, 0], [0, 1]], 0) is None
    assert tsolve._lexmin(lp, [[1, 1], [1, 0], [0, 1]], 1) == [0, 1]


def test_enumerate_five_inputs():
    enum = enumerate_threshold_functions(5)
    assert ENUMERATE_MAX_INPUTS == 5
    for n in (0, 6):
        with pytest.raises(ValueError, match=f"supports 1..5, got {n}$"):
            enumerate_threshold_functions(n)
    assert enum.count == len(enum.tables) == 94_572  # OEIS A000609
    inside = set(enum.tables)
    for j in range(5):
        assert _moved(inside, 5, lambda x: x[:j] + (1 - x[j],) + x[j + 1:]) == inside, j
    # 100 weighted sums built without the LP, 100 uniform tables
    rng = random.Random(59)
    for k in range(200):
        if k < 100:
            w = tuple(rng.choice((-1, 1)) * rng.randint(1, 10) for _ in range(5))
            tt = ThresholdGate(w, rng.randint(-25, 25)).truth_table()
        else:
            tt = TruthTable(5, rng.randrange(1 << 32))
        res = solve_threshold(tt)
        assert isinstance(res, ThresholdRealization) == (tt.bits in inside), tt
        if k < 100:
            assert tt.bits in inside, tt
