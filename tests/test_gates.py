import random

import pytest

from dwtl import SpinMinorityGate, ThresholdGate, TieError, TooManyInputsError
from dwtl.gates import _weighted_at_least
from dwtl.table import assignment_of
from tests_util import (
    SUM4, complement, negated, spin_eval, spin_sums, threshold_eval, to_threshold,
)


MIN3 = SpinMinorityGate((-1, -1, -1))
MAJ3 = SpinMinorityGate((1, 1, 1))


def test_minority_of_all_zeros_is_one():
    assert spin_eval(MIN3.weights, (0, 0, 0)) == 1
    assert (MIN3.truth_table().bits >> 0b000) & 1 == 1


def test_majority_ones_gives_zero():
    assert spin_eval(MIN3.weights, (1, 1, 0)) == 0
    assert (MIN3.truth_table().bits >> 0b011) & 1 == 0


def test_weighted_gate_direct_arithmetic():
    # spin sum -1 -1 +1 +2 = 1 > 0
    assert spin_eval(SUM4.weights, (1, 1, 0, 0)) == 1
    assert (SUM4.truth_table().bits >> 0b0011) & 1 == 1


def test_tie_raises():
    with pytest.raises(TieError) as exc:
        spin_eval((-1, -1), (0, 1))
    assert exc.value.assignment == (0, 1)
    # the gate itself cannot be built: it raises at its lowest tie row
    with pytest.raises(TieError) as exc:
        SpinMinorityGate((-1, -1))
    assert exc.value.assignment == (1, 0)
    assert str(exc.value) == "tie at assignment (1, 0)"


def test_zero_weight_rejected():
    with pytest.raises(ValueError):
        SpinMinorityGate((1, 0))


def test_non_integer_weights_and_thresholds_rejected():
    for bad in ((1.5,), (1, 2.0), (1, "2"), (True, -1, 1)):
        with pytest.raises(ValueError, match="weights must be nonzero integers"):
            SpinMinorityGate(bad)
        with pytest.raises(ValueError, match="weights must be integers"):
            ThresholdGate(bad, 1)
    for bad in (0.5, 1.0, "1", None, False):
        with pytest.raises(ValueError, match="threshold must be an integer"):
            ThresholdGate((1,), bad)
    with pytest.raises(ValueError, match="gate needs at least one input"):
        ThresholdGate((), 0)
    # zero weights stay allowed: the solver gives '0' variables weight 0
    assert ThresholdGate((0, 1), 1).truth_table().bits == 0b1100


def test_weights_must_be_a_tuple():
    # a list stays the caller's: appending to it would change a built gate
    # (an even-sum gate that ties, with a stale magnitude sum and no hash)
    for bad in ([1, 1, 1], range(1, 4)):
        with pytest.raises(ValueError, match="weights must be a tuple"):
            SpinMinorityGate(bad)
        with pytest.raises(ValueError, match="weights must be a tuple"):
            ThresholdGate(bad, 2)
    assert SpinMinorityGate((1, 1, 1)).truth_table().bits == 0b11101000
    assert ThresholdGate((1, 1, 1), 2).truth_table().bits == 0b11101000
    assert hash(SpinMinorityGate((1, 1, 1))) == hash(SpinMinorityGate((1, 1, 1)))


def test_min3_table():
    # hand-enumerated: output 1 at rows 000,001,010,100
    assert MIN3.truth_table().bits == 0x17


def test_maj3_table_is_complement_of_min3():
    assert MAJ3.truth_table().bits == 0xE8
    assert MAJ3.truth_table() == complement(MIN3.truth_table())


def test_single_negative_weight_is_not():
    assert SpinMinorityGate((-1,)).truth_table().bits == 0b01


def test_to_threshold_min3():
    t = to_threshold(MIN3)
    assert t.weights == (-2, -2, -2)
    assert t.threshold == -2
    assert t.truth_table() == MIN3.truth_table()


def test_to_threshold_maj3():
    t = to_threshold(MAJ3)
    assert t.weights == (2, 2, 2)
    assert t.threshold == 4
    assert t.truth_table() == MAJ3.truth_table()


def test_to_threshold_identity():
    t = to_threshold(SpinMinorityGate((1,)))
    assert t.weights == (2,)
    assert t.threshold == 2
    assert t.truth_table().bits == 0b10


def test_complement_min_maj():
    assert negated(MIN3) == MAJ3
    assert negated(SpinMinorityGate((-1,))) == SpinMinorityGate((1,))


def test_complement_weighted_tables():
    assert negated(SUM4).truth_table() == complement(SUM4.truth_table())


def test_tie_assignments():
    # odd magnitude sums never tie; an even sum ties where half of it is reached
    assert SpinMinorityGate((-1, -1, -1, -2)).weight_magnitude_sum == 5
    even = SpinMinorityGate((2, -2, 2))  # every partial sum is even, half is 3
    assert even.truth_table() == SpinMinorityGate((1, -1, 1)).truth_table()
    for weights, tie in (
        ((-1, -1), (1, 0)),
        ((1, 1, 2, 2), (1, 0, 1, 0)),
        ((3, -1, -2), (0, 0, 0)),
        ((2, -2, 4), (1, 0, 0)),
    ):
        with pytest.raises(TieError) as exc:
            SpinMinorityGate(weights)
        assert exc.value.assignment == tie


def test_spin_threshold_agreement_random():
    rng = random.Random(7)
    for _ in range(500):
        fan_in = rng.randint(1, 8)
        weights = None
        while weights is None or sum(abs(w) for w in weights) % 2 == 0:
            weights = tuple(
                rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(fan_in)
            )
        g = SpinMinorityGate(weights)
        assert g.truth_table() == to_threshold(g).truth_table()


def test_parity_tie_freedom_random():
    rng = random.Random(11)
    for _ in range(500):
        fan_in = rng.randint(1, 10)
        weights = tuple(
            rng.choice([-5, -3, -1, 1, 3, 5]) if j == 0
            else rng.choice([-4, -2, 2, 4])
            for j in range(fan_in)
        )
        if sum(abs(w) for w in weights) % 2 == 1:
            assert 0 not in spin_sums(weights)
            assert SpinMinorityGate(weights).fan_in == fan_in


def test_complement_involution_random():
    rng = random.Random(13)
    for _ in range(200):
        fan_in = rng.randint(1, 6)
        weights = None
        while weights is None or sum(abs(w) for w in weights) % 2 == 0:
            weights = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(fan_in))
        g = SpinMinorityGate(weights)
        assert negated(negated(g)) == g
        assert negated(negated(g)).truth_table() == g.truth_table()
        assert negated(g).truth_table() == complement(g.truth_table())


def test_scaling_invariance():
    rng = random.Random(17)
    for _ in range(200):
        fan_in = rng.randint(1, 6)
        weights = None
        while weights is None or sum(abs(w) for w in weights) % 2 == 0:
            weights = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(fan_in))
        g = SpinMinorityGate(weights)
        k = rng.randint(2, 5)
        scaled = SpinMinorityGate(tuple(k * w for w in weights))
        assert scaled.truth_table() == g.truth_table()


def test_threshold_gate_eval():
    and2 = ThresholdGate((1, 1), 2)
    rows = [(a, b) for a in (0, 1) for b in (0, 1)]
    assert [threshold_eval(and2.weights, 2, x) for x in rows] == [0, 0, 0, 1]
    assert and2.truth_table().bits == 0b1000


def test_tables_and_ties_match_direct_sums_random():
    # the packed weighted-sum kernel against the per-vector oracles and a direct
    # scan: a gate raises TieError exactly when some row's spin sum is zero, at
    # the lowest such row
    rng = random.Random(19)
    magnitudes = [1, 2, 3, 5, 8, 1 << 40]
    tie_prone = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        rows = [assignment_of(i, n) for i in range(1 << n)]
        weights = tuple(
            rng.choice((-1, 1)) * rng.choice(magnitudes) for _ in range(n)
        )
        sums = [sum(w * (2 * b - 1) for w, b in zip(weights, x)) for x in rows]
        ties = [x for x, s in zip(rows, sums) if s == 0]
        if ties:
            tie_prone += 1
            with pytest.raises(TieError) as exc:
                SpinMinorityGate(weights)
            assert exc.value.assignment == ties[0]
            assert str(exc.value) == f"tie at assignment {ties[0]}"
        else:
            tt = SpinMinorityGate(weights).truth_table()
            assert [(tt.bits >> i) & 1 for i in range(1 << n)] == [
                spin_eval(weights, x) for x in rows
            ]

        weights = tuple(
            rng.choice((-1, 0, 1)) * rng.choice(magnitudes) for _ in range(n)
        )
        sums = [sum(w * b for w, b in zip(weights, x)) for x in rows]
        for t in (
            min(sums) - (1 << 41),
            min(sums) - 1,
            min(sums),
            rng.choice(sums),
            rng.choice(sums) + 1,
            max(sums),
            max(sums) + 1,
            max(sums) + (1 << 41),
        ):
            tg = ThresholdGate(weights, t)
            tt = tg.truth_table()
            assert [(tt.bits >> i) & 1 for i in range(1 << n)] == [
                threshold_eval(weights, t, x) for x in rows
            ]
    assert 0 < tie_prone < 200


def test_weighted_at_least_matches_row_sums_on_wide_operands():
    # the kernel against a row-by-row sum, on operands of up to 300 rows;
    # each sign split is drawn, since more negative than positive magnitude
    # takes the complemented branch and the rest the direct one. Constant
    # sources, 0 and the ``mask`` object itself, are put in at random places
    # with every sign and magnitude; the kernel folds the ``mask`` object into
    # its bound, and sums 0 and an equal copy of ``mask`` like any other source
    rng = random.Random(29)
    magnitudes = [0, 1, 2, 3, 5, 8, 1 << 40]
    splits = {"negative": 0, "equal": 0, "positive": 0}
    folded = set()
    for trial in range(150):
        split = list(splits)[trial % 3]
        n = rng.randint(1, 6)
        weights = [rng.choice(magnitudes) * rng.choice((-1, 1)) for _ in range(n)]
        if split == "equal":
            weights += [-w for w in weights]
            rng.shuffle(weights)
        elif (sum(weights) < 0) != (split == "negative") or sum(weights) == 0:
            weights = [-w for w in weights] + [-1 if split == "negative" else 1]
        s = sum(weights)
        splits["negative" if s < 0 else "equal" if s == 0 else "positive"] += 1
        width = rng.randint(1, 300)
        mask = (1 << width) - 1
        srcs = [rng.getrandbits(width) for _ in weights]
        live_total = sum(map(abs, weights))
        ones = 0  # the magnitude of the constant sources with y_j = 1
        for _ in range(rng.randint(0, 3)):
            j = rng.randint(0, len(weights))
            w = rng.choice(magnitudes) * rng.choice((-1, 1))
            src = rng.choice((0, mask, int(str(mask))))
            weights.insert(j, w)
            srcs.insert(j, src)
            ones += abs(w) * ((src == mask) != (w < 0))
            folded.add((src == mask, src is mask or not src, (w > 0) - (w < 0)))
        row_sums = [
            sum(
                abs(w) * (((src >> v) & 1) ^ (w < 0))
                for w, src in zip(weights, srcs)
            )
            for v in range(width)
        ]
        total = sum(map(abs, weights))
        # the last two are a folded bound of 1 and of the live total where
        # every constant source is the ``mask`` object
        for bound in (
            -5, 0, 1, total // 2, total // 2 + 1, total, total + 1,
            ones + 1, ones + live_total,
        ):
            got = _weighted_at_least(weights, srcs, mask, bound)
            assert got == sum(1 << v for v, r in enumerate(row_sums) if r >= bound)
    assert splits == {"negative": 50, "equal": 50, "positive": 50}
    # (== mask, is the mask object or 0): 0, the mask object, an equal copy
    kinds = ((False, True), (True, True), (True, False))
    assert folded == {(*kind, sign) for kind in kinds for sign in (-1, 0, 1)}


def test_both_gates_evaluate_through_one_core_on_wide_operands():
    # eval_patterns on packed operands of up to 300 rows, some sources 0 or
    # the ``mask`` object itself: a threshold gate against a row-by-row sum,
    # and a tie-free spin gate against its 0/1-domain form
    rng = random.Random(31)
    magnitudes = [0, 1, 2, 3, 5, 8, 1 << 40]
    pinned = tie_free = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        width = rng.randint(1, 300)
        mask = (1 << width) - 1
        srcs = [rng.choice((mask, rng.getrandbits(width), 0)) for _ in range(n)]
        pinned += any(src is mask for src in srcs)
        rows = [tuple((src >> v) & 1 for src in srcs) for v in range(width)]

        weights = tuple(rng.choice(magnitudes) * rng.choice((-1, 1)) for _ in range(n))
        sums = [sum(w * b for w, b in zip(weights, x)) for x in rows]
        for t in (min(sums) - 1, min(sums), rng.choice(sums), max(sums), max(sums) + 1):
            got = ThresholdGate(weights, t).eval_patterns(srcs, mask)
            want = [threshold_eval(weights, t, x) for x in rows]
            assert got == sum(b << v for v, b in enumerate(want))

        weights = tuple(rng.choice(magnitudes[1:]) * rng.choice((-1, 1)) for _ in range(n))
        if 0 not in spin_sums(weights):
            g = SpinMinorityGate(weights)
            want = to_threshold(g).eval_patterns(srcs, mask)
            assert g.eval_patterns(srcs, mask) == want
            tie_free += 1
    assert 0 < pinned < 150 and 0 < tie_free < 150


def test_sweeps_above_the_ceiling_refused():
    with pytest.raises(TooManyInputsError):
        ThresholdGate((1,) * 25, 1).truth_table()
    # an even magnitude sum needs the row sweep to rule out ties, an odd one none
    with pytest.raises(TooManyInputsError):
        SpinMinorityGate((1,) * 26)
    assert SpinMinorityGate((1,) * 25).fan_in == 25
