"""Reference answers computed without dwtl's gate, netlist or solver code.

Every check the benchmark makes on an answer compares it with one of these:
plain integer addition for adders, a direct weighted sum per row for
threshold gates, and a row-by-row scan for unateness.
"""

from __future__ import annotations

from fractions import Fraction


def adder_outputs(assignment: dict[str, int], n_bits: int) -> dict[str, int]:
    """Output bits of a + b + cin for an assignment of a0.., b0.., cin."""
    a = sum((assignment[f"a{i}"] & 1) << i for i in range(n_bits))
    b = sum((assignment[f"b{i}"] & 1) << i for i in range(n_bits))
    total = a + b + (assignment["cin"] & 1)
    outs = {f"sum{i}": (total >> i) & 1 for i in range(n_bits)}
    outs["cout"] = (total >> n_bits) & 1
    return outs


def adder_table(n_bits: int, input_order: list[str], output: str) -> int:
    """Packed truth table of one adder output over ``input_order``."""
    bits = 0
    for row in range(1 << len(input_order)):
        assignment = {name: (row >> j) & 1 for j, name in enumerate(input_order)}
        if adder_outputs(assignment, n_bits)[output]:
            bits |= 1 << row
    return bits


def threshold_bits(weights: tuple[int, ...], threshold: int) -> int:
    """Packed table of [sum(w_j x_j) >= T]; input j is bit j of the row."""
    n = len(weights)
    bits = 0
    for row in range(1 << n):
        if sum(w for j, w in enumerate(weights) if (row >> j) & 1) >= threshold:
            bits |= 1 << row
    return bits


def min_weight_sum(n: int, bits: int) -> int:
    """Smallest sum(|w_j|) over integer weights that realize the table with
    some threshold, by trying every weight vector of sum 0, 1, 2, ..."""

    def vectors(k: int, total: int):
        if k == 0:
            if total == 0:
                yield ()
            return
        for mag in range(total + 1):
            for w in {mag, -mag}:
                for rest in vectors(k - 1, total - mag):
                    yield (w,) + rest

    total = 0
    while True:
        for w in vectors(n, total):
            sums = [sum(w[j] for j in range(n) if (row >> j) & 1) for row in range(1 << n)]
            on = [v for row, v in enumerate(sums) if (bits >> row) & 1]
            off = [v for row, v in enumerate(sums) if not (bits >> row) & 1]
            if not on or not off or max(off) < min(on):
                return total
        total += 1


def is_unate(n: int, bits: int) -> bool:
    """True when no input both raises and lowers the function somewhere."""
    for j in range(n):
        up = down = False
        for row in range(1 << n):
            if (row >> j) & 1:
                continue
            lo, hi = (bits >> row) & 1, (bits >> (row | 1 << j)) & 1
            up |= hi > lo
            down |= hi < lo
        if up and down:
            return False
    return True


def cost_fields(net, baseline: int) -> dict:
    """Gate count, fan-in sum, fan-out, depth and reduction of a netlist."""
    fanout: dict[str, int] = {}
    depth = {name: 0 for name in net.inputs}
    for g in net.gates:
        for ref in g.refs:
            fanout[ref] = fanout.get(ref, 0) + 1
        depth[g.name] = 1 + max(depth[r] for r in g.refs)
    for o in net.outputs:
        fanout[o.ref] = fanout.get(o.ref, 0) + 1
    reduction = 100 * (1 - Fraction(len(net.gates), baseline))
    tenths = int((reduction * 10 + Fraction(1, 2)).__floor__())
    sign = "-" if tenths < 0 else ""
    return {
        "gates": len(net.gates),
        "fanin_sum": sum(len(g.refs) for g in net.gates),
        "max_fanout": max(fanout.values()),
        "depth": max(depth[o.ref] for o in net.outputs),
        "inverted_outputs": sum(1 for o in net.outputs if o.invert),
        "baseline": baseline,
        "reduction_percent": f"{sign}{abs(tenths) // 10}.{abs(tenths) % 10}",
        "reduction_percent_rounded": int((reduction + Fraction(1, 2)).__floor__()),
    }
