"""classify: enumerate_threshold_functions(n) for n = 1-4.

A round is enumerate(1) and enumerate(2) twice each, enumerate(3) eight
times, enumerate(4) once and enumerate(3) eight times more: 21 ops.
enumerate(4) takes most of the round's time and sets run_s; the n = 3
sweeps fill the 20%-95% band of latencies, so op_s.p50 and op_s.p90 both
fall among them. They run on both sides of enumerate(4), so that the
percentiles sample the host at two times per round rather than one. The
workload generates nothing from the seed: its input is the set of all
functions of up to four inputs. Counts must be 4 / 14 / 104 / 1882, and
the n = 3 and n = 4 sets must equal the bounded weight search, which
shares no code with the LP.
"""

from __future__ import annotations

import hashlib

from harness import Op, Tracer

COUNTS = {1: 4, 2: 14, 3: 104, 4: 1882}
SEARCH_MAX_WEIGHT = {3: 2, 4: 3}
PLAN = [1, 2] * 2 + [3] * 8 + [4] + [3] * 8
OP_CLASSES = ()

_search_tables: dict[int, frozenset] = {}  # memo of a pure function of n


def setup(mods, seed: int, tr, workdir) -> list[Op]:
    return [_make_op(mods.tsolve, n) for n in PLAN]


def _make_op(T, n: int) -> Op:
    def run():
        return T.enumerate_threshold_functions(n)

    def traced(tr: Tracer):
        with tr.span("tsolve.enumerate", functions=1 << (1 << n)) as rec:
            result = T.enumerate_threshold_functions(n)
        rec["counts"]["threshold_found"] = result.count
        return result

    def check(result) -> str | None:
        if result.count != COUNTS[n] or len(result.tables) != COUNTS[n]:
            return f"n={n}: {result.count} threshold functions, want {COUNTS[n]}"
        if n in SEARCH_MAX_WEIGHT:
            if n not in _search_tables:
                _search_tables[n] = T.threshold_tables_by_search(n, SEARCH_MAX_WEIGHT[n])
            if set(result.tables) != _search_tables[n]:
                return f"n={n}: table set differs from the bounded search"
        return None

    def canon(result) -> dict:
        tables = hashlib.sha256(repr(result.tables).encode()).hexdigest()[:16]
        return {"verdict": [result.count, tables]}

    return Op(f"n{n}", run, traced, check, canon)
