"""Timing loop, spans, percentiles and digests shared by the workloads.

A workload is a list of ops fixed by the seed (one "round"). The harness sets
the workload up several times, then repeats set-up and round until the run
length is spent, times every op with tracing off, and checks every answer
after the round, outside the timed region. In a traced run, rounds alternate
between untraced and traced; the traced rounds call each layer's public
functions in sequence inside spans, and the difference of the two round
medians is the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import resource
import sys
import time
import traceback
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

SETUP_REPEATS = 5  # before the first round
SETUPS_PER_ROUND = 3  # before every round; the last one's ops run

DWTL_MODULES = ("table", "gates", "netlist", "textio", "tsolve", "constructions", "cli")


def fresh_import() -> SimpleNamespace:
    """Import every dwtl module from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "dwtl" or m.startswith("dwtl.")]:
        del sys.modules[name]
    # typing's caches hold the old modules' classes (say, through a Union
    # alias); cleared, as CPython's own leak hunting does, so that memory
    # stays flat however many set-ups a run makes
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    importlib.import_module("dwtl")
    return SimpleNamespace(
        **{m: importlib.import_module(f"dwtl.{m}") for m in DWTL_MODULES}
    )


class Tracer:
    """In-memory spans: name, start, end, parent span, op id and counts."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    @contextmanager
    def span(self, name: str, **counts: int):
        rec: dict[str, Any] = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "counts": counts,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name: [calls, duration, self time]; self time excludes children."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, list[float]] = {}
        for i, rec in enumerate(self.spans):
            dur = rec["end"] - rec["start"]
            row = out.setdefault(rec["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_time[i]
        return out


class NullTracer:
    """Stands in for a Tracer during untraced set-up; records nothing."""

    @contextmanager
    def span(self, name: str, **counts: int):
        yield {"counts": counts}


NULL_TRACER = NullTracer()


@dataclass
class Op:
    """One timed call. ``run`` is the untraced public call, ``traced`` the
    same work split into per-layer public calls inside spans."""

    label: str
    run: Callable[[], Any]
    traced: Callable[[Tracer], Any]
    check: Callable[[Any], str | None]
    canon: Callable[[Any], dict]


@dataclass
class RunStats:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    round_op_times: list[list[float]] = field(default_factory=list)
    untraced_rounds: list[float] = field(default_factory=list)
    traced_rounds: list[float] = field(default_factory=list)
    digest: str | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def digest_of(records: list[dict]) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_rounds(
    setup: Callable[[], list[Op]], seconds: float, tracer: Tracer | None, stats: RunStats
) -> None:
    """Set up SETUP_REPEATS times, then set up SETUPS_PER_ROUND times before
    every round and repeat the round while the next one, taken to last as
    long as the longest so far, still ends within ``seconds`` of the start;
    with a tracer, every second round is traced. Always completes at least
    one untraced round, and one traced round when tracing, so a run on a
    slow host may exceed ``seconds`` by those rounds only."""

    def timed_setup() -> list[Op]:
        gc.collect()  # frees the modules the previous set-up replaced
        t0 = time.perf_counter()
        ops = setup()
        stats.setup_times.append(time.perf_counter() - t0)
        return ops

    start = time.perf_counter()
    for _ in range(SETUP_REPEATS):
        timed_setup()
    min_rounds = 2 if tracer else 1
    reference: list[dict] | None = None
    longest = 0.0  # longest round so far, set-ups and checks included
    r = 0
    while r < min_rounds or time.perf_counter() - start + longest <= seconds:
        t_iter = time.perf_counter()
        for _ in range(SETUPS_PER_ROUND):
            ops = timed_setup()
        stats.labels = [op.label for op in ops]
        traced = tracer is not None and r % 2 == 1
        gc.collect()  # every round starts from the same heap state
        results: list[Any] = []
        times: list[float] = []
        t_round = time.perf_counter()
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                if traced:
                    tracer.op_id = i
                    with tracer.span("op." + op.label):
                        res = op.traced(tracer)
                else:
                    res = op.run()
            except Exception:  # counted as a failed op; the run goes on
                res = _Raised(traceback.format_exc(limit=3))
            times.append(time.perf_counter() - t0)
            results.append(res)
        round_s = time.perf_counter() - t_round
        (stats.traced_rounds if traced else stats.untraced_rounds).append(round_s)
        if not traced:
            stats.round_op_times.append(times)

        records = []
        for op, res in zip(ops, results):
            stats.attempted += 1
            if isinstance(res, _Raised):
                stats.fail(f"{op.label}: raised {res.text}")
                records.append({"raised": True})
                continue
            try:
                problem = op.check(res)
                record = op.canon(res)
            except Exception:  # a malformed answer is a failed op
                problem, record = f"check raised {traceback.format_exc(limit=3)}", {"raised": True}
            if problem:
                stats.fail(f"{op.label}: {problem}")
            records.append(record)
        if reference is None and not traced:
            reference = records
            stats.digest = digest_of(records)
        elif reference is not None:
            # untraced rounds must repeat the first exactly; traced rounds
            # must reach the same verdicts
            for k, (want, got) in enumerate(zip(reference, records)):
                same = got == want if not traced else got.get("verdict") == want.get("verdict")
                if not same:
                    stats.fail(f"{ops[k].label}: round {r} disagrees with round 0")
        longest = max(longest, time.perf_counter() - t_iter)
        r += 1


@dataclass
class _Raised:
    text: str


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def class_p50(stats: RunStats, label: str) -> tuple[float, int]:
    """Median untraced latency of the ops with this label, and their count."""
    xs = [t for ts in stats.round_op_times for lab, t in zip(stats.labels, ts) if lab == label]
    return (percentile(xs, 0.5) if xs else 0.0), len(xs)

