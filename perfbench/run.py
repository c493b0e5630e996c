"""dwtl benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the repository root; dwtl is imported from ./src. Prints every
metric by name with its unit, the op counts behind each percentile and a
digest of the canonical outputs, then one JSON line with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1). A traced run
also writes its spans to .perfbench/spans-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("verify", "synth", "classify", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("peak_rss_mb", "MB"),
)


def _layer(name: str, *extra: tuple[str, str]) -> list[tuple[str, str]]:
    metrics = [(f"{name}.calls", "count"), (f"{name}.busy_s", "s")]
    return metrics + [(f"{name}.{key}", unit) for key, unit in extra]


PER_LAYER = (
    _layer("textio.parse_netlist")
    + _layer("textio.print_netlist")
    + _layer("constructions.generate")
    + _layer("constructions.adder_spec_tables", ("rows", "count"))
    + _layer("constructions.reference", ("vectors", "count"))
    + _layer("table.input_pattern")
    + _layer("gates.truth_table")
    + _layer("netlist.evaluate_patterns", ("gate_vectors", "count"), ("ns_per_gate_vector", "ns"))
    + _layer("netlist.compare")
    + _layer("tsolve.solve_threshold", ("rows_posed", "count"))
    + [m for tag in ("feasible", "infeasible", "n3", "n4", "n5", "n6")
       for m in _layer(f"tsolve.solve_threshold.{tag}")]
    + _layer("tsolve.minimize_weights")
    + _layer("tsolve.enumerate", ("functions", "count"), ("threshold_found", "count"))
    + [("cli.interpreter_s", "s"), ("cli.import_s", "s")]
    + [m for sub in ("gen", "verify", "solve", "report", "tt", "eval")
       for m in _layer(f"cli.{sub}")]
    + [
        ("exhaustive_op_s.p50", "s"),
        ("sampled_op_s.p50", "s"),
        ("solve_feasible_op_s.p50", "s"),
        ("solve_infeasible_op_s.p50", "s"),
        ("minimize_op_s.p50", "s"),
        ("trace.run_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def layer_metrics(tracer, traced_rounds: int) -> dict[str, float]:
    """Per-layer totals: per traced round for op spans, per set-up for set-up spans."""
    out: dict[str, float] = {}
    for rec in tracer.spans:
        if rec["name"].startswith("op."):
            continue
        share = 1.0 if rec["op"] is None else 1.0 / traced_rounds
        dur = (rec["end"] - rec["start"]) * share
        for name in [rec["name"]] + [f"{rec['name']}.{t}" for t in rec.get("tags", ())]:
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + share
            out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + dur
        for key, value in rec["counts"].items():
            k = f"{rec['name']}.{key}"
            out[k] = out.get(k, 0) + value * share
    ev = "netlist.evaluate_patterns"
    if out.get(f"{ev}.gate_vectors"):
        out[f"{ev}.ns_per_gate_vector"] = out[f"{ev}.busy_s"] * 1e9 / out[f"{ev}.gate_vectors"]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dwtl" / "__init__.py").is_file():
        print(f"error: no dwtl package under {SRC}; run from a dwtl checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # turn SIGTERM into SystemExit, so the work directory is removed and a
    # running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import harness

    wl = importlib.import_module(f"wl_{args.workload}")
    tracer = harness.Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    stats = harness.RunStats()
    try:
        if tracer:
            wl.setup(harness.fresh_import(), args.seed, tracer, workdir)
        harness.run_rounds(
            lambda: wl.setup(harness.fresh_import(), args.seed, harness.NULL_TRACER, workdir),
            args.seconds, tracer, stats,
        )
        extra = {}
        if tracer and hasattr(wl, "interpreter_costs"):
            extra = wl.interpreter_costs(wl.child_env())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [t for ts in stats.round_op_times for t in ts]
    per_op = [statistics.median(ts) for ts in zip(*stats.round_op_times)]
    e2e = {
        "setup_s": statistics.median(stats.setup_times),
        "run_s": statistics.median(stats.untraced_rounds),
        "op_s.p50": harness.percentile(times, 0.5),
        # over each op's median across rounds: a host stall moves an op's
        # median only when it hits that op in half of the rounds, where the
        # pooled 90th percentile moves once stalls hit a tenth of all ops
        "op_s.p90": harness.percentile(per_op, 0.9),
        "peak_rss_mb": harness.peak_rss_mb(children=args.workload == "cli"),
    }
    n_ops = len(times)
    n_rounds = len(stats.round_op_times)
    per_round = len(stats.labels)
    above_p90 = per_round - int(0.9 * (per_round - 1)) - 1
    lines = [
        f"workload {args.workload} seed {args.seed}: {len(stats.untraced_rounds)} untraced"
        f" and {len(stats.traced_rounds)} traced rounds of {len(stats.labels)} ops",
        f"setup_s {e2e['setup_s']:.6f} s (median of {len(stats.setup_times)} set-ups)",
        f"run_s {e2e['run_s']:.6f} s (median of {len(stats.untraced_rounds)} untraced rounds)",
        f"op_s.p50 {e2e['op_s.p50']:.6f} s ({n_ops} ops, {n_ops // 2} above)",
        f"op_s.p90 {e2e['op_s.p90']:.6f} s ({per_round} per-op medians over {n_rounds}"
        f" rounds, {above_p90} above; {n_ops} ops)",
    ]
    splits = {}
    for name in wl.OP_CLASSES:
        value, count = harness.class_p50(stats, name)
        splits[f"{name}_op_s.p50"] = value
        lines.append(f"{name}_op_s.p50 {value:.6f} s ({count} ops)")
    lines += [
        f"peak_rss_mb {e2e['peak_rss_mb']:.3f} MB"
        + (" (largest child)" if args.workload == "cli" else ""),
        f"fail_ratio {stats.failed / stats.attempted:.6f}"
        f" ({stats.failed} of {stats.attempted} ops failed)",
        f"digest {args.workload} seed {args.seed}: {stats.digest}",
    ]
    lines += [f"FAILED {e}" for e in stats.errors]

    if tracer:
        layers = layer_metrics(tracer, len(stats.traced_rounds))
        layers.update(extra)
        layers.update(splits)
        layers["trace.run_s"] = statistics.median(stats.traced_rounds)
        layers["trace.overhead_s"] = layers["trace.run_s"] - e2e["run_s"]
        metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
        lines.append("span name: calls, busy s, self s (all traced rounds and the traced set-up)")
        for name, (calls, busy, own) in sorted(tracer.self_times().items()):
            lines.append(f"  {name}: {calls}, {busy:.6f}, {own:.6f}")
        lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    for line in lines:
        print(line)
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
