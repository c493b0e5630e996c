"""Command-line interface: evaluate, verify, synthesize, generate, report.

Exit codes: 0 success / equivalent / threshold, 1 verified-false /
not-threshold, 2 usage or input error. Each command imports the modules it
runs, so a process loads only those.
"""

from __future__ import annotations

import argparse
import sys

from .table import DEFAULT_SAMPLE_VECTORS, DEFAULT_SEED, MAX_INPUTS, SOLVE_MAX_INPUTS

TYPE_CHECKING = False  # not typing.TYPE_CHECKING: importing typing costs 3-4 ms
if TYPE_CHECKING:
    from .netlist import Netlist

# style -> builder in dwtl.constructions
GEN_STYLES = {"minority": "minority_adder", "weighted": "ripple_adder", "nand": "nand_adder"}


def _load_netlist(path: str) -> Netlist:
    from .textio import parse_netlist

    with open(path, "r", encoding="utf-8") as fh:
        return parse_netlist(fh.read())


def _emit(args, text_lines: list[str], payload: dict) -> None:
    if args.format == "json":
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_eval(args) -> int:
    from .netlist import NetlistError

    net = _load_netlist(args.netlist)
    assignment = {}
    for pair in args.set.split(","):
        if "=" not in pair:
            raise NetlistError(f"bad assignment '{pair}', expected name=0|1")
        name, _, value = pair.partition("=")
        if value not in ("0", "1"):
            raise NetlistError(f"input '{name}' must be 0 or 1, got '{value}'")
        name = name.strip()
        if name in assignment:
            raise NetlistError(f"input '{name}' is set more than once")
        assignment[name] = int(value)
    outs = net.evaluate(assignment)
    line = " ".join(f"{o.name}={outs[o.name]}" for o in net.outputs)
    _emit(args, [line], {"outputs": outs})
    return 0


def _cmd_tt(args) -> int:
    from .textio import format_truth_table

    net = _load_netlist(args.netlist)
    tables = net.truth_tables()
    lines = [
        f"{o.name} = {format_truth_table(tables[o.name])}" for o in net.outputs
    ]
    _emit(
        args,
        lines,
        {"tables": {name: format_truth_table(tt) for name, tt in tables.items()}},
    )
    return 0


def _parse_spec(spec: str):
    """Returns either ('adder', n_bits) or ('tables', {name: TruthTable})."""
    from .netlist import NetlistError
    from .textio import ParseError, parse_truth_table

    if spec.startswith("adder:"):
        try:
            return ("adder", int(spec[len("adder:"):]))
        except ValueError:
            raise NetlistError(f"bad spec '{spec}', expected adder:<n>") from None
    tables = {}
    end = -1  # index of the comma after the item, or len(spec)
    for item in spec.split(","):
        end += 1 + len(item)
        if "=" not in item:
            raise NetlistError(
                f"bad spec item '{item}', expected <output>=<n:hex>"
            )
        name, _, value = item.partition("=")
        name = name.strip()
        if name in tables:
            raise NetlistError(f"output '{name}' is specified more than once")
        try:
            tables[name] = parse_truth_table(value)
        except ParseError as exc:  # the column within ``spec``, and the output
            column = end - len(value) + exc.column
            raise ParseError(1, column, f"output '{name}': {exc.reason}") from None
    return ("tables", tables)


def _cmd_verify(args) -> int:
    from . import constructions
    from .netlist import NetlistError, _check_sampling, check_equivalence
    from .netlist import check_equivalence_sampled

    net = _load_netlist(args.netlist)
    kind, spec = _parse_spec(args.spec)
    _check_sampling(args.seed, args.vectors)  # whichever mode the netlist gets
    n_free = len(net.free_inputs)
    if kind == "adder":
        expect_inputs = constructions.adder_names(spec)
        if sorted(net.free_inputs) != sorted(expect_inputs):
            raise NetlistError(
                f"netlist inputs {sorted(net.free_inputs)} do not match "
                f"adder:{spec} inputs {sorted(expect_inputs)}"
            )
        if n_free <= MAX_INPUTS:
            tables = constructions.adder_spec_tables(spec, net.free_inputs)
            result = check_equivalence(net, tables)
        else:
            result = check_equivalence_sampled(
                net,
                constructions.adder_reference_patterns(spec),
                seed=args.seed,
                num_vectors=args.vectors,
            )
    else:
        if n_free > MAX_INPUTS:
            raise NetlistError(
                f"inline truth-table specs need <= {MAX_INPUTS} inputs; "
                f"netlist has {n_free}"
            )
        result = check_equivalence(net, spec)

    if result.mode == "exhaustive":
        how = f"{result.vectors_checked}/{result.vectors_checked} rows exhaustive"
    else:
        how = (
            f"{result.vectors_checked}/{result.vectors_checked} vectors "
            f"random sampling, seed=0x{result.seed:x}"
        )
    payload = {
        "equivalent": result.equivalent,
        "mode": result.mode,
        "vectors_checked": result.vectors_checked,
    }
    if result.seed is not None:
        payload["seed"] = result.seed
    if result.equivalent:
        _emit(args, [f"EQUIVALENT ({how})"], payload)
        return 0
    cx = result.counterexample
    payload["counterexample"] = {
        "assignment": cx.assignment,
        "output": cx.output,
        "got": cx.got,
        "want": cx.want,
    }
    assign = ",".join(f"{k}={v}" for k, v in cx.assignment.items())
    _emit(
        args,
        [
            f"NOT EQUIVALENT ({how})",
            f"counterexample: {assign} -> {cx.output} got {cx.got}, want {cx.want}",
        ],
        payload,
    )
    return 1


def _cmd_solve(args) -> int:
    from .textio import parse_truth_table
    from .tsolve import NotThreshold, minimize_weights, solve_threshold

    tt = parse_truth_table(args.tt)
    result = minimize_weights(tt) if args.minimize else solve_threshold(tt)
    if isinstance(result, NotThreshold):
        _emit(
            args,
            ["NOT THRESHOLD"],
            {
                "threshold": False,
                "num_constraints": result.num_constraints,
            },
        )
        return 1
    gate = result.gate
    weights = ",".join(str(w) for w in gate.weights)
    lines = [
        f"THRESHOLD weights={weights} T={gate.threshold} "
        f"sum_abs_w={gate.weight_magnitude_sum} "
        f"minimal={'yes' if result.minimal else 'no'}"
    ]
    _emit(
        args,
        lines,
        {
            "threshold": True,
            "weights": list(gate.weights),
            "T": gate.threshold,
            "sum_abs_w": gate.weight_magnitude_sum,
            "minimal": result.minimal,
        },
    )
    return 0


def _cmd_gen(args) -> int:
    from . import constructions
    from .textio import print_netlist

    net = getattr(constructions, GEN_STYLES[args.style])(args.bits)
    text = print_netlist(net)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_report(args) -> int:
    from .netlist import cost_report

    net = _load_netlist(args.netlist)
    report = cost_report(net, args.baseline)
    one_dp = report.reduction_one_decimal()
    rounded = report.reduction_rounded()
    line = (
        f"gates={report.gate_count} fanin_sum={report.fanin_sum} "
        f"max_fanout={report.max_fanout} depth={report.depth} "
        f"inverted_outputs={report.inverted_outputs} "
        f"baseline={report.baseline_count} "
        f"reduction={one_dp}% (≈{rounded}%)"
    )
    _emit(
        args,
        [line],
        {
            "gates": report.gate_count,
            "fanin_sum": report.fanin_sum,
            "max_fanout": report.max_fanout,
            "depth": report.depth,
            "inverted_outputs": report.inverted_outputs,
            "baseline": report.baseline_count,
            "reduction_percent": one_dp,
            "reduction_percent_rounded": rounded,
        },
    )
    return 0


def _int_literal(text: str) -> int:  # decimal, 0x.., 0o.. or 0b..
    return int(text, 0)


_int_literal.__name__ = "int"  # argparse says "invalid int value: '010'"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwtl",
        description="Weighted spin-minority / threshold logic toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default text)",
        )

    p = sub.add_parser("eval", help="evaluate a netlist on one input vector")
    p.add_argument("netlist")
    p.add_argument("--set", required=True, metavar="a=1,b=0,...",
                   help="comma-separated input assignment")
    add_format(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("tt", help="print exhaustive truth tables per output")
    p.add_argument("netlist")
    add_format(p)
    p.set_defaults(func=_cmd_tt)

    p = sub.add_parser("verify", help="check a netlist against a specification")
    p.add_argument("netlist")
    p.add_argument("--spec", required=True,
                   help="adder:<n> or <out>=<n:hex>[,<out>=<n:hex>...]")
    p.add_argument("--seed", type=_int_literal, default=DEFAULT_SEED,
                   help="PRNG seed for sampled verification (default 0xd0da11)")
    p.add_argument("--vectors", type=_int_literal, default=DEFAULT_SAMPLE_VECTORS,
                   help="random vector count for wide netlists")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="synthesize single-gate threshold weights")
    p.add_argument("--tt", required=True, metavar="n:hex",
                   help="truth table, e.g. 3:0x96")
    p.add_argument("--minimize", action="store_true",
                   help=f"minimize total |w| (exact, n <= {SOLVE_MAX_INPUTS})")
    add_format(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="generate an adder netlist")
    p.add_argument("circuit", choices=("adder",))
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--style", choices=tuple(GEN_STYLES), required=True)
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("report", help="gate-count and reduction report")
    p.add_argument("netlist")
    p.add_argument("--baseline", type=int, default=15,
                   help="baseline device count (default 15, for a 1-bit adder)")
    add_format(p)
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError, NetlistError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
