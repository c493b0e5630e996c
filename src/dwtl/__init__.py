"""Weighted spin-minority / threshold logic toolkit.

``import dwtl`` loads no submodule: each public name below imports its home
module on first access (PEP 562), so a process pays only for what it uses.
"""

import importlib

_HOME = {
    name: module
    for module, names in {
        "gates": ("SpinMinorityGate", "ThresholdGate", "TieError"),
        "netlist": (
            "CONST_ONE", "CostReport", "Counterexample", "EquivalenceResult",
            "GateDef", "Netlist", "NetlistError", "OutputDef",
            "check_equivalence", "check_equivalence_sampled", "cost_report",
        ),
        "table": ("MAX_INPUTS", "TooManyInputsError", "TruthTable"),
        "textio": (
            "ParseError", "format_truth_table", "parse_netlist",
            "parse_truth_table", "print_netlist",
        ),
        "tsolve": (
            "NotThreshold", "ThresholdRealization", "enumerate_threshold_functions",
            "minimize_weights", "solve_threshold", "threshold_tables_by_search",
        ),
        "constructions": ("constructions",),  # the module itself
    }.items()
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = module if name == _HOME[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
