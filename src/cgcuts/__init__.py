"""Conflict graphs for 0-1 programs.

Builds conflict graphs from model constraints, strengthens set-packing
rows via clique extension, and separates clique and lifted odd-cycle
cutting planes against externally supplied fractional solutions.
"""

import importlib

from .cgraph import (
    CliqueStore,
    ConflictGraph,
    RowCliques,
    build,
    detect_cliques,
    detect_cliques_compressed,
)
from .model import (
    FractionalPoint,
    KnapsackRow,
    MilpInstance,
    ParseError,
    Row,
    Variable,
    complement_node,
    literals_to_row,
    normalize_to_knapsack,
    parse_mps,
    read_point,
    write_mps,
)
from .presolve import StrengthenReport, extend_clique, strengthen

# The separators and Bron-Kerbosch load on first use of one of their names
# (PEP 562), so ``stats`` and ``strengthen`` never import them.
_LAZY = {
    "BkParams": "bk",
    "BkResult": "bk",
    "WeightedSubgraph": "bk",
    "find_cliques": "bk",
    "CliqueCut": "sep_clique",
    "cut_to_row": "sep_clique",
    "extend_cut": "sep_clique",
    "separate_cliques": "sep_clique",
    "OddCycleCut": "sep_oddcycle",
    "build_auxiliary": "sep_oddcycle",
    "lift_center": "sep_oddcycle",
    "oddwheel_to_row": "sep_oddcycle",
    "separate_odd_cycles": "sep_oddcycle",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "BkParams",
    "BkResult",
    "CliqueCut",
    "CliqueStore",
    "ConflictGraph",
    "FractionalPoint",
    "KnapsackRow",
    "MilpInstance",
    "OddCycleCut",
    "ParseError",
    "Row",
    "RowCliques",
    "StrengthenReport",
    "Variable",
    "WeightedSubgraph",
    "build",
    "build_auxiliary",
    "complement_node",
    "cut_to_row",
    "detect_cliques",
    "detect_cliques_compressed",
    "extend_clique",
    "extend_cut",
    "find_cliques",
    "lift_center",
    "literals_to_row",
    "normalize_to_knapsack",
    "oddwheel_to_row",
    "parse_mps",
    "read_point",
    "separate_cliques",
    "separate_odd_cycles",
    "strengthen",
    "write_mps",
]

__version__ = "0.1.0"
