"""Conflict graphs for 0-1 programs.

Builds conflict graphs from model constraints, strengthens set-packing
rows via clique extension, and separates clique and lifted odd-cycle
cutting planes against externally supplied fractional solutions.
"""

from .bk import BkParams, BkResult, WeightedSubgraph, find_cliques
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
from .sep_clique import CliqueCut, cut_to_row, extend_cut, separate_cliques
from .sep_oddcycle import (
    OddCycleCut,
    build_auxiliary,
    lift_center,
    oddwheel_to_row,
    separate_odd_cycles,
)

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
