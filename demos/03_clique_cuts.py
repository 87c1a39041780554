"""Separating clique cuts against a fractional solution.

Given an LP solution, the subgraph of fractional literals is searched
(weighted Bron-Kerbosch with pivoting, pruning and a call budget) for
maximal cliques whose value sum exceeds 1.  Each violated clique is then
extended with integral-valued literals over the full graph, so the cut
stays violated but covers more variables.
"""

from cgcuts import (
    BkParams,
    FractionalPoint,
    MilpInstance,
    Row,
    Variable,
    build,
    cut_to_row,
    separate_cliques,
)

# A fractional triangle x1,x2,x3 plus x4 conflicting with all three.
variables = [Variable(f"x{i}", 0, 1, True) for i in range(1, 5)]
rows = [Row("t", [(0, 1.0), (1, 1.0), (2, 1.0)], "<=", 1.0)]
rows += [Row(f"s{i}", [(3, 1.0), (i, 1.0)], "<=", 1.0) for i in range(3)]
inst = MilpInstance(variables, rows, name="DEMO3")
g = build(inst)

# x4 is integral (0) here, so only the triangle is fractional support.
point = FractionalPoint({0: 0.4, 1: 0.4, 2: 0.4, 3: 0.0})

params = BkParams(max_calls=100_000)
cuts = separate_cliques(g, point, min_viol=0.02, bk_params=params)

for cut in cuts:
    row = cut_to_row(cut, inst.n_vars, "cut")
    names = sorted(inst.node_name(v) for v in cut.members)
    lifted = sorted(inst.node_name(v) for v in cut.lifted_members)
    print("members:", names)
    print("lifted in by extension:", lifted)
    print("violation at the point:", round(cut.violation, 6))
    print("as a row:", row.coeffs, row.sense, row.rhs)

# The triangle alone is violated by 0.2; the extension drags x4 in for
# free (value 0), producing the stronger 4-clique inequality that would
# otherwise take several separation rounds to assemble.
