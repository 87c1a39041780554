"""Separating odd-cycle cuts and lifting wheel centers.

An odd cycle of pairwise-conflicting literals admits the inequality
"at most half of them": sum over the cycle <= (|O|-1)/2.  Violated odd
cycles are found by shortest paths in a bipartite double cover of the
conflict graph, one Dijkstra run per literal.  A found cycle is lifted by
inserting a clique of literals conflicting with the whole cycle into the
wheel center, each with coefficient (|O|-1)/2.
"""

from cgcuts import (
    FractionalPoint,
    MilpInstance,
    Row,
    Variable,
    build,
    build_auxiliary,
    oddwheel_to_row,
    separate_odd_cycles,
)

# 5-cycle x1..x5; x6,x7,x8 conflict with every cycle vertex and pairwise.
variables = [Variable(f"x{i}", 0, 1, True) for i in range(1, 9)]
pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
pairs += [(c, i) for c in (5, 6, 7) for i in range(5)]
pairs += [(5, 6), (5, 7), (6, 7)]
rows = [Row(f"e{i}", [(a, 1.0), (b, 1.0)], "<=", 1.0) for i, (a, b) in enumerate(pairs)]
inst = MilpInstance(variables, rows, name="DEMO4")
g = build(inst)

# All cycle variables at one half: the cycle sums to 2.5 > 2.
point = FractionalPoint({j: 0.5 for j in range(5)} | {5: 0.0, 6: 0.0, 7: 0.0})

# The auxiliary graph doubles each literal; edge weight (1 - vi - vj)/2
# makes cheap paths correspond to heavily violated cycles.
aux = build_auxiliary(g, point)
print("auxiliary nodes:", len(aux.adj), " clamped weights:", aux.clamped_edges)

cuts = separate_odd_cycles(g, point)
for cut in cuts:
    print("\ncycle: ", [inst.node_name(v) for v in cut.cycle])
    print("center:", sorted(inst.node_name(v) for v in cut.center))
    print("violation:", round(cut.violation, 6))
    row = oddwheel_to_row(cut, inst.n_vars, "wheel")
    terms = " + ".join(f"{a:g} {inst.variables[j].name}" for j, a in row.coeffs)
    print("cut row:", terms, "<=", f"{row.rhs:g}")

# The plain cycle inequality x1+...+x5 <= 2 is already violated by 0.5;
# the lifted wheel adds 2*x6 + 2*x7 + 2*x8 on the left at no cost, since
# activating any center variable forces the whole cycle to zero.
