"""Building a conflict graph from knapsack constraints.

A conflict graph has one node per binary variable and one per complement;
an edge says the two assignments can never hold together.  Rows are first
rewritten in knapsack form (positive coefficients over literals), then a
single sorted sweep with binary searches extracts cliques of conflicting
literals.
"""

from cgcuts import MilpInstance, Row, Variable, build, detect_cliques, normalize_to_knapsack

variables = [Variable(f"x{i}", 0, 1, True) for i in range(1, 7)]

# -3 x1 + 4 x2 - 5 x3 + 6 x4 + 7 x5 + 8 x6 <= 2
row = Row("c1", [(0, -3.0), (1, 4.0), (2, -5.0), (3, 6.0), (4, 7.0), (5, 8.0)], "<=", 2.0)
inst = MilpInstance(variables, [row], name="DEMO1")

# Negative coefficients flip to the complemented literal and raise the rhs:
[knap] = normalize_to_knapsack(row, inst)
print("knapsack form rhs:", knap.rhs)
print("literals:", [(inst.node_name(lit), a) for lit, a in knap.literals])

# Cliques: activating any two of these literals overloads the row.
print("\ncliques found:")
for clique in detect_cliques(knap):
    print("  {" + ", ".join(sorted(inst.node_name(v) for v in clique)) + "}")

# The graph stores the first clique per row explicitly; every further
# clique is just (outside literal, row, suffix start) -- constant space.
g = build(inst, min_clq_size=0)
print("\nstored first cliques:", [[inst.node_name(v) for v in f] for f in g.store.first])
print("compressed tuples:   ", [(inst.node_name(lit), c, l) for lit, c, l in g.store.addtl])

# Queries hide the storage split entirely.
n = inst.n_vars
x5, x6, nx1 = 4, 5, 0 + n
print("\nx5 conflicts x6?     ", g.conflicting(x5, x6))
print("!x1 conflicts x6?    ", g.conflicting(nx1, x6))
print("neighbors of x6:     ", [inst.node_name(v) for v in g.neighbors(x6)])

# With the default split (min_clq_size=512) the same small cliques live in
# plain adjacency lists instead -- identical answers either way.
g_pairwise = build(inst, min_clq_size=512)
assert all(g.neighbors(v) == g_pairwise.neighbors(v) for v in range(g.n_nodes))
print("\npairwise split gives identical query answers")
