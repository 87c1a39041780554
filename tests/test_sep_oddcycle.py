import heapq
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from cgcuts import (
    FractionalPoint,
    MilpInstance,
    Row,
    build,
    build_auxiliary,
    oddwheel_to_row,
    separate_odd_cycles,
)
from cgcuts import sep_oddcycle
from cgcuts.sep_clique import FRAC_EPS
from cgcuts.sep_oddcycle import (
    OddCycleCut,
    _canonical_cycle,
    _shortest_path,
    _walk_cycles,
    lift_center,
)
from cgcuts.oracle import probe_pairs

import gen
from brute import _canonical_cycle as oracle_canonical_cycle
from brute import enum_conflict_feasible, enum_odd_cycles


def _aux_edge_weights(aux):
    """Each auxiliary edge as {literal pair: weight}, read from side 0."""
    return {frozenset((aux.nodes[u >> 1], aux.nodes[v >> 1])): w
            for u in range(0, len(aux.adj), 2) for v, w in aux.adj[u]}


def test_auxiliary_single_edge_weights():
    inst = MilpInstance(gen.binary_vars(2), gen.pair_rows([(0, 1)]))
    g = build(inst)
    point = FractionalPoint({0: 0.25, 1: 0.5})
    aux = build_auxiliary(g, point)
    assert aux.nodes == [0, 1, 2, 3]
    # the complement edges x + !x cost (1 - 1) / 2 = 0
    assert _aux_edge_weights(aux) == {
        frozenset((0, 1)): 0.125, frozenset((0, 2)): 0.0, frozenset((1, 3)): 0.0,
    }
    assert aux.clamped_edges == 0
    point2 = FractionalPoint({0: 0.5, 1: 0.5})
    aux2 = build_auxiliary(g, point2)
    assert {w for nbrs in aux2.adj for _, w in nbrs} == {0.0}


def test_auxiliary_five_cycle_structure():
    inst = gen.five_cycle_instance()
    g = build(inst)
    point = FractionalPoint({j: 0.5 for j in range(5)})
    aux = build_auxiliary(g, point)
    assert aux.nodes == list(range(10))  # every literal and its complement
    assert len(aux.adj) == 20
    # each complement conflicts only with its literal
    assert aux.dead == [False] * 5 + [True] * 5
    # 5 cycle edges on both sides; a complement edge keeps only the two
    # arcs leaving its dead end
    n_edges = sum(len(nbrs) for nbrs in aux.adj) // 2
    assert n_edges == 15
    # bipartite: every edge joins opposite sides
    for u, nbrs in enumerate(aux.adj):
        for v, _ in nbrs:
            assert (u % 2) != (v % 2)


def test_auxiliary_leaves_out_literals_without_conflict():
    inst = MilpInstance(gen.binary_vars(3), gen.pair_rows([(0, 1)]))
    g = build(inst)
    aux = build_auxiliary(g, FractionalPoint({0: 0.25, 1: 0.5}))
    # !x3 is active at 1.0 but conflicts with no active literal
    assert aux.nodes == [0, 1, 3, 4]


def test_auxiliary_clamps_and_counts():
    inst = MilpInstance(gen.binary_vars(2), gen.pair_rows([(0, 1)]))
    g = build(inst)
    point = FractionalPoint({0: 0.75, 1: 0.5})
    aux = build_auxiliary(g, point)
    # only x1 + x2 = 1.25 clamps; the complement edges weigh exactly 0
    assert aux.clamped_edges == 1
    assert _aux_edge_weights(aux)[frozenset((0, 1))] == 0.0
    assert all(w >= 0.0 for nbrs in aux.adj for _, w in nbrs)


def test_five_cycle_golden():
    g = build(gen.five_cycle_instance())
    point = FractionalPoint({j: 0.5 for j in range(5)})
    cuts = separate_odd_cycles(g, point)
    assert len(cuts) == 1
    cut = cuts[0]
    assert sorted(cut.cycle) == [0, 1, 2, 3, 4]
    assert len(cut.cycle) == 5
    assert cut.center == frozenset()
    assert cut.violation == pytest.approx(0.5)


def test_triangle_discarded():
    g = build(gen.triangle_instance())
    point = FractionalPoint({j: 0.5 for j in range(3)})
    assert separate_odd_cycles(g, point) == []


def test_odd_wheel_golden():
    inst = gen.odd_wheel_instance()
    g = build(inst)
    point = FractionalPoint({j: 0.5 for j in range(5)} | {5: 0.0, 6: 0.0, 7: 0.0})
    cuts = separate_odd_cycles(g, point)
    assert len(cuts) == 1
    cut = cuts[0]
    assert sorted(cut.cycle) == [0, 1, 2, 3, 4]
    assert cut.center == frozenset({5, 6, 7})
    row = oddwheel_to_row(cut, inst.n_vars, "wheel")
    assert row.coeffs == [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0),
                          (5, 2.0), (6, 2.0), (7, 2.0)]
    assert row.rhs == 2.0
    assert cut.violation == pytest.approx(0.5)


def test_lift_center_empty_when_no_full_conflicts():
    g = build(gen.five_cycle_instance())
    point = FractionalPoint({j: 0.5 for j in range(5)})
    assert lift_center(g, (0, 1, 2, 3, 4), point) == frozenset()


def test_oddwheel_to_row_plain_cycle():
    cut = OddCycleCut((0, 1, 2, 3, 4), frozenset(), 0.5)
    row = oddwheel_to_row(cut, 5)
    assert row.coeffs == [(j, 1.0) for j in range(5)]
    assert row.rhs == 2.0


def test_oddwheel_to_row_complement_shifts_rhs():
    n = 5
    cut = OddCycleCut((0, 1, 2, 3 + n, 4), frozenset(), 0.1)
    row = oddwheel_to_row(cut, n)
    # !x4 contributes -x4 and lowers the rhs by one
    assert row.coeffs == [(0, 1.0), (1, 1.0), (2, 1.0), (3, -1.0), (4, 1.0)]
    assert row.rhs == 1.0
    # substituted row agrees with the literal form on every 0/1 point
    for bits in range(1 << n):
        p = [(bits >> j) & 1 for j in range(n)]
        lit_lhs = p[0] + p[1] + p[2] + (1 - p[3]) + p[4]
        sub_lhs = sum(a * p[j] for j, a in row.coeffs)
        assert (lit_lhs <= 2) == (sub_lhs <= row.rhs)


def test_cut_constructor_validates():
    with pytest.raises(ValueError):
        OddCycleCut((0, 1, 2), frozenset(), 0.0)
    with pytest.raises(ValueError):
        OddCycleCut((0, 1, 2, 3, 4, 5), frozenset(), 0.0)


def test_walk_cycle_decomposition():
    # a triangle and two 5-cycles through vertex 0 -> only the 5-cycles
    walk = [0, 1, 2, 0, 3, 4, 5, 6, 0, 7, 8, 9, 10, 0]
    cycles = _walk_cycles(walk)
    assert sorted(sorted(c) for c in cycles) == [[0, 3, 4, 5, 6], [0, 7, 8, 9, 10]]
    # revisit that shortcuts to one 5-cycle
    walk = [9, 0, 1, 2, 3, 4, 0, 9]
    [cyc] = [c for c in _walk_cycles(walk) if len(c) >= 3]
    assert sorted(cyc) == [0, 1, 2, 3, 4]


def test_canonical_cycle_matches_oracle():
    # the O(k) form against the oracle's scan of all 2k rotations and
    # reflections, on cycles of distinct members as _walk_cycles yields
    rng = random.Random(5)
    for _ in range(2000):
        cyc = rng.sample(range(40), rng.randint(3, 15))
        assert _canonical_cycle(cyc) == oracle_canonical_cycle(cyc)
    assert _canonical_cycle([7, 2, 9, 4, 5]) == (2, 7, 5, 4, 9)  # reflected


def _graph_dicts(g, point):
    adj = gen.graph_adjacency(g)
    values = {v: point.lit_value(v, g.n_vars) for v in range(g.n_nodes)}
    return adj, values


def _random_cycle_fixture(rng):
    """Sparse triangle-free conflicts with a planted odd cycle plus noise.

    Triangles are the clique separator's territory (size-3 cycles are
    discarded here) and a chord on a 5-cycle always forms one, so
    triangle-free noise keeps the odd-cycle machinery honestly testable.
    Values stay at or below 0.5, which keeps every edge inequality
    satisfied and the auxiliary weights unclamped.
    """
    n = rng.randint(5, 7)
    cyc_len = rng.choice([5, 5, 7])
    if cyc_len > n:
        cyc_len = 5
    cyc_members = rng.sample(range(n), cyc_len)
    adj = {v: set() for v in range(n)}

    def connect(a, b):
        adj[a].add(b)
        adj[b].add(a)

    pairs = [(cyc_members[i], cyc_members[(i + 1) % cyc_len]) for i in range(cyc_len)]
    for a, b in pairs:
        connect(a, b)
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(range(n), 2)
        if b in adj[a] or (adj[a] & adj[b]):
            continue  # existing edge or would close a triangle
        connect(a, b)
        pairs.append((a, b))
    inst = MilpInstance(gen.binary_vars(n), gen.pair_rows(pairs))
    values = {j: rng.uniform(0.2, 0.5) for j in range(n)}
    if rng.random() < 0.75:
        for j in cyc_members:
            values[j] = rng.uniform(0.44, 0.5)
    return inst, FractionalPoint(values)


def test_random_cycles_valid_and_complete():
    rng = random.Random(61)
    found_some = 0
    for _ in range(150):
        inst, point = _random_cycle_fixture(rng)
        g = build(inst)
        n = inst.n_vars
        cuts = separate_odd_cycles(g, point)
        adj, values = _graph_dicts(g, point)
        oracle_cycles = enum_odd_cycles(adj, values, tol=1e-7)
        if oracle_cycles:
            assert cuts, "oracle found a violated odd cycle but the separator did not"
            found_some += 1
        feasible = enum_conflict_feasible(probe_pairs(inst).edges, n)
        for cut in cuts:
            assert len(cut.cycle) % 2 == 1 and len(cut.cycle) >= 5
            # consecutive members conflict (cyclically)
            for i, a in enumerate(cut.cycle):
                assert g.conflicting(a, cut.cycle[(i + 1) % len(cut.cycle)])
            for c in cut.center:
                assert all(g.conflicting(c, j) for j in cut.cycle)
            assert cut.violation > 0.0
            row = oddwheel_to_row(cut, n)
            for p in feasible:
                assert sum(a * p[j] for j, a in row.coeffs) <= row.rhs + 1e-9
    assert found_some >= 20  # the suite actually exercised violated fixtures


def test_dedup_one_cut_per_cycle():
    g = build(gen.five_cycle_instance())
    point = FractionalPoint({j: 0.5 for j in range(5)})
    cuts = separate_odd_cycles(g, point)
    # five sources all rediscover the same canonical cycle
    assert len(cuts) == 1


def test_cuts_sorted_by_violation():
    rng = random.Random(62)
    for _ in range(40):
        inst, point = _random_cycle_fixture(rng)
        g = build(inst)
        cuts = separate_odd_cycles(g, point)
        viols = [c.violation for c in cuts]
        assert viols == sorted(viols, reverse=True)


def _conflict_row(name, a, b, n):
    """The row that makes literals a and b conflict: a + b <= 1 with
    every complemented literal !x_j written as 1 - x_j."""
    coeffs, rhs = [], 1.0
    for lit in (a, b):
        if lit < n:
            coeffs.append((lit, 1.0))
        else:
            coeffs.append((lit - n, -1.0))
            rhs -= 1.0
    return Row(name, coeffs, "<=", rhs)


def _exactness_fixture(seed):
    """Two planted odd cycles (some members complemented), a two-literal
    wheel center, noise conflicts and an 8-variable set-packing row.

    Three variables at 0 or 1 sit in no row, which gives isolated literals
    at 0 and at 1; values of 0.5 and 0.45-0.48 make both literals of a variable active;
    0.5 + 0.5 and 0.6 + 0.5 give zero-weight and clamped auxiliary edges,
    so the heap sees ties.  With ``min_clq_size=4`` the packing row stays
    in the tuple store.
    """
    rng = random.Random(seed)
    n = 22
    order = list(range(n))
    rng.shuffle(order)
    isolated, cyc_a, cyc_b, center, rest = (
        order[:4], order[4:9], order[9:16], order[16:18], order[18:])
    values = {j: float(k % 2) for k, j in enumerate(isolated)}
    pairs = []
    cycle_lits = []
    for cyc in (cyc_a, cyc_b):
        lits = [j + n * (rng.random() < 0.3) for j in cyc]
        for j, lit in zip(cyc, lits):
            lv = rng.choice([0.5, 0.5, 0.48, 0.45])
            values[j] = lv if lit < n else 1.0 - lv
        pairs += [(lits[i], lits[(i + 1) % len(lits)]) for i in range(len(lits))]
        cycle_lits.append(lits)
    for c in center:
        values[c] = 0.0
        pairs += [(c, lit) for lit in cycle_lits[0]]
    pairs.append((center[0], center[1]))
    for j in rest:
        values[j] = rng.choice([0.5, 0.6, 0.3, 0.0])
    pool = cyc_b + rest
    for _ in range(6):
        a, b = rng.sample(pool, 2)
        pairs.append((a + n * (rng.random() < 0.2), b))
    rows = [_conflict_row(f"e{i}", a, b, n) for i, (a, b) in enumerate(pairs)]
    packing = sorted(rest + [cyc_b[0], isolated[0]])
    rows.append(Row("pack", [(j, 1.0) for j in packing], "<=", 1.0))
    return MilpInstance(gen.binary_vars(n), rows), FractionalPoint(values)


# (cycle, sorted center, violation to 9 decimals) per fixture seed, as the
# dict-based search returned them.  Breaking heap ties by the larger node
# id instead changes the cuts of seeds 15, 33, 43 and 44.
EXACT_CUTS = {
    2: [
        ((0, 2, 19, 41, 8, 16, 3, 14, 22), (), 0.51),
        ((4, 6, 15, 7, 17), (5, 9), 0.4),
    ],
    15: [
        ((11, 18, 13, 31, 19), (5, 7), 0.33),
    ],
    33: [
        ((5, 7, 10, 32, 12), (), 0.6),
        ((0, 11, 2, 13, 19), (15, 16), 0.46),
    ],
    43: [
        ((0, 20, 42, 18, 6, 30, 22), (), 0.5),
        ((5, 34, 16, 43, 39), (3, 11), 0.43),
    ],
    44: [
        ((0, 22, 18, 21, 43), (), 0.48),
        ((1, 17, 21, 7, 4, 22, 18), (), 0.48),
        ((1, 18, 22, 4, 7, 21, 31), (), 0.48),
        ((2, 6, 14, 15, 33), (5, 12), 0.48),
        ((4, 7, 21, 18, 22), (), 0.48),
    ],
}


def test_exactness_fixtures_cover_ties_and_skips():
    zero = clamped = skipped = both = 0
    for seed in EXACT_CUTS:
        inst, point = _exactness_fixture(seed)
        g = build(inst, min_clq_size=4)
        assert any(g.store.first_stored)
        aux = build_auxiliary(g, point)
        zero += sum(1 for nbrs in aux.adj for _, w in nbrs if w == 0.0)
        clamped += aux.clamped_edges
        listed = set(aux.nodes)
        skipped += sum(1 for v in range(2 * inst.n_vars)
                       if point.lit_value(v, inst.n_vars) > FRAC_EPS and v not in listed)
        both += sum(1 for v in aux.nodes if v < inst.n_vars and v + inst.n_vars in aux.nodes)
    assert zero and clamped and skipped and both


def test_dead_end_arcs_weigh_zero():
    """A dead end's one arc weighs exactly 0.0, on both copies: its
    neighbor is its complement, or its complement is at most FRAC_EPS and
    the weight rounds to <= 0 and is clamped.  The separator relies on it
    to search a dead end's walk from its neighbor's other copy.  Values
    sit at FRAC_EPS and 1 - FRAC_EPS and one ulp to either side."""
    rng = random.Random(66)
    edge = [FRAC_EPS, 1.0 - FRAC_EPS]
    edge += [math.nextafter(x, to) for x in edge for to in (0.0, 1.0)]
    cases = [(*_exactness_fixture(seed), 4) for seed in range(40)]
    for _ in range(2000):
        inst = gen.random_binary_instance(rng, n_vars=rng.randint(3, 10))
        values = {j: rng.choice(edge + [0.0, 0.5, 1.0, rng.random()]) for j in range(inst.n_vars)}
        cases.append((inst, FractionalPoint(values), rng.choice([0, 4])))
    covered = Counter()
    for inst, point, mcs in cases:
        n = inst.n_vars
        aux = build_auxiliary(build(inst, min_clq_size=mcs), point)
        for i, end in enumerate(aux.dead):
            if not end or not aux.adj[2 * i]:
                continue
            [(v, w)] = aux.adj[2 * i]
            assert w == 0.0 and aux.adj[2 * i + 1] == [(v ^ 1, 0.0)], (inst, point)
            nbr, comp = aux.nodes[v >> 1], (aux.nodes[i] + n) % (2 * n)
            if nbr == comp:
                covered["complement"] += 1
            else:
                covered["clamped"] += 1
                # The neighbor's value exceeds the complement's by under 1e-15.
                covered["clamped at the edge"] += (
                    point.lit_value(nbr, n) - point.lit_value(comp, n) < 1e-15)
    floors = {"complement": 2500, "clamped": 1000, "clamped at the edge": 100}
    assert all(covered[k] >= floor for k, floor in floors.items()), covered


@pytest.mark.parametrize("seed", sorted(EXACT_CUTS))
def test_search_matches_recorded_cuts(seed):
    inst, point = _exactness_fixture(seed)
    g = build(inst, min_clq_size=4)
    cuts = separate_odd_cycles(g, point)
    got = [(c.cycle, tuple(sorted(c.center)), round(c.violation, 9)) for c in cuts]
    assert got == EXACT_CUTS[seed]


def _reference_auxiliary(g, point):
    """The double cover of every active literal, arcs into dead ends
    included, as built from each one's ``neighbors`` tuple."""
    n = g.n_vars
    nodes = [v for v in range(2 * n) if point.lit_value(v, n) > FRAC_EPS]
    index = {v: i for i, v in enumerate(nodes)}
    adj = [[] for _ in range(2 * len(nodes))]
    clamped = 0
    for a in nodes:
        ia = index[a]
        va = point.lit_value(a, n)
        for b in g.neighbors(a):
            if b <= a or b not in index:
                continue
            ib = index[b]
            w = (1.0 - va - point.lit_value(b, n)) / 2.0
            if w < 0.0:
                w = 0.0
                clamped += 1
            adj[2 * ia].append((2 * ib + 1, w))
            adj[2 * ib + 1].append((2 * ia, w))
            adj[2 * ia + 1].append((2 * ib, w))
            adj[2 * ib].append((2 * ia + 1, w))
    return SimpleNamespace(nodes=nodes, adj=adj, clamped_edges=clamped)


def _reference_shortest_path(adj, source, target):
    """Dijkstra from ``source`` to ``target`` with ``(dist, node)`` heap
    entries, strict relaxation, a push on every improvement and a stop
    when the target is popped, written apart from the separator's search
    so that the reference does not call the code it checks.  Returns the
    path (None when the target is unreachable) and whether no improvement
    set ``dist[v]`` to the distance ``v ^ 1`` held."""
    dist = [math.inf] * len(adj)
    prev = [-1] * len(adj)
    dist[source] = 0.0
    heap = [(0.0, source)]
    clean = True
    while heap:
        d, u = heapq.heappop(heap)
        if u == target:
            break
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            if d + w < dist[v]:
                clean = clean and d + w != dist[v ^ 1]
                dist[v] = d + w
                prev[v] = u
                heapq.heappush(heap, (d + w, v))
    if dist[target] == math.inf:
        return None, clean
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    return path[::-1], clean


def _reference_separate_odd_cycles(g, point):
    """The search without dead-end pruning: every literal with an
    auxiliary edge is searched from on the full double cover, and chord
    costs come from ``conflicting``.  Also returns, per kept cycle, the
    literals whose search found it."""
    n = g.n_vars
    aux = _reference_auxiliary(g, point)
    found = {}
    for local in range(len(aux.nodes)):
        if not aux.adj[2 * local]:
            continue
        path, _ = _reference_shortest_path(aux.adj, 2 * local, 2 * local + 1)
        if path is None:
            continue
        walk = [aux.nodes[a >> 1] for a in path]
        for cyc in _walk_cycles(walk):
            if len(cyc) < 5 or len(cyc) % 2 == 0:
                continue
            cost = 0.0
            for i, a in enumerate(cyc):
                for b in cyc[i + 1:]:
                    if g.conflicting(a, b):
                        w = (1.0 - point.lit_value(a, n) - point.lit_value(b, n)) / 2.0
                        cost += max(0.0, w)
            if cost < 0.5 - 1e-9:
                found.setdefault(_canonical_cycle(cyc), []).append(aux.nodes[local])
    cuts = []
    for cycle in found:
        center = lift_center(g, cycle, point)
        half = (len(cycle) - 1) // 2
        violation = (math.fsum(point.lit_value(v, n) for v in cycle)
                     + half * math.fsum(point.lit_value(v, n) for v in center) - half)
        cuts.append(OddCycleCut(cycle, center, violation))
    return sorted(cuts, key=lambda c: (-c.violation, c.cycle)), found


def _cut_list(cuts):
    return [(c.cycle, tuple(sorted(c.center)), repr(c.violation)) for c in cuts]


def _exactness_cases():
    for seed in range(400):
        inst, point = _exactness_fixture(seed)
        yield f"exactness seed {seed}", build(inst, min_clq_size=4), point
    rng = random.Random(64)
    for draw in range(150):
        inst, point = _random_cycle_fixture(rng)
        yield f"random cycle draw {draw}", build(inst), point


def _record_searches(monkeypatch):
    """Replace the separator's search by one that appends each source."""
    sources = []
    search = sep_oddcycle._shortest_path

    def recording(adj, source, target):
        sources.append(source)
        return search(adj, source, target)

    monkeypatch.setattr(sep_oddcycle, "_shortest_path", recording)
    return sources


def _core_literals(aux):
    """The literals the separator's searches number, in their order: those
    of the reference cover ``aux`` with an auxiliary edge.  Search node
    ``u`` is the copy ``u & 1`` of literal ``_core_literals(aux)[u >> 1]``."""
    return [v for i, v in enumerate(aux.nodes) if aux.adj[2 * i]]


def test_pruned_search_matches_reference_pipeline(monkeypatch):
    searches = []
    search = sep_oddcycle._shortest_path

    def recording(adj, source, target):
        path, clean = search(adj, source, target)
        searches.append((source, clean))
        return path, clean

    monkeypatch.setattr(sep_oddcycle, "_shortest_path", recording)
    covered = Counter()
    for case, g, point in _exactness_cases():
        ref, found = _reference_separate_odd_cycles(g, point)
        searches.clear()
        assert _cut_list(separate_odd_cycles(g, point)) == _cut_list(ref), case
        aux = _reference_auxiliary(g, point)
        # Each search's source, through its literal, as a local index of aux.
        core = _core_literals(aux)
        index = {v: i for i, v in enumerate(aux.nodes)}
        sources = [(index[core[s >> 1]], s & 1, clean) for s, clean in searches]
        # dead end -> its one neighbor, by local index
        dead = {i: aux.adj[2 * i][0][0] >> 1
                for i in range(len(aux.nodes)) if len(aux.adj[2 * i]) == 1}
        ends = {b for b in dead.values() if b not in dead}  # their neighbors
        tied = set()
        for k, (b, side, clean) in enumerate(sources):
            assert b not in dead, case
            if side:
                # From 2b + 1 only right after a tied search from 2b, and
                # only for a dead end's neighbor.
                assert k and sources[k - 1] == (b, 0, False) and b in ends, case
                covered["reverse searches"] += 1
            elif not clean:
                tied.add(b)
        # The walk of every dead end whose neighbor's search tied is searched.
        assert {b for b, side, _ in sources if side} == tied & ends, case
        for b in dead.values():
            if b in dead:
                covered["lone edges"] += 1
                continue
            covered["dead ends"] += 1
            covered["dead ends of a tied search" if b in tied
                    else "dead ends of a clean search"] += 1
        covered["cuts"] += len(ref)
        dead_lits = {aux.nodes[i] for i in dead}
        covered["cuts only from dead ends"] += sum(
            1 for lits in found.values() if all(v in dead_lits for v in lits))
    # Seeds 278 and 352 hold a cycle that the reference finds only from
    # dead ends, and the separator only by a reverse search.
    floors = {"dead ends": 1000, "lone edges": 50, "cuts": 500,
              "cuts only from dead ends": 2, "dead ends of a clean search": 1500,
              "dead ends of a tied search": 1500, "reverse searches": 3000}
    assert all(covered[k] >= floor for k, floor in floors.items()), covered


def test_each_search_matches_reference_on_full_cover(monkeypatch):
    """Every search the separator runs, read as (literal, side) pairs, is
    the reference search between the same two copies on the full double
    cover less its arcs into dead ends, tie flag included: neither
    numbering only the literals with an edge nor skipping pushes past the
    target changes a path or a flag.  Pushes are counted through
    ``heapq.heappush``, which both searches call, to show that the skips
    happen."""
    pushes = [0]
    heappush = heapq.heappush

    def counting_push(heap, item):
        pushes[0] += 1
        heappush(heap, item)

    monkeypatch.setattr(heapq, "heappush", counting_push)
    searches = []
    search = sep_oddcycle._shortest_path

    def recording(adj, source, target):
        before = pushes[0]
        path, clean = search(adj, source, target)
        searches.append((source, target, path and list(path), clean, pushes[0] - before))
        return path, clean

    monkeypatch.setattr(sep_oddcycle, "_shortest_path", recording)
    covered = Counter()
    for case, g, point in _exactness_cases():
        searches.clear()
        separate_odd_cycles(g, point)
        aux = _reference_auxiliary(g, point)
        dead = [len(aux.adj[2 * i]) == 1 for i in range(len(aux.nodes))]
        live = [[arc for arc in arcs if not dead[arc[0] >> 1]] for arcs in aux.adj]
        core = _core_literals(aux)
        index = {v: i for i, v in enumerate(aux.nodes)}
        for source, target, path, clean, n_pushed in searches:
            src, tgt = ((core[u >> 1], u & 1) for u in (source, target))
            before = pushes[0]
            ref, ref_clean = _reference_shortest_path(live, 2 * index[src[0]] + src[1],
                                                      2 * index[tgt[0]] + tgt[1])
            ref_pushed = pushes[0] - before
            got = path and [(core[u >> 1], u & 1) for u in path]
            want = ref and [(aux.nodes[u >> 1], u & 1) for u in ref]
            assert (got, clean) == (want, ref_clean), (case, src, tgt)
            assert n_pushed <= ref_pushed, (case, src, tgt)
            covered["searches"] += 1
            covered["unreachable"] += ref is None
            covered["ties"] += not clean
            covered["searches that skip a push"] += n_pushed < ref_pushed
        covered["cases with a literal left out"] += len(core) < len(aux.nodes)
    floors = {"searches": 10000, "unreachable": 3, "ties": 8000,
              "searches that skip a push": 3000,
              "cases with a literal left out": 400}
    assert all(covered[k] >= floor for k, floor in floors.items()), covered


def test_clean_search_is_mirrored_from_the_other_copy():
    covered = Counter()
    for case, g, point in _exactness_cases():
        aux = build_auxiliary(g, point)
        for b in range(len(aux.nodes)):
            if aux.dead[b]:
                continue
            path, clean = _shortest_path(aux.adj, 2 * b, 2 * b + 1)
            if not clean:
                covered["ties"] += 1
            elif path is None:
                covered["unreachable"] += 1
            else:
                mirror = _shortest_path(aux.adj, 2 * b + 1, 2 * b)
                assert mirror == ([v ^ 1 for v in path], True), case
                covered["mirrored"] += 1
    assert covered["mirrored"] >= 2000 and covered["ties"] >= 3000, covered


def test_five_cycle_searches_once_per_mirror_pair(monkeypatch):
    g = build(gen.five_cycle_instance())
    point = FractionalPoint({j: 0.45 for j in range(5)})
    ref, _ = _reference_separate_odd_cycles(g, point)
    sources = _record_searches(monkeypatch)
    cuts = separate_odd_cycles(g, point)
    # x1..x5 are searched; each complement is a dead end at weight 0.
    assert sources == [0, 2, 4, 6, 8]
    assert len(cuts) == 1 and _cut_list(cuts) == _cut_list(ref)
    assert cuts[0].violation == pytest.approx(0.25)


def test_auxiliary_matches_neighbors_and_calls_none():
    rng = random.Random(65)
    cases = [(_exactness_fixture(seed), 4) for seed in range(40)]
    for _ in range(40):
        inst = gen.random_binary_instance(rng, n_vars=rng.randint(6, 16))
        cases.append(((inst, gen.random_point(rng, inst)), rng.choice([0, 4, 512])))
    inst = gen.tuple_store_instance()
    cases += [((inst, gen.random_point(rng, inst)), mcs) for mcs in (0, 4, 512)]
    stored = tuples = 0
    for (inst, point), mcs in cases:
        g = build(inst, min_clq_size=mcs)
        stored += any(g.store.first_stored)
        tuples += bool(g.store.addtl)
        calls = gen.count_neighbors_calls(g)
        aux = build_auxiliary(g, point)
        assert calls == [0]
        for a in range(g.n_nodes):
            if not g.store.blocks[a]:
                assert g.neighbors(a) is g.adjlist[a]
        ref = _reference_auxiliary(g, point)
        # The reference renumbered over the literals with an edge, less its
        # arcs into dead ends.
        core = _core_literals(ref)
        index = {v: i for i, v in enumerate(ref.nodes)}
        ids = {index[lit]: k for k, lit in enumerate(core)}
        dead = [len(ref.adj[2 * index[lit]]) == 1 for lit in core]
        adj = [[(2 * ids[v >> 1] | v & 1, w) for v, w in ref.adj[u] if not dead[ids[v >> 1]]]
               for lit in core for u in (2 * index[lit], 2 * index[lit] + 1)]
        assert (aux.nodes, aux.adj, aux.dead, aux.clamped_edges) == (
            core, adj, dead, ref.clamped_edges)
    assert stored >= 20 and tuples >= 5
