"""Size ladders: each op runs on one structure at sizes k, 2k and 4k, and
the work it does is counted, not timed.

Work is counted the way the other tests count it: ``neighbors`` calls
through ``gen.count_neighbors_calls`` and the entries those calls return,
the candidates ``_conflicting_in`` tests, and ``heapq.heappush`` calls.
No count may grow more than ``GROWTH`` times from one size to the next:
an O(k log k) op stays under it, and a quadratic one reads 4.
"""

import heapq
import random

from cgcuts import FractionalPoint, MilpInstance, Row, build, separate_odd_cycles, strengthen

import gen

GROWTH = 2.5


def _assert_ladder(rungs):
    """``rungs`` holds one dict of counts per size, each size double the
    last; each count grows at most ``GROWTH`` times per doubling, and the
    largest size counts some work."""
    for small, large in zip(rungs, rungs[1:]):
        for key, n in small.items():
            assert large[key] <= GROWTH * n, (key, rungs)
    assert any(rungs[-1].values()), rungs


def _count_reads(g):
    """Counts the reads of ``g`` from now on; the returned function gives
    the counts so far."""
    calls = gen.count_neighbors_calls(g)
    totals = {"entries read": 0, "candidates tested": 0}
    neighbors, conflicting_in = g.neighbors, g._conflicting_in

    def counted_neighbors(a):
        nbrs = neighbors(a)
        totals["entries read"] += len(nbrs)
        return nbrs

    def counted_conflicting_in(a, cands):
        totals["candidates tested"] += len(cands)
        return conflicting_in(a, cands)

    g.neighbors, g._conflicting_in = counted_neighbors, counted_conflicting_in
    return lambda: {"neighbors calls": calls[0], **totals}


def test_build_and_strengthen_grow_linearly_over_disjoint_blocks():
    # Block b is the triangle x(3b), x(3b+1), x(3b+2) written as three pair
    # rows: the first extends to the triangle and the other two land
    # inside it.
    rungs = []
    for k in (50, 100, 200):
        rows = gen.pair_rows([(3 * b + i, 3 * b + j) for b in range(k)
                              for i, j in ((0, 1), (1, 2), (0, 2))])
        inst = MilpInstance(gen.binary_vars(3 * k), rows)
        g = build(inst)
        counts = _count_reads(g)
        report = strengthen(inst, g)
        assert report.extended == [(3 * b, 1) for b in range(k)]
        assert len(report.removed_rows) == 2 * k
        rungs.append({"adjacency entries built": g.adj_entries, **counts()})
    _assert_ladder(rungs)


def test_strengthen_inside_a_stored_row_grows_linearly():
    # 20 four-literal rows inside one k-literal row, which is stored at
    # every size: the first extends to the whole row and the other 19 land
    # inside the extension.
    rungs = []
    for k in (500, 1000, 2000):
        rng = random.Random(32)
        rows = [Row("big", [(j, 1.0) for j in range(k)], "<=", 1.0)]
        rows += [Row(f"p{i}", [(j, 1.0) for j in sorted(rng.sample(range(k), 4))], "<=", 1.0)
                 for i in range(20)]
        inst = MilpInstance(gen.binary_vars(k), rows)
        g = build(inst, min_clq_size=100)
        counts = _count_reads(g)
        report = strengthen(inst, g)
        assert report.extended == [(1, k - 4)]
        assert report.removed_rows == list(range(2, 21))
        rungs.append(counts())
    _assert_ladder(rungs)


def test_odd_cycle_separation_grows_linearly_over_disjoint_cycles(monkeypatch):
    # k disjoint 5-cycles at 0.45 each give one cut, violated by 0.25.
    pushes = [0]
    heappush = heapq.heappush

    def counting_push(heap, item):
        pushes[0] += 1
        heappush(heap, item)

    monkeypatch.setattr(heapq, "heappush", counting_push)
    rungs = []
    for k in (10, 20, 40):
        pairs = [(5 * b + i, 5 * b + (i + 1) % 5) for b in range(k) for i in range(5)]
        g = build(MilpInstance(gen.binary_vars(5 * k), gen.pair_rows(pairs)))
        calls = gen.count_neighbors_calls(g)
        pushes[0] = 0
        cuts = separate_odd_cycles(g, FractionalPoint({j: 0.45 for j in range(5 * k)}))
        assert len(cuts) == k
        assert all(abs(c.violation - 0.25) < 1e-9 for c in cuts)
        rungs.append({"heap pushes": pushes[0], "neighbors calls": calls[0]})
    _assert_ladder(rungs)
